"""LP formulations of the three relaxations and their solutions."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import golden
from balancedcover import (
    Formulation,
    InputError,
    Instance,
    ObjectiveKind,
    build_lp,
    evaluate,
    gen_random,
    solve_formulation,
    solve_lp,
    to_lp_text,
)
from conftest import random_instance


def brute_force(instance, s, kind):
    """Independent integral optimum: scan all size-s subsets directly."""
    best = None
    for subset in combinations(range(instance.num_clones), s):
        sol = evaluate(instance, subset, s)
        value = sol.exact_value(kind)
        if best is None or (value > best if kind.maximize else value < best):
            best = value
    return best


def per_probe_rows(instance, s, formulation):
    """Loop reference for build_lp's constraint matrix and right-hand side."""
    a = instance.adjacency.astype(float)
    m, n = a.shape
    avg = formulation is Formulation.AVGLP
    A = np.zeros((2 * n + 1, m + (n if avg else 1)))
    rhs = np.zeros(2 * n + 1)
    for j in range(n):
        z = m + j if avg else m
        if formulation is Formulation.MAXLP:
            A[2 * j, :m], A[2 * j, z] = a[:, j], -1.0
            A[2 * j + 1, :m], A[2 * j + 1, z] = a[:, j], 1.0
            rhs[2 * j] = rhs[2 * j + 1] = s / 2.0
        else:
            A[2 * j, :m], A[2 * j, z] = -a[:, j], 1.0
            A[2 * j + 1, :m], A[2 * j + 1, z] = a[:, j] - 1.0, 1.0
    A[2 * n, :m] = 1.0
    rhs[2 * n] = s
    return A, rhs


class TestShapes:
    def test_rows_match_per_probe_reference(self, golden_instance):
        # Byte equality also pins the sign of every -0.0 entry.
        rng = np.random.default_rng(97)
        for inst in (golden_instance, random_instance(rng), random_instance(rng)):
            s = inst.num_clones // 2 + 1
            for form in Formulation:
                prob = build_lp(inst, s, form)
                A, rhs = per_probe_rows(inst, s, form)
                assert prob.A.tobytes() == A.tobytes()
                assert prob.rhs.tobytes() == rhs.tobytes()

    def test_min_lp(self, golden_instance):
        prob = build_lp(golden_instance, 6, Formulation.MINLP)
        assert prob.formulation is Formulation.MINLP
        assert prob.maximize
        assert prob.num_rows == 2 * 7 + 1
        assert prob.num_vars == 8 + 1
        assert prob.num_selection_vars == 8
        assert prob.var_names[:2] == ("x1", "x2")
        assert prob.var_names[-1] == "z"
        # x in [0,1], z unbounded above.
        assert prob.lower.tolist() == [0.0] * 9
        assert prob.upper.tolist()[:8] == [1.0] * 8
        assert np.isinf(prob.upper[8])

    def test_max_lp(self, golden_instance):
        prob = build_lp(golden_instance, 6, Formulation.MAXLP)
        assert prob.formulation is Formulation.MAXLP
        assert not prob.maximize
        assert prob.num_rows == 2 * 7 + 1
        assert prob.num_vars == 9

    def test_avg_lp(self, golden_instance):
        prob = build_lp(golden_instance, 6, Formulation.AVGLP)
        assert prob.formulation is Formulation.AVGLP
        assert prob.maximize
        assert prob.num_rows == 2 * 7 + 1
        assert prob.num_vars == 8 + 7
        assert prob.objective_scale == (1, 7)
        assert prob.var_names[8:] == tuple(f"z{j}" for j in range(1, 8))

    def test_build_lp_dispatch(self, golden_instance):
        for form in Formulation:
            assert build_lp(golden_instance, 6, form).formulation is form

    def test_s_out_of_range(self, golden_instance):
        for s in (0, -1, 9):
            for form in Formulation:
                with pytest.raises(InputError):
                    build_lp(golden_instance, s, form)

    def test_problem_arrays_read_only(self, golden_instance):
        prob = build_lp(golden_instance, 6, Formulation.MINLP)
        with pytest.raises(ValueError):
            prob.A[0, 0] = 7.0
        with pytest.raises(ValueError):
            prob.rhs[0] = 7.0


def assert_all_fractions(sol):
    # equality with a Fraction would also pass for an int leaking from the solver
    assert type(sol.z_star) is Fraction
    assert all(type(v) is Fraction for v in sol.x)


class TestGoldenValues:
    def test_min_lp_exact(self, golden_instance):
        sol = solve_formulation(golden_instance, 6, Formulation.MINLP, exact=True)
        assert sol.z_star == golden.MINLP_OPT
        assert_all_fractions(sol)

    def test_avg_lp_exact(self, golden_instance):
        sol = solve_formulation(golden_instance, 6, Formulation.AVGLP, exact=True)
        assert sol.z_star == golden.AVGLP_OPT
        assert_all_fractions(sol)

    def test_max_lp_exact(self, golden_instance):
        sol = solve_formulation(golden_instance, 6, Formulation.MAXLP, exact=True)
        assert sol.z_star == golden.MAXLP_OPT
        assert_all_fractions(sol)

    def test_float_agrees_with_exact(self, golden_instance):
        for form, expect in (
            (Formulation.MINLP, golden.MINLP_OPT),
            (Formulation.AVGLP, golden.AVGLP_OPT),
            (Formulation.MAXLP, golden.MAXLP_OPT),
        ):
            sol = solve_formulation(golden_instance, 6, form)
            assert sol.z_star == pytest.approx(float(expect), abs=1e-9)

    def test_single_cell_instance(self):
        # One clone adjacent to one probe, s=1: any fractional x gives
        # z <= min(x, 1-x) for MinLP/AvgLP per-probe terms, but z is
        # also bounded by the selected mass on the zero side, so the
        # optimum is 0; MaxLP can hedge at x = 1/2.
        inst = Instance(np.array([[1]], dtype=np.int8))
        assert solve_formulation(inst, 1, Formulation.MINLP, exact=True).z_star == 0
        assert solve_formulation(inst, 1, Formulation.AVGLP, exact=True).z_star == 0
        assert solve_formulation(inst, 1, Formulation.MAXLP, exact=True).z_star == Fraction(1, 2)

    def test_all_ones_matrix(self):
        # Every clone hits every probe: the complement side (selected
        # clones missing the probe) is identically zero, pinning MinLP
        # at 0, while MaxLP's forced sum(x) = s leaves every probe at
        # degree s, deviation s/2.
        inst = Instance(np.ones((6, 3), dtype=np.int8))
        assert solve_formulation(inst, 4, Formulation.MINLP, exact=True).z_star == 0
        assert solve_formulation(inst, 4, Formulation.MAXLP, exact=True).z_star == Fraction(2)


class TestSolutionProperties:
    @pytest.mark.parametrize("form", list(Formulation))
    def test_x_within_bounds(self, golden_instance, form):
        sol = solve_formulation(golden_instance, 6, form)
        assert sol.x.shape == (8,)
        assert np.all(sol.x >= -1e-9)
        assert np.all(sol.x <= 1 + 1e-9)

    def test_budget_row_semantics(self, golden_instance):
        # MinLP may select less than s in total; MaxLP must hit s.
        minlp = solve_formulation(golden_instance, 6, Formulation.MINLP)
        maxlp = solve_formulation(golden_instance, 6, Formulation.MAXLP)
        assert float(np.sum(minlp.x)) <= 6 + 1e-9
        assert float(np.sum(maxlp.x)) == pytest.approx(6.0, abs=1e-9)

    def test_deterministic_bit_for_bit(self, golden_instance):
        a = solve_formulation(golden_instance, 6, Formulation.AVGLP)
        b = solve_formulation(golden_instance, 6, Formulation.AVGLP)
        assert a.z_star == b.z_star
        assert np.array_equal(a.x, b.x)
        assert a.stats.iterations == b.stats.iterations
        assert a.stats.basis == b.stats.basis

    def test_x_read_only(self, golden_instance):
        sol = solve_formulation(golden_instance, 6, Formulation.MINLP)
        with pytest.raises(ValueError):
            sol.x[0] = 0.5

    def test_no_negative_zero_reported(self):
        # A MaxLP whose optimum is exactly zero must print as 0.0, also
        # when the float solve leaves z a few ulps below its bound.
        cases = (
            (Instance(np.array([[1, 0], [0, 1]], dtype=np.int8)), 2),
            (gen_random(12, 4, 0.5, 5), 4),
        )
        for inst, s in cases:
            sol = solve_formulation(inst, s, Formulation.MAXLP)
            assert sol.z_star == 0.0
            assert str(sol.z_star) == "0.0"


class TestDominance:
    def test_lp_bounds_integral_optimum(self):
        rng = np.random.default_rng(5150)
        for _ in range(30):
            inst = random_instance(rng, max_m=8, max_n=5)
            s = int(rng.integers(1, inst.num_clones + 1))
            minlp = solve_formulation(inst, s, Formulation.MINLP, exact=True)
            avglp = solve_formulation(inst, s, Formulation.AVGLP, exact=True)
            maxlp = solve_formulation(inst, s, Formulation.MAXLP, exact=True)
            assert minlp.z_star >= brute_force(inst, s, ObjectiveKind.CMIN)
            assert avglp.z_star >= brute_force(inst, s, ObjectiveKind.CAVG)
            assert maxlp.z_star <= brute_force(inst, s, ObjectiveKind.DMAX)

    def test_relaxation_value_ordering(self):
        # Per-probe minimum can never beat the per-probe average.
        rng = np.random.default_rng(6174)
        for _ in range(20):
            inst = random_instance(rng)
            s = int(rng.integers(1, inst.num_clones + 1))
            minlp = solve_formulation(inst, s, Formulation.MINLP, exact=True)
            avglp = solve_formulation(inst, s, Formulation.AVGLP, exact=True)
            assert minlp.z_star <= avglp.z_star


class TestColumnDuplication:
    def test_duplicated_probe_preserves_optimum(self, golden_instance):
        doubled = Instance(
            np.hstack([golden_instance.adjacency, golden_instance.adjacency]).astype(np.int8)
        )
        for form in (Formulation.MINLP, Formulation.MAXLP, Formulation.AVGLP):
            original = solve_formulation(golden_instance, 6, form, exact=True)
            dup = solve_formulation(doubled, 6, form, exact=True)
            assert original.z_star == dup.z_star


class TestLpText:
    def test_min_lp_text(self, golden_instance):
        text = to_lp_text(build_lp(golden_instance, 6, Formulation.MINLP))
        assert text.startswith("\\ minlp(m=8, n=7, s=6)")
        assert "Maximize" in text
        assert "Subject To" in text
        assert "Bounds" in text
        assert "x1" in text and "z" in text
        assert text.endswith("End\n")

    def test_avg_lp_text_notes_scale(self, golden_instance):
        text = to_lp_text(build_lp(golden_instance, 6, Formulation.AVGLP))
        assert "reported optimum = file optimum * 1/7" in text

    def test_max_lp_text_minimizes(self, golden_instance):
        text = to_lp_text(build_lp(golden_instance, 6, Formulation.MAXLP))
        assert "Minimize" in text
