"""LP formulations of the three relaxations and their solutions."""

import dataclasses
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
    solve_sweep,
    to_lp_text,
)
from balancedcover import lp as lp_module
from balancedcover.errors import SolverError
from balancedcover.lp import FractionalSolution, maxlp_from_minlp
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


READ_OFF_MINLP = "read off the MinLP solve at the same s"


def assert_read_off_minlp(maxlp, minlp, s):
    """MaxLP's z* is s/2 - z*_MinLP, its x* MinLP's raised to sum s lowest index first, its stats MinLP's."""
    exact = isinstance(minlp.z_star, Fraction)
    assert maxlp.formulation is Formulation.MAXLP
    assert maxlp.z_star == (Fraction(s, 2) if exact else s / 2) - minlp.z_star
    x = list(minlp.x)
    short = s - sum(x)
    for i in range(len(x)):
        if short <= (0 if exact else 1e-9):
            break
        step = min(1 - x[i], short)
        x[i] += step
        short -= step
    assert list(maxlp.x) == (x if exact else pytest.approx(x, abs=1e-12))
    assert all(
        np.array_equal(getattr(maxlp.stats, f.name), getattr(minlp.stats, f.name))
        for f in dataclasses.fields(minlp.stats)
    )


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

    # (formulation, s) -> (z*, iterations, basis) of the exact solve, which starts from the slack
    # basis with the crash clones at 1; any change to the engine that moves exact mode's pivot
    # sequence shows here.  MaxLP is no LP of its own: it is read off the MinLP solve at the same s.
    # AvgLP is solved as the L1 fit: columns 0-7 are x, 8-14 the k_j and 15-23 the slacks of its 9 rows
    EXACT_PIVOT_PATH = {
        (Formulation.MINLP, 3): (Fraction(7, 5), 8, (9, 8, 11, 4, 2, 14, 1, 16, 17, 18, 7, 20, 21, 22, 6)),
        (Formulation.MINLP, 6): (Fraction(2), 3, (9, 8, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 0)),
        (Formulation.MAXLP, 3): READ_OFF_MINLP,
        (Formulation.MAXLP, 6): READ_OFF_MINLP,
        (Formulation.AVGLP, 3): (Fraction(41, 28), 9, (15, 4, 2, 6, 19, 7, 9, 22, 1)),
        (Formulation.AVGLP, 6): (Fraction(20, 7), 4, (15, 16, 5, 18, 19, 7, 21, 22, 0)),
    }

    @pytest.mark.parametrize("form, s", list(EXACT_PIVOT_PATH), ids=lambda v: getattr(v, "value", v))
    def test_exact_pivot_path_is_fixed(self, golden_instance, form, s):
        sol = solve_formulation(golden_instance, s, form, exact=True)
        assert_all_fractions(sol)
        if self.EXACT_PIVOT_PATH[form, s] is READ_OFF_MINLP:
            assert_read_off_minlp(sol, solve_formulation(golden_instance, s, Formulation.MINLP, exact=True), s)
            return
        assert (sol.z_star, sol.stats.iterations, sol.stats.basis) == self.EXACT_PIVOT_PATH[form, s]

    # (formulation, s) -> (z*, iterations, dual_iterations, basis, at_upper) of the crash-started
    # float solve; z* is compared to 1e-9, the pivot path exactly
    FLOAT_PIVOT_PATH = {
        (Formulation.MINLP, 3): (1.4, 8, 0, (9, 8, 11, 4, 2, 14, 1, 16, 17, 18, 7, 20, 21, 22, 6), (3, 5)),
        (Formulation.MINLP, 6): (2.0, 3, 0, (9, 8, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 0), (1, 2, 3, 4, 5, 6)),
        (Formulation.MAXLP, 3): READ_OFF_MINLP,
        (Formulation.MAXLP, 6): READ_OFF_MINLP,
        (Formulation.AVGLP, 3): (41 / 28, 9, 0, (2, 4, 15, 1, 19, 7, 9, 22, 6), (3, 5)),
        (Formulation.AVGLP, 6): (20 / 7, 4, 0, (15, 16, 5, 18, 19, 7, 21, 22, 0), (1, 2, 3, 4, 6)),
    }

    @pytest.mark.parametrize("form, s", list(FLOAT_PIVOT_PATH), ids=lambda v: getattr(v, "value", v))
    def test_float_pivot_path_is_fixed(self, golden_instance, form, s):
        sol = solve_formulation(golden_instance, s, form)
        if self.FLOAT_PIVOT_PATH[form, s] is READ_OFF_MINLP:
            assert_read_off_minlp(sol, solve_formulation(golden_instance, s, Formulation.MINLP), s)
            return
        z, *path = self.FLOAT_PIVOT_PATH[form, s]
        assert sol.z_star == pytest.approx(z, abs=1e-9)
        assert [sol.stats.iterations, sol.stats.dual_iterations, sol.stats.basis, sol.stats.at_upper] == path

    # formulation -> the same fields for each s of the warm-started sweep over s = 2..6
    SWEEP_PIVOT_PATH = {
        Formulation.MINLP: [
            (1.0, 6, 0, (9, 8, 11, 0, 5, 14, 1, 16, 17, 18, 19, 20, 21, 22, 3), ()),
            (1.4, 3, 3, (9, 8, 11, 0, 7, 14, 1, 16, 17, 18, 4, 20, 21, 22, 6), (3, 5)),
            (1.8, 0, 0, (9, 8, 11, 0, 7, 14, 1, 16, 17, 18, 4, 20, 21, 22, 6), (3, 5)),
            (2.0, 1, 1, (9, 8, 11, 0, 7, 14, 1, 16, 17, 18, 4, 20, 21, 22, 13), (3, 5, 6)),
            (2.0, 2, 2, (9, 8, 11, 19, 23, 14, 1, 16, 17, 18, 4, 20, 21, 22, 13), (3, 5, 6)),
        ],
        Formulation.MAXLP: READ_OFF_MINLP,
        Formulation.AVGLP: [
            (1.0, 6, 0, (15, 4, 3, 5, 19, 7, 21, 22, 1), ()),
            (41 / 28, 2, 2, (15, 4, 6, 2, 19, 7, 21, 22, 1), (3, 5)),
            (27 / 14, 0, 0, (15, 4, 6, 2, 19, 7, 21, 22, 1), (3, 5)),
            (67 / 28, 0, 0, (15, 4, 6, 2, 19, 7, 21, 22, 1), (3, 5)),
            (20 / 7, 0, 0, (15, 4, 6, 2, 19, 7, 21, 22, 1), (3, 5)),
        ],
    }

    @pytest.mark.parametrize("form", list(SWEEP_PIVOT_PATH), ids=lambda v: v.value)
    def test_sweep_pivot_path_is_fixed(self, golden_instance, form):
        s_values = [2, 3, 4, 5, 6]
        sweep = solve_sweep(golden_instance, s_values, form)
        if self.SWEEP_PIVOT_PATH[form] is READ_OFF_MINLP:
            minlp = solve_sweep(golden_instance, s_values, Formulation.MINLP)
            for s, sol, base in zip(s_values, sweep, minlp, strict=True):
                assert_read_off_minlp(sol, base, s)
            return
        for sol, (z, *path) in zip(sweep, self.SWEEP_PIVOT_PATH[form], strict=True):
            assert sol.z_star == pytest.approx(z, abs=1e-9)
            assert [sol.stats.iterations, sol.stats.dual_iterations, sol.stats.basis, sol.stats.at_upper] == path

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
        # on the matrix of `bench --size 30x8 --density 0.5 --seed 5` the warm MinLP sweep reads z*
        # up to 1.8e-15 above s/2 at these s, so s/2 - z*_MinLP alone would read below 0
        sweep = solve_sweep(gen_random(30, 8, 0.5, 1428740210282922284), range(1, 31), Formulation.MAXLP)
        for s in (1, 2, 4, 13, 19):
            assert str(sweep[s - 1].z_star) == "0.0"


class TestMaxlpFromMinlp:
    """The rule that reads MaxLP off a MinLP solution, on hand-made MinLP solutions."""

    @staticmethod
    def minlp(z, x):
        return FractionalSolution(Formulation.MINLP, z, np.array(x), stats=None)

    def test_raise_fills_the_lowest_index_first(self):
        sol = maxlp_from_minlp(self.minlp(0.25, [0.5, 1.0, 0.0, 0.25]), 3)
        assert sol.formulation is Formulation.MAXLP
        assert sol.z_star == 1.25
        assert sol.x.tolist() == [1.0, 1.0, 0.75, 0.25]
        assert not sol.x.flags.writeable

    def test_raise_is_exact_on_fractions(self):
        sol = maxlp_from_minlp(self.minlp(Fraction(1, 3), [Fraction(1, 3), Fraction(0), Fraction(1)]), 2)
        assert sol.z_star == Fraction(2, 3)
        assert list(sol.x) == [1, 0, 1]
        assert_all_fractions(sol)

    def test_shortfall_within_the_tolerance_is_left(self):
        x = [0.5, 0.5 - 1e-10, 0.0]
        assert maxlp_from_minlp(self.minlp(0.5, x), 1).x.tolist() == x

    def test_z_within_the_tolerance_of_zero_reads_zero(self):
        for z_min in (0.5 + 2**-52, 0.5 - 1e-10):
            assert str(maxlp_from_minlp(self.minlp(z_min, [1.0]), 1).z_star) == "0.0"
        assert maxlp_from_minlp(self.minlp(0.5 - 1e-8, [1.0]), 1).z_star == pytest.approx(1e-8)

    def test_solve_lp_refuses_the_textbook_maxlp(self, golden_instance):
        with pytest.raises(SolverError, match=r"maxlp\(m=8, n=7, s=6\): solve_lp solves <= rows only"):
            solve_lp(build_lp(golden_instance, 6, Formulation.MAXLP))


class TestResidualCertificate:
    """solve_lp refuses an x* that violates a row or a bound by more than 1e-7 * max(1, max |rhs|)."""

    @staticmethod
    def with_residual(monkeypatch, **residual):
        real = lp_module.solve_simplex
        monkeypatch.setattr(
            lp_module, "solve_simplex", lambda *a, **kw: dataclasses.replace(real(*a, **kw), **residual)
        )

    @pytest.mark.parametrize("field", ["residual_primal", "residual_bound"])
    def test_residual_over_limit_raises(self, golden_instance, monkeypatch, field):
        self.with_residual(monkeypatch, **{field: 1.0})
        with pytest.raises(SolverError, match=r"minlp\(m=8, n=7, s=6\): \w+ residual 1\.000e\+00"):
            solve_formulation(golden_instance, 6, Formulation.MINLP)

    def test_limit_scales_with_rhs(self, golden_instance, monkeypatch):
        # the budget row's rhs s = 6 sets the limit to 6e-7
        self.with_residual(monkeypatch, residual_primal=5e-7, residual_bound=5e-7)
        assert solve_formulation(golden_instance, 6, Formulation.MINLP).stats.residual_bound == 5e-7
        self.with_residual(monkeypatch, residual_bound=7e-7)
        with pytest.raises(SolverError, match="bound residual"):
            solve_formulation(golden_instance, 6, Formulation.MINLP)


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


class TestL1AvgLp:
    """The (n+2)-row L1 fit that solve_formulation and solve_sweep solve for AvgLP."""

    # probes: all-zero, all-one, two whose crash degree is s/2 at s = 2, 4 and 6, and one whose
    # crash degree sits below s/2 at s = 1 and s = 2
    EDGE = np.array(
        [[0, 1, 1, 1, 0], [0, 1, 0, 1, 1], [0, 1, 1, 0, 1], [0, 1, 0, 0, 0], [0, 1, 1, 0, 1], [0, 1, 0, 1, 1]],
        dtype=np.int8,
    )

    @pytest.mark.parametrize("s", range(1, 7))
    def test_slack_start_is_feasible_and_the_optimum_is_avglps(self, s):
        inst = Instance(self.EDGE)
        m, n = self.EDGE.shape
        problem = lp_module._build_l1_avglp(inst, s, s)
        assert (problem.num_rows, problem.num_vars) == (n + 2, m + n)
        crash = lp_module._crash_start(problem)
        start = np.zeros(m + n)
        start[crash] = 1.0
        slack = problem.rhs - problem.A.dot(start)
        # the probe rows' slacks are |deg_j - s/2| of the crash clones; the two budget rows' are 0
        deg = self.EDGE[crash].sum(axis=0)
        assert slack.tolist() == [*np.abs(deg - s / 2), 0.0, 0.0]
        # the ties 2 deg_j = s that the probes were chosen for
        assert (2 * deg == s).any() == (s in (2, 4, 6))
        textbook = build_lp(inst, s, Formulation.AVGLP)
        exact = solve_formulation(inst, s, Formulation.AVGLP, exact=True)
        flt = solve_formulation(inst, s, Formulation.AVGLP)
        assert exact.stats.dual_iterations == flt.stats.dual_iterations == 0
        assert exact.z_star == solve_lp(textbook, exact=True).z_star
        assert flt.z_star == pytest.approx(solve_lp(textbook).z_star, abs=1e-12)
        assert sum(exact.x) == s

    def test_a_sweep_keeps_the_first_budgets_signs(self):
        inst = Instance(self.EDGE)
        first = lp_module._build_l1_avglp(inst, 1, 1)
        later = lp_module._build_l1_avglp(inst, 5, 1)
        # only the right-hand side moves, so a warm start sees the same A and c
        assert np.array_equal(first.A, later.A) and np.array_equal(first.c, later.c)
        assert not np.array_equal(first.A, lp_module._build_l1_avglp(inst, 5, 5).A)
        for s, sol in zip([1, 5], solve_sweep(inst, [1, 5], Formulation.AVGLP)):
            textbook = solve_lp(build_lp(inst, s, Formulation.AVGLP))
            assert sol.z_star == pytest.approx(textbook.z_star, abs=1e-12)


class TestSweepRightHandSide:
    """Each s of a sweep is solved, and certified, against the right-hand side built at that s."""

    SWEEPS = {"golden": [6, 2, 6, 6, 3], "random": list(range(5, 96, 5))}

    @staticmethod
    def instance(which):
        return golden.instance() if which == "golden" else gen_random(100, 30, 0.5, 4242)

    @pytest.mark.parametrize("form", [Formulation.MINLP, Formulation.AVGLP], ids=lambda f: f.value)
    @pytest.mark.parametrize("which", list(SWEEPS))
    def test_primal_residual_reads_the_rhs_of_each_s(self, form, which):
        inst, s_values = self.instance(which), self.SWEEPS[which]
        for s, sol in zip(s_values, solve_sweep(inst, s_values, form), strict=True):
            problem = lp_module._solved_lp(inst, s, form, s_values[0])
            assert sol.stats.residual_primal == float(max(0, (problem.A.dot(sol.stats.x) - problem.rhs).max()))

    @pytest.mark.parametrize("form", [Formulation.MINLP, Formulation.AVGLP], ids=lambda f: f.value)
    def test_a_repeated_s_takes_no_pivot(self, form):
        sweep = solve_sweep(self.instance("golden"), self.SWEEPS["golden"], form)
        # s = 6 solved right after s = 6
        assert sweep[3].stats.iterations == 0
        assert sweep[3].stats.basis == sweep[2].stats.basis


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
