"""Spans around every call into the program's public functions.

``Tracer.install`` replaces every binding of every public function of
the ``balancedcover`` modules: the defining module's attribute, each
module that imported the function by name, and module-level dicts that
hold it (such as the LP builder table).  Each call then records a span
(name, start, end, parent, operation) in memory, plus a few counts read
from the returned object, and adds the time it spends outside the wrapped
call to ``overhead_s``.  ``uninstall`` puts the originals back.

``layer_metrics`` folds the spans of a run into the per-layer metrics
named in BENCHMARK.json.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path

import balancedcover

_clock = time.perf_counter

LP_BUILDERS = {"lp.build_lp", "lp.build_min_lp", "lp.build_max_lp", "lp.build_avg_lp"}
INGEST_PARSERS = {"ingest.parse_sequences", "ingest.parse_fasta"}
ORACLE_DECISIONS = {"oracle.perfect_balance_exists", "oracle.size_s_cover_exists"}


def _annotate(name: str, args, kwargs, result) -> dict | None:
    """Counts taken from a call's arguments and returned object."""
    if name == "simplex.solve_simplex":
        return {"iterations": result.iterations}
    if name == "lp.solve_lp":
        problem = args[0] if args else kwargs["problem"]
        return {
            "formulation": problem.formulation.value,
            "iterations": result.stats.iterations,
            "residual_bound": result.stats.residual_bound,
        }
    if name == "rounding.solve_end_to_end":
        return {"restarts": len(result.outcomes)}
    if name == "oracle.exact_optimum":
        return {"subsets": result.enumerated + (result.enumerated_at_most or 0)}
    if name == "ingest.build_instance":
        return {"cells": result.num_clones * result.num_probes}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = -1
        # time the wrappers spend outside the wrapped calls: what tracing adds
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = _clock()
            span = {"name": name, "start": 0.0, "end": 0.0, "parent": stack[-1] if stack else None, "op": self.op}
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                span["start"] = _clock()
                result = fn(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = _clock()
                stack.pop()
            attrs = _annotate(name, args, kwargs, result)
            if attrs:
                span.update(attrs)
            self.overhead_s += (span["start"] - entered) + (_clock() - span["end"])
            return result

        return traced

    def install(self) -> None:
        modules = [
            importlib.import_module(f"balancedcover.{info.name}")
            for info in pkgutil.iter_modules(balancedcover.__path__)
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == mod.__name__:
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for mod in modules + [balancedcover]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._saved.append((vars(mod), attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._saved.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._saved):
            namespace[key] = original
        self._saved.clear()

    def write(self, path: Path, metrics: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"metrics": metrics, "spans": self.spans}) + "\n")


# ----------------------------------------------------------------------


def layer_metrics(spans: list[dict], rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics, each summed over the traced rounds and divided by their count."""
    names = [s["name"] for s in spans]
    parents = ["" if s["parent"] is None else names[s["parent"]] for s in spans]
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[i]

    def total(pred) -> float:
        return sum(d for i, d in enumerate(dur) if pred(i))

    def count(pred) -> int:
        return sum(1 for i in range(len(spans)) if pred(i))

    def attr(pred, key) -> float:
        return sum(spans[i].get(key, 0) for i in range(len(spans)) if pred(i))

    def named(*wanted):
        return lambda i: names[i] in wanted

    def outermost(group):
        """Spans of the group not called from inside the group."""
        return lambda i: names[i] in group and parents[i] not in group

    def in_module(module):
        return lambda i: names[i].startswith(module + ".")

    def self_time(module) -> float:
        return sum(dur[i] - child_time[i] for i in range(len(spans)) if in_module(module)(i))

    m = {}
    simplex = named("simplex.solve_simplex")
    m["simplex.solve_s"] = total(simplex)
    m["simplex.solves"] = count(simplex)
    m["simplex.iterations"] = attr(simplex, "iterations")
    for form in ("minlp", "maxlp", "avglp"):
        solves = {i for i, s in enumerate(spans) if names[i] == "lp.solve_lp" and s.get("formulation") == form}
        m[f"simplex.{form}.iterations"] = attr(lambda i: i in solves, "iterations")
        m[f"simplex.{form}.solve_s"] = total(lambda i: simplex(i) and spans[i]["parent"] in solves)
    m["simplex.us_per_iteration"] = _rate(1e6 * m["simplex.solve_s"], m["simplex.iterations"])
    m["simplex.max_residual_bound"] = max((s["residual_bound"] for s in spans if "residual_bound" in s), default=0.0)

    m["lp.build_s"] = total(outermost(LP_BUILDERS))
    m["lp.builds"] = count(outermost(LP_BUILDERS))

    rounding = named("rounding.solve_end_to_end")
    rounding_spans = {i for i in range(len(spans)) if rounding(i)}
    lp_inside = total(lambda i: in_module("lp")(i) and spans[i]["parent"] in rounding_spans)
    m["rounding.self_s"] = self_time("rounding")
    m["rounding.restarts"] = attr(rounding, "restarts")
    m["rounding.us_per_restart"] = _rate(1e6 * (total(rounding) - lp_inside), m["rounding.restarts"])

    for short, name in (("evaluate", "core.evaluate"), ("degrees", "core.compute_degrees")):
        m[f"core.{short}_s"] = total(named(name))
        m[f"core.{short}_calls"] = count(named(name))

    build = named("ingest.build_instance")
    m["ingest.parse_s"] = total(outermost(INGEST_PARSERS))
    m["ingest.build_s"] = total(build)
    m["ingest.cells_per_s"] = _rate(attr(build, "cells"), m["ingest.build_s"])

    m["formats.read_s"] = total(named("formats.read_matrix"))
    m["formats.write_s"] = total(named("formats.write_matrix", "formats.dump_result"))
    m["generators.s"] = total(lambda i: in_module("generators")(i) and not parents[i].startswith("generators."))

    optimum = named("oracle.exact_optimum")
    refused = lambda i: optimum(i) and "error" in spans[i]  # noqa: E731
    m["oracle.optimum_s"] = total(lambda i: optimum(i) and not refused(i) and parents[i] != "oracle.exact_all_objectives")
    m["oracle.all_objectives_s"] = total(named("oracle.exact_all_objectives"))
    m["oracle.decision_s"] = total(named(*ORACLE_DECISIONS))
    m["oracle.refusal_s"] = total(refused)
    m["oracle.subsets"] = attr(optimum, "subsets")
    m["oracle.subsets_per_s"] = _rate(m["oracle.subsets"], m["oracle.optimum_s"] + m["oracle.all_objectives_s"])

    m["cli.self_s"] = self_time("cli")

    unscaled = ("simplex.us_per_iteration", "simplex.max_residual_bound", "rounding.us_per_restart",
                "ingest.cells_per_s", "oracle.subsets_per_s")
    m = {k: v if k in unscaled else v / rounds for k, v in m.items()}
    m["trace.overhead_s"] = overhead_s
    return m


def _rate(amount: float, per: float) -> float:
    return amount / per if per else 0.0
