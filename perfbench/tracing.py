"""Per-layer spans recorded from outside the vlpdual package.

`install()` replaces the listed public functions with timing wrappers in
every vlpdual module namespace that binds them, because `duality`, `cone`,
`efficiency` and `sampling` import `solve_lp`, `solve_feasibility` and
friends by name. It also wraps `harness._build_context` and each entry of
`harness._CAMPAIGN_CHECKS`. Nothing in `src/` is edited.

Spans are aggregated as they close, per span name: calls, total time
(outermost activations only) and self time (duration minus the part its
child spans cover). LP solves are attributed to the innermost open span
outside the `lp` and `exact` layers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs traced by name. `solve_linear_system` is split
# into in_lp / outside_lp spans by whether an `lp.solve_lp` span is open.
TRACED = (
    ("lp", "solve_lp"),
    ("lp", "solve_general"),
    ("lp", "solve_feasibility"),
    ("lp", "to_standard_form"),
    ("exact", "solve_linear_system"),
    ("cone", "contains"),
    ("cone", "strictly_below"),
    ("efficiency", "enumerate_vertices"),
    ("efficiency", "is_efficient"),
    ("efficiency", "proper_efficiency_certificate"),
    ("efficiency", "recession_image_pointed"),
    ("sampling", "sample_dual_points"),
    ("sampling", "sample_probe_values"),
    ("duality", "membership_hB"),
    ("duality", "membership_hL"),
    ("duality", "membership_hJ"),
    ("duality", "check_feasible_U"),
    ("duality", "u_feasibility_multiplier"),
    ("duality", "h_H_value_membership"),
    ("duality", "minimize_over_image"),
    ("duality", "map_DH_to_D"),
    ("duality", "construct_dual_solution"),
    ("duality", "recover_primal"),
    ("duality", "dual_B_nonempty"),
    ("duality", "feasible_dual_point"),
    ("duality", "improve_dual_infeasible_primal"),
    ("model", "load_problem"),
)

MEMBERSHIP = ("duality.membership_hB", "duality.membership_hL", "duality.membership_hJ")
_ARITHMETIC_LAYERS = ("lp.", "exact.")


def _bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _outcome_values(out):
    for field in ("x", "y", "farkas", "x0", "ray"):
        vec = getattr(out, field, None)
        if vec is not None:
            yield from vec.entries
    value = getattr(out, "value", None)
    if value is not None:
        yield value


class Tracer:
    """Span aggregates for one process; create one and call `install`."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds, lp solves seen at entry]
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.depth: Counter = Counter()
        self.lp_by_caller: Counter = Counter()
        self.lp_solves = 0
        self.lp_cells_sum = 0
        self.lp_cells_max = 0
        self.lp_input_bits = 0
        self.lp_outcome_bits = 0
        self.membership_no_lp = 0

    def _lp_entry(self, lp) -> None:
        caller = next((f[0] for f in reversed(self.stack) if not f[0].startswith(_ARITHMETIC_LAYERS)), "none")
        self.lp_by_caller[caller] += 1
        self.lp_solves += 1
        cells = lp.m * lp.n
        self.lp_cells_sum += cells
        self.lp_cells_max = max(self.lp_cells_max, cells)
        self.lp_input_bits = max(self.lp_input_bits, _bits(lp.c.entries), _bits(lp.a.entries), _bits(lp.b.entries))

    def wrap(self, name, fn):
        if name == "exact.solve_linear_system":
            def span_name():
                return name + (".in_lp" if self.depth["lp.solve_lp"] else ".outside_lp")
        else:
            def span_name():
                return name
        is_lp = name == "lp.solve_lp"
        is_membership = name in MEMBERSHIP
        stack, calls, total_s, self_s, depth = self.stack, self.calls, self.total_s, self.self_s, self.depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = span_name()
            if is_lp:
                self._lp_entry(args[0])
            frame = [label, 0.0, self.lp_solves]
            stack.append(frame)
            depth[label] += 1
            started = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                depth[label] -= 1
                if stack:
                    stack[-1][1] += elapsed
                calls[label] += 1
                self_s[label] += elapsed - frame[1]
                if not depth[label]:
                    total_s[label] += elapsed
            if is_lp:
                self.lp_outcome_bits = max(self.lp_outcome_bits, _bits(_outcome_values(out)))
            elif is_membership and self.lp_solves == frame[2]:
                self.membership_no_lp += 1
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in each loaded vlpdual module that binds it."""
        import vlpdual.cli  # noqa: F401  (loads every module of the package)
        from vlpdual import harness

        modules = [m for key, m in sys.modules.items() if key == "vlpdual" or key.startswith("vlpdual.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"vlpdual.{module_name}"], func_name)
            wrapped = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        harness._build_context = self.wrap("harness.build_context", harness._build_context)
        harness._CAMPAIGN_CHECKS = tuple(
            (check, self.wrap(f"harness.check.{check}", fn)) for check, fn in harness._CAMPAIGN_CHECKS
        )

    def snapshot(self) -> dict:
        """Raw aggregates, JSON-ready, so runs in separate processes can be summed."""
        return {
            "calls": dict(self.calls),
            "total_ms": {k: v * 1000.0 for k, v in self.total_s.items()},
            "self_ms": {k: v * 1000.0 for k, v in self.self_s.items()},
            "lp_by_caller": dict(self.lp_by_caller),
            "lp_solves": self.lp_solves,
            "lp_cells_sum": self.lp_cells_sum,
            "lp_cells_max": self.lp_cells_max,
            "lp_input_bits": self.lp_input_bits,
            "lp_outcome_bits": self.lp_outcome_bits,
            "membership_no_lp": self.membership_no_lp,
        }


def merge(snapshots) -> dict:
    """Sum the aggregates of several processes (max for the max fields)."""
    out = {"calls": Counter(), "total_ms": Counter(), "self_ms": Counter(), "lp_by_caller": Counter()}
    scalars = Counter()
    for snap in snapshots:
        for key in ("calls", "total_ms", "self_ms", "lp_by_caller"):
            out[key].update(snap[key])
        for key in ("lp_solves", "lp_cells_sum", "membership_no_lp"):
            scalars[key] += snap[key]
        for key in ("lp_cells_max", "lp_input_bits", "lp_outcome_bits"):
            scalars[key] = max(scalars[key], snap[key])
    merged = {key: dict(value) for key, value in out.items()}
    merged.update(scalars)
    return merged


CHECKS = (
    "quadrant", "efficient_iff_scalarizable", "weak_duality", "strong_duality", "converse_duality",
    "u_feasibility_agreement", "inclusion_chain", "hH_to_hB_map", "emptiness_biconditional",
    "improvement_on_empty_primal", "minmax_coincidence", "strictness_search",
)
DUALITY_MAPS = (
    "check_feasible_U", "u_feasibility_multiplier", "h_H_value_membership", "minimize_over_image",
    "map_DH_to_D", "construct_dual_solution", "recover_primal", "dual_B_nonempty",
    "feasible_dual_point", "improve_dual_infeasible_primal",
)
# Spans that issue LPs and get their own by_caller count; `cone.contains`
# is reported as cone.contains.lp_solves, anything else as `other`.
LP_CALLERS = (
    "duality.membership_hB", "duality.membership_hL", "duality.membership_hJ",
    *(f"duality.{name}" for name in DUALITY_MAPS if name != "construct_dual_solution"),
    "efficiency.is_efficient", "efficiency.proper_efficiency_certificate",
    "efficiency.recession_image_pointed", "sampling.sample_dual_points", "model.load_problem", "none",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for oracle in MEMBERSHIP:
        spec += [(f"{oracle}.calls", "count", "lower"), (f"{oracle}.total_ms", "ms", "lower"),
                 (f"{oracle}.self_ms", "ms", "lower")]
    spec.append(("duality.membership.cache_hit_ratio", "ratio", "higher"))
    spec += [(f"lp.solve_lp.{k}", u, "lower") for k, u in (
        ("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"), ("max_bits", "bits"),
        ("max_input_bits", "bits"), ("mean_cells", "cells"), ("max_cells", "cells"))]
    spec += [(f"lp.solve_lp.by_caller.{caller}", "count", "lower") for caller in (*LP_CALLERS, "other")]
    spec += [
        ("exact.solve_linear_system.in_lp.self_ms", "ms", "lower"),
        ("exact.solve_linear_system.outside_lp.self_ms", "ms", "lower"),
        ("lp.to_standard_form.self_ms", "ms", "lower"),
        ("lp.solve_general.calls", "count", "lower"),
        ("lp.solve_feasibility.calls", "count", "lower"),
        ("cone.contains.calls", "count", "lower"),
        ("cone.contains.total_ms", "ms", "lower"),
        ("cone.contains.lp_solves", "count", "lower"),
        ("cone.strictly_below.calls", "count", "lower"),
        ("cone.strictly_below.total_ms", "ms", "lower"),
        ("harness.build_context.total_ms", "ms", "lower"),
    ]
    spec += [(f"efficiency.{name}.total_ms", "ms", "lower") for name in (
        "enumerate_vertices", "is_efficient", "proper_efficiency_certificate", "recession_image_pointed")]
    spec += [(f"sampling.{name}.total_ms", "ms", "lower") for name in ("sample_dual_points", "sample_probe_values")]
    spec += [(f"harness.check.{name}.total_ms", "ms", "lower") for name in CHECKS]
    spec += [(f"duality.{name}.total_ms", "ms", "lower") for name in DUALITY_MAPS]
    spec += [
        ("cli.import_ms", "ms", "lower"),
        ("model.load_problem.total_ms", "ms", "lower"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


def layer_values(trace: dict, import_ms: float, plain: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric from merged span aggregates and the untraced
    and traced runs of the same ops. Span times are raw; the overhead ratio
    compares normalized op times, so machine drift between the runs cancels."""
    by_caller = dict(trace["lp_by_caller"])
    membership_calls = sum(trace["calls"].get(oracle, 0) for oracle in MEMBERSHIP)
    solves = trace["lp_solves"]
    values = {
        "duality.membership.cache_hit_ratio": trace["membership_no_lp"] / membership_calls if membership_calls else 0.0,
        "lp.solve_lp.max_bits": trace["lp_outcome_bits"],
        "lp.solve_lp.max_input_bits": trace["lp_input_bits"],
        "lp.solve_lp.mean_cells": trace["lp_cells_sum"] / solves if solves else 0.0,
        "lp.solve_lp.max_cells": trace["lp_cells_max"],
        "cone.contains.lp_solves": by_caller.pop("cone.contains", 0),
        "cli.import_ms": import_ms,
        "trace.ops_per_s_untraced": plain["ops"] / plain["busy_s"],
        "trace.ops_per_s_traced": traced["ops"] / traced["busy_s"],
    }
    values["trace.overhead_ratio"] = values["trace.ops_per_s_untraced"] / values["trace.ops_per_s_traced"]
    for caller in LP_CALLERS:
        values[f"lp.solve_lp.by_caller.{caller}"] = by_caller.pop(caller, 0)
    values["lp.solve_lp.by_caller.other"] = sum(by_caller.values())
    for name, _, _ in per_layer_spec():  # the rest are <span>.{calls,total_ms,self_ms}
        if name not in values:
            span, _, field = name.rpartition(".")
            values[name] = trace[field].get(span, 0)
    return values
