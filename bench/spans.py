"""In-memory span recorder for the benchmark's traced runs.

Spans are made by wrapping cosetapprox's public functions from outside: the
wrapper replaces every module attribute bound to the original function
object, so calls through `from .x import f` aliases are seen as well.  The
package itself is not modified and records nothing.

A span is `[name, start, end, parent, counters]`; `parent` is the index of
the enclosing span in the same list (-1 for the root) and `counters` is a
dict of exact counts taken from the call's arguments or result, or None.
"""

from __future__ import annotations

import functools
import inspect
import resource
import statistics
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

VERIFY_CHECKS = (
    "formula_oracle",
    "subgroup_consistency",
    "sieve_identity",
    "character_axioms",
    "polya_vinogradov",
    "counting_identity",
    "equidistribution_bound",
    "overlap_theta",
    "unit_group_structure",
    "coset_partition",
    "quotient_characters",
    "growth_trend",
    "power_lift",
    "hit_finding",
    "conditions_reduction",
    "mc_determinism",
    "mc_dichotomy",
)

# name -> unit, in the order the traced run prints them.
LAYER_UNITS = {
    "experiment.find_hits_s": "s",
    "experiment.find_hits_calls": "count",
    "experiment.find_hits_ms_p50": "ms",
    "experiment.find_hits_ms_p95": "ms",
    "experiment.index_tests": "count",
    "experiment.hits": "count",
    "experiment.hit_ratio": "ratio",
    "experiment.conditions_s": "s",
    "experiment.max_int_bits": "bits",
    "experiment.prepare_s": "s",
    "experiment.prepare_calls": "count",
    "experiment.monte_carlo_self_s": "s",
    "experiment.pool_wall_s": "s",
    "experiment.pool_busy_frac": "ratio",
    "residue_group.is_dth_power_calls": "count",
    "residue_group.is_dth_power_s": "s",
    "residue_group.unit_group_calls": "count",
    "residue_group.unit_group_s": "s",
    "cli.experiment_self_s": "s",
    "characters.character_matrix_calls": "count",
    "characters.character_matrix_s": "s",
    "characters.table_cells": "count",
    "arith.factor_calls": "count",
    "arith.factor_s": "s",
    "equidist.calls": "count",
    "equidist.self_s": "s",
    **{f"verify.{name}_s": "s" for name in VERIFY_CHECKS},
    "trace.overhead_frac": "ratio",
}


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _conditions_counters(args, report) -> dict:
    exact = [
        *report.partial_sum_alpha,
        *report.weighted_sum,
        *report.c_ratio,
        report.c_ratio_min,
        report.c_ratio_final,
    ]
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in exact)
    return {"max_int_bits": bits}


def _monte_carlo_counters(args, result) -> dict:
    exp = args[0]
    return {"index_tests": result.samples * len(exp.qs), "hits": result.total_hits}


class Tracer:
    """Records nested spans while installed; `spans` holds one operation's."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, counters: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = counters
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def take(self) -> list[list]:
        """Return the recorded spans and start an empty list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, counters=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, counters(args, result) if counters and result is not None else None)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer entry points; `uninstall` restores the originals."""
        from cosetapprox import arith, characters, cli, equidist, experiment, residue_group

        functions = [
            (cli, "main", "cli.main", None),
            (cli, "_cmd_experiment", "cli.experiment", None),
            (experiment, "check_conditions", "experiment.check_conditions", _conditions_counters),
            (experiment, "prepare", "experiment.prepare", None),
            (residue_group, "is_dth_power", "residue_group.is_dth_power", None),
            (residue_group, "unit_group", "residue_group.unit_group", None),
            (
                characters,
                "character_matrix",
                "characters.character_matrix",
                lambda args, table: {"cells": int(table.size)},
            ),
            (arith, "factor", "arith.factor", None),
        ]
        for attr in equidist.__all__:
            if inspect.isfunction(getattr(equidist, attr)):
                functions.append((equidist, attr, f"equidist.{attr}", None))
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cosetapprox"]
        for module, attr, name, counters in functions:
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        cls = experiment.Experiment
        for attr, name, counters in (
            ("find_hits", "experiment.find_hits", lambda args, hits: {"hits": len(hits)}),
            ("monte_carlo", "experiment.monte_carlo", _monte_carlo_counters),
        ):
            original = vars(cls)[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, counters))

        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Span from entering the pool's `with` block to the join of its workers."""

            def __enter__(self):
                self._span = tracer.open("experiment.pool")
                self._cpu0 = _children_cpu()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(
                        self._span,
                        {"workers": self._max_workers, "child_cpu_s": _children_cpu() - self._cpu0},
                    )

        self._undo.append((experiment, "ProcessPoolExecutor", experiment.ProcessPoolExecutor))
        experiment.ProcessPoolExecutor = TracedPool

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from one operation's spans.
# ---------------------------------------------------------------------------


def _durations(spans):
    """(inclusive, self) seconds per span; self excludes direct children."""
    inclusive = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += inclusive[i]
    return inclusive, [t - c for t, c in zip(inclusive, covered)]


def op_layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers for one operation (everything but the percentiles
    and the overhead, which need several operations)."""
    inclusive, self_time = _durations(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    max_bits = 0
    pool_busy = pool_capacity = 0.0
    for i, (name, _, _, _, counters) in enumerate(spans):
        calls[name] += 1
        total[name] += inclusive[i]
        own[name] += self_time[i]
        if counters is None:
            continue
        if name == "experiment.monte_carlo":
            count["index_tests"] += counters["index_tests"]
            count["hits"] += counters["hits"]
        elif name == "experiment.check_conditions":
            max_bits = max(max_bits, counters["max_int_bits"])
        elif name == "experiment.pool":
            pool_busy += counters["child_cpu_s"]
            pool_capacity += counters["workers"] * inclusive[i]
        elif name == "characters.character_matrix":
            count["cells"] += counters["cells"]
    equidist = [n for n in calls if n.startswith("equidist.")]
    out = {
        "experiment.find_hits_s": total["experiment.find_hits"],
        "experiment.find_hits_calls": calls["experiment.find_hits"],
        "experiment.index_tests": count["index_tests"],
        "experiment.hits": count["hits"],
        "experiment.hit_ratio": count["hits"] / count["index_tests"] if count["index_tests"] else 0.0,
        "experiment.conditions_s": own["experiment.check_conditions"],
        "experiment.max_int_bits": max_bits,
        "experiment.prepare_s": total["experiment.prepare"],
        "experiment.prepare_calls": calls["experiment.prepare"],
        "experiment.monte_carlo_self_s": own["experiment.monte_carlo"],
        "experiment.pool_wall_s": total["experiment.pool"],
        "experiment.pool_busy_frac": pool_busy / pool_capacity if pool_capacity else 0.0,
        "residue_group.is_dth_power_calls": calls["residue_group.is_dth_power"],
        "residue_group.is_dth_power_s": total["residue_group.is_dth_power"],
        "residue_group.unit_group_calls": calls["residue_group.unit_group"],
        "residue_group.unit_group_s": total["residue_group.unit_group"],
        "cli.experiment_self_s": own["cli.experiment"],
        "characters.character_matrix_calls": calls["characters.character_matrix"],
        "characters.character_matrix_s": total["characters.character_matrix"],
        "characters.table_cells": count["cells"],
        "arith.factor_calls": calls["arith.factor"],
        "arith.factor_s": total["arith.factor"],
        "equidist.calls": sum(calls[n] for n in equidist),
        "equidist.self_s": sum(own[n] for n in equidist),
    }
    for check in VERIFY_CHECKS:
        out[f"verify.{check}_s"] = total[f"verify.{check}"]
    return out


def layer_metrics(ops_spans, traced_walls, untraced_walls) -> dict[str, float]:
    """Median over the traced operations of each per-layer number, the
    find_hits latency percentiles over all their calls pooled, and the
    tracing overhead as a ratio of median operation wall times."""
    per_op = [op_layer_metrics(spans) for spans in ops_spans]
    out = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    hits_ms = [
        (end - start) * 1e3
        for spans in ops_spans
        for name, start, end, _, _ in spans
        if name == "experiment.find_hits"
    ]
    if len(hits_ms) >= 2:
        cuts = statistics.quantiles(hits_ms, n=20, method="inclusive")
        out["experiment.find_hits_ms_p50"] = statistics.median(hits_ms)
        out["experiment.find_hits_ms_p95"] = cuts[18]
    else:
        out["experiment.find_hits_ms_p50"] = out["experiment.find_hits_ms_p95"] = (
            hits_ms[0] if hits_ms else 0.0
        )
    out["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        if untraced_walls
        else 0.0
    )
    return {name: out[name] for name in LAYER_UNITS}


def dump_spans(ops_spans) -> dict:
    """Compact JSON form: a name table and, per operation, spans as
    [name index, start us, end us, parent index, counters] relative to the
    operation's root span."""
    names: dict[str, int] = {}
    ops = []
    for spans in ops_spans:
        t0 = spans[0][1] if spans else 0.0
        ops.append(
            [
                [
                    names.setdefault(name, len(names)),
                    round((start - t0) * 1e6, 1),
                    round((end - t0) * 1e6, 1),
                    parent,
                    counters,
                ]
                for name, start, end, parent, counters in spans
            ]
        )
    return {"names": list(names), "fields": ["name", "start_us", "end_us", "parent", "counters"], "ops": ops}
