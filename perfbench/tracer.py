"""Span tracer for traced benchmark runs.

The tracer measures each layer of ``moeapap`` from outside: it replaces the
public entry point of the layer with a wrapper that records a span (its
duration and the span that called it) plus exact counts, and restores the
original on ``uninstall``.  Names that other modules imported by value (for
example ``portfolio.nd_mask`` or ``algorithms.common.fast_nondominated_sort``)
are rebound in every other ``moeapap`` module, so each call path is seen once.

Spans are aggregated as they close: a span's self time is its duration
minus the time covered by its child spans.  The self times of all spans
therefore add up to the duration of the root ``harness`` span.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter

_PACKAGE = "moeapap"


def patch_function(module, attr: str, replacement) -> list[tuple[object, str, object]]:
    """Replace ``module.attr`` and every alias other ``moeapap`` modules
    imported by value; return ``(owner, attribute, old)`` triples for
    ``restore``.  Other names for the function inside its own module (the
    kernel table in ``_kernels``, say) are left alone."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    done = [(module, attr, original)]
    for name, other in list(sys.modules.items()):
        if other is None or other is module:
            continue
        if not (name == _PACKAGE or name.startswith(_PACKAGE + ".")):
            continue
        for alias, value in list(vars(other).items()):
            if value is original:
                setattr(other, alias, replacement)
                done.append((other, alias, original))
    return done


def restore(patches) -> None:
    for owner, attr, old in reversed(patches):
        setattr(owner, attr, old)


def _rows(arg) -> int:
    shape = getattr(arg, "shape", None)
    if shape is None:
        return len(arg)
    return 1 if len(shape) == 1 else int(shape[0])


def _kernel_rows(args, kwargs, result, stat):
    stat.add_rows(_rows(args[0]))


def _evaluate_rows(args, kwargs, result, stat):
    stat.add_rows(_rows(args[1]))  # args[0] is the Problem


def _restructure_rows(args, kwargs, result, stat):
    # every caller passes a list, so counting does not consume an iterator
    stat.extra["rows_in"] += sum(len(s) for s in args[0])
    stat.extra["rows_out"] += len(result)


def _truncate_removals(args, kwargs, result, stat):
    stat.extra["removals"] += _rows(args[0]) - len(result)


def _archive_accepts(args, kwargs, result, stat):
    stat.extra["accepted"] += bool(result)


def _cache_stats(args, kwargs, result, stat):
    cache = result[1].cache_stats
    stat.extra["hits"] += cache["hits"]
    stat.extra["misses"] += cache["misses"]


# (span name, module, attribute path, hook run after each call).  Spans that
# share a name are aggregated together.
LAYERS = (
    ("algorithms.run", "moeapap.algorithms", "run", None),
    ("algorithms.nsga2", "moeapap.algorithms.nsga2", "run_nsga2", None),
    ("algorithms.moead", "moeapap.algorithms.moead", "run_moead", None),
    ("algorithms.mopso", "moeapap.algorithms.mopso", "run_mopso", None),
    ("algorithms.environmental_select", "moeapap.algorithms.common", "environmental_select", None),
    ("mopso.archive.insert", "moeapap.algorithms.mopso", "_GridArchive.insert", _archive_accepts),
    ("mopso.archive.select_leader", "moeapap.algorithms.mopso", "_GridArchive.select_leader", None),
    ("mopso.archive.evict", "moeapap.algorithms.mopso", "_GridArchive._evict", None),
    ("operators.sbx_crossover", "moeapap.operators", "sbx_crossover", None),
    ("operators.polynomial_mutation", "moeapap.operators", "polynomial_mutation", None),
    ("operators.de_mutation", "moeapap.operators", "de_mutation", None),
    ("operators.pso_update", "moeapap.operators", "pso_update", None),
    ("problems.evaluate", "moeapap.problems", "Problem.evaluate", _evaluate_rows),
    ("core.fast_nondominated_sort", "moeapap.core", "fast_nondominated_sort", None),
    ("core.crowding_truncate_indices", "moeapap.core", "crowding_truncate_indices", _truncate_removals),
    ("kernels.nd_mask", "moeapap._kernels", "nd_mask", _kernel_rows),
    ("kernels.nds_ranks", "moeapap._kernels", "nds_ranks", _kernel_rows),
    ("kernels.crowding", "moeapap._kernels", "crowding", _kernel_rows),
    ("kernels.hv2d", "moeapap._kernels", "hv2d", _kernel_rows),
    ("kernels.hv3d", "moeapap._kernels", "hv3d", _kernel_rows),
    ("kernels.mean_min_dist", "moeapap._kernels", "mean_min_dist", _kernel_rows),
    ("indicators.for_problem", "moeapap.indicators", "HvContext.for_problem", None),
    ("indicators.ihvr", "moeapap.indicators", "ihvr", None),
    ("indicators.hypervolume", "moeapap.indicators", "hypervolume", None),
    ("indicators.igd", "moeapap.indicators", "igd", None),
    ("portfolio.run_pap", "moeapap.portfolio", "run_pap", None),
    ("portfolio.restructure", "moeapap.portfolio", "restructure", _restructure_rows),
    ("construction.construct", "moeapap.construction", "construct", _cache_stats),
    ("construction.omega_problem", "moeapap.construction", "_Evaluator.omega_problem", None),
    ("experiments.run_experiment", "moeapap.experiments", "run_experiment", None),
    ("experiments.write", "moeapap.experiments", "_write_results_csv", None),
    ("experiments.write", "moeapap.experiments", "_write_timings_csv", None),
    ("experiments.write", "moeapap.experiments", "format_summary", None),
)

HARNESS = "harness"


class SpanStat:
    __slots__ = ("calls", "incl", "self_s", "rows", "row_sizes", "extra")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.row_sizes: Counter = Counter()
        self.extra: Counter = Counter()

    def add_rows(self, n: int) -> None:
        self.rows += n
        self.row_sizes[n] += 1


class Tracer:
    """Collects spans for one traced unit of work."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self._children = [0.0]  # child time accumulated per open span
        self._patches: list = []

    def stat(self, name: str) -> SpanStat:
        if name not in self.stats:
            self.stats[name] = SpanStat()
        return self.stats[name]

    def wrap(self, name: str, fn, hook=None):
        stat = self.stat(name)
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.extra["raised"] += 1
                raise
            finally:
                duration = clock() - start
                inner = children.pop()
                children[-1] += duration
                stat.calls += 1
                stat.incl += duration
                stat.self_s += duration - inner
            if hook is not None:
                hook(args, kwargs, result, stat)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, path, hook in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method: patch the class attribute itself
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, hook))
                else:
                    wrapped = self.wrap(name, raw, hook)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))
            else:
                wrapped = self.wrap(name, getattr(owner, attr), hook)
                self._patches += patch_function(owner, attr, wrapped)

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches = []

    def run(self, fn, *args):
        """Call ``fn`` inside the root span with every layer wrapped."""
        self.install()
        try:
            return self.wrap(HARNESS, fn)(*args)
        finally:
            self.uninstall()


# Per-layer metrics (declared in BENCHMARK.json).  ``.calls``, ``.rows`` and
# the other counts are exact and come from the first traced unit; ``.s`` is
# self time in seconds per traced unit, averaged over the traced units.
_CALLS_AND_SELF = (
    "mopso.archive.insert", "mopso.archive.select_leader", "mopso.archive.evict",
    "operators.sbx_crossover", "operators.polynomial_mutation",
    "operators.de_mutation", "operators.pso_update",
    "problems.evaluate",
    "core.fast_nondominated_sort", "core.crowding_truncate_indices",
    "indicators.for_problem", "indicators.ihvr", "indicators.hypervolume", "indicators.igd",
    "portfolio.restructure",
)
KERNELS = ("nd_mask", "nds_ranks", "crowding", "hv2d", "hv3d", "mean_min_dist")
# span -> reported self-time metric, for spans outside _CALLS_AND_SELF and KERNELS
_SELF_ONLY = {
    "algorithms.environmental_select": "algorithms.environmental_select.s",
    "portfolio.run_pap": "portfolio.run_pap.s",
    "construction.omega_problem": "construction.omega_problem.s",
    "construction.construct": "construction.self.s",
    "experiments.run_experiment": "experiments.self.s",
    "experiments.write": "experiments.write.s",
    HARNESS: "harness.self.s",
}
# engine spans whose self time is the engine glue no wrapped layer covers
_ENGINE_GLUE = ("algorithms.run", "algorithms.nsga2", "algorithms.moead", "algorithms.mopso")
_FOUNDATIONS = ("nsga2", "moead", "mopso")


_KNOWN_SPANS = (
    set(_CALLS_AND_SELF) | {f"kernels.{k}" for k in KERNELS} | set(_SELF_ONLY) | set(_ENGINE_GLUE)
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_of_counter(sizes: Counter) -> float:
    return float(statistics.median(sizes.elements())) if sizes else 0.0


def per_layer_metrics(tracers: list[Tracer], overhead_frac: float) -> dict[str, float]:
    """Per-layer values from the traced units (counts from the first one)."""
    unknown = set().union(*(t.stats for t in tracers)) - _KNOWN_SPANS
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    first = tracers[0]
    n = len(tracers)

    def count(span: str) -> SpanStat:
        return first.stats.get(span) or SpanStat()

    def self_s(span: str) -> float:
        return sum(t.stats[span].self_s for t in tracers if span in t.stats) / n

    def incl_s(span: str) -> float:
        return sum(t.stats[span].incl for t in tracers if span in t.stats) / n

    out: dict[str, float] = {}
    for span in _CALLS_AND_SELF:
        out[f"{span}.calls"] = count(span).calls
        out[f"{span}.s"] = self_s(span)
    out["algorithms.run.calls"] = count("algorithms.run").calls
    out["algorithms.run.failures"] = count("algorithms.run").extra["raised"]
    insert = count("mopso.archive.insert")
    out["mopso.archive.accept_ratio"] = _ratio(insert.extra["accepted"], insert.calls)
    evaluate = count("problems.evaluate")
    out["problems.evaluate.rows"] = evaluate.rows
    out["problems.evaluate.rows_per_call"] = _ratio(evaluate.rows, evaluate.calls)
    out["core.crowding_truncate_indices.removals"] = count("core.crowding_truncate_indices").extra["removals"]
    restructure = count("portfolio.restructure")
    out["portfolio.restructure.rows_in"] = restructure.extra["rows_in"]
    out["portfolio.restructure.rows_out"] = restructure.extra["rows_out"]
    for k in KERNELS:
        kernel = count(f"kernels.{k}")
        out[f"kernels.{k}.calls"] = kernel.calls
        out[f"kernels.{k}.rows"] = kernel.rows
        out[f"kernels.{k}.rows_median"] = _median_of_counter(kernel.row_sizes)
        out[f"kernels.{k}.rows_max"] = max(kernel.row_sizes, default=0)
        out[f"kernels.{k}.s"] = self_s(f"kernels.{k}")
    for span, metric in _SELF_ONLY.items():
        out[metric] = self_s(span)
    construct = count("construction.construct")
    out["construction.cache.hits"] = construct.extra["hits"]
    out["construction.cache.misses"] = construct.extra["misses"]
    out["construction.cache.hit_ratio"] = _ratio(
        construct.extra["hits"], construct.extra["hits"] + construct.extra["misses"]
    )
    for f in _FOUNDATIONS:
        out[f"algorithms.{f}.s"] = incl_s(f"algorithms.{f}")
    out["algorithms.self_s"] = sum(self_s(span) for span in _ENGINE_GLUE)
    out["trace.unit_s"] = incl_s(HARNESS)
    out["trace.overhead_frac"] = overhead_frac
    return out
