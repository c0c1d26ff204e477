#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of moeapap portfolio runs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pap3-zdt1 --seed 1 --seconds 30 --trace 0

One process runs one workload serially (one core, ``workers=1``).  Every
unit of work gets its own seed derived from ``--seed`` and the unit index,
and its outputs are checked after the timed region.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs each unit untraced and then
traced with the same seed, and reports the per-layer split.  The last line
of standard output is one JSON object; the lines before it show per-unit
results, sample counts and output digests.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# One set-up probe after every PROBE_EVERY-th unit, so that the probes are
# spread over the run: the host's speed drifts in phases of seconds, and
# probes made back to back all land in one phase.
PROBE_EVERY = 2
PROBE_TIMEOUT_S = 60
# wall_s drops this share of the units at each end before averaging; see
# trimmed_mean.
TRIM = 0.1


def unit_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh process: process start to ready for the first
    unit (interpreter start, imports, problem lookup, portfolio build)."""
    started = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--probe-setup", repr(started)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """State of one benchmark process."""

    def __init__(self, args, workload):
        self.args = args
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.member_runs = 0
        self.refused: list[str] = []
        self.hv: dict[str, list[float]] = {}  # problem -> HV / box volume per output set
        self.ihvr: list[float] = []
        self.digests: list[str] = []

    def unit(self, index: int, trace):
        """Run, time and check one unit; return its wall time."""
        seed = unit_seed(self.args.workload, self.args.seed, index)
        gc.collect()
        self.attempted += 1
        try:
            start = time.perf_counter()
            outcome = trace(self.workload.run, seed) if trace else self.workload.run(seed)
            wall = time.perf_counter() - start
            checked = self.workload.check(outcome)
        except Exception as exc:  # noqa: BLE001 - a crashed unit is a failed unit
            self.failed += 1
            print(f"unit {index} seed={seed} FAILED {type(exc).__name__}: {exc}")
            return None
        if checked.failures:
            self.failed += 1
        for problem, ratio in checked.hv:
            self.hv.setdefault(problem, []).append(ratio)
        self.ihvr += checked.ihvr
        self.digests.append(checked.digest)
        self.member_runs += checked.member_runs
        self.refused += checked.refused
        over = " ihvr>1" if any(v > 1.0 for v in checked.ihvr) else ""
        print(
            f"unit {index} seed={seed} {'traced' if trace else 'wall'}_s={wall:.4f} "
            f"hv_frac={_g([r for _, r in checked.hv], statistics.fmean)} ihvr_max={_g(checked.ihvr, max)}{over} "
            f"refused={len(checked.refused)}/{checked.member_runs} "
            f"digest={checked.digest[:16]}"
        )
        for failure in checked.failures:
            print(f"  check failed: {failure}")
        return wall

    def loop(self, step) -> None:
        """Call ``step(index)`` until the next call would overrun the run."""
        started = time.perf_counter()
        costs = []
        index = 0
        while True:
            t0 = time.perf_counter()
            step(index)
            costs.append(time.perf_counter() - t0)
            index += 1
            if time.perf_counter() - started + statistics.median(costs) > self.args.seconds:
                return


def trimmed_mean(values: list[float]) -> float:
    """Mean unit time after dropping the TRIM share of the units at each end.

    A mean, because the unit cost of ``desk-ga`` depends on its seed in
    steps (how many sampled configurations the engine refuses), and a
    median jumps between those steps from run to run; trimmed, so that a
    unit caught in a stall of the host does not move it."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


def _g(values: list[float], reduce) -> str:
    return f"{reduce(values):.6g}" if values else "n/a"


def _summary(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name}: median {statistics.median(values):.6g} {unit} over n={len(values)} "
        f"(min {min(values):.6g}, max {max(values):.6g})"
    )


def end_to_end(run: Run) -> dict[str, float]:
    walls: list[float] = []
    setup_s: list[float] = []

    def step(index):
        wall = run.unit(index, None)
        if wall is not None:
            walls.append(wall)
        if index % PROBE_EVERY == 0:
            setup_s.append(probe_setup(run.args.workload))

    run.loop(step)
    if not walls:
        raise SystemExit("no unit completed")
    print(
        f"wall_s: {trimmed_mean(walls):.6g} s, the mean over n={len(walls)} units without the "
        f"{TRIM:.0%} fastest and slowest; median {statistics.median(walls):.6g} s, "
        f"p90 {statistics.quantiles(walls, n=10, method='inclusive')[-1] if len(walls) > 1 else walls[0]:.6g} s"
    )
    for problem, ratios in sorted(run.hv.items()):
        print(f"hv on {problem}: mean {statistics.fmean(ratios):.6g} of the box over n={len(ratios)} output sets")
    hv_mean = statistics.fmean(statistics.fmean(r) for r in run.hv.values()) if run.hv else math.nan
    print(f"hv_mean: {hv_mean:.6g} of the box, the mean over {len(run.hv)} problems")
    print(_summary("setup_s", setup_s, "s"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": trimmed_mean(walls),
        "hv_mean": hv_mean,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    import tracer

    ratios = []
    tracers = []

    def step(index):
        plain = run.unit(index, None)
        t = tracer.Tracer()
        traced = run.unit(index, t.run)
        if plain is not None and traced is not None:
            if run.digests[-1] != run.digests[-2]:
                run.failed += 1
                print(f"unit {index}: traced outputs differ from untraced outputs")
            ratios.append(traced / plain)
            tracers.append(t)

    run.loop(step)
    if not tracers:
        raise SystemExit("no traced unit completed")
    metrics = tracer.per_layer_metrics(tracers, statistics.median(ratios) - 1.0)
    for k in tracer.KERNELS:
        print(
            f"kernels.{k}: rows per call median {metrics[f'kernels.{k}.rows_median']:g}, "
            f"max {metrics[f'kernels.{k}.rows_max']:g} over {metrics[f'kernels.{k}.calls']} calls"
        )
    print(f"traced units n={len(tracers)}; counts from the first, seconds averaged")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "moeapap" / "__init__.py").is_file():
        print(f"no moeapap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.setup(workdir)
        if args.probe_setup is not None:
            print(repr(time.time() - args.probe_setup))
            return 0
        import moeapap

        if Path(moeapap.__file__).resolve().parent != SRC / "moeapap":
            print(f"imported moeapap from {moeapap.__file__}, not {SRC}", file=sys.stderr)
            return 2
        declared = declared_metrics(bool(args.trace))
        run = Run(args, workload)
        metrics = per_layer(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # only when no other run is using it

    if set(metrics) != set(declared):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 2
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics {bad}", file=sys.stderr)
        return 2
    print(f"attempted={run.attempted} failed={run.failed} fail_frac={run.failed / run.attempted:.4g}")
    print(f"member runs={run.member_runs} refused={len(run.refused)} "
          "(MOEA/D neighbor_size above the subproblem count; see README.md)")
    for failure in sorted(set(run.refused))[:3]:
        print(f"  e.g. {failure}")
    print(f"ihvr: mean {_g(run.ihvr, statistics.fmean)}, max {_g(run.ihvr, max)} "
          f"(not gated; see README.md on the WFG4 reference front)")
    print("digest " + hashlib.sha256(" ".join(run.digests).encode()).hexdigest()
          + f" over {len(run.digests)} checked units (per-unit digests above)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
