#!/usr/bin/env python3
"""Time the numeric kernels and the survival and archive layers on them.

Runs every kernel on random inputs of a few sizes and prints the best
per-call time of a few repeats after one warm-up call.  It also times
``core.crowding_truncate_indices`` halving an n-row 3-objective set, and
``_GridArchive.insert`` per call over n inserts of noisy ZDT1-front points
into an archive of capacity n/2 (10 grid divisions, as in the perfbench
MOPSO member).  With ``--json PATH`` the times are appended to PATH as one
entry with the machine and the git SHA of the imported ``moeapap``, as
``bench_engines.py`` does:

    PYTHONPATH=src python benchmarks/bench_kernels.py --label change --json BENCH_5.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from moeapap import _kernels
from moeapap.algorithms.mopso import _GridArchive
from moeapap.core import crowding_truncate_indices

from bench_engines import _git_sha, _machine

KERNELS = ("nd_mask", "nds_ranks", "crowding", "hv2d", "hv3d", "mean_min_dist", "count_dominated")
SIZES = (200, 600, 1500)
REPEATS = 5


def _time(fn, args, repeats=REPEATS) -> float:
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _inputs(name: str, n: int, rng):
    F2 = rng.random((n, 2))
    F3 = rng.random((n, 3))
    ref2 = np.array([1.1, 1.1])
    ref3 = np.array([1.1, 1.1, 1.1])
    if name in ("nd_mask", "nds_ranks", "crowding"):
        return (F3,)
    if name == "hv2d":
        return (F2, ref2)
    if name == "hv3d":
        return (F3, ref3)
    if name == "mean_min_dist":
        return (rng.random((1000, 3)), F3)
    if name == "count_dominated":
        return (rng.random((10_000, 3)), F3)
    raise KeyError(name)


def _archive_inserts(X, F):
    archive = _GridArchive(len(F) // 2, 10, np.random.default_rng(0), X.shape[1], F.shape[1])
    for x, f in zip(X, F):
        archive.insert(x, f)


def _front_stream(n: int, rng):
    # points near the ZDT1 front, so inserts are accepted, rejected and
    # evict members
    t = rng.random(n)
    F = np.column_stack((t, 1.0 - np.sqrt(t))) + 0.05 * rng.random((n, 2))
    return rng.random((n, 30)), F


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="name of this entry in the JSON file")
    parser.add_argument("--json", type=Path, help="append the per-call times to this JSON file")
    args = parser.parse_args()

    rng = np.random.default_rng(42)
    cases = [(name, n, getattr(_kernels, name), _inputs(name, n, rng))
             for name in KERNELS for n in SIZES]
    cases += [("crowding_truncate_indices", n, crowding_truncate_indices,
               (rng.random((n, 3)), n // 2)) for n in SIZES]
    ms = {}
    print(f"{'kernel':26s} {'n':>6s} {'time':>12s}")
    for name, n, fn, inputs in cases:
        ms[f"{name}/{n}"] = round(_time(fn, inputs) * 1e3, 4)
        print(f"{name:26s} {n:6d} {ms[f'{name}/{n}']:10.3f}ms")
    for n in SIZES:
        X, F = _front_stream(n, rng)
        ms[f"archive.insert/{n}"] = round(_time(_archive_inserts, (X, F)) / n * 1e3, 5)
        print(f"{'archive.insert (per call)':26s} {n:6d} {ms[f'archive.insert/{n}'] * 1e3:10.3f}us")

    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {"entries": []}
        doc["entries"].append({
            "label": args.label,
            "git_sha": _git_sha(),
            "machine": _machine(),
            "repeats": REPEATS,
            "best_ms": ms,
        })
        args.json.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
