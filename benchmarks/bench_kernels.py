#!/usr/bin/env python3
"""Time the numeric kernels.

Runs every kernel on random inputs of a few sizes and prints the best
per-call time of a few repeats after one warm-up call.
"""

from __future__ import annotations

import time

import numpy as np

from moeapap import _kernels

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


def main() -> None:
    rng = np.random.default_rng(42)
    print(f"{'kernel':16s} {'n':>6s} {'time':>12s}")
    for name in KERNELS:
        fn = getattr(_kernels, name)
        for n in SIZES:
            t = _time(fn, _inputs(name, n, rng))
            print(f"{name:16s} {n:6d} {t * 1e3:10.3f}ms")


if __name__ == "__main__":
    main()
