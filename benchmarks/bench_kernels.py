#!/usr/bin/env python3
"""Time the numeric kernels and the survival and archive layers on them.

Runs every kernel on random inputs of a few sizes and prints the best
per-call time of a few repeats after one warm-up call.  It also times
``core.crowding_truncate_indices`` halving an n-row 3-objective set, and
``_GridArchive.insert`` per offered row: n noisy ZDT1-front rows fed in
blocks of n/4 into an archive of capacity n/4 (10 grid divisions, as in
the perfbench MOPSO member).

With ``--against PATH`` the kernel and truncation rows also run the
``src/moeapap`` of the checkout at PATH, imported under another package
name, and the two checkouts' calls alternate round by round in this one
process, so host drift hits both alike.  The archive row times only the
imported ``moeapap``, because the archive API differs between checkouts;
``bench_engines.py`` compares whole MOPSO runs instead.  With
``--json PATH`` the times are appended to PATH as one entry with the
machine and the git SHAs, as ``bench_engines.py`` does:

    PYTHONPATH=src python benchmarks/bench_kernels.py --against ../parent --label change --json BENCH_11.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

import moeapap
from moeapap import _kernels, core
from moeapap.algorithms.mopso import _GridArchive

from bench_engines import _git_sha, _machine

KERNELS = ("nd_mask", "nds_ranks", "crowding", "hv2d", "hv3d", "mean_min_dist", "count_dominated")
SIZES = (200, 600, 1500)
REPEATS = 5


def _time(fns, args, repeats=REPEATS) -> list[float]:
    """Best time of each of ``fns`` on ``args``; the calls alternate round by
    round, and the first to go alternates too."""
    for fn in fns:
        fn(*args)  # warm-up
    best = [float("inf")] * len(fns)
    for r in range(repeats):
        for i in (range(len(fns)) if r % 2 == 0 else reversed(range(len(fns)))):
            t0 = time.perf_counter()
            fns[i](*args)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _load_checkout(root: Path):
    """Import ``root/src/moeapap`` as package ``moeapap_against``; its modules
    use only relative imports, so they bind to that checkout's code."""
    init = root / "src" / "moeapap" / "__init__.py"
    spec = importlib.util.spec_from_file_location("moeapap_against", init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module("moeapap_against._kernels"), importlib.import_module("moeapap_against.core")


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
    block = len(F) // 4
    archive = _GridArchive(block, 10, np.random.default_rng(0), X.shape[1], F.shape[1])
    for start in range(0, len(F), block):
        archive.insert(X[start:start + block], F[start:start + block])


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
    parser.add_argument("--against", type=Path,
                        help="a second checkout whose kernels run interleaved with these")
    args = parser.parse_args()

    modules = [(_kernels, core)]
    if args.against:
        against, kernels_b, core_b = _load_checkout(args.against)
        modules.append((kernels_b, core_b))
    rng = np.random.default_rng(42)
    cases = [(name, n, [getattr(k, name) for k, _ in modules], _inputs(name, n, rng))
             for name in KERNELS for n in SIZES]
    cases += [("crowding_truncate_indices", n, [c.crowding_truncate_indices for _, c in modules],
               (rng.random((n, 3)), n // 2)) for n in SIZES]
    ms, against_ms = {}, {}
    print(f"{'kernel':26s} {'n':>6s} {'time':>12s}" + (f" {'against':>12s} {'ratio':>6s}" if args.against else ""))
    for name, n, fns, inputs in cases:
        times = _time(fns, inputs)
        key = f"{name}/{n}"
        ms[key] = round(times[0] * 1e3, 4)
        line = f"{name:26s} {n:6d} {ms[key]:10.3f}ms"
        if args.against:
            against_ms[key] = round(times[1] * 1e3, 4)
            line += f" {against_ms[key]:10.3f}ms {times[0] / times[1]:6.2f}"
        print(line)
    for n in SIZES:
        X, F = _front_stream(n, rng)
        ms[f"archive.insert/{n}"] = round(_time([_archive_inserts], (X, F))[0] / n * 1e3, 5)
        print(f"{'archive.insert (per row)':26s} {n:6d} {ms[f'archive.insert/{n}'] * 1e3:10.3f}us")

    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {"entries": []}
        entry = {
            "label": args.label,
            "git_sha": _git_sha(),
            "machine": _machine(),
            "repeats": REPEATS,
            "best_ms": ms,
        }
        if args.against:
            entry["against"] = {"git_sha": _git_sha(against), "best_ms": against_ms}
        doc["entries"].append(entry)
        args.json.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
