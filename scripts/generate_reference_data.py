#!/usr/bin/env python3
"""Regenerate the shipped reference fronts and objective-box metadata.

Writes one ``<problem>_front.txt`` per problem plus one ``<suite>_boxes.json``
per suite into ``DATA_DIR`` (``src/moeapap/problems/data/``).  Each box entry
is ``{"box": [[ideal, upper], ...], "hv_star": x}``: ``hv_star`` is the
hypervolume of the problem's Pareto front in the box, with the box's upper
corner as reference point, so that the package computes no reference
hypervolume at run time.  Where ``UNDOMINATED_VOLUMES`` holds the analytic
volume of the box part the true front leaves undominated (WFG4-9, UF8-10),
``hv_star`` is the box volume minus that; elsewhere it is the hypervolume of
the sampled front, clipped to the box, by the package's own kernel.
Deterministic; rerunning reproduces the files byte for byte.

Fronts with a closed-form parameterization are sampled on deterministic
grids; fronts that are only piecewise optimal (ZDT3, DTLZ7, UF6, WFG) are
oversampled and reduced to their non-dominated subset.  Discrete fronts
(ZDT5, UF5) are written in full, which is fewer points than the usual
1000-point target.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from moeapap.core import nondominated_indices  # noqa: E402
from moeapap.indicators import clip_to_box, hypervolume  # noqa: E402
from moeapap.problems import UnsupportedProblemError, available_problems, get_problem, wfg  # noqa: E402

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "moeapap" / "problems" / "data"

COUNTS = {2: 1001, 3: 1300}


def _thin(F: np.ndarray, count: int) -> np.ndarray:
    """Deterministically reduce ``F`` to roughly ``count`` spread-out rows."""
    if F.shape[0] <= count:
        return F
    order = np.lexsort(F.T[::-1])
    pick = np.linspace(0, F.shape[0] - 1, count).round().astype(int)
    return F[order[np.unique(pick)]]


def _dedupe(F: np.ndarray) -> np.ndarray:
    order = np.lexsort(F.T[::-1])
    F = F[order]
    keep = np.ones(F.shape[0], dtype=bool)
    keep[1:] = (np.diff(F, axis=0) != 0).any(axis=1)
    return F[keep]


def _nondominated(F: np.ndarray) -> np.ndarray:
    F = _dedupe(F)
    return F[nondominated_indices(F)]


def _convex_zdt(count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)
    return np.column_stack((t, 1.0 - np.sqrt(t)))


def _zdt3(count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, max(20 * count, 20001))
    f2 = 1.0 - np.sqrt(t) - t * np.sin(10.0 * np.pi * t)
    return _thin(_nondominated(np.column_stack((t, f2))), count)


def _zdt5() -> np.ndarray:
    f1 = 1.0 + np.arange(31)
    return np.column_stack((f1, 10.0 / f1))


def _zdt6_f1(x):
    return 1.0 - np.exp(-4.0 * x) * np.sin(6.0 * np.pi * x) ** 6


def _zdt6(count: int) -> np.ndarray:
    # the front starts at the attainable minimum of f1, found by a grid scan
    # plus ternary refinement
    x = np.linspace(0.0, 1.0, 200001)
    i = int(np.argmin(_zdt6_f1(x)))
    lo, hi = x[max(i - 1, 0)], x[min(i + 1, x.size - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if _zdt6_f1(m1) <= _zdt6_f1(m2):
            hi = m2
        else:
            lo = m1
    f1_min = float(_zdt6_f1((lo + hi) / 2.0))
    t = np.linspace(f1_min, 1.0, count)
    return np.column_stack((t, 1.0 - t**2))


def _quarter_circle(count: int) -> np.ndarray:
    theta = np.linspace(0.0, np.pi / 2.0, count)
    return np.column_stack((np.cos(theta), np.sin(theta)))


def _dtlz1(count: int) -> np.ndarray:
    t = np.linspace(0.0, 0.5, count)
    return np.column_stack((t, 0.5 - t))


def _dtlz7(count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, max(20 * count, 20001))
    f2 = 4.0 - t * (1.0 + np.sin(3.0 * np.pi * t))
    return _thin(_nondominated(np.column_stack((t, f2))), count)


def _uf_linear(count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)
    return np.column_stack((t, 1.0 - t))


def _uf4(count: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, count)
    return np.column_stack((t, 1.0 - t**2))


def _uf5() -> np.ndarray:
    i = np.arange(21)
    return np.column_stack((i / 20.0, 1.0 - i / 20.0))


def _uf6(count: int) -> np.ndarray:
    seg = max(count // 2, 50)
    a = np.linspace(0.25, 0.5, seg)
    b = np.linspace(0.75, 1.0, seg)
    t = np.concatenate(([0.0], a, b))
    return np.column_stack((t, 1.0 - t))


def _sphere_grid(count: int) -> np.ndarray:
    g = int(np.ceil(np.sqrt(count)))
    x1, x2 = np.meshgrid(np.linspace(0, 1, g), np.linspace(0, 1, g))
    x1 = x1.ravel()
    x2 = x2.ravel()
    a = 0.5 * np.pi * x1
    b = 0.5 * np.pi * x2
    F = np.column_stack((np.cos(a) * np.cos(b), np.cos(a) * np.sin(b), np.sin(a)))
    return _dedupe(F)


def _uf9(count: int) -> np.ndarray:
    seg = max(int(np.sqrt(count / 2)), 10)
    a = np.concatenate((np.linspace(0.0, 0.25, seg), np.linspace(0.75, 1.0, seg)))
    s = np.linspace(0.0, 1.0, 2 * seg)
    A, S = np.meshgrid(a, s)
    A = A.ravel()
    S = S.ravel()
    F = np.column_stack((A * S, (1.0 - A) * S, 1.0 - S))
    return _dedupe(F)


def _wfg_front(index: int, count: int) -> np.ndarray:
    k, l, m = 4, 8, 3
    rng = np.random.default_rng(900 + index)
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=k)))
    K = rng.random((6 * count, k))
    if index == 1:
        K = K**50.0
    K = np.vstack((corners, K))
    X = wfg.wfg_optimal_decisions(index, K, k, l)
    F = wfg.wfg_evaluate(index, X, m=m, k=k)
    return _thin(_nondominated(F), count)


def sample_reference_front(name: str, count: int = 1001) -> np.ndarray:
    """Sample ``count`` points from the true Pareto front of ``name``.

    Discrete fronts are returned in full regardless of ``count``.
    """
    if count < 100:
        raise ValueError("count must be at least 100")
    key = name.upper()
    if key in ("ZDT1", "ZDT4"):
        return _convex_zdt(count)
    if key == "ZDT2":
        t = np.linspace(0.0, 1.0, count)
        return np.column_stack((t, 1.0 - t**2))
    if key == "ZDT3":
        return _zdt3(count)
    if key == "ZDT5":
        return _zdt5()
    if key == "ZDT6":
        return _zdt6(count)
    if key == "DTLZ1":
        return _dtlz1(count)
    if key in ("DTLZ2", "DTLZ3", "DTLZ4", "DTLZ5", "DTLZ6"):
        return _quarter_circle(count)
    if key == "DTLZ7":
        return _dtlz7(count)
    if key in ("UF1", "UF2", "UF3"):
        return _convex_zdt(count)
    if key == "UF4":
        return _uf4(count)
    if key == "UF5":
        return _uf5()
    if key == "UF6":
        return _uf6(count)
    if key == "UF7":
        return _uf_linear(count)
    if key in ("UF8", "UF10"):
        return _sphere_grid(count)
    if key == "UF9":
        return _uf9(count)
    if key.startswith("WFG"):
        index = int(key[3:])
        if 1 <= index <= 9:
            return _wfg_front(index, count)
    raise UnsupportedProblemError(f"no reference front available for {name!r}")


# Conservative per-objective upper bounds obtained by interval analysis of
# each objective over the full decision box, rounded up to one decimal.
UPPER_BOUNDS: dict[str, tuple[float, ...]] = {
    "ZDT1": (1.0, 10.0),
    "ZDT2": (1.0, 10.0),
    "ZDT3": (1.0, 11.0),
    "ZDT4": (1.0, 406.0),
    "ZDT5": (31.0, 60.0),
    "ZDT6": (1.0, 10.0),
    "DTLZ1": (1125.5, 1125.5),
    "DTLZ2": (3.5, 3.5),
    "DTLZ3": (2251.0, 2251.0),
    "DTLZ4": (3.5, 3.5),
    "DTLZ5": (3.5, 3.5),
    "DTLZ6": (11.0, 11.0),
    "DTLZ7": (1.0, 22.0),
    **{f"WFG{i}": (3.0, 5.0, 7.0) for i in range(1, 10)},
    "UF1": (9.0, 9.0),
    "UF2": (8.3, 8.3),
    "UF3": (9.6, 9.6),
    "UF4": (1.3, 1.3),
    "UF5": (21.2, 21.2),
    "UF6": (34.3, 34.3),
    "UF7": (9.0, 9.0),
    "UF8": (33.0, 33.0, 33.0),
    "UF9": (33.6, 33.6, 33.0),
    "UF10": (133.0, 133.0, 133.0),
}


# Analytic volume of the part of a box floored at 0 that the true front
# leaves undominated.  WFG4-9 share the front (f1/2)^2 + (f2/4)^2 + (f3/6)^2
# = 1 (Huband, Hingston, Barone & While 2006, IEEE TEC), an ellipsoid octant
# of volume 8*pi.  UF8 and UF10 share the unit-sphere octant, pi/6.  UF9's two
# planar pieces leave 5*s^2/8 undominated in the slice f3 = 1 - s, 5/24 over
# all slices (Zhang et al. 2008, the CEC 2009 test instances).
UNDOMINATED_VOLUMES: dict[str, float] = {
    **{f"WFG{i}": 8.0 * np.pi for i in range(4, 10)},
    "UF8": np.pi / 6.0,
    "UF9": 5.0 / 24.0,
    "UF10": np.pi / 6.0,
}


def objective_box_from_front(name: str, front: np.ndarray) -> np.ndarray:
    """Combine front minima (floored to one decimal) with the static upper
    bounds into the per-objective [ideal, upper] box.  A front with an
    analytic volume reaches 0 on every objective, which its sample may miss,
    so its box floors at 0."""
    if name in UNDOMINATED_VOLUMES:
        ideal = np.zeros(front.shape[1])
    else:
        ideal = np.floor(front.min(axis=0) * 10.0) / 10.0
    box = np.column_stack((ideal, np.asarray(UPPER_BOUNDS[name])))
    if not (box[:, 0] < box[:, 1]).all():
        raise ValueError(f"degenerate objective box for {name}: {box}")
    return box


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    boxes: dict[str, dict[str, dict]] = {}
    for name in available_problems():
        problem = get_problem(name)
        front = sample_reference_front(name, COUNTS[problem.m])
        box = objective_box_from_front(name, front)
        if name in UNDOMINATED_VOLUMES:
            hv_star = float(np.prod(box[:, 1] - box[:, 0])) - UNDOMINATED_VOLUMES[name]
        else:
            hv_star = hypervolume(clip_to_box(front, box), box[:, 1])
        boxes.setdefault(problem.suite, {})[name] = {"box": box.tolist(), "hv_star": hv_star}
        path = DATA_DIR / f"{name.lower()}_front.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {name} m={problem.m}\n")
            for row in front:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        print(f"{name}: {front.shape[0]} front points -> {path.name}")
    for suite, entries in boxes.items():
        path = DATA_DIR / f"{suite.lower()}_boxes.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(entries, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{suite}: boxes -> {path.name}")


if __name__ == "__main__":
    main()
