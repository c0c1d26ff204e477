"""Quality indicators: exact hypervolume (2 and 3 objectives), a Monte-Carlo
hypervolume estimator, IGD, and the normalized hypervolume ratio ``ihvr``
used to compare solution sets across problems.

The normalized metrics work against a fixed per-problem context: the
objective box [ideal, upper] provides both the reference point (upper
corner) and the total volume, and the reference front's hypervolume
``hv_star`` ships beside the box, computed once by
``scripts/generate_reference_data.py``.  Points outside the box are clipped
so that every set gets a defined, comparable score.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels, problems
from ._kernels import as_objectives
from .core import ConfigurationError, SolutionSet


class UnsupportedDimensionError(ValueError):
    """Exact hypervolume is implemented for two and three objectives only."""


def _as_F(points) -> np.ndarray:
    if isinstance(points, SolutionSet):
        return points.objectives
    return as_objectives(points)


def hypervolume(points, ref) -> float:
    """Exact dominated hypervolume of ``points`` bounded by ``ref``.

    Points that do not strictly dominate the reference point contribute
    nothing.  An empty set has zero hypervolume.
    """
    ref = np.asarray(ref, dtype=np.float64)
    F = _as_F(points)
    if F.shape[0] == 0:
        return 0.0
    if F.shape[1] != ref.size:
        raise ConfigurationError("reference point dimension does not match the set")
    if ref.size == 2:
        return float(_kernels.hv2d(F, ref))
    if ref.size == 3:
        return float(_kernels.hv3d(F, ref))
    raise UnsupportedDimensionError(
        f"exact hypervolume supports m in {{2, 3}}, got m={ref.size}; "
        "use hv_monte_carlo for higher dimensions"
    )


def hv_monte_carlo(points, ref, samples: int = 100_000, seed: int = 0) -> tuple[float, float]:
    """Unbiased hypervolume estimate with its standard error.

    Samples uniformly in the box spanned by the set's ideal corner and the
    reference point and counts dominated samples.  At least 10^4 samples are
    required for the standard error to be meaningful.
    """
    if samples < 10_000:
        raise ConfigurationError("hv_monte_carlo needs at least 10^4 samples")
    ref = np.asarray(ref, dtype=np.float64)
    F = _as_F(points)
    F = F[(F < ref).all(axis=1)]
    if F.shape[0] == 0:
        return 0.0, 0.0
    lo = F.min(axis=0)
    volume = float(np.prod(ref - lo))
    if volume <= 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    U = lo + rng.random((int(samples), ref.size)) * (ref - lo)
    hits = int(_kernels.count_dominated(U, F))
    p = hits / samples
    estimate = p * volume
    std_error = volume * np.sqrt(p * (1.0 - p) / samples)
    return estimate, std_error


def igd(points, reference_front) -> float:
    """Mean distance from each reference-front point to its nearest set point.

    Returns +inf for an empty set (documented sentinel).
    """
    front = _as_F(reference_front)
    if front.shape[0] == 0:
        raise ConfigurationError("reference front must not be empty")
    F = _as_F(points)
    if F.shape[0] == 0:
        return float("inf")
    return float(_kernels.mean_min_dist(front, F))


@dataclass(frozen=True)
class HvContext:
    """Fixed per-problem hypervolume context for the normalized ratios.

    ``hv_star`` is the hypervolume of the reference front and ``hv_all`` the
    volume of the full objective box, both w.r.t. the box's upper corner.
    """

    reference_point: np.ndarray
    objective_box: np.ndarray
    hv_star: float
    hv_all: float

    @classmethod
    def for_problem(cls, name: str) -> "HvContext":
        """The named problem's context from its shipped box and ``hv_star``,
        built once per process and shared; its arrays are read-only."""
        key = problems.get_problem(name).name
        if key not in _PROBLEM_CONTEXTS:
            box, hv_star = problems.reference_box(key)
            hv_all = float(np.prod(box[:, 1] - box[:, 0]))
            # the box files come from outside the program
            if not isinstance(hv_star, float) or not 0.0 < hv_star <= hv_all:
                raise ConfigurationError(f"{key}: recorded hv_star {hv_star!r} is not in (0, {hv_all!r}]")
            ref = box[:, 1].copy()
            ref.flags.writeable = False
            box.flags.writeable = False
            _PROBLEM_CONTEXTS[key] = cls(ref, box, hv_star, hv_all)
        return _PROBLEM_CONTEXTS[key]


_PROBLEM_CONTEXTS: dict[str, HvContext] = {}


def clip_to_box(points, box) -> np.ndarray:
    """Clamp objective vectors into the box so only in-box volume counts."""
    F = _as_F(points)
    if F.shape[0] == 0:
        return F
    box = np.asarray(box, dtype=np.float64)
    return np.clip(F, box[:, 0], box[:, 1])


def ihvr(points, ctx: HvContext) -> float:
    """Ratio of undominated box volumes; positive and larger is better.

    Equals 1 exactly when the set attains the reference front's
    hypervolume ``hv_star``.  It stays at most 1 where ``hv_star`` is the
    true front's hypervolume, the analytic value on WFG4-9 and UF8-10.
    Elsewhere ``hv_star`` is the hypervolume of a sampled front, which falls
    short of the true one, so a set near the true front can score above 1:
    slightly on the 2-objective problems (0.15% on ZDT1), more on WFG1-3.
    The degenerate case of a fully dominated box returns 1 with a
    diagnostic warning.
    """
    hv = hypervolume(clip_to_box(points, ctx.objective_box), ctx.reference_point)
    undominated = ctx.hv_all - hv
    if undominated <= 0.0:
        warnings.warn("solution set dominates the entire objective box", stacklevel=2)
        return 1.0
    return (ctx.hv_all - ctx.hv_star) / undominated
