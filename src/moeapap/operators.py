"""Variation operators: SBX, polynomial mutation, the DE mutation family
and PSO velocity/position updates.

Every operator is a pure function of its inputs plus an explicit
``numpy.random.Generator``; replaying the generator reproduces outputs
bitwise.  Random draws follow a fixed per-call pattern (one uniform per
dimension where the formulas ask for it) so results do not depend on data
values consuming different amounts of randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolationError

DE_VARIANTS = ("rand_p", "best_p", "current_to_rand_p", "current_to_best_p")


@dataclass(frozen=True)
class SbxParams:
    eta: int
    p_c: float = 1.0


@dataclass(frozen=True)
class PmParams:
    eta: int
    p_m: float


@dataclass(frozen=True)
class DeParams:
    variant: str
    F: float
    CR: float
    p: int = 1
    K: float | None = None

    def __post_init__(self):
        if self.variant not in DE_VARIANTS:
            raise ContractViolationError(f"unknown DE variant {self.variant!r}")
        if self.variant.startswith("current_to") and self.K is None:
            raise ContractViolationError(f"{self.variant} requires the blend factor K")

    @property
    def uses_best(self) -> bool:
        return "best" in self.variant

    @property
    def is_current_to(self) -> bool:
        return self.variant.startswith("current_to")


@dataclass(frozen=True)
class SmpsoMutation:
    eta_pm: int
    constriction: bool


@dataclass(frozen=True)
class OmopsoMutation:
    b: int


@dataclass(frozen=True)
class PsoParams:
    w: float
    c1: float
    c2: float
    v_max_ratio: float
    v_change: float
    grid_divisions: int
    mutation: SmpsoMutation | OmopsoMutation | None = None


def clamp(X: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    return np.clip(X, bounds[:, 0], bounds[:, 1])


def sbx_crossover(x1, x2, params: SbxParams, bounds, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover.

    Follows the standard application scheme: each variable is crossed with
    probability 0.5 (copied from the parents otherwise) using one spread
    factor drawn per dimension, and the two offspring values are exchanged
    per variable with probability 0.5.  Draw order: crossing mask, spread
    uniforms, exchange mask.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ContractViolationError("SBX parents must have equal length")
    if params.p_c < 1.0 and rng.random() > params.p_c:
        return x1.copy(), x2.copy()
    cross = rng.random(x1.size) < 0.5
    r = rng.random(x1.size)
    exponent = 1.0 / (1.0 + params.eta)
    beta = np.where(r <= 0.5, (2.0 * r) ** exponent, (1.0 / (2.0 - 2.0 * r)) ** exponent)
    c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
    c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
    c1 = np.where(cross, c1, x1)
    c2 = np.where(cross, c2, x2)
    exchange = rng.random(x1.size) < 0.5
    c1, c2 = np.where(exchange, c2, c1), np.where(exchange, c1, c2)
    return clamp(c1, bounds), clamp(c2, bounds)


def polynomial_mutation(x, params: PmParams, bounds, rng) -> np.ndarray:
    """Polynomial mutation with per-variable probability ``p_m``."""
    x = np.asarray(x, dtype=np.float64)
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    span = hi - lo
    apply = rng.random(x.size) < params.p_m
    r = rng.random(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_up = np.where(span > 0, (hi - x) / span, 0.0)
        d_down = np.where(span > 0, (x - lo) / span, 0.0)
    exponent = 1.0 / (params.eta + 1.0)
    low_branch = (2.0 * r + (1.0 - 2.0 * r) * d_up ** (params.eta + 1.0)) ** exponent - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - r) + (2.0 * r - 1.0) * d_down ** (params.eta + 1.0)) ** exponent
    delta = np.where(r <= 0.5, low_branch, high_branch)
    out = np.where(apply, x + delta * span, x)
    return clamp(out, bounds)


def de_mutation(target, base, pairs_a, pairs_b, params: DeParams, bounds, rng) -> np.ndarray:
    """One DE trial vector.

    ``base`` is the randomly chosen donor for rand/current-to-rand variants
    or the population-best donor for best variants; ``pairs_a``/``pairs_b``
    hold the ``p`` difference pairs as (p, d) stacks.  The forced dimension
    always takes the mutated value.
    """
    target = np.asarray(target, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    pairs_a = np.atleast_2d(np.asarray(pairs_a, dtype=np.float64))
    pairs_b = np.atleast_2d(np.asarray(pairs_b, dtype=np.float64))
    if pairs_a.shape != pairs_b.shape or pairs_a.shape[0] != params.p:
        raise ContractViolationError("DE difference pairs do not match the configured p")
    diff = (pairs_a - pairs_b).sum(axis=0)
    if params.is_current_to:
        mutant = target + params.K * (base - target) + params.F * diff
    else:
        mutant = base + params.F * diff
    r = rng.random(target.size)
    j_r = rng.integers(target.size)
    mask = r <= params.CR
    mask[j_r] = True
    return clamp(np.where(mask, mutant, target), bounds)


def smpso_constriction(c1: float, c2: float) -> float:
    phi = max(c1 + c2, 4.0)
    return 2.0 / abs(2.0 - phi - np.sqrt(phi * phi - 4.0 * phi))


def pso_update(
    x,
    velocity,
    pbest,
    gbest,
    params: PsoParams,
    bounds,
    rng,
    particle_index: int = 0,
    generation: int = 0,
    max_generations: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """One particle step: velocity update, cap, move, bound damping, mutation.

    Returns ``(new_velocity, new_position)``.
    """
    x = np.asarray(x, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    span = hi - lo
    r1 = rng.random(x.size)
    r2 = rng.random(x.size)
    v = params.w * velocity + params.c1 * r1 * (pbest - x) + params.c2 * r2 * (gbest - x)
    if isinstance(params.mutation, SmpsoMutation) and params.mutation.constriction:
        v = v * smpso_constriction(params.c1, params.c2)
    v_max = params.v_max_ratio * span
    v = np.clip(v, -v_max, v_max)
    pos = x + v
    below = pos < lo
    above = pos > hi
    hit = below | above
    pos = np.where(below, lo, np.where(above, hi, pos))
    v = np.where(hit, -params.v_change * v, v)
    pos = _pso_mutation(pos, params, bounds, rng, particle_index, generation, max_generations)
    return v, pos


def _pso_mutation(pos, params, bounds, rng, index, generation, max_generations):
    scheme = params.mutation
    if isinstance(scheme, SmpsoMutation):
        # polynomial mutation on a fixed 1-in-6 stripe of the swarm
        if index % 6 == 0:
            pm = PmParams(eta=scheme.eta_pm, p_m=1.0 / pos.size)
            pos = polynomial_mutation(pos, pm, bounds, rng)
    elif isinstance(scheme, OmopsoMutation):
        stripe = index % 3
        if stripe == 0:
            pos = _uniform_mutation(pos, scheme.b, bounds, rng)
        elif stripe == 1:
            pos = _nonuniform_mutation(pos, bounds, rng, generation, max_generations)
    return pos


def _uniform_mutation(pos, b, bounds, rng):
    span = bounds[:, 1] - bounds[:, 0]
    apply = rng.random(pos.size) < 1.0 / pos.size
    shift = (2.0 * rng.random(pos.size) - 1.0) * b * span / 100.0
    return clamp(np.where(apply, pos + shift, pos), bounds)


def _nonuniform_mutation(pos, bounds, rng, generation, max_generations, degree: float = 5.0):
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    apply = rng.random(pos.size) < 1.0 / pos.size
    up = rng.random(pos.size) < 0.5
    r = rng.random(pos.size)
    frac = min(generation / max(max_generations, 1), 1.0)
    shrink = 1.0 - r ** ((1.0 - frac) ** degree)
    delta = np.where(up, (hi - pos) * shrink, -(pos - lo) * shrink)
    return clamp(np.where(apply, pos + delta, pos), bounds)
