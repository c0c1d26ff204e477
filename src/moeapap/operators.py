"""Variation operators: SBX, polynomial mutation, the DE mutation family
and PSO velocity/position updates.

Every operator works on a batch: decision vectors are the rows of an
``(n, d)`` array, and a 1-d vector is one row (returned as a 1-d vector).
Every operator is a pure function of its inputs plus an explicit
``numpy.random.Generator``; replaying the generator reproduces outputs
bitwise.  Each call draws its random numbers as whole blocks shaped like
the batch (``rng.random(x.shape)``, one block per kind of draw, in a fixed
order), so the stream depends on the batch shape and never on data values,
and row ``i`` of a batched result equals a one-row call fed row ``i`` of
each block.

SBX, PM and DE also expose their arithmetic on pre-drawn uniforms
(``sbx_coefficients`` with ``sbx_child``, ``pm_apply``, ``de_apply``), so
MOEA/D can draw a generation's blocks once and make any subset of its
children from them: all of them as one batch, then again the stale ones
after the population has changed.  SBX keeps one copy of the spread
formula; MOEA/D computes only the child it keeps, NSGA-II both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolationError

DE_VARIANTS = ("rand_p", "best_p", "current_to_rand_p", "current_to_best_p")


@dataclass(frozen=True)
class SbxParams:
    eta: int


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
    # np.clip's own overhead dominates on single rows
    return np.minimum(np.maximum(X, bounds[:, 0]), bounds[:, 1])


def sbx_crossover(x1, x2, params: SbxParams, bounds, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of the parent rows ``x1[i]``, ``x2[i]``.

    Follows the standard application scheme: each variable is crossed with
    probability 0.5 (copied from the parents otherwise) using one spread
    factor drawn per variable, and the two offspring values are exchanged
    per variable with probability 0.5.  Draw order: crossing uniforms,
    spread uniforms, exchange uniforms.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ContractViolationError("SBX parents must have equal shapes")
    coefficients = sbx_coefficients(params, [rng.random(x1.shape) for _ in range(3)])
    return sbx_child(x1, x2, coefficients, bounds), sbx_child(x2, x1, coefficients, bounds)


def sbx_coefficients(params: SbxParams, U) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SBX on pre-drawn uniforms ``U = (crossing, spread, exchange)`` as
    per-variable coefficients ``(cross, exchange, P, Q)``.

    ``P``, ``Q`` are the spread factors ``1 + beta``, ``1 - beta``, swapped
    where ``exchange`` holds; ``sbx_child`` turns them into the first child,
    and into the second when the parents are passed in swapped order.
    """
    r = U[1]
    exponent = 1.0 / (1.0 + params.eta)
    beta = np.where(r <= 0.5, (2.0 * r) ** exponent, (1.0 / (2.0 - 2.0 * r)) ** exponent)
    exchange = U[2] < 0.5
    P = np.where(exchange, 1.0 - beta, 1.0 + beta)
    Q = np.where(exchange, 1.0 + beta, 1.0 - beta)
    return U[0] < 0.5, exchange, P, Q


def sbx_child(x1, x2, coefficients, bounds) -> np.ndarray:
    """The first SBX child of ``x1``, ``x2`` from ``sbx_coefficients``:
    ``0.5 * (P * x1 + Q * x2)`` where crossed, else ``x2`` where exchanged,
    else ``x1``.  ``sbx_child(x2, x1, ...)`` is the second child."""
    cross, exchange, P, Q = coefficients
    return clamp(np.where(cross, 0.5 * (P * x1 + Q * x2), np.where(exchange, x2, x1)), bounds)


def polynomial_mutation(x, params: PmParams, bounds, rng) -> np.ndarray:
    """Polynomial mutation of every row with per-variable probability ``p_m``.

    Draw order: application uniforms, then the perturbation uniforms.
    """
    x = np.asarray(x, dtype=np.float64)
    applied = rng.random(x.shape) < params.p_m
    return pm_apply(x, params, bounds, applied, rng.random(x.shape))


def pm_apply(x, params: PmParams, bounds, applied, r) -> np.ndarray:
    """Polynomial mutation on a pre-drawn application mask and perturbation
    uniforms ``r``.  Only the variables where ``applied`` holds are computed
    and clamped; the others are returned as they are."""
    out = np.array(x, dtype=np.float64)
    at = np.nonzero(applied)
    if not at[-1].size:
        return out
    v = out[at]
    r = r[at]
    lo, hi = bounds[at[-1]].T
    span = hi - lo
    d_up = (hi - v) / span
    d_down = (v - lo) / span
    exponent = 1.0 / (params.eta + 1.0)
    low_branch = (2.0 * r + (1.0 - 2.0 * r) * d_up ** (params.eta + 1.0)) ** exponent - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - r) + (2.0 * r - 1.0) * d_down ** (params.eta + 1.0)) ** exponent
    delta = np.where(r <= 0.5, low_branch, high_branch)
    out[at] = np.minimum(np.maximum(v + delta * span, lo), hi)
    return out


def de_mutation(target, base, pairs_a, pairs_b, params: DeParams, bounds, rng) -> np.ndarray:
    """DE trial vectors, one per row of ``target``.

    ``base`` holds the randomly chosen donor rows for rand/current-to-rand
    variants or the population-best donors for best variants;
    ``pairs_a``/``pairs_b`` hold each row's ``p`` difference pairs, shaped
    ``(n, p, d)`` (``(p, d)`` for a single row).
    """
    target = np.asarray(target, dtype=np.float64)
    return de_apply(target, base, pairs_a, pairs_b, params, bounds,
                    de_crossover_mask(target.shape, params.CR, rng))


def de_crossover_mask(shape, cr: float, rng) -> np.ndarray:
    """Binomial crossover mask: each variable with probability ``cr``, plus
    one forced variable per row.  Draw order: uniforms, forced indices."""
    r = rng.random(shape)
    forced = rng.integers(shape[-1], size=shape[:-1])
    return (r <= cr) | (np.arange(shape[-1]) == forced[..., None])


def de_apply(target, base, pairs_a, pairs_b, params: DeParams, bounds, mask) -> np.ndarray:
    """DE trial vectors from donor rows and a crossover ``mask``; masked
    variables take the mutated value, the rest keep the target's."""
    target = np.asarray(target, dtype=np.float64)
    pairs_a = np.asarray(pairs_a, dtype=np.float64)
    pairs_b = np.asarray(pairs_b, dtype=np.float64)
    if (
        pairs_a.shape != pairs_b.shape
        or pairs_a.ndim != target.ndim + 1
        or pairs_a.shape[-2] != params.p
    ):
        raise ContractViolationError("DE difference pairs do not match the configured p")
    diff = (pairs_a - pairs_b).sum(axis=-2)
    if params.is_current_to:
        mutant = target + params.K * (base - target) + params.F * diff
    else:
        mutant = base + params.F * diff
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
    particle_index=0,
    generation: int = 0,
    max_generations: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """One swarm step: velocity update, cap, move, bound damping, mutation.

    ``particle_index`` gives each row's index in the swarm, which picks the
    rows of the SMPSO (1 in 6) and OMOPSO (1 in 3 of each kind) mutation
    stripes.  Returns ``(new_velocity, new_position)``.
    """
    x = np.asarray(x, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    span = hi - lo
    r1 = rng.random(x.shape)
    r2 = rng.random(x.shape)
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
    _pso_mutation(pos, params, bounds, rng, np.asarray(particle_index), generation, max_generations)
    return v, pos


def _pso_mutation(pos, params, bounds, rng, index, generation, max_generations):
    """Mutate the stripe rows of ``pos`` in place."""
    scheme = params.mutation
    if isinstance(scheme, SmpsoMutation):
        # polynomial mutation on a fixed 1-in-6 stripe of the swarm
        rows = index % 6 == 0
        pm = PmParams(eta=scheme.eta_pm, p_m=1.0 / pos.shape[-1])
        pos[rows] = polynomial_mutation(pos[rows], pm, bounds, rng)
    elif isinstance(scheme, OmopsoMutation):
        uniform = index % 3 == 0
        nonuniform = index % 3 == 1
        pos[uniform] = _uniform_mutation(pos[uniform], scheme.b, bounds, rng)
        pos[nonuniform] = _nonuniform_mutation(pos[nonuniform], bounds, rng, generation, max_generations)


def _uniform_mutation(pos, b, bounds, rng):
    span = bounds[:, 1] - bounds[:, 0]
    apply = rng.random(pos.shape) < 1.0 / pos.shape[-1]
    shift = (2.0 * rng.random(pos.shape) - 1.0) * b * span / 100.0
    return clamp(np.where(apply, pos + shift, pos), bounds)


def _nonuniform_mutation(pos, bounds, rng, generation, max_generations, degree: float = 5.0):
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    apply = rng.random(pos.shape) < 1.0 / pos.shape[-1]
    up = rng.random(pos.shape) < 0.5
    r = rng.random(pos.shape)
    frac = min(generation / max(max_generations, 1), 1.0)
    shrink = 1.0 - r ** ((1.0 - frac) ** degree)
    delta = np.where(up, (hi - pos) * shrink, -(pos - lo) * shrink)
    return clamp(np.where(apply, pos + delta, pos), bounds)
