"""Automatic greedy portfolio construction.

The constructor iterates: a batch of configurator searches, each confined to
one foundation subspace in a round-robin rotation that runs on across
iterations, proposes candidates scored by their mean marginal contribution to
the portfolio over the training set; the best candidate is inserted unless it
brings no strict improvement, and a simplification pass then drops members
whose removal costs nothing.  The configurator itself is a sealed model-free
search (uniform sampling interleaved with single-parameter perturbations of
the incumbent) behind a narrow interface, so a model-based tool can replace
it without touching the loop.

One evaluator holds the constructor's state: one ``portfolio.MemberRuns``
store of every member run and every per-problem portfolio score.  A
portfolio is scored by passing the stored triples to
``portfolio.output_rule``, the rule ``run_pap`` applies; member seeds depend
on the config fingerprint only, so stored runs stay valid as the portfolio
grows and shrinks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import problems
from ._seeding import rng_for, seed_sequence
from .algorithms import FOUNDATIONS, LEGAL_OPERATORS, PARAM_SCHEMAS, AlgorithmConfig, RunBudget
from .core import ConfigurationError, ContractViolationError
from .portfolio import MAX_MEMBERS, MemberRuns, Portfolio, output_rule

PORTFOLIO_FORMAT = "moeapap-portfolio"
PORTFOLIO_VERSION = 1


class PortfolioFormatError(ValueError):
    """A portfolio file failed schema or range validation."""


# ---------------------------------------------------------------------------
# configuration space
# ---------------------------------------------------------------------------


@dataclass
class Subspace:
    """All configurations of one foundation algorithm."""

    foundation: str
    operators: tuple[str, ...]
    schemas: dict

    @staticmethod
    def for_foundation(foundation: str) -> "Subspace":
        if foundation not in FOUNDATIONS:
            raise ConfigurationError(
                f"unknown foundation {foundation!r}; valid foundations: {', '.join(FOUNDATIONS)}"
            )
        ops = LEGAL_OPERATORS[foundation]
        return Subspace(
            foundation, ops, {op: dict(PARAM_SCHEMAS[(foundation, op)]) for op in ops}
        )

    def sample(self, rng) -> AlgorithmConfig:
        operator = self.operators[rng.integers(len(self.operators))]
        params = {
            name: _sample_value(spec, rng) for name, spec in self.schemas[operator].items()
        }
        return AlgorithmConfig.make(self.foundation, operator, **params)

    def perturb(self, config: AlgorithmConfig, rng) -> AlgorithmConfig:
        """Move one parameter: 10% of the range for numeric values, one step
        for categorical ones."""
        schema = self.schemas[config.operator]
        names = sorted(schema)
        params = dict(config.params)
        name = names[rng.integers(len(names))]
        params[name] = _perturb_value(params[name], schema[name], rng)
        return AlgorithmConfig.make(config.foundation, config.operator, **params)


def _sample_value(spec, rng):
    kind = spec[0]
    if kind == "int":
        return int(rng.integers(spec[1], spec[2] + 1))
    if kind == "float":
        lo, hi, low_open = spec[1], spec[2], spec[3]
        value = lo + rng.random() * (hi - lo)
        if low_open and value <= lo:
            value = np.nextafter(lo, hi)
        return float(value)
    values = spec[1]
    return values[rng.integers(len(values))]


def _perturb_value(current, spec, rng):
    kind = spec[0]
    if kind == "int":
        lo, hi = spec[1], spec[2]
        step = max(1, round(0.1 * (hi - lo)))
        move = step if rng.random() < 0.5 else -step
        return int(np.clip(current + move, lo, hi))
    if kind == "float":
        lo, hi, low_open = spec[1], spec[2], spec[3]
        step = 0.1 * (hi - lo)
        value = current + (step if rng.random() < 0.5 else -step)
        value = float(np.clip(value, lo, hi))
        if low_open and value <= lo:
            value = np.nextafter(lo, hi)
        return value
    values = spec[1]
    idx = next(i for i, v in enumerate(values) if v == current and type(v) is type(current))
    if len(values) == 1:
        return current
    move = 1 if rng.random() < 0.5 else -1
    return values[int(np.clip(idx + move, 0, len(values) - 1))]


@dataclass(frozen=True)
class ConfigSpace:
    subspaces: tuple[Subspace, ...]

    def __post_init__(self):
        if not self.subspaces:
            raise ConfigurationError("configuration space needs at least one subspace")
        foundations = [sub.foundation for sub in self.subspaces]
        repeated = sorted({f for f in foundations if foundations.count(f) > 1})
        if repeated:
            raise ConfigurationError(
                f"configuration space lists foundation(s) {', '.join(repeated)} more than once"
            )

    @staticmethod
    def default() -> "ConfigSpace":
        return ConfigSpace(tuple(Subspace.for_foundation(f) for f in FOUNDATIONS))

    @staticmethod
    def for_foundations(*foundations: str) -> "ConfigSpace":
        return ConfigSpace(tuple(Subspace.for_foundation(f) for f in foundations))


# ---------------------------------------------------------------------------
# training set and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingProblem:
    name: str
    budget: RunBudget
    seeds: tuple[int, ...]

    def __post_init__(self):
        if not self.seeds:
            raise ConfigurationError(f"training problem {self.name} has no seeds")


@dataclass(frozen=True)
class TrainingSet:
    entries: tuple[TrainingProblem, ...]

    def __post_init__(self):
        if not self.entries:
            raise ConfigurationError("training set must not be empty")

    def __len__(self) -> int:
        return len(self.entries)


class _Evaluator:
    """Training scores of portfolios.  Holds one store of member runs and
    every per-problem score."""

    def __init__(self, Z: TrainingSet, runner=None):
        self.Z = Z
        self.runs = MemberRuns(runner)
        self._omega_memo: dict[tuple, float] = {}

    def omega_problem(self, configs, entry: TrainingProblem) -> float:
        """Mean over the entry's seeds of the portfolio score on one problem;
        a seed where every member failed scores zero."""
        if not configs:
            return 0.0
        memo_key = (tuple(c.fingerprint() for c in configs), entry.name)
        if memo_key in self._omega_memo:
            return self._omega_memo[memo_key]
        total, problem = 0.0, problems.get_problem(entry.name)
        for seed in entry.seeds:
            runs = [self.runs.get(c, problem, entry.budget, seed) for c in configs]
            if any(result is not None for result, _, _ in runs):
                total += output_rule(runs, entry.budget.pop_size, entry.name).omega
        value = total / len(entry.seeds)
        self._omega_memo[memo_key] = value
        return value

    def omega(self, configs) -> float:
        return sum(self.omega_problem(configs, e) for e in self.Z.entries) / len(self.Z)


def marginal_contribution(configs, candidate: AlgorithmConfig, ev: _Evaluator) -> float:
    """Mean per-problem improvement from adding ``candidate`` to ``configs``."""
    configs = list(configs)
    total = 0.0
    for entry in ev.Z.entries:
        base = ev.omega_problem(configs, entry)
        extended = ev.omega_problem(configs + [candidate], entry)
        total += extended - base
    return total / len(ev.Z)


def configure_subspace(
    configs, subspace: Subspace, ev: _Evaluator, budget: int, seed: int
) -> tuple[AlgorithmConfig, float]:
    """Model-free search for the best marginal contributor in one subspace.

    Alternates uniform sampling with single-parameter perturbations of the
    incumbent; returns the incumbent and its score.  Deterministic in
    ``seed``.
    """
    if budget < 1:
        raise ConfigurationError("configurator budget must be at least 1")
    rng = rng_for(seed, "configure", subspace.foundation)
    incumbent = None
    best = -np.inf
    for step in range(budget):
        if incumbent is None or step % 2 == 0:
            candidate = subspace.sample(rng)
        else:
            candidate = subspace.perturb(incumbent, rng)
        score = marginal_contribution(configs, candidate, ev)
        if score > best:
            best = score
            incumbent = candidate
    return incumbent, best


@dataclass
class ConstructionReport:
    """Trace of one constructor run: per-iteration candidates, insertions,
    simplification removals and the training-score trajectory."""

    iterations: list[dict] = field(default_factory=list)
    omega_trajectory: list[float] = field(default_factory=list)
    removals: list[dict] = field(default_factory=list)
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    cache_stats: dict = field(default_factory=dict)

    def as_text(self) -> str:
        lines = ["construction report", "===================", ""]
        for it in self.iterations:
            lines.append(f"iteration {it['iteration']}:")
            for cand in it["candidates"]:
                lines.append(
                    f"  search {cand['search']} (subspace {cand['subspace']}): "
                    f"{cand['config']} marginal={cand['marginal']:.6f}"
                )
            if it["inserted"] is None:
                lines.append("  no strict improvement; stopped")
            else:
                lines.append(f"  inserted {it['inserted']} omega={it['omega_after']:.6f}")
        for rem in self.removals:
            lines.append(
                f"simplification: removed {rem['config']} at iteration {rem['iteration']} "
                f"(omega {rem['omega_before']:.6f} -> {rem['omega_after']:.6f})"
            )
        if self.failures:
            lines += ["", "member-run failures (scored as no improvement):"]
            lines += [f"  {label} on {problem}: {msg}" for label, problem, msg in self.failures]
        lines.append("")
        lines.append("omega trajectory: " + ", ".join(f"{v:.6f}" for v in self.omega_trajectory))
        if self.cache_stats:
            lines.append(
                f"cache: {self.cache_stats['entries']} entries, "
                f"{self.cache_stats['hits']} hits, {self.cache_stats['misses']} misses"
            )
        return "\n".join(lines) + "\n"


def construct(
    space: ConfigSpace,
    Z: TrainingSet,
    k: int = 10,
    searches_per_iter: int = 10,
    budget_per_search: int = 4,
    seed: int = 0,
    runner=None,
    name: str = "constructed",
) -> tuple[Portfolio, ConstructionReport]:
    """Greedy insertion with subspace rotation and simplification.

    Search ``i`` (1..s, ``s = searches_per_iter``) of iteration ``t`` is
    confined to subspace ``((t - 1) * s + i) % c`` of the ``c`` subspaces, so
    the searches rotate across iterations and reach every subspace even when
    ``s < c``.  The best-scoring candidate is inserted only on strict
    improvement of the mean training score; afterwards any member whose
    removal does not decrease the score is dropped (repeated to a fixed
    point).
    """
    if not 1 <= k <= MAX_MEMBERS:
        raise ConfigurationError(f"portfolio size bound k must be between 1 and {MAX_MEMBERS}")
    if searches_per_iter < 1:
        raise ConfigurationError("searches_per_iter must be at least 1")
    ev = _Evaluator(Z, runner=runner)
    subspaces = space.subspaces
    c = len(subspaces)
    members: list[AlgorithmConfig] = []
    report = ConstructionReport()
    omega_current = 0.0
    iteration = 0
    # simplification can keep |P| flat across iterations; cap the loop so a
    # run always terminates even under vanishing float improvements
    max_iterations = 4 * k + 16

    while len(members) < k and iteration < max_iterations:
        iteration += 1
        offset = (iteration - 1) * searches_per_iter
        found = [
            configure_subspace(
                members,
                subspaces[(offset + i) % c],
                ev,
                budget_per_search,
                seed=int(seed_sequence(seed, iteration, i).generate_state(1)[0]),
            )
            for i in range(1, searches_per_iter + 1)
        ]
        best, best_score = max(found, key=lambda pair: pair[1])
        entry = {
            "iteration": iteration,
            "candidates": [
                {"search": i, "subspace": (offset + i) % c, "config": theta.label(),
                 "marginal": score}
                for i, (theta, score) in enumerate(found, start=1)
            ],
            "inserted": None,
            "omega_after": omega_current,
        }
        if best_score <= 0.0:
            report.iterations.append(entry)
            break
        members.append(best)
        omega_current = ev.omega(members)
        entry["inserted"] = best.label()
        entry["omega_after"] = omega_current
        report.iterations.append(entry)
        report.omega_trajectory.append(omega_current)

        while True:
            changed = False
            for theta in list(members):
                if len(members) == 1:
                    break
                rest = [mm for mm in members if mm is not theta]
                omega_without = ev.omega(rest)
                if omega_without >= omega_current:
                    members.remove(theta)
                    report.removals.append(
                        {
                            "iteration": iteration,
                            "config": theta.label(),
                            "omega_before": omega_current,
                            "omega_after": omega_without,
                        }
                    )
                    omega_current = omega_without
                    changed = True
            if not changed:
                break

    report.failures = list(ev.runs.failures)
    made = len(ev.runs.runs)  # one run per miss
    report.cache_stats = {"entries": made, "hits": ev.runs.hits, "misses": made}
    if not members:
        raise ConfigurationError("construction produced an empty portfolio")
    return Portfolio(tuple(members), name=name), report


# ---------------------------------------------------------------------------
# portfolio serialization
# ---------------------------------------------------------------------------


def save_portfolio(portfolio: Portfolio, path) -> None:
    payload = {
        "format": PORTFOLIO_FORMAT,
        "version": PORTFOLIO_VERSION,
        "name": portfolio.name,
        "members": [
            {"foundation": m.foundation, "operator": m.operator, "params": dict(m.params)}
            for m in portfolio.members
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_portfolio(path) -> Portfolio:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PortfolioFormatError(f"not a valid portfolio file: {exc}") from exc
    if not isinstance(payload, dict):
        raise PortfolioFormatError("portfolio file must hold a JSON object")
    if payload.get("format") != PORTFOLIO_FORMAT:
        raise PortfolioFormatError(f"unrecognized portfolio format {payload.get('format')!r}")
    if payload.get("version") != PORTFOLIO_VERSION:
        raise PortfolioFormatError(f"unsupported portfolio version {payload.get('version')!r}")
    raw_members = payload.get("members")
    if not isinstance(raw_members, list) or not raw_members:
        raise PortfolioFormatError("portfolio file lists no members")
    members = []
    for i, raw in enumerate(raw_members):
        if not isinstance(raw, dict) or not isinstance(raw.get("params"), dict):
            raise PortfolioFormatError(f"member {i} is malformed")
        try:
            members.append(
                AlgorithmConfig.make(
                    str(raw.get("foundation")), str(raw.get("operator")), **raw["params"]
                )
            )
        except (ConfigurationError, TypeError) as exc:
            raise PortfolioFormatError(f"member {i} invalid: {exc}") from exc
    try:
        return Portfolio(tuple(members), name=str(payload.get("name", "portfolio")))
    except ContractViolationError as exc:
        raise PortfolioFormatError(str(exc)) from exc
