"""Portfolio runtime: run member algorithms independently, merge their
solution sets through the Restructure rule, and return the best candidate
set by the configured metric.

The output rule considers every member's set plus the restructured union,
so the portfolio's score on a problem is the maximum over all candidates.
Member run seeds are derived from (run seed, member fingerprint), so adding
or removing members never perturbs the runs of the remaining members and
identical configurations reproduce identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algorithms, indicators
from ._kernels import nd_mask
from ._seeding import seed_sequence
from .algorithms import AlgorithmConfig, RunBudget, RunResult
from .core import ContractViolationError, SolutionSet, crowding_truncate_indices

MAX_MEMBERS = 10
RESTRUCTURE = "restructure"


@dataclass(frozen=True)
class Portfolio:
    members: tuple[AlgorithmConfig, ...]
    name: str = "portfolio"

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not 1 <= len(members) <= MAX_MEMBERS:
            raise ContractViolationError(
                f"a portfolio holds between 1 and {MAX_MEMBERS} members, got {len(members)}"
            )
        for m in members:
            if not isinstance(m, AlgorithmConfig):
                raise ContractViolationError("portfolio members must be AlgorithmConfig values")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class PapRunResult:
    member_results: tuple[RunResult | None, ...] = field(repr=False)
    restructured: SolutionSet = field(repr=False)
    output: SolutionSet = field(repr=False)
    chosen_source: int | str
    member_metrics: tuple[float | None, ...]
    restructure_metric: float
    failures: tuple[tuple[int, str], ...] = ()

    @property
    def omega(self) -> float:
        """The chosen candidate's metric (the portfolio's score on this run)."""
        if self.chosen_source == RESTRUCTURE:
            return self.restructure_metric
        return self.member_metrics[self.chosen_source]

    @property
    def best_member_metric(self) -> float:
        values = [v for v in self.member_metrics if v is not None]
        if not values:
            raise ContractViolationError("no successful member runs")
        return max(values)


def restructure(sets, cap: int) -> SolutionSet:
    """Merge SolutionSets into one non-dominated set of at most ``cap``.

    All sets must share one objective count.  Exact objective duplicates are
    pruned (first occurrence wins), then the non-dominated subset of the
    union is extracted and crowd-truncated.  Decisions are kept when every
    set carries them with one width.
    """
    sets = list(sets)
    if not sets:
        raise ContractViolationError("restructure needs at least one set")
    objectives = [s.objectives for s in sets]
    m = objectives[0].shape[1]
    if any(o.shape[1] != m for o in objectives):
        raise ContractViolationError("cannot restructure sets with different objective counts")
    decisions = None
    if all(s.decisions is not None for s in sets):
        widths = {s.decisions.shape[1:] for s in sets if len(s)}
        if len(widths) <= 1:
            decisions = [s.decisions for s in sets]
    F = np.vstack(objectives)
    X = np.vstack(decisions) if decisions is not None else None

    seen: dict[bytes, None] = {}
    fresh = np.empty(F.shape[0], dtype=bool)
    for i, row in enumerate(F):
        key = row.tobytes()
        fresh[i] = key not in seen
        seen[key] = None
    F = F[fresh]
    if X is not None:
        X = X[fresh]

    if F.shape[0]:
        keep = nd_mask(np.ascontiguousarray(F))
        F = F[keep]
        if X is not None:
            X = X[keep]
    if F.shape[0] > cap:
        sel = crowding_truncate_indices(F, cap)
        F = F[sel]
        if X is not None:
            X = X[sel]
    return SolutionSet(F, X)


def member_seed(run_seed: int, config: AlgorithmConfig) -> int:
    """Stable per-member seed: a function of the run seed and the member's
    configuration fingerprint only, never of its position."""
    state = seed_sequence(run_seed, "member", config.fingerprint()).generate_state(1, np.uint64)
    return int(state[0])


def output_rule(results, metrics, cap: int, ctx, failures=()) -> PapRunResult:
    """Restructure the members' sets and pick the metric-best candidate.

    ``results`` holds one ``RunResult`` per member (``None`` for a failed
    run) and ``metrics`` their ihvr values.  The successful sets are
    restructured to at most ``cap`` rows; ties prefer the restructured set,
    then the lowest member index.  If every member failed this raises.
    """
    good_sets = [r.solution_set for r in results if r is not None]
    if not good_sets:
        raise ContractViolationError(
            "every member run failed: " + "; ".join(msg for _, msg in failures)
        )
    merged = restructure(good_sets, cap=cap)
    restructure_metric = indicators.ihvr(merged, ctx)
    candidates = [(restructure_metric, RESTRUCTURE, merged)] + [
        (metric, i, r.solution_set)
        for i, (r, metric) in enumerate(zip(results, metrics))
        if r is not None
    ]
    _, chosen, output = max(candidates, key=lambda c: c[0])  # first of the best
    return PapRunResult(
        member_results=tuple(results),
        restructured=merged,
        output=output,
        chosen_source=chosen,
        member_metrics=tuple(metrics),
        restructure_metric=restructure_metric,
        failures=tuple(failures),
    )


def run_pap(
    portfolio: Portfolio,
    problem,
    budget: RunBudget,
    seed: int,
    ctx: indicators.HvContext | None = None,
    runner=None,
) -> PapRunResult:
    """Execute every member in turn, then apply the output rule.

    Failed member runs are excluded from the candidates and recorded; if
    every member fails the run errors out.  ``runner`` may replace the
    engine dispatch, which is how synthetic member behaviors are injected in
    tests.  Runs are parallelised across jobs by the experiment harness, not
    here.
    """
    if ctx is None:
        ctx = indicators.HvContext.for_problem(problem.name)
    run = algorithms.run if runner is None else runner

    results: list[RunResult | None] = [None] * len(portfolio.members)
    failures: list[tuple[int, str]] = []
    for i, config in enumerate(portfolio.members):
        try:
            results[i] = run(config, problem, budget, member_seed(seed, config))
        except Exception as exc:  # noqa: BLE001 - candidate exclusion is the contract
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    metrics = [indicators.ihvr(r.solution_set, ctx) if r is not None else None for r in results]
    return output_rule(results, metrics, budget.pop_size, ctx, failures)
