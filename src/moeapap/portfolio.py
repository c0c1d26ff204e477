"""Portfolio runtime: run member algorithms independently, merge their
solution sets through the Restructure rule, and return the best candidate
set by ihvr.

Member run seeds are derived from (run seed, member fingerprint), so adding
or removing members never perturbs the runs of the remaining members, and a
member run is a pure function of (config, problem, budget, run seed): the
unit of work.  ``MemberRuns`` is the one place a member run is made and
scored, once per key, as a ``(result, ihvr, failure)`` triple;
``output_rule`` reduces the triples of a portfolio's members, for
``run_pap`` and for the constructor alike.  It considers every member's set
plus the restructured union, so the portfolio's score on a problem is the
maximum over all candidates, each scored against the problem's own
memoized ``HvContext``.
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
    if len({s.objectives.shape[1] for s in sets}) > 1:
        raise ContractViolationError("cannot restructure sets with different objective counts")
    F = np.vstack([s.objectives for s in sets])

    # one row index: first occurrences, then the non-dominated rows, then truncation
    first: dict[bytes, int] = {}
    for i, row in enumerate(F):
        first.setdefault(row.tobytes(), i)
    index = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    if index.size:
        index = index[nd_mask(F[index])]
    if index.size > cap:
        index = index[crowding_truncate_indices(F[index], cap)]
    X = None
    if all(s.decisions is not None for s in sets):
        if len({s.decisions.shape[1:] for s in sets if len(s)}) <= 1:
            X = np.vstack([s.decisions for s in sets])[index]
    return SolutionSet(F[index], X)


def member_seed(run_seed: int, config: AlgorithmConfig) -> int:
    """Stable per-member seed: a function of the run seed and the member's
    configuration fingerprint only, never of its position."""
    state = seed_sequence(run_seed, "member", config.fingerprint()).generate_state(1, np.uint64)
    return int(state[0])


def output_rule(runs, cap: int, problem_name: str) -> PapRunResult:
    """Restructure the members' sets and pick the ihvr-best candidate.

    ``runs`` holds one ``MemberRuns.get`` triple ``(result, ihvr, failure)``
    per member; a failed run is ``(None, None, message)``.  The successful
    sets are restructured to at most ``cap`` rows and scored against the
    named problem's context; ties prefer the restructured set, then the
    lowest member index.  If every member failed this raises.
    """
    results, metrics, messages = zip(*runs)
    failures = tuple((i, msg) for i, msg in enumerate(messages) if msg is not None)
    good_sets = [r.solution_set for r in results if r is not None]
    if not good_sets:
        raise ContractViolationError(
            "every member run failed: " + "; ".join(msg for _, msg in failures)
        )
    merged = restructure(good_sets, cap=cap)
    restructure_metric = indicators.ihvr(merged, indicators.HvContext.for_problem(problem_name))
    candidates = [(restructure_metric, RESTRUCTURE, merged)] + [
        (metric, i, r.solution_set)
        for i, (r, metric) in enumerate(zip(results, metrics))
        if r is not None
    ]
    _, chosen, output = max(candidates, key=lambda c: c[0])  # first of the best
    return PapRunResult(
        member_results=results,
        restructured=merged,
        output=output,
        chosen_source=chosen,
        member_metrics=metrics,
        restructure_metric=restructure_metric,
        failures=failures,
    )


class MemberRuns:
    """The ``(result, ihvr, failure)`` triple of each run of one runner, by
    (config fingerprint, problem name, budget, run seed); the hit count; the
    failures as ``(label, problem, message)`` in first-run order.  A run's
    one time is its result's ``wall_time``.  ``runner`` (the budget
    variants, the tests' synthetic members) replaces ``algorithms.run``,
    which is looked up per run."""

    def __init__(self, runner=None):
        self.runner = runner
        self.runs: dict[tuple, tuple] = {}
        self.hits = 0
        self.failures: list[tuple[str, str, str]] = []

    def get(self, config, problem, budget: RunBudget, seed: int):
        """``(result, ihvr, None)`` of ``config``'s run at its member seed for
        run seed ``seed``, or ``(None, None, message)`` if the engine raised."""
        key = config.fingerprint(), problem.name, budget, seed
        if key in self.runs:
            self.hits += 1
            return self.runs[key]
        run, run_seed = self.runner or algorithms.run, member_seed(seed, config)
        try:
            result = run(config, problem, budget, run_seed)
        except Exception as exc:  # noqa: BLE001 - candidate exclusion is the contract
            failure = f"{type(exc).__name__}: {exc}"
            self.failures.append((config.label(), problem.name, failure))
            self.runs[key] = None, None, failure
        else:
            ctx = indicators.HvContext.for_problem(problem.name)
            self.runs[key] = result, indicators.ihvr(result.solution_set, ctx), None
        return self.runs[key]


def run_pap(portfolio: Portfolio, problem, budget: RunBudget, seed: int,
            runs: MemberRuns | None = None) -> PapRunResult:
    """Run every member through ``runs`` (a fresh store when None), then
    apply the output rule.  Failed member runs are excluded from the
    candidates and recorded in ``failures``; if every member fails the run
    errors out.  Jobs, not members, run in parallel (``experiments``)."""
    runs = MemberRuns() if runs is None else runs
    triples = [runs.get(c, problem, budget, seed) for c in portfolio.members]
    return output_rule(triples, budget.pop_size, problem.name)
