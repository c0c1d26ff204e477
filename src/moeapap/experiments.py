"""Experiment harness: manifest-driven evaluation with repetitions, the
budget-fairness variants, indicator tables with Wilcoxon summaries, and the
per-member contribution analysis.

All run seeds derive from the master seed, the problem name and the
repetition index only, so every compared algorithm sees common random
numbers and reruns are bitwise reproducible.  One job is one (problem,
repetition): it runs every portfolio through one ``portfolio.MemberRuns``
store, so a member that portfolios share runs once per job, and ``workers``
spreads the jobs over processes.  Wall times are written to a separate
timings file because they are the one non-deterministic output.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import algorithms, indicators, problems
from ._seeding import seed_sequence
from .algorithms import RunBudget
from .construction import TrainingProblem, TrainingSet, load_portfolio
from .core import ConfigurationError
from .portfolio import MemberRuns, PapRunResult, Portfolio, restructure, run_pap
from .stats import ALPHA, MIN_SAMPLE, wilcoxon_rank_sum

MANIFEST_FORMAT = "moeapap-manifest"
MANIFEST_VERSION = 1

BASE = "BASE"
NGEN = "NGEN"
NSIZE = "NSIZE"
VARIANTS = (BASE, NGEN, NSIZE)

HV = "HV"
IGD = "IGD"
IHVR = "IHVR"
ALL_INDICATORS = (HV, IGD, IHVR)

# indicators where larger values are better
_LARGER_BETTER = {HV: True, IGD: False, IHVR: True}

CSV_HEADER = ("run_id", "seed", "algorithm", "problem", "variant", "indicator", "value")


class ManifestError(ConfigurationError):
    """A problem manifest failed validation."""


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    pop_size: int
    max_generations: int
    seeds: tuple[int, ...]

    @property
    def budget(self) -> RunBudget:
        return RunBudget(self.pop_size, self.max_generations)


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]


def load_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ManifestError("not a problem manifest (bad or missing format marker)")
    if payload.get("version") != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest version {payload.get('version')!r}")
    raw = payload.get("problems")
    if not isinstance(raw, list) or not raw:
        raise ManifestError("manifest lists no problems")
    entries = []
    for item in raw:
        try:
            name = problems.get_problem(item["name"]).name
            seeds = item.get("seeds", [1, 2, 3])
            budget = (item["pop_size"], item["max_generations"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest entry {item!r}: {exc}") from exc
        # refused, not cast: int() would truncate 1.7 and true to 1 and read "12" as seeds 1, 2
        if not (isinstance(seeds, list) and all(map(_is_int, seeds)) and all(map(_is_int, budget))):
            raise ManifestError(
                f"malformed manifest entry {item!r}: pop_size and max_generations must be "
                "integers and seeds a list of integers"
            )
        try:
            RunBudget(*budget)
        except ConfigurationError as exc:
            raise ManifestError(f"manifest entry {name}: {exc}") from exc
        if any(e.name == name for e in entries):
            # results are keyed by problem, so a second entry would merge
            # with or overwrite the first one's runs
            raise ManifestError(f"manifest lists problem {name} more than once")
        entries.append(ManifestEntry(name, *budget, tuple(seeds)))
    # the problems a split leaves out, with reasons, are for the reader;
    # they are checked but not kept
    unavailable = payload.get("unavailable", [])
    if not (isinstance(unavailable, list)
            and all(isinstance(u, dict) and isinstance(u.get("name"), str) for u in unavailable)):
        raise ManifestError("manifest 'unavailable' must be a list of objects with a 'name' string")
    return Manifest(tuple(entries))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def training_set_from_manifest(
    manifest: Manifest,
    pop_size: int | None = None,
    max_generations: int | None = None,
    seeds: tuple[int, ...] | None = None,
) -> TrainingSet:
    """Training set with optional desk-scale budget/seed overrides."""
    entries = []
    for e in manifest.entries:
        budget = RunBudget(
            e.pop_size if pop_size is None else pop_size,
            e.max_generations if max_generations is None else max_generations,
        )
        entries.append(TrainingProblem(e.name, budget, e.seeds if seeds is None else seeds))
    return TrainingSet(tuple(entries))


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    portfolio_paths: tuple[str, ...]
    manifest_path: str
    repetitions: int = 30
    variant: str = BASE
    n_factor: int = 1
    indicators: tuple[str, ...] = ALL_INDICATORS
    output_dir: str = "results"
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}")
        if self.n_factor < 1:
            raise ConfigurationError("variant multiplier N must be at least 1")
        if self.variant == BASE and self.n_factor != 1:
            raise ConfigurationError("variant multiplier N needs variant NGEN or NSIZE")
        if not self.indicators:
            raise ConfigurationError(f"indicators must name at least one of {ALL_INDICATORS}")
        bad = [i for i in self.indicators if i not in ALL_INDICATORS]
        if bad:
            raise ConfigurationError(f"unknown indicators {bad}")
        if len(set(self.indicators)) < len(self.indicators):
            raise ConfigurationError(f"indicators listed more than once: {self.indicators}")
        if self.mode not in ("evaluate", "compare"):
            raise ConfigurationError(f"mode must be 'evaluate' or 'compare', got {self.mode!r}")
        if self.mode == "compare" and len(self.portfolio_paths) < 2:
            raise ConfigurationError("compare needs at least two portfolios")
        if self.mode == "compare" and self.repetitions < MIN_SAMPLE:
            raise ConfigurationError(
                f"compare needs at least {MIN_SAMPLE} repetitions, the smallest sample the "
                "rank-sum test accepts"
            )


@dataclass
class ResultTable:
    rows: list[tuple] = field(default_factory=list)  # CSV_HEADER-shaped tuples
    timings: list[tuple] = field(default_factory=list)
    failures: list[tuple] = field(default_factory=list)  # as _failures
    _cells: dict[tuple, list[float]] = field(default_factory=dict, repr=False)

    def add_row(self, row: tuple) -> None:
        self.rows.append(row)
        self._cells.setdefault((row[2], row[3], row[5]), []).append(row[6])

    def values(self, algorithm: str, problem: str, indicator: str) -> list[float]:
        return list(self._cells.get((algorithm, problem, indicator), ()))

    def algorithms(self) -> list[str]:
        return list(dict.fromkeys(key[0] for key in self._cells))

    def problems(self) -> list[str]:
        return list(dict.fromkeys(key[1] for key in self._cells))

    def summary_rows(self) -> list[tuple]:
        out = []
        for alg in self.algorithms():
            for prob in self.problems():
                for ind in ALL_INDICATORS:
                    vals = np.asarray(self.values(alg, prob, ind))
                    if vals.size:
                        out.append((alg, prob, ind, float(vals.mean()), float(vals.var())))
        return out


def run_seed_for(master_seed: int, problem_name: str, repetition: int) -> int:
    """Common-random-numbers run seed, shared by every compared algorithm."""
    state = seed_sequence(master_seed, problem_name, repetition).generate_state(1, np.uint64)
    return int(state[0])


def _variant_run(variant: str, n_factor: int, config, problem, budget, seed):
    if variant == NGEN:
        return algorithms.run(config, problem, budget.scaled(gen_factor=n_factor), seed)
    result = algorithms.run(config, problem, budget.scaled(pop_factor=n_factor), seed)
    reduced = restructure([result.solution_set], cap=budget.pop_size)
    return replace(result, solution_set=reduced)


def variant_runner(variant: str, n_factor: int):
    """Wrap the engine dispatch with the budget-fairness variant semantics.

    NGEN multiplies the generation budget; NSIZE multiplies the population
    and reduces the final set back to the original population size through
    the restructure rule.  The runner pickles, so it crosses to workers.
    """
    if variant == BASE or n_factor == 1:
        return None
    return partial(_variant_run, variant, n_factor)


@dataclass(frozen=True)
class _Job:
    portfolios: tuple[Portfolio, ...]
    entry: ManifestEntry
    repetition: int
    seed: int
    runner: object  # engine dispatch override, None for algorithms.run
    wanted: tuple[str, ...]  # indicators to compute


def _jobs(portfolios, entries, repetitions: int, master_seed: int, runner, wanted=()):
    """One job per entry and repetition, in that order, each running every
    portfolio at the entry's run seed for that repetition."""
    return [_Job(tuple(portfolios), entry, rep, run_seed_for(master_seed, entry.name, rep),
                 runner, wanted)
            for entry in entries for rep in range(repetitions)]


def _indicator_values(pap: PapRunResult, entry: ManifestEntry, wanted) -> dict[str, float]:
    out = {}
    if HV in wanted:
        ctx = indicators.HvContext.for_problem(entry.name)
        clipped = indicators.clip_to_box(pap.output, ctx.objective_box)
        out[HV] = indicators.hypervolume(clipped, ctx.reference_point)
    if IGD in wanted:
        out[IGD] = indicators.igd(pap.output, problems.reference_front(entry.name))
    if IHVR in wanted:
        out[IHVR] = pap.omega
    return out


def _experiment_job(job: _Job) -> list[tuple[PapRunResult, dict[str, float], float]]:
    """``(run, indicator values, wall_ms)`` per portfolio, over one store of
    member runs: ``wall_ms`` is the engine time (``RunResult.wall_time``)
    of each member run the portfolio reads, shared or not, plus its own
    time outside the engine calls it made (scoring those runs, its output
    rule, a variant's reduction, a failed run up to its raise)."""
    problem, budget = problems.get_problem(job.entry.name), job.entry.budget
    runs = MemberRuns(job.runner)
    out = []
    for portfolio in job.portfolios:
        made, start = len(runs.runs), time.perf_counter()
        pap = run_pap(portfolio, problem, budget, job.seed, runs)
        new = list(runs.runs.values())[made:]
        own_s = time.perf_counter() - start - sum(r.wall_time for r, _, _ in new if r is not None)
        member_s = sum(r.wall_time for r in pap.member_results if r is not None)
        out.append((pap, _indicator_values(pap, job.entry, job.wanted), (own_s + member_s) * 1000.0))
    return out


def _map_jobs(jobs: list[_Job], workers: int = 1) -> list[list[tuple]]:
    """Results of the jobs in job order, over ``workers`` processes."""
    if workers > 1:
        # imported here so that a serial run never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_experiment_job, jobs, chunksize=1))
    return [_experiment_job(job) for job in jobs]


def _failures(name: str, portfolio: Portfolio, job: _Job, pap: PapRunResult) -> list[tuple]:
    """(portfolio, problem, repetition, seed, member label, message) per failed member."""
    return [(name, job.entry.name, job.repetition, job.seed, portfolio.members[i].label(), message)
            for i, message in pap.failures]


def _failure_lines(failures, heading: str) -> list[str]:
    lines = [f"  {n} {p} repetition={r} seed={s} {label}: {msg}"
             for n, p, r, s, label, msg in failures]
    return ["", heading, *lines] if lines else []


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Evaluate every portfolio on every manifest problem for the configured
    repetitions; write results.csv, timings.csv and summary.txt."""
    manifest = load_manifest(cfg.manifest_path)
    portfolios = [load_portfolio(path) for path in cfg.portfolio_paths]
    names: list[str] = []
    for path, p in zip(cfg.portfolio_paths, portfolios):  # disambiguate duplicates by file stem
        names.append(f"{p.name}:{Path(path).stem}" if p.name in names else p.name)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"portfolio names collide: {names}")

    jobs = _jobs(portfolios, manifest.entries, cfg.repetitions, cfg.master_seed,
                 variant_runner(cfg.variant, cfg.n_factor), cfg.indicators)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)  # a bad path fails before the runs
    # the runs go in manifest order, the results in (portfolio, problem name, repetition) order
    done = sorted(zip(jobs, _map_jobs(jobs, cfg.workers)),
                  key=lambda run: (run[0].entry.name, run[0].repetition))
    table = ResultTable()
    for i, (name, portfolio) in enumerate(zip(names, portfolios)):
        for job, results in done:
            pap, values, wall_ms = results[i]
            run_id = len(table.timings)
            for ind in cfg.indicators:
                table.add_row((run_id, job.seed, name, job.entry.name, cfg.variant, ind, values[ind]))
            table.timings.append((run_id, name, job.entry.name, job.repetition, wall_ms))
            table.failures += _failures(name, portfolio, job, pap)

    _write_results_csv(outdir / "results.csv", table)
    _write_timings_csv(outdir / "timings.csv", table)
    (outdir / "summary.txt").write_text(format_summary(table, cfg), encoding="utf-8")
    return table


def _float_repr(v: float) -> str:
    return repr(float(v))


def write_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_results_csv(path, table: ResultTable) -> None:
    write_csv(path, [CSV_HEADER, *((*r[:6], _float_repr(r[6])) for r in table.rows)])


def _write_timings_csv(path, table: ResultTable) -> None:
    header = ("run_id", "algorithm", "problem", "repetition", "wall_ms")
    write_csv(path, [header, *((*r[:4], f"{r[4]:.3f}") for r in table.timings)])


def format_summary(table: ResultTable, cfg: ExperimentConfig) -> str:
    lines = [
        "experiment summary",
        "==================",
        f"variant={cfg.variant} N={cfg.n_factor} repetitions={cfg.repetitions} "
        f"seed={cfg.master_seed}",
        "variance uses the population convention (divisor n)",
        "HV reference point = objective-box upper corner (per problem metadata)",
        "",
        f"{'algorithm':28s} {'problem':8s} {'indicator':9s} {'mean':>14s} {'variance':>12s}",
    ]
    for alg, prob, ind, mean, var in table.summary_rows():
        lines.append(f"{alg:28s} {prob:8s} {ind:9s} {mean:14.6g} {var:12.3e}")
    lines += _failure_lines(
        table.failures, "member-run failures (each excluded from its run's candidates):"
    )
    return "\n".join(lines) + "\n"


def compare_report(table: ResultTable) -> tuple[list[tuple], list[tuple]]:
    """Wilcoxon tests of the first algorithm (baseline) against the rest.

    Returns (per-problem test rows, W-D-L rows).
    """
    algs = table.algorithms()
    if len(algs) < 2:
        raise ConfigurationError("comparison needs at least two algorithms")
    baseline = algs[0]
    tests = []
    wdl = []
    for opponent in algs[1:]:
        for ind in ALL_INDICATORS:
            tally = [0, 0, 0]  # win, draw, loss
            for prob in table.problems():
                a = table.values(baseline, prob, ind)
                b = table.values(opponent, prob, ind)
                if not a or not b:
                    continue
                stat, p = wilcoxon_rank_sum(a, b)
                tests.append((baseline, opponent, prob, ind, stat, p, p < ALPHA))
                tally[_wdl_outcome(p, np.mean(a), np.mean(b), _LARGER_BETTER[ind])] += 1
            if sum(tally):
                wdl.append((baseline, opponent, ind, *tally))
    return tests, wdl


def _wdl_outcome(p: float, mean_a: float, mean_b: float, larger_is_better: bool) -> int:
    """0, 1 or 2 for a baseline win, draw or loss: a win needs a test
    significant at ``ALPHA`` and a better baseline mean; a non-significant
    test or equal means is a draw."""
    if p >= ALPHA:
        return 1
    if mean_a > mean_b if larger_is_better else mean_a < mean_b:
        return 0
    return 1 if mean_a == mean_b else 2


def write_compare_files(output_dir, tests, wdl) -> None:
    """Write wilcoxon.csv and wdl.csv into ``output_dir``, which
    ``run_experiment`` made before its runs."""
    outdir = Path(output_dir)
    header = ("baseline", "opponent", "problem", "indicator", "statistic", "p_value", "significant")
    write_csv(outdir / "wilcoxon.csv", [
        header, *((*r[:4], _float_repr(r[4]), _float_repr(r[5]), int(r[6])) for r in tests)
    ])
    header = ("baseline", "opponent", "indicator", "win", "draw", "loss")
    write_csv(outdir / "wdl.csv", [header, *wdl])


@dataclass
class MemberAnalysis:
    """Per-problem mean scores of each member alone, the members-only output
    rule, and the full output rule including the restructured set."""

    member_labels: list[str]
    problems: list[str]
    member_means: dict[str, list[float]]
    no_restructure: dict[str, float]
    full_pap: dict[str, float]
    failures: list[tuple] = field(default_factory=list)  # as _failures

    def as_text(self) -> str:
        width = 14
        titles = [f"member{i + 1}" for i in range(len(self.member_labels))]
        titles += ["members-only", "full"]
        lines = [
            "member analysis (mean score per run; * = row best, _ = best member)",
            "problem ".ljust(9) + "".join(t.rjust(width) for t in titles),
        ]
        for prob in self.problems:
            means = self.member_means[prob]
            best_member = max(means)
            row_best = max(best_member, self.no_restructure[prob], self.full_pap[prob])
            cells = [prob.ljust(9)]
            for v in means:
                marks = ("_" if v == best_member else " ") + ("*" if v == row_best else " ")
                cells.append(f"{v:.4f}{marks}".rjust(width))
            for v in (self.no_restructure[prob], self.full_pap[prob]):
                marks = " " + ("*" if v == row_best else " ")
                cells.append(f"{v:.4f}{marks}".rjust(width))
            lines.append("".join(cells))
        lines += _failure_lines(
            self.failures, "member-run failures (each scores 0 in its member column):"
        )
        return "\n".join(lines) + "\n"

    def as_csv_rows(self) -> list[tuple]:
        members = [f"member_{i+1}" for i in range(len(self.member_labels))]
        return [("problem", *members, "members_only", "full_pap")] + [
            (prob, *map(_float_repr, self.member_means[prob]),
             _float_repr(self.no_restructure[prob]), _float_repr(self.full_pap[prob]))
            for prob in self.problems
        ]


def member_analysis(
    portfolio: Portfolio,
    manifest: Manifest,
    repetitions: int,
    master_seed: int = 0,
    runner=None,
) -> MemberAnalysis:
    """Mean per-member score, members-only score and full portfolio score
    per problem, averaged over repetitions with common random numbers.  A
    failed member run scores 0 and is listed in ``failures``."""
    if repetitions < 1:
        raise ConfigurationError("repetitions must be at least 1")
    jobs = _jobs([portfolio], manifest.entries, repetitions, master_seed, runner)
    sums: dict[str, np.ndarray] = {}  # member scores, then the two output rules
    failures = []
    for job, [(pap, _, _)] in zip(jobs, _map_jobs(jobs)):
        scores = [0.0 if m is None else m for m in pap.member_metrics]
        scores += [pap.best_member_metric, pap.omega]
        sums[job.entry.name] = sums.get(job.entry.name, 0.0) + np.asarray(scores)
        failures += _failures(portfolio.name, portfolio, job, pap)
    means = {name: (total / repetitions).tolist() for name, total in sums.items()}
    return MemberAnalysis(
        [m.label() for m in portfolio.members], list(means),
        {name: m[:-2] for name, m in means.items()}, {name: m[-2] for name, m in means.items()},
        {name: m[-1] for name, m in means.items()}, failures,
    )
