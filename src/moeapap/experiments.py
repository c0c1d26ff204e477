"""Experiment harness: manifest-driven evaluation with repetitions, the
budget-fairness variants, indicator tables with Wilcoxon summaries, and the
per-member contribution analysis.

All run seeds derive from the master seed, the problem name and the
repetition index only, so every compared algorithm sees common random
numbers and reruns are bitwise reproducible.  Wall times are written to a
separate timings file because they are the one non-deterministic output.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import algorithms, indicators, problems
from ._seeding import seed_sequence
from .algorithms import RunBudget
from .construction import TrainingProblem, TrainingSet, load_portfolio
from .core import ConfigurationError
from .portfolio import PapRunResult, Portfolio, restructure, run_pap
from .stats import ALPHA, wdl_counts, wilcoxon_rank_sum

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
    unavailable: tuple[str, ...] = ()
    notes: str = ""


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
            seeds = tuple(int(s) for s in item.get("seeds", (1, 2, 3)))
            entries.append(
                ManifestEntry(name, int(item["pop_size"]), int(item["max_generations"]), seeds)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest entry {item!r}: {exc}") from exc
        if any(e.name == name for e in entries[:-1]):
            # results are keyed by problem, so a second entry would merge
            # with or overwrite the first one's runs
            raise ManifestError(f"manifest lists problem {name} more than once")
    unavailable = tuple(str(u.get("name", u)) for u in payload.get("unavailable", ()))
    return Manifest(tuple(entries), unavailable, str(payload.get("notes", "")))


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
        bad = [i for i in self.indicators if i not in ALL_INDICATORS]
        if bad:
            raise ConfigurationError(f"unknown indicators {bad}")
        if self.mode not in ("evaluate", "compare"):
            raise ConfigurationError(f"mode must be 'evaluate' or 'compare', got {self.mode!r}")
        if self.mode == "compare" and len(self.portfolio_paths) < 2:
            raise ConfigurationError("compare needs at least two portfolios")


@dataclass
class ResultTable:
    rows: list[tuple] = field(default_factory=list)  # CSV_HEADER-shaped tuples
    timings: list[tuple] = field(default_factory=list)
    failures: list[tuple] = field(default_factory=list)  # as _RunRecord.failures
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
    portfolio_name: str
    portfolio: Portfolio
    entry: ManifestEntry
    repetition: int
    seed: int
    runner: object  # engine dispatch override, None for algorithms.run
    wanted: tuple[str, ...]  # indicators to compute


@dataclass(frozen=True)
class _RunRecord:
    values: dict[str, float]
    member_metrics: tuple[float | None, ...]
    best_member_metric: float
    omega: float
    # (portfolio, problem, repetition, seed, member label, message) per failed member
    failures: tuple[tuple, ...]
    wall_ms: float


def _jobs(portfolios, entries, repetitions: int, master_seed: int, runner, wanted=()):
    """One job per (name, portfolio) pair, entry and repetition, in that order."""
    return [
        _Job(name, portfolio, entry, rep, run_seed_for(master_seed, entry.name, rep),
             runner, wanted)
        for name, portfolio in portfolios
        for entry in entries
        for rep in range(repetitions)
    ]


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


def _experiment_job(job: _Job) -> _RunRecord:
    problem = problems.get_problem(job.entry.name)
    start = time.perf_counter()
    pap = run_pap(job.portfolio, problem, job.entry.budget, job.seed, runner=job.runner)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return _RunRecord(
        _indicator_values(pap, job.entry, job.wanted),
        pap.member_metrics, pap.best_member_metric, pap.omega,
        tuple((job.portfolio_name, job.entry.name, job.repetition, job.seed,
               job.portfolio.members[i].label(), message) for i, message in pap.failures),
        wall_ms,
    )


def _map_jobs(jobs: list[_Job], workers: int = 1) -> list[_RunRecord]:
    """Records of the jobs in job order, over ``workers`` processes."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_experiment_job, jobs, chunksize=1))
    return [_experiment_job(job) for job in jobs]


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

    runner = variant_runner(cfg.variant, cfg.n_factor)
    jobs = _jobs(zip(names, portfolios), manifest.entries, cfg.repetitions, cfg.master_seed,
                 runner, cfg.indicators)
    # the runs go in manifest order, the results in (portfolio, problem name, repetition) order
    runs = sorted(zip(jobs, _map_jobs(jobs, cfg.workers)), key=lambda run: (
        names.index(run[0].portfolio_name), run[0].entry.name, run[0].repetition))
    table = ResultTable()
    for run_id, (job, record) in enumerate(runs):
        name, prob = job.portfolio_name, job.entry.name
        for ind in cfg.indicators:
            table.add_row((run_id, job.seed, name, prob, cfg.variant, ind, record.values[ind]))
        table.timings.append((run_id, name, prob, job.repetition, record.wall_ms))
        table.failures += record.failures

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
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
            base_by_problem = {}
            opp_by_problem = {}
            for prob in table.problems():
                a = table.values(baseline, prob, ind)
                b = table.values(opponent, prob, ind)
                if not a or not b:
                    continue
                base_by_problem[prob] = a
                opp_by_problem[prob] = b
                stat, p = wilcoxon_rank_sum(a, b)
                tests.append((baseline, opponent, prob, ind, stat, p, p < ALPHA))
            if base_by_problem:
                w, d, l = wdl_counts(
                    base_by_problem, opp_by_problem, larger_is_better=_LARGER_BETTER[ind]
                )
                wdl.append((baseline, opponent, ind, w, d, l))
    return tests, wdl


def write_compare_files(output_dir, tests, wdl) -> None:
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
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
    failures: list[tuple] = field(default_factory=list)  # as _RunRecord.failures

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
    jobs = _jobs([(portfolio.name, portfolio)], manifest.entries, repetitions, master_seed,
                 runner)
    records = iter(_map_jobs(jobs))
    analysis = MemberAnalysis([m.label() for m in portfolio.members], [], {}, {}, {})
    for entry in manifest.entries:
        sums, sum_eq11, sum_eq14 = np.zeros(len(portfolio)), 0.0, 0.0
        for record in islice(records, repetitions):
            sums += np.asarray([m if m is not None else 0.0 for m in record.member_metrics])
            sum_eq11 += record.best_member_metric
            sum_eq14 += record.omega
            analysis.failures += record.failures
        analysis.problems.append(entry.name)
        analysis.member_means[entry.name] = (sums / repetitions).tolist()
        analysis.no_restructure[entry.name] = sum_eq11 / repetitions
        analysis.full_pap[entry.name] = sum_eq14 / repetitions
    return analysis
