"""Command-line experiment harness.

Subcommands:

* ``construct`` builds a portfolio from a training manifest.
* ``evaluate`` runs one or more portfolios over a manifest with repetitions
  and writes per-run CSV plus a summary table.
* ``compare`` evaluates at least two portfolios (first one is the baseline)
  and adds Wilcoxon tests and win-draw-loss counts.
* ``analyze-members`` produces the per-member contribution matrix.

Exit status is 0 on success and 2 on any validated failure, which is
reported as one structured line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .core import ConfigurationError, ContractViolationError


def default_manifest(which: str) -> str:
    """Path of a packaged manifest ('train' or 'test')."""
    return str(resources.files(__package__).joinpath("manifests", f"{which}.json"))


def _add_common(parser, with_portfolio=True):
    """Options of every subcommand; those that run portfolios also take
    ``--portfolio`` and write into ``--out-dir``."""
    parser.add_argument("--manifest", default=None, help="problem manifest path (JSON)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    if with_portfolio:
        parser.add_argument(
            "--portfolio", action="append", required=True,
            help="portfolio file; repeat the flag to compare several",
        )
        parser.add_argument("--out-dir", default="results", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moeapap",
        description="portfolios of multi-objective evolutionary algorithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="automatically construct a portfolio")
    _add_common(con, with_portfolio=False)
    con.add_argument("--out", required=True, help="output portfolio file")
    con.add_argument("--report", default=None, help="construction report file (text)")
    con.add_argument("--k", type=int, default=10, help="maximum number of members")
    con.add_argument("--searches-per-iter", type=int, default=10)
    con.add_argument(
        "--budget-per-search", type=int, required=True,
        help="candidate evaluations per configurator search (no default: fidelity knob)",
    )
    con.add_argument("--foundations", default=None,
                     help="comma-separated subset of NSGA2,MOEAD,MOPSO")
    con.add_argument("--pop-size", type=int, default=None,
                     help="override manifest population sizes (desk-scale runs)")
    con.add_argument("--max-gens", type=int, default=None,
                     help="override manifest generation budgets")
    con.add_argument("--runs-per-problem", type=int, default=None,
                     help="override the number of seeds per training problem")

    for name, help_text in (
        ("evaluate", "evaluate portfolios over a manifest"),
        ("compare", "evaluate and statistically compare portfolios"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
        p.add_argument("--repetitions", type=int, default=30)
        p.add_argument("--variant", choices=["BASE", "NGEN", "NSIZE"], default="BASE")
        p.add_argument("--N", type=int, default=1, dest="n_factor",
                       help="budget multiplier for NGEN/NSIZE")
        p.add_argument("--indicators", default="HV,IGD,IHVR")

    ana = sub.add_parser("analyze-members", help="per-member contribution matrix")
    _add_common(ana)
    ana.add_argument("--repetitions", type=int, default=30)

    return parser


def _cmd_construct(args) -> int:
    from . import algorithms, construction, experiments

    manifest = experiments.load_manifest(args.manifest or default_manifest("train"))
    runs = args.runs_per_problem
    seeds = None if runs is None else tuple(range(1, runs + 1))
    Z = experiments.training_set_from_manifest(
        manifest, pop_size=args.pop_size, max_generations=args.max_gens, seeds=seeds
    )
    given = algorithms.FOUNDATIONS if args.foundations is None else args.foundations.split(",")
    foundations = [f.strip().upper() for f in given if f.strip()]
    space = construction.ConfigSpace.for_foundations(*foundations)
    # a bad output path fails before the runs, not after them
    for path in (args.out, args.report):
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    try:
        portfolio, report = construction.construct(
            space,
            Z,
            k=args.k,
            searches_per_iter=args.searches_per_iter,
            budget_per_search=args.budget_per_search,
            seed=args.seed,
            name=Path(args.out).stem,
        )
    except construction.EmptyPortfolioError as exc:
        # the report says why nothing was inserted; no portfolio is written
        _write_report(exc.report, args.report)
        raise ConfigurationError(str(exc)) from None
    construction.save_portfolio(portfolio, args.out)
    _write_report(report, args.report)
    print(f"constructed portfolio with {len(portfolio)} members -> {args.out}")
    return 0


def _write_report(report, path) -> None:
    """The construction report, to ``path`` when given and to stdout."""
    text = report.as_text()
    if path:
        Path(path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _cmd_experiment(args) -> int:
    """``evaluate`` and ``compare``; the subcommand is the experiment mode."""
    from . import experiments

    cfg = experiments.ExperimentConfig(
        mode=args.command,
        portfolio_paths=tuple(args.portfolio),
        manifest_path=args.manifest or default_manifest("test"),
        repetitions=args.repetitions,
        variant=args.variant,
        n_factor=args.n_factor,
        indicators=tuple(i.strip().upper() for i in args.indicators.split(",") if i.strip()),
        output_dir=args.out_dir,
        master_seed=args.seed,
        workers=args.workers,
    )
    table = experiments.run_experiment(cfg)
    if cfg.mode == "evaluate":
        print(f"{len(table.rows)} result rows -> {cfg.output_dir}/results.csv")
        return 0
    tests, wdl = experiments.compare_report(table)
    experiments.write_compare_files(cfg.output_dir, tests, wdl)
    for baseline, opponent, indicator, w, d, l in wdl:
        print(f"{baseline} vs {opponent} [{indicator}]: W-D-L = {w}-{d}-{l}")
    return 0


def _cmd_analyze_members(args) -> int:
    from . import construction, experiments

    if len(args.portfolio) != 1:
        raise ConfigurationError("analyze-members takes exactly one --portfolio")
    manifest = experiments.load_manifest(args.manifest or default_manifest("train"))
    portfolio = construction.load_portfolio(args.portfolio[0])
    if args.repetitions < 1:  # refused before the directory is made
        raise ConfigurationError("repetitions must be at least 1")
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)  # a bad path fails before the runs
    analysis = experiments.member_analysis(
        portfolio, manifest, repetitions=args.repetitions, master_seed=args.seed
    )
    (outdir / "member_analysis.txt").write_text(analysis.as_text(), encoding="utf-8")
    experiments.write_csv(outdir / "member_analysis.csv", analysis.as_csv_rows())
    sys.stdout.write(analysis.as_text())
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "evaluate": _cmd_experiment,
    "compare": _cmd_experiment,
    "analyze-members": _cmd_analyze_members,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, ContractViolationError, OSError, ValueError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
