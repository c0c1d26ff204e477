"""Acceptance criteria suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS line on success (run with ``pytest -s`` to see them; a
failure shows up as a normal pytest failure).  Expected total runtime is
dominated by criterion 6 (roughly six minutes on two cores).
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from moeapap.algorithms import AlgorithmConfig, RunBudget
from moeapap.construction import (
    ConfigSpace,
    Subspace,
    TrainingProblem,
    TrainingSet,
    construct,
    load_portfolio,
    save_portfolio,
)
from moeapap.core import SolutionSet
from moeapap.experiments import (
    ExperimentConfig,
    Manifest,
    ManifestEntry,
    member_analysis,
    run_experiment,
)
from moeapap.indicators import HvContext, hv_monte_carlo, hypervolume, igd
from moeapap.portfolio import Portfolio, restructure, run_pap
from moeapap.problems import get_problem, reference_front
from moeapap.stats import wilcoxon_rank_sum

pytestmark = pytest.mark.acceptance


def _report(number: int, text: str, elapsed: float) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text} ({elapsed:.1f}s)")


# --- independent oracles ------------------------------------------------------


def _nd_subset_oracle(F: np.ndarray) -> np.ndarray:
    """Vectorized all-pairs dominance filter, independent of the kernels."""
    n = F.shape[0]
    keep = np.ones(n, dtype=bool)
    for start in range(0, n, 128):
        blk = F[start:start + 128]
        le = (F[None, :, :] <= blk[:, None, :]).all(axis=2)
        lt = (F[None, :, :] < blk[:, None, :]).any(axis=2)
        keep[start:start + 128] = ~(le & lt).any(axis=1)
    return F[keep]


def _rect_union_oracle(P: np.ndarray, ref: np.ndarray) -> float:
    """2-d dominated area by grid decomposition."""
    P = P[(P < ref).all(axis=1)]
    if P.shape[0] == 0:
        return 0.0
    xs = np.unique(np.concatenate((P[:, 0], ref[:1])))
    ys = np.unique(np.concatenate((P[:, 1], ref[1:])))
    covered = (P[:, None, 0] <= xs[None, :-1]).T @ np.ones(P.shape[0]) if False else None
    # dominated(i, j) for cell with lower corner (xs[i], ys[j])
    dom = np.zeros((xs.size - 1, ys.size - 1), dtype=bool)
    for p in P:
        dom |= (xs[:-1, None] >= p[0]) & (ys[None, :-1] >= p[1])
    wx = np.diff(xs)[:, None]
    wy = np.diff(ys)[None, :]
    return float((dom * wx * wy).sum())


def _exact_wilcoxon_oracle(a, b) -> float:
    pooled = np.concatenate((a, b))
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(pooled.size)
    sv = pooled[order]
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w = ranks[: len(a)].sum()
    sums = [sum(c) for c in combinations(ranks.tolist(), len(a))]
    lo = sum(1 for s in sums if s <= w + 1e-9)
    hi = sum(1 for s in sums if s >= w - 1e-9)
    return min(1.0, 2.0 * min(lo, hi) / len(sums))


# --- criteria -----------------------------------------------------------------


def test_criterion_1_restructure_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1001)
    for trial in range(500):
        m = 2 if trial % 2 == 0 else 3
        sets = []
        for _ in range(int(rng.integers(1, 7))):
            cloud = rng.random((int(rng.integers(1, 101)), m))
            sets.append(SolutionSet(_nd_subset_oracle(cloud)))
        union = np.vstack([s.objectives for s in sets])
        _, first_idx = np.unique(union, axis=0, return_index=True)
        deduped = union[np.sort(first_idx)]
        expected = _nd_subset_oracle(deduped)
        got = restructure(sets, cap=10**9).objectives
        assert sorted(map(tuple, got)) == sorted(map(tuple, expected)), f"trial {trial}"
    _report(1, "restructure equals the brute-force union filter on 500 instances",
            time.time() - start)


def test_criterion_2_hypervolume_exactness():
    start = time.time()
    rng = np.random.default_rng(1002)
    ref2 = np.array([1.0, 1.0])
    for _ in range(1000):
        P = rng.random((int(rng.integers(1, 51)), 2))
        exact = hypervolume(P, ref2)
        oracle = _rect_union_oracle(P, ref2)
        assert exact == pytest.approx(oracle, rel=1e-12, abs=1e-15)
    ref3 = np.array([1.0, 1.0, 1.0])
    retries = 0
    for i in range(100):
        P = rng.random((int(rng.integers(1, 51)), 3))
        exact = hypervolume(P, ref3)
        est, se = hv_monte_carlo(P, ref3, samples=1_000_000, seed=i)
        if abs(exact - est) > 3.0 * se + 1e-12:
            # a 3-sigma excursion is expected in roughly a quarter of full
            # suites; an independent redraw separates noise from bias
            retries += 1
            est, se = hv_monte_carlo(P, ref3, samples=1_000_000, seed=10_000 + i)
            assert abs(exact - est) <= 3.0 * se + 1e-12, f"set {i} biased"
    assert retries <= 3
    _report(2, "2-d HV matches the rectangle oracle (1e-12 rel, 1000 sets); "
               f"3-d HV within 3 SE of Monte-Carlo (1e6 samples, 100 sets, "
               f"{retries} noise retries)",
            time.time() - start)


def _random_config(rng) -> AlgorithmConfig:
    space = ConfigSpace.default()
    sub = space.subspaces[int(rng.integers(len(space.subspaces)))]
    return sub.sample(rng)


def test_criterion_3_output_rule_guarantee():
    start = time.time()
    rng = np.random.default_rng(1003)
    problems = ("ZDT1", "ZDT3", "DTLZ2", "DTLZ7", "UF4", "WFG4")
    violations = 0
    for trial in range(20):
        problem = get_problem(problems[trial % len(problems)])
        # population above the largest neighborhood the space can sample
        budget = RunBudget(int(rng.integers(52, 65)), int(rng.integers(2, 7)))
        members = []
        fingerprints = set()
        while len(members) < int(rng.integers(1, 4)):
            cfg = _random_config(rng)
            if cfg.fingerprint() not in fingerprints:
                fingerprints.add(cfg.fingerprint())
                members.append(cfg)
        extra = _random_config(rng)
        seed = int(rng.integers(0, 2**31))
        base = run_pap(Portfolio(tuple(members)), problem, budget, seed)
        if any(base.omega < v - 1e-15 for v in base.member_metrics if v is not None):
            violations += 1
        grown = run_pap(Portfolio(tuple(members) + (extra,)), problem, budget, seed)
        if grown.omega < base.omega - 1e-15:
            violations += 1
        shared = [v for v in grown.member_metrics[:-1]]
        if shared[: len(base.member_metrics)] != list(base.member_metrics):
            violations += 1  # common random numbers must leave members untouched
    assert violations == 0
    _report(3, "output metric >= every member and adding a member never hurts "
               "(20 randomized portfolio runs, zero violations)", time.time() - start)


def test_criterion_4_construction_monotonicity():
    start = time.time()
    nsga2_grid = Subspace(
        "NSGA2",
        ("sbx_pm", "rand_p"),
        {
            "sbx_pm": {"eta_sbx": ("cat", (5, 20, 60)), "eta_pm": ("cat", (5, 20))},
            "rand_p": {"F": ("cat", (0.3, 0.5, 0.9)), "p": ("cat", (1,)),
                       "CR": ("cat", (0.2, 0.9))},
        },
    )
    moead_grid = Subspace(
        "MOEAD",
        ("sbx_pm",),
        {
            "sbx_pm": {"eta_sbx": ("cat", (5, 20)), "eta_pm": ("cat", (5, 20)),
                       "ps": ("cat", (0.9,)), "n_r": ("cat", (2,)),
                       "neighbor_size": ("cat", (10,))},
        },
    )
    Z = TrainingSet(tuple(
        TrainingProblem(name, RunBudget(20, 30), (1, 2))
        for name in ("ZDT1", "ZDT6", "DTLZ2")
    ))
    portfolio, report = construct(
        ConfigSpace((nsga2_grid, moead_grid)), Z, k=4, searches_per_iter=4,
        budget_per_search=2, seed=7,
    )
    traj = report.omega_trajectory
    assert len(traj) >= 1
    assert all(b > a for a, b in zip(traj, traj[1:])), traj
    for removal in report.removals:
        assert removal["omega_after"] >= removal["omega_before"] - 1e-15
    assert 1 <= len(portfolio) <= 4
    _report(4, f"strictly increasing training score per insertion {traj} and "
               "no harmful simplification removal", time.time() - start)


def test_criterion_5_complementarity_ordering():
    start = time.time()
    portfolio = Portfolio(
        (
            AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20),
            AlgorithmConfig.make("MOEAD", "rand_p", F=0.5, CR=0.9, p=1, ps=0.9,
                                 n_r=2, neighbor_size=10),
        ),
        name="acceptance",
    )
    from moeapap.cli import default_manifest
    from moeapap.experiments import load_manifest

    full = load_manifest(default_manifest("train"))
    reduced = Manifest(tuple(
        ManifestEntry(e.name, 16, 8, e.seeds) for e in full.entries
    ))
    analysis = member_analysis(portfolio, reduced, repetitions=2, master_seed=11)
    for prob in analysis.problems:
        best_member = max(analysis.member_means[prob])
        assert analysis.no_restructure[prob] >= best_member - 1e-12, prob
        assert analysis.full_pap[prob] >= analysis.no_restructure[prob] - 1e-12, prob

    # constructed disjoint-front fixture: restructuring must strictly win
    a, b = portfolio.members
    t_low = np.linspace(0.0, 0.45, 25)
    t_high = np.linspace(0.55, 1.0, 25)
    fixture = {
        a.fingerprint(): np.column_stack((t_low, 1.0 - np.sqrt(t_low))),
        b.fingerprint(): np.column_stack((t_high, 1.0 - np.sqrt(t_high))),
    }

    def runner(config, problem, budget, seed):
        from moeapap.algorithms import RunResult

        return RunResult(SolutionSet(fixture[config.fingerprint()]), 0, 0.0, seed,
                         budget.pop_size)

    synthetic = Manifest((ManifestEntry("ZDT1", 64, 1, (1,)),))
    fixture_analysis = member_analysis(portfolio, synthetic, repetitions=1,
                                       master_seed=0, runner=runner)
    assert fixture_analysis.full_pap["ZDT1"] > fixture_analysis.no_restructure["ZDT1"]
    _report(5, "full output rule >= members-only >= best member on all 16 training "
               "problems; strictly better on the disjoint-front fixture",
            time.time() - start)


def test_criterion_6_desk_scale_indicator_magnitudes():
    start = time.time()
    zdt1 = get_problem("ZDT1")
    front = reference_front("ZDT1")
    budget = RunBudget(100, 250)
    from moeapap.algorithms import run

    nsga2 = AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=20, eta_pm=20)
    moead = AlgorithmConfig.make("MOEAD", "sbx_pm", eta_sbx=20, eta_pm=20, ps=0.9,
                                 n_r=2, neighbor_size=20)
    means = {}
    for label, cfg in (("NSGA2", nsga2), ("MOEAD", moead)):
        vals = [igd(run(cfg, zdt1, budget, seed=s).solution_set, front) for s in range(30)]
        means[label] = float(np.mean(vals))
        assert means[label] <= 2e-2, f"{label} mean IGD {means[label]}"

    # HV ordering consistency with IGD on three problems: a longer budget must
    # win on both indicators simultaneously
    for name in ("ZDT1", "ZDT2", "DTLZ2"):
        problem = get_problem(name)
        pf_front = reference_front(name)
        ctx = HvContext.for_problem(name)
        igd_by_budget = {}
        hv_by_budget = {}
        for gens in (40, 250):
            igd_vals = []
            hv_vals = []
            for seed in range(5):
                out = run(nsga2, problem, RunBudget(100, gens), seed=seed).solution_set
                igd_vals.append(igd(out, pf_front))
                from moeapap.indicators import clip_to_box

                hv_vals.append(
                    hypervolume(clip_to_box(out, ctx.objective_box), ctx.reference_point)
                )
            igd_by_budget[gens] = np.mean(igd_vals)
            hv_by_budget[gens] = np.mean(hv_vals)
        assert igd_by_budget[250] < igd_by_budget[40], name
        assert hv_by_budget[250] > hv_by_budget[40], name
    _report(6, f"mean IGD on ZDT1 over 30 seeds: NSGA-II {means['NSGA2']:.2e}, "
               f"MOEA/D {means['MOEAD']:.2e} (bound 2e-2); HV/IGD orderings agree "
               "on ZDT1/ZDT2/DTLZ2", time.time() - start)


def test_criterion_7_wilcoxon_correctness():
    start = time.time()
    _, p = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
    assert p == pytest.approx(0.1, abs=1e-12)
    rng = np.random.default_rng(1007)
    checked = 0
    for n in range(3, 10):
        for m in range(3, 10):
            if n + m > 12:
                continue
            for _ in range(8):
                a = rng.integers(0, 5, n).astype(float)
                b = rng.integers(0, 5, m).astype(float)
                _, p = wilcoxon_rank_sum(a, b)
                assert p == pytest.approx(_exact_wilcoxon_oracle(a, b), abs=1e-12)
                checked += 1
    _report(7, f"exact path matches the permutation oracle on {checked} tied samples "
               "(all n+m <= 12) and p({1,2,3} vs {4,5,6}) = 0.1", time.time() - start)


def test_criterion_8_determinism_and_serialization(tmp_path):
    start = time.time()
    portfolio = Portfolio(
        (
            AlgorithmConfig.make("NSGA2", "rand_p", F=1.072, CR=0.026, p=1),
            AlgorithmConfig.make("NSGA2", "sbx_pm", eta_sbx=15, eta_pm=20),
        ),
        name="det",
    )
    pf_path = tmp_path / "det.json"
    save_portfolio(portfolio, pf_path)
    reloaded = load_portfolio(pf_path)
    assert reloaded == portfolio
    assert reloaded.members[0].param("F") == 1.072
    assert reloaded.members[0].param("CR") == 0.026

    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({
        "format": "moeapap-manifest",
        "version": 1,
        "problems": [
            {"name": "ZDT1", "pop_size": 12, "max_generations": 5, "seeds": [1]},
            {"name": "DTLZ2", "pop_size": 12, "max_generations": 5, "seeds": [1]},
        ],
    }))
    digests = []
    for attempt in range(2):
        outdir = tmp_path / f"out{attempt}"
        cfg = ExperimentConfig(
            mode="evaluate", portfolio_paths=(str(pf_path),),
            manifest_path=str(manifest_path), repetitions=2,
            output_dir=str(outdir), master_seed=17,
        )
        run_experiment(cfg)
        digests.append((outdir / "results.csv").read_bytes())
    assert digests[0] == digests[1]
    _report(8, "byte-identical results.csv across reruns; portfolio round-trips "
               "with full parameter precision (F=1.072, CR=0.026)", time.time() - start)
