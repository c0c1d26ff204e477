"""Variation operator examples, statistical behavior and bound safety."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeapap import operators
from moeapap._seeding import rng_for
from moeapap.algorithms import AlgorithmConfig
from moeapap.core import ConfigurationError, ContractViolationError

from .oracles import pm_every_variable, sbx_both_children

UNIT = np.array([[0.0, 1.0]])


class _StubRng:
    """Deterministic stand-in feeding scripted uniform and integer blocks."""

    def __init__(self, randoms, integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self, size=None):
        block = self._randoms.pop(0)
        if size is None:
            return block
        return np.asarray(block, dtype=np.float64)

    def integers(self, high, size=None):
        return np.asarray(self._integers.pop(0))


def unit_bounds(d):
    return np.repeat(UNIT, d, axis=0)


class TestSbx:
    def test_beta_one_identity(self):
        # all variables crossed, spread uniform exactly 0.5 -> beta = 1
        rng = _StubRng([[0.0], [0.5], [1.0]])
        c1, c2 = operators.sbx_crossover(
            [0.3], [0.8], 7, unit_bounds(1), rng
        )
        assert c1[0] == pytest.approx(0.3)
        assert c2[0] == pytest.approx(0.8)

    def test_equal_parents_fixed_point(self):
        rng = rng_for("sbx-equal")
        x = np.full(5, 0.42)
        c1, c2 = operators.sbx_crossover(x, x, 3, unit_bounds(5), rng)
        assert np.allclose(c1, x) and np.allclose(c2, x)

    def test_hand_computed_offspring(self):
        # x1=0, x2=1, spread uniform 0.2, eta=1: beta = 0.4**0.5,
        # c1 = 0.5*(1-beta) ~ 0.18377, c2 = 0.5*(1+beta) ~ 0.81623
        rng = _StubRng([[0.0], [0.2], [1.0]])
        c1, c2 = operators.sbx_crossover(
            [0.0], [1.0], 1, unit_bounds(1), rng
        )
        beta = 0.4**0.5
        assert c1[0] == pytest.approx(0.5 * (1 - beta), abs=1e-12)
        assert c2[0] == pytest.approx(0.5 * (1 + beta), abs=1e-12)

    def test_eta_concentrates_offspring(self):
        # mean parent-offspring distance shrinks monotonically in eta
        means = []
        for eta in (1, 10, 100):
            rng = rng_for("sbx-eta", eta)
            total = 0.0
            x1 = np.array([0.4])
            x2 = np.array([0.6])
            for _ in range(10_000):
                c1, _c2 = operators.sbx_crossover(
                    x1, x2, eta, unit_bounds(1), rng
                )
                total += min(abs(c1[0] - x1[0]), abs(c1[0] - x2[0]))
            means.append(total / 10_000)
        assert means[0] > means[1] > means[2]

    def test_mismatched_parents(self):
        with pytest.raises(ContractViolationError):
            operators.sbx_crossover([0.1], [0.1, 0.2], 2, unit_bounds(2), rng_for(0))


class TestPolynomialMutation:
    def test_pm_zero_probability_identity(self):
        rng = rng_for("pm-zero")
        x = rng.random(8)
        out = operators.polynomial_mutation(
            x, 20, 0.0, unit_bounds(8), rng
        )
        assert np.array_equal(out, x)

    def test_lower_bound_small_r_unchanged(self):
        # x at the lower bound: d_up = 1, so the r<=0.5 branch gives delta 0
        rng = _StubRng([[0.0], [0.3]])
        out = operators.polynomial_mutation(
            np.array([0.0]), 5, 1.0, unit_bounds(1), rng
        )
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_delta(self):
        # x=0.5 on [0,1], r=0.4, eta=20: compare to an independent scalar evaluation
        r = 0.4
        eta = 20
        d_up = 0.5
        expected_delta = (2 * r + (1 - 2 * r) * d_up ** (eta + 1)) ** (1 / (eta + 1)) - 1
        rng = _StubRng([[0.0], [r]])
        out = operators.polynomial_mutation(
            np.array([0.5]), eta, 1.0, unit_bounds(1), rng
        )
        assert out[0] == pytest.approx(0.5 + expected_delta, abs=1e-14)

    def test_continuity_at_half(self):
        for r in (0.5, np.nextafter(0.5, 1.0)):
            rng = _StubRng([[0.0], [r]])
            out = operators.polynomial_mutation(
                np.array([0.3]), 10, 1.0, unit_bounds(1), rng
            )
            assert out[0] == pytest.approx(0.3, abs=1e-9)

    def test_leaves_variable_unchanged_with_prob(self):
        # P(change) = p_m; check within 3 sigma over n trials
        p_m = 0.2
        trials = 20_000
        rng = rng_for("pm-prob")
        x = np.full(1, 0.5)
        changed = 0
        for _ in range(trials):
            out = operators.polynomial_mutation(
                x, 15, p_m, unit_bounds(1), rng
            )
            changed += out[0] != 0.5
        sigma = (p_m * (1 - p_m) / trials) ** 0.5
        assert abs(changed / trials - p_m) < 3 * sigma


class TestDeMutation:
    def test_f_zero_returns_base(self):
        rng = rng_for("de-f0")
        out = operators.de_mutation(
            [0.9], [0.2], [[0.6]], [[0.1]], 0.0, 1.0, None, unit_bounds(1), rng
        )
        assert out[0] == pytest.approx(0.2)

    def test_identical_donors_return_base(self):
        rng = rng_for("de-same")
        donor = [[0.4, 0.4]]
        out = operators.de_mutation(
            [0.9, 0.9], [0.3, 0.3], donor, donor, 0.5, 1.0, None, unit_bounds(2), rng
        )
        assert np.allclose(out, 0.3)

    def test_hand_computed_rand1(self):
        # 0.2 + 0.5*(0.6-0.1) = 0.45
        rng = rng_for("de-hand")
        out = operators.de_mutation(
            [0.9], [0.2], [[0.6]], [[0.1]], 0.5, 1.0, None, unit_bounds(1), rng
        )
        assert out[0] == pytest.approx(0.45)

    def test_crossover_mask_keeps_target(self):
        # CR=0 -> only the forced dimension takes the mutated value
        rng = rng_for("de-mask")
        target = np.array([0.1, 0.2, 0.3, 0.4])
        out = operators.de_mutation(
            target,
            np.full(4, 0.9),
            [np.full(4, 0.0)],
            [np.full(4, 0.0)],
            0.5,
            1e-12,
            None,
            unit_bounds(4),
            rng,
        )
        changed = np.nonzero(out != target)[0]
        assert changed.size == 1
        assert out[changed[0]] == pytest.approx(0.9)

    def test_current_to_variants_blend(self):
        rng = rng_for("de-k")
        out = operators.de_mutation(
            [0.2], [0.8], [[0.0]], [[0.0]], 0.0, 1.0, 0.5, unit_bounds(1), rng
        )
        assert out[0] == pytest.approx(0.2 + 0.5 * (0.8 - 0.2))

    def test_k_required_for_current_to(self):
        # de_mutation reads K=None as a rand/best variant, so a current-to row
        # must be refused where it is built rather than run without its blend
        for variant in ("current_to_rand_p", "current_to_best_p"):
            with pytest.raises(ConfigurationError):
                AlgorithmConfig.make("NSGA2", variant, F=0.5, CR=0.5, p=1)

    def test_pair_count_checked(self):
        # the two pair blocks differ in their number of pairs, or lack the pair axis
        for pairs_b in ([[0.5], [0.5]], [0.5]):
            with pytest.raises(ContractViolationError):
                operators.de_mutation(
                    [0.5], [0.5], [[0.5]], pairs_b, 0.5, 1.0, None, unit_bounds(1), rng_for(0)
                )


def mopso_row(operator="no_mutate", **kw):
    """A MOPSO row built without validation, so values outside the schema
    (a zero inertia, a small velocity cap) can be tried."""
    base = dict(w=0.5, c1=2.0, c2=2.0, v_max=10.0, v_change=1.0, grid_divisions=10)
    base.update(kw)
    return AlgorithmConfig("MOPSO", operator, tuple(sorted(base.items())))


class TestPsoUpdate:
    def test_all_terms_vanish(self):
        rng = rng_for("pso-0")
        v, x = operators.pso_update(
            [0.5], [0.0], [0.5], [0.5], mopso_row(w=0.0, c1=0.5, c2=0.5),
            unit_bounds(1), rng,
        )
        # cognitive/social terms vanish because pbest = gbest = x
        assert v[0] == 0.0 and x[0] == 0.5

    def test_inertia_only(self):
        rng = rng_for("pso-w")
        v, x = operators.pso_update(
            [0.5], [0.1], [0.5], [0.5], mopso_row(w=0.5), unit_bounds(1), rng
        )
        assert v[0] == pytest.approx(0.05)
        assert x[0] == pytest.approx(0.55)

    def test_hand_computed_velocity(self):
        # w=0.5, v=0.2, c1=c2=2, r1=r2=0.5, pbest-x=0.1, gbest-x=0.3 -> v'=0.5
        rng = _StubRng([[0.5], [0.5]])
        v, x = operators.pso_update(
            [0.2], [0.2], [0.3], [0.5], mopso_row(), unit_bounds(1), rng
        )
        assert v[0] == pytest.approx(0.5)
        assert x[0] == pytest.approx(0.7)

    def test_velocity_cap(self):
        rng = _StubRng([[1.0], [1.0]])
        v, _ = operators.pso_update(
            [0.0], [0.0], [1.0], [1.0], mopso_row(v_max=0.1), unit_bounds(1), rng
        )
        assert abs(v[0]) <= 0.1 + 1e-15

    def test_boundary_damping(self):
        # position overshoots the upper bound; velocity flips sign scaled by v_change
        rng = _StubRng([[1.0], [1.0]])
        v, x = operators.pso_update(
            [0.9], [0.0], [1.0], [1.0], mopso_row(v_change=0.1), unit_bounds(1), rng
        )
        assert x[0] == 1.0
        assert v[0] < 0  # damped reversal

    def test_v_change_minus_one_passthrough(self):
        rng = _StubRng([[1.0], [1.0]])
        v, x = operators.pso_update(
            [0.9], [0.0], [1.0], [1.0], mopso_row(v_change=-1.0), unit_bounds(1), rng
        )
        assert x[0] == 1.0
        assert v[0] > 0  # kept as-is

    def test_smpso_constriction_value(self):
        assert operators.smpso_constriction(2.0, 2.0) == pytest.approx(1.0)
        phi = 5.0
        expected = 2.0 / abs(2.0 - phi - np.sqrt(phi * phi - 4 * phi))
        assert operators.smpso_constriction(2.5, 2.5) == pytest.approx(expected)


def _rows_like_single_calls(batched, single, n):
    for i in range(n):
        for got, want in zip(batched, single(i)):
            np.testing.assert_allclose(got[i], want, rtol=1e-14, atol=1e-15)


class TestBatchedRows:
    """Row i of a batched call equals a one-row call fed row i of each block."""

    n, d = 7, 5

    def _data(self, tag, k):
        rng = rng_for("batched", tag)
        return [rng.random((self.n, self.d)) for _ in range(k)]

    def test_sbx_rows(self):
        x1, x2, *U = self._data("sbx", 5)
        bounds = unit_bounds(self.d)
        batched = operators.sbx_crossover(x1, x2, 4, bounds, _StubRng(U))
        _rows_like_single_calls(batched, lambda i: operators.sbx_crossover(
            x1[i], x2[i], 4, bounds, _StubRng([u[i] for u in U])), self.n)

    def test_pm_rows(self):
        x, apply, r = self._data("pm", 3)
        bounds = unit_bounds(self.d)
        batched = operators.polynomial_mutation(x, 7, 0.5, bounds, _StubRng([apply, r]))
        _rows_like_single_calls((batched,), lambda i: (operators.polynomial_mutation(
            x[i], 7, 0.5, bounds, _StubRng([apply[i], r[i]])),), self.n)

    @pytest.mark.parametrize("variant,p,K", [("rand_p", 2, None), ("current_to_rand_p", 1, 0.4)])
    def test_de_rows(self, variant, p, K):
        target, base, r = self._data("de" + variant, 3)
        pairs = rng_for("pairs", variant).random((2, self.n, p, self.d))
        forced = rng_for("forced", variant).integers(self.d, size=self.n)
        bounds = unit_bounds(self.d)
        batched = operators.de_mutation(
            target, base, pairs[0], pairs[1], 0.7, 0.5, K, bounds, _StubRng([r], [forced])
        )
        _rows_like_single_calls((batched,), lambda i: (operators.de_mutation(
            target[i], base[i], pairs[0, i], pairs[1, i], 0.7, 0.5, K, bounds,
            _StubRng([r[i]], [forced[i]])),), self.n)

    @pytest.mark.parametrize("eta", [1, 4, 30])
    def test_sbx_and_pm_equal_full_formulas(self, eta):
        # SBX from shared coefficients and PM computed only where applied
        # give the bits of the formulas computed in full on every variable
        x1, x2, cross, spread, exchange, apply, r = self._data(f"full{eta}", 7)
        x1[0, :2] = (0.0, 1.0)  # PM at the bounds: d_up or d_down is 0
        bounds = np.column_stack((np.full(self.d, -0.5), np.linspace(1.0, 2.0, self.d)))
        got = operators.sbx_crossover(x1, x2, eta, bounds, _StubRng([cross, spread, exchange]))
        want = sbx_both_children(x1, x2, eta, bounds, np.stack((cross, spread, exchange)))
        got += (operators.polynomial_mutation(x1, eta, 0.4, bounds, _StubRng([apply, r])),)
        want += (pm_every_variable(x1, eta, 0.4, bounds, np.stack((apply, r))),)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_de_forced_dimension_per_row(self):
        # CR=0 leaves only each row's forced variable mutated
        target = np.zeros((self.n, self.d))
        forced = np.arange(self.n) % self.d
        out = operators.de_mutation(
            target, np.ones((self.n, self.d)), np.zeros((self.n, 1, self.d)),
            np.zeros((self.n, 1, self.d)), 0.5, 1e-12, None, unit_bounds(self.d),
            _StubRng([np.ones((self.n, self.d))], [forced]),
        )
        assert np.array_equal(np.argwhere(out == 1.0), np.column_stack((np.arange(self.n), forced)))

    def test_pso_rows(self):
        x, v, pbest, gbest, r1, r2 = self._data("pso", 6)
        config = mopso_row(c1=1.5, v_max=0.3, v_change=0.1, grid_divisions=5)
        bounds = unit_bounds(self.d)
        batched = operators.pso_update(
            x, v, pbest, gbest, config, bounds, _StubRng([r1, r2]), particle_index=np.arange(self.n)
        )
        _rows_like_single_calls(batched, lambda i: operators.pso_update(
            x[i], v[i], pbest[i], gbest[i], config, bounds, _StubRng([r1[i], r2[i]]),
            particle_index=i), self.n)


class TestPsoMutationStripes:
    n, d = 60, 10

    def _moved_rows(self, operator, **mutation):
        rng = rng_for("stripes")
        x, v, pbest, gbest = (rng.random((self.n, self.d)) for _ in range(4))
        bounds = unit_bounds(self.d)
        shared = dict(w=0.4, c1=1.5, c2=1.5, v_max=1.0, v_change=0.1, grid_divisions=5)
        plain, mutated = (
            operators.pso_update(
                x, v, pbest, gbest, config, bounds, rng_for("stripes-step"),
                particle_index=np.arange(self.n), generation=3, max_generations=10,
            )[1]
            for config in (AlgorithmConfig.make("MOPSO", "no_mutate", **shared),
                           AlgorithmConfig.make("MOPSO", operator, **shared, **mutation))
        )
        return np.nonzero((plain != mutated).any(axis=1))[0]

    def test_omopso_mutates_only_two_in_three(self):
        moved = self._moved_rows("omopso", b=10)
        assert moved.size and set(moved % 3) == {0, 1}

    def test_smpso_mutates_only_one_in_six(self):
        moved = self._moved_rows("smpso", pm_eta=20, constriction=False)
        assert moved.size and set(moved % 6) == {0}


class TestBoundSafetyAndDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    def test_all_operators_respect_bounds(self, seed, d):
        rng = np.random.default_rng(seed)
        bounds = np.column_stack((rng.uniform(-2, 0, d), rng.uniform(0.5, 3, d)))
        span = bounds[:, 1] - bounds[:, 0]
        x1 = bounds[:, 0] + rng.random(d) * span
        x2 = bounds[:, 0] + rng.random(d) * span
        c1, c2 = operators.sbx_crossover(x1, x2, 2, bounds, rng)
        for c in (c1, c2):
            assert (c >= bounds[:, 0]).all() and (c <= bounds[:, 1]).all()
        m = operators.polynomial_mutation(x1, 3, 1.0, bounds, rng)
        assert (m >= bounds[:, 0]).all() and (m <= bounds[:, 1]).all()
        t = operators.de_mutation(
            x1, x2, [bounds[:, 1]], [bounds[:, 0]],
            1.9, 0.5, None, bounds, rng,
        )
        assert (t >= bounds[:, 0]).all() and (t <= bounds[:, 1]).all()
        config = AlgorithmConfig.make(
            "MOPSO", "omopso", w=0.9, c1=2.5, c2=2.5, v_max=5.0, v_change=0.1, grid_divisions=5, b=20
        )
        v, pos = operators.pso_update(x1, span, x2, bounds[:, 1], config, bounds, rng)
        assert (pos >= bounds[:, 0]).all() and (pos <= bounds[:, 1]).all()

    def test_replayed_seed_reproduces_bitwise(self):
        bounds = unit_bounds(6)
        outs = []
        for _ in range(2):
            rng = rng_for("op-replay")
            x1 = rng.random(6)
            x2 = rng.random(6)
            c1, c2 = operators.sbx_crossover(x1, x2, 9, bounds, rng)
            m = operators.polynomial_mutation(c1, 9, 0.3, bounds, rng)
            outs.append((c1, c2, m))
        for a, b in zip(outs[0], outs[1]):
            assert np.array_equal(a, b)
