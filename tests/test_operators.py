"""Variation operator examples, statistical behavior and bound safety."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moeapap import operators
from moeapap._seeding import rng_for
from moeapap.core import ContractViolationError

UNIT = np.array([[0.0, 1.0]])


class _StubRng:
    """Deterministic stand-in feeding scripted uniforms."""

    def __init__(self, randoms):
        self._randoms = list(randoms)

    def random(self, size=None):
        block = self._randoms.pop(0)
        if size is None:
            return block
        return np.asarray(block, dtype=np.float64)


def unit_bounds(d):
    return np.repeat(UNIT, d, axis=0)


class TestSbx:
    def test_beta_one_identity(self):
        # all variables crossed, spread uniform exactly 0.5 -> beta = 1
        rng = _StubRng([[0.0], [0.5], [1.0]])
        c1, c2 = operators.sbx_crossover(
            [0.3], [0.8], operators.SbxParams(eta=7), unit_bounds(1), rng
        )
        assert c1[0] == pytest.approx(0.3)
        assert c2[0] == pytest.approx(0.8)

    def test_equal_parents_fixed_point(self):
        rng = rng_for("sbx-equal")
        x = np.full(5, 0.42)
        c1, c2 = operators.sbx_crossover(x, x, operators.SbxParams(eta=3), unit_bounds(5), rng)
        assert np.allclose(c1, x) and np.allclose(c2, x)

    def test_hand_computed_offspring(self):
        # x1=0, x2=1, spread uniform 0.2, eta=1: beta = 0.4**0.5,
        # c1 = 0.5*(1-beta) ~ 0.18377, c2 = 0.5*(1+beta) ~ 0.81623
        rng = _StubRng([[0.0], [0.2], [1.0]])
        c1, c2 = operators.sbx_crossover(
            [0.0], [1.0], operators.SbxParams(eta=1), unit_bounds(1), rng
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
                    x1, x2, operators.SbxParams(eta=eta), unit_bounds(1), rng
                )
                total += min(abs(c1[0] - x1[0]), abs(c1[0] - x2[0]))
            means.append(total / 10_000)
        assert means[0] > means[1] > means[2]

    def test_mismatched_parents(self):
        with pytest.raises(ContractViolationError):
            operators.sbx_crossover([0.1], [0.1, 0.2], operators.SbxParams(eta=2), unit_bounds(2), rng_for(0))


class TestPolynomialMutation:
    def test_pm_zero_probability_identity(self):
        rng = rng_for("pm-zero")
        x = rng.random(8)
        out = operators.polynomial_mutation(
            x, operators.PmParams(eta=20, p_m=0.0), unit_bounds(8), rng
        )
        assert np.array_equal(out, x)

    def test_lower_bound_small_r_unchanged(self):
        # x at the lower bound: d_up = 1, so the r<=0.5 branch gives delta 0
        rng = _StubRng([[0.0], [0.3]])
        out = operators.polynomial_mutation(
            np.array([0.0]), operators.PmParams(eta=5, p_m=1.0), unit_bounds(1), rng
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
            np.array([0.5]), operators.PmParams(eta=eta, p_m=1.0), unit_bounds(1), rng
        )
        assert out[0] == pytest.approx(0.5 + expected_delta, abs=1e-14)

    def test_continuity_at_half(self):
        for r in (0.5, np.nextafter(0.5, 1.0)):
            rng = _StubRng([[0.0], [r]])
            out = operators.polynomial_mutation(
                np.array([0.3]), operators.PmParams(eta=10, p_m=1.0), unit_bounds(1), rng
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
                x, operators.PmParams(eta=15, p_m=p_m), unit_bounds(1), rng
            )
            changed += out[0] != 0.5
        sigma = (p_m * (1 - p_m) / trials) ** 0.5
        assert abs(changed / trials - p_m) < 3 * sigma


class TestDeMutation:
    def _params(self, **kw):
        base = dict(variant="rand_p", F=0.5, CR=1.0, p=1)
        base.update(kw)
        return operators.DeParams(**base)

    def test_f_zero_returns_base(self):
        rng = rng_for("de-f0")
        out = operators.de_mutation(
            [0.9], [0.2], [[0.6]], [[0.1]], self._params(F=0.0), unit_bounds(1), rng
        )
        assert out[0] == pytest.approx(0.2)

    def test_identical_donors_return_base(self):
        rng = rng_for("de-same")
        donor = [[0.4, 0.4]]
        out = operators.de_mutation(
            [0.9, 0.9], [0.3, 0.3], donor, donor, self._params(), unit_bounds(2), rng
        )
        assert np.allclose(out, 0.3)

    def test_hand_computed_rand1(self):
        # 0.2 + 0.5*(0.6-0.1) = 0.45
        rng = rng_for("de-hand")
        out = operators.de_mutation(
            [0.9], [0.2], [[0.6]], [[0.1]], self._params(), unit_bounds(1), rng
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
            self._params(CR=1e-12),
            unit_bounds(4),
            rng,
        )
        changed = np.nonzero(out != target)[0]
        assert changed.size == 1
        assert out[changed[0]] == pytest.approx(0.9)

    def test_current_to_variants_blend(self):
        rng = rng_for("de-k")
        params = operators.DeParams(variant="current_to_rand_p", F=0.0, CR=1.0, p=1, K=0.5)
        out = operators.de_mutation(
            [0.2], [0.8], [[0.0]], [[0.0]], params, unit_bounds(1), rng
        )
        assert out[0] == pytest.approx(0.2 + 0.5 * (0.8 - 0.2))

    def test_k_required_for_current_to(self):
        with pytest.raises(ContractViolationError):
            operators.DeParams(variant="current_to_best_p", F=0.5, CR=0.5, p=1)

    def test_pair_count_checked(self):
        with pytest.raises(ContractViolationError):
            operators.de_mutation(
                [0.5], [0.5], [[0.5]], [[0.5]], self._params(p=2), unit_bounds(1), rng_for(0)
            )


class TestPsoUpdate:
    def _params(self, **kw):
        base = dict(w=0.5, c1=2.0, c2=2.0, v_max_ratio=10.0, v_change=1.0, grid_divisions=10)
        base.update(kw)
        return operators.PsoParams(**base)

    def test_all_terms_vanish(self):
        rng = rng_for("pso-0")
        v, x = operators.pso_update(
            [0.5], [0.0], [0.5], [0.5], self._params(w=0.0, c1=0.5, c2=0.5),
            unit_bounds(1), rng,
        )
        # cognitive/social terms vanish because pbest = gbest = x
        assert v[0] == 0.0 and x[0] == 0.5

    def test_inertia_only(self):
        rng = rng_for("pso-w")
        v, x = operators.pso_update(
            [0.5], [0.1], [0.5], [0.5], self._params(w=0.5), unit_bounds(1), rng
        )
        assert v[0] == pytest.approx(0.05)
        assert x[0] == pytest.approx(0.55)

    def test_hand_computed_velocity(self):
        # w=0.5, v=0.2, c1=c2=2, r1=r2=0.5, pbest-x=0.1, gbest-x=0.3 -> v'=0.5
        rng = _StubRng([[0.5], [0.5]])
        v, x = operators.pso_update(
            [0.2], [0.2], [0.3], [0.5], self._params(), unit_bounds(1), rng
        )
        assert v[0] == pytest.approx(0.5)
        assert x[0] == pytest.approx(0.7)

    def test_velocity_cap(self):
        rng = _StubRng([[1.0], [1.0]])
        v, _ = operators.pso_update(
            [0.0], [0.0], [1.0], [1.0], self._params(v_max_ratio=0.1), unit_bounds(1), rng
        )
        assert abs(v[0]) <= 0.1 + 1e-15

    def test_boundary_damping(self):
        # position overshoots the upper bound; velocity flips sign scaled by v_change
        rng = _StubRng([[1.0], [1.0]])
        v, x = operators.pso_update(
            [0.9], [0.0], [1.0], [1.0], self._params(v_change=0.1), unit_bounds(1), rng
        )
        assert x[0] == 1.0
        assert v[0] < 0  # damped reversal

    def test_v_change_minus_one_passthrough(self):
        rng = _StubRng([[1.0], [1.0]])
        v, x = operators.pso_update(
            [0.9], [0.0], [1.0], [1.0], self._params(v_change=-1.0), unit_bounds(1), rng
        )
        assert x[0] == 1.0
        assert v[0] > 0  # kept as-is

    def test_smpso_constriction_value(self):
        assert operators.smpso_constriction(2.0, 2.0) == pytest.approx(1.0)
        phi = 5.0
        expected = 2.0 / abs(2.0 - phi - np.sqrt(phi * phi - 4 * phi))
        assert operators.smpso_constriction(2.5, 2.5) == pytest.approx(expected)


class TestBoundSafetyAndDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    def test_all_operators_respect_bounds(self, seed, d):
        rng = np.random.default_rng(seed)
        bounds = np.column_stack((rng.uniform(-2, 0, d), rng.uniform(0.5, 3, d)))
        span = bounds[:, 1] - bounds[:, 0]
        x1 = bounds[:, 0] + rng.random(d) * span
        x2 = bounds[:, 0] + rng.random(d) * span
        c1, c2 = operators.sbx_crossover(x1, x2, operators.SbxParams(eta=2), bounds, rng)
        for c in (c1, c2):
            assert (c >= bounds[:, 0]).all() and (c <= bounds[:, 1]).all()
        m = operators.polynomial_mutation(x1, operators.PmParams(eta=3, p_m=1.0), bounds, rng)
        assert (m >= bounds[:, 0]).all() and (m <= bounds[:, 1]).all()
        t = operators.de_mutation(
            x1, x2, [bounds[:, 1]], [bounds[:, 0]],
            operators.DeParams(variant="rand_p", F=1.9, CR=0.5, p=1), bounds, rng,
        )
        assert (t >= bounds[:, 0]).all() and (t <= bounds[:, 1]).all()
        params = operators.PsoParams(
            w=0.9, c1=2.5, c2=2.5, v_max_ratio=5.0, v_change=0.1, grid_divisions=5,
            mutation=operators.OmopsoMutation(b=20),
        )
        v, pos = operators.pso_update(x1, span, x2, bounds[:, 1], params, bounds, rng)
        assert (pos >= bounds[:, 0]).all() and (pos <= bounds[:, 1]).all()

    def test_replayed_seed_reproduces_bitwise(self):
        bounds = unit_bounds(6)
        outs = []
        for _ in range(2):
            rng = rng_for("op-replay")
            x1 = rng.random(6)
            x2 = rng.random(6)
            c1, c2 = operators.sbx_crossover(x1, x2, operators.SbxParams(eta=9), bounds, rng)
            m = operators.polynomial_mutation(c1, operators.PmParams(eta=9, p_m=0.3), bounds, rng)
            outs.append((c1, c2, m))
        for a, b in zip(outs[0], outs[1]):
            assert np.array_equal(a, b)
