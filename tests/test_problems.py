"""Benchmark evaluation examples, registry contracts and front/box data."""

import numpy as np
import pytest

from moeapap._kernels import nd_mask
from moeapap._seeding import rng_for
from moeapap.core import ContractViolationError
from moeapap.problems import (
    UnsupportedProblemError,
    available_problems,
    default_budget,
    get_problem,
    objective_box,
    reference_front,
    sample_reference_front,
)
from moeapap.problems.wfg import wfg_evaluate

ALL_NAMES = available_problems()


class TestRegistry:
    def test_expected_problems_present(self):
        assert len(ALL_NAMES) == 32
        for name in ("ZDT5", "DTLZ7", "WFG9", "UF10"):
            assert name in ALL_NAMES

    def test_table_dimensions(self):
        expected = {
            "ZDT1": (30, 2), "ZDT2": (30, 2), "ZDT3": (30, 2), "ZDT4": (10, 2),
            "ZDT5": (11, 2), "ZDT6": (10, 2),
            "DTLZ1": (11, 2), "DTLZ7": (11, 2),
            "WFG1": (12, 3), "WFG9": (12, 3),
            "UF1": (30, 2), "UF7": (30, 2), "UF8": (30, 3), "UF10": (30, 3),
        }
        for name, (n, m) in expected.items():
            p = get_problem(name)
            assert (p.n, p.m) == (n, m)

    def test_unknown_problem_rejected(self):
        with pytest.raises(UnsupportedProblemError):
            get_problem("ZDT9")
        with pytest.raises(UnsupportedProblemError):
            get_problem("MaOP1")

    def test_default_budgets(self):
        assert default_budget("UF1") == (100, 500)
        assert default_budget("UF7") == (100, 500)
        assert default_budget("UF8") == (150, 600)
        assert default_budget("WFG3") == (150, 250)
        assert default_budget("DTLZ4") == (100, 250)
        assert default_budget("ZDT6") == (100, 250)

    def test_out_of_bounds_rejected(self):
        p = get_problem("ZDT1")
        x = np.zeros(30)
        x[0] = 1.5
        with pytest.raises(ContractViolationError):
            p.evaluate(x)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ContractViolationError):
            get_problem("ZDT1").evaluate(np.zeros(10))


class TestEvaluationExamples:
    def test_zdt1_all_zero(self):
        f = get_problem("ZDT1").evaluate(np.zeros(30))
        assert f == pytest.approx([0.0, 1.0])

    def test_zdt1_first_one(self):
        x = np.zeros(30)
        x[0] = 1.0
        f = get_problem("ZDT1").evaluate(x)
        assert f == pytest.approx([1.0, 0.0])

    def test_dtlz2_center(self):
        f = get_problem("DTLZ2").evaluate(np.full(11, 0.5))
        assert f == pytest.approx([np.cos(np.pi / 4), np.sin(np.pi / 4)])

    def test_determinism_bitwise(self):
        rng = rng_for("determinism")
        for name in ("ZDT3", "DTLZ6", "WFG5", "UF9"):
            p = get_problem(name)
            X = p.bounds[:, 0] + rng.random((8, p.n_vars)) * (p.bounds[:, 1] - p.bounds[:, 0])
            assert np.array_equal(p.evaluate(X), p.evaluate(X.copy()))

    def test_zdt5_bit_paths_agree(self):
        p = get_problem("ZDT5")
        rng = rng_for("zdt5")
        relaxed = rng.random((6, p.n_vars))
        assert np.array_equal(p.evaluate(relaxed), p.evaluate((relaxed >= 0.5).astype(float)))

    def test_zdt5_known_point(self):
        p = get_problem("ZDT5")
        # all ones: u1=30 -> f1=31; every 5-bit substring u=5 -> v=1 -> g=10
        assert p.evaluate(np.ones(80)) == pytest.approx([31.0, 10.0 / 31.0])


class TestWfgOracle:
    """Frozen input/output vectors for a 10-variable, 3-objective, k=2
    configuration, cross-checked against an independent toolkit."""

    CASES = {
        2: (
            [1.51215634670685, 1.98046188620202, 2.17123205516798, 4.28272264683346,
             1.67560302649847, 7.45865072083838, 10.3456568199683, 3.17408245839211,
             17.5922307989805, 2.22789613281489],
            [0.823269169947225, 1.21047059380468, 3.7645144707503],
        ),
        3: (
            [1.38663349883148, 1.39095701793336, 1.00651400424944, 1.08124749578659,
             3.08488862377431, 7.97168781965395, 7.76075416049597, 2.66837163922627,
             5.08502619704711, 15.0825267506388],
            [1.06023017837464, 2.04814437461039, 2.30521208140447],
        ),
        4: (
            [1.13783890382196, 0.39981342549122, 2.57104400359446, 7.38059326152385,
             0.18024697236177, 4.76511856888059, 4.94868612529733, 5.03603867466566,
             1.57950371631846, 5.02059681386812],
            [0.706332603289956, 1.14447455569412, 6.03537463248557],
        ),
        5: (
            [1.2658018033216, 3.18868341877624, 3.21674728712595, 2.08766437576511,
             1.87500134447649, 9.21098472567939, 2.30814691679358, 1.25584817131949,
             17.7385278296678, 8.30370524977232],
            [1.34888749224017, 3.24939082730017, 4.14487961342243],
        ),
        6: (
            [1.94501871330945, 1.86960168990496, 1.96989048063627, 3.06779485183013,
             4.84162319219383, 4.75928430895196, 5.85331053617453, 13.2513660474365,
             0.510286690310382, 18.6552194512127],
            [2.1088891146428, 3.7368890934722, 1.0291775489388],
        ),
        7: (
            [0.337549438578628, 1.55921659024094, 4.94553476741995, 1.6283190933529,
             4.19639449341452, 2.66295392887256, 6.3802812867656, 2.50662348019979,
             11.3208749535504, 13.7398730938539],
            [0.806046258534732, 1.40520487476877, 6.09953804366995],
        ),
    }
    WFG1_CASE = (
        [1.08854981319285, 2.88336864817126, 2.26151969048427, 6.85587897325909,
         5.50774672114278, 11.3619491740763, 0.993607643502324, 12.7476499626573,
         9.51749373544387, 13.9469154321725],
        [2.92779802578131, 0.986101160484812, 0.987627609921421],
    )

    @pytest.mark.parametrize("index", sorted(CASES))
    def test_frozen_vectors(self, index):
        x, expected = self.CASES[index]
        got = wfg_evaluate(index, np.asarray([x]), m=3, k=2)[0]
        assert got == pytest.approx(expected, abs=1e-10)

    def test_wfg1_frozen_vector(self):
        # the flat-region power transform amplifies input rounding; looser bound
        x, expected = self.WFG1_CASE
        got = wfg_evaluate(1, np.asarray([x]), m=3, k=2)[0]
        assert got == pytest.approx(expected, abs=1e-5)


class TestReferenceFronts:
    def test_zdt1_front_shape(self):
        front = sample_reference_front("ZDT1", 1001)
        assert front.shape == (1001, 2)
        t = front[:, 0]
        assert np.allclose(front[:, 1], 1.0 - np.sqrt(t))

    def test_dtlz2_quarter_circle(self):
        front = sample_reference_front("DTLZ2", 500)
        assert np.allclose((front**2).sum(axis=1), 1.0)

    def test_uf1_front_nondominated_oracle(self):
        front = sample_reference_front("UF1", 500)
        assert nd_mask(np.ascontiguousarray(front)).all()

    def test_count_minimum(self):
        with pytest.raises(ValueError):
            sample_reference_front("ZDT1", 50)

    def test_unsupported(self):
        with pytest.raises(UnsupportedProblemError):
            sample_reference_front("WFG11", 500)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_shipped_fronts_nondominated_and_boxed(self, name):
        front = reference_front(name)
        box = objective_box(name)
        assert nd_mask(np.ascontiguousarray(front)).all()
        assert (front >= box[:, 0] - 1e-12).all()
        assert (front <= box[:, 1] + 1e-12).all()
        assert (box[:, 0] < box[:, 1]).all()

    def test_discrete_fronts_full(self):
        assert reference_front("ZDT5").shape[0] == 31
        assert reference_front("UF5").shape[0] == 21

    def test_zdt1_box_values(self):
        box = objective_box("ZDT1")
        assert box[:, 0] == pytest.approx([0.0, 0.0])
        assert box[:, 1] == pytest.approx([1.0, 10.0])

    def test_dtlz2_ideal(self):
        box = objective_box("DTLZ2")
        assert box[:, 0] == pytest.approx([0.0, 0.0])

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_box_contains_random_evaluations(self, name):
        p = get_problem(name)
        box = objective_box(name)
        rng = rng_for("containment", name)
        X = p.bounds[:, 0] + rng.random((10_000, p.n_vars)) * (p.bounds[:, 1] - p.bounds[:, 0])
        F = p.evaluate(X)
        assert (F >= box[:, 0] - 1e-9).all()
        assert (F <= box[:, 1] + 1e-9).all()

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_no_random_point_dominates_front(self, name):
        p = get_problem(name)
        front = reference_front(name)
        rng = rng_for("domination", name)
        X = p.bounds[:, 0] + rng.random((10_000, p.n_vars)) * (p.bounds[:, 1] - p.bounds[:, 0])
        F = p.evaluate(X)
        for start in range(0, len(F), 2000):
            blk = F[start:start + 2000]
            le = (blk[:, None, :] <= front[None, :, :] + 1e-9).all(axis=2)
            lt = (blk[:, None, :] < front[None, :, :] - 1e-9).any(axis=2)
            assert not (le & lt).any()
