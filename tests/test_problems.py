"""Benchmark evaluation examples, registry contracts and front/box data."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from moeapap._kernels import nd_mask
from moeapap._seeding import rng_for
from moeapap.core import ContractViolationError
from moeapap.indicators import clip_to_box, hypervolume
from moeapap.problems import (
    _BOUNDS_EPS,
    UnsupportedProblemError,
    available_problems,
    get_problem,
    reference_box,
    reference_front,
)
from moeapap.problems.wfg import _correct_to_01, _r_nonsep, upper_bounds, wfg_evaluate
from moeapap.problems.zdt import ZDT5_BIT_LAYOUT

from .oracles import correct_to_01_two_where, r_nonsep_double_loop

ALL_NAMES = available_problems()
ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference_data = _script("generate_reference_data")
manifests = _script("generate_manifests")


class TestRegistry:
    def test_expected_problems_present(self):
        assert len(ALL_NAMES) == 32
        for name in ("ZDT5", "DTLZ7", "WFG9", "UF10"):
            assert name in ALL_NAMES

    def test_table_dimensions(self):
        # ZDT5's eleven bitstrings are relaxed to one real gene per bit
        assert len(ZDT5_BIT_LAYOUT) == 11
        expected = {
            "ZDT1": (30, 2), "ZDT2": (30, 2), "ZDT3": (30, 2), "ZDT4": (10, 2),
            "ZDT5": (80, 2), "ZDT6": (10, 2),
            "DTLZ1": (11, 2), "DTLZ7": (11, 2),
            "WFG1": (12, 3), "WFG9": (12, 3),
            "UF1": (30, 2), "UF7": (30, 2), "UF8": (30, 3), "UF10": (30, 3),
        }
        for name, (n_vars, m) in expected.items():
            p = get_problem(name)
            assert (p.n_vars, p.m) == (n_vars, m)

    def test_unknown_problem_rejected(self):
        with pytest.raises(UnsupportedProblemError):
            get_problem("ZDT9")
        with pytest.raises(UnsupportedProblemError):
            get_problem("MaOP1")

    def test_default_budgets(self):
        assert manifests.default_budget("UF1") == (100, 500)
        assert manifests.default_budget("UF7") == (100, 500)
        assert manifests.default_budget("UF8") == (150, 600)
        assert manifests.default_budget("WFG3") == (150, 250)
        assert manifests.default_budget("DTLZ4") == (100, 250)
        assert manifests.default_budget("ZDT6") == (100, 250)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_bounds_have_positive_width(self, name):
        # the variation operators divide by the width of each variable's range
        p = get_problem(name)
        assert p.bounds.shape == (p.n_vars, 2)
        assert (p.bounds[:, 1] > p.bounds[:, 0]).all()

    def test_out_of_bounds_rejected(self):
        p = get_problem("ZDT1")
        X = np.zeros((1, 30))
        X[0, 0] = 1.5
        with pytest.raises(ContractViolationError):
            p.evaluate(X)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_rows_within_tolerance_evaluate_as_the_bound(self, name):
        # a variable up to _BOUNDS_EPS beyond its bound is clamped onto the
        # bound, in a batch beside an inside row and in a batch of one,
        # without changing the caller's array; further out is still an error
        p = get_problem(name)
        lo, hi = p.bounds[:, 0], p.bounds[:, 1]
        mid = (lo + hi) / 2
        X = np.array([mid, lo - _BOUNDS_EPS / 2, hi + _BOUNDS_EPS / 2])
        given = X.copy()
        F = p.evaluate(X)
        assert np.isfinite(F).all()
        assert np.array_equal(F, p.evaluate(np.array([mid, lo, hi])))
        assert np.array_equal(p.evaluate(X[1:2]), F[1:2])
        assert np.array_equal(X, given)
        X[1, -1] = lo[-1] - 2 * _BOUNDS_EPS
        with pytest.raises(ContractViolationError):
            p.evaluate(X)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_nan_rejected(self, name):
        # NaN fails every comparison, so it must not pass as within the
        # bounds or within the tolerance band beside them
        p = get_problem(name)
        mid = (p.bounds[:, 0] + p.bounds[:, 1]) / 2
        for col in (0, p.n_vars - 1):
            X = np.array([mid, mid])
            X[1, col] = np.nan
            with pytest.raises(ContractViolationError, match="NaN"):
                p.evaluate(X)

    def test_wrong_dimension_rejected(self):
        # evaluate takes (n, n_vars) batches only: a row of the wrong width is
        # refused, and so is a 1-d vector, even of the right length
        for X in (np.zeros((1, 10)), np.zeros(30)):
            with pytest.raises(ContractViolationError, match="decision rows"):
                get_problem("ZDT1").evaluate(X)


class TestEvaluationExamples:
    def test_zdt1_all_zero(self):
        f = get_problem("ZDT1").evaluate(np.zeros((1, 30)))[0]
        assert f == pytest.approx([0.0, 1.0])

    def test_zdt1_first_one(self):
        x = np.zeros((1, 30))
        x[0, 0] = 1.0
        f = get_problem("ZDT1").evaluate(x)[0]
        assert f == pytest.approx([1.0, 0.0])

    def test_dtlz2_center(self):
        f = get_problem("DTLZ2").evaluate(np.full((1, 11), 0.5))[0]
        assert f == pytest.approx([np.cos(np.pi / 4), np.sin(np.pi / 4)])

    def test_determinism_bitwise(self):
        rng = rng_for("determinism")
        for name in ("ZDT3", "DTLZ6", "WFG5", "UF9"):
            p = get_problem(name)
            X = p.bounds[:, 0] + rng.random((8, p.n_vars)) * (p.bounds[:, 1] - p.bounds[:, 0])
            assert np.array_equal(p.evaluate(X), p.evaluate(X.copy()))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_batch_rows_equal_single_rows(self, name):
        # MOEA/D evaluates a generation's children as one batch and re-evaluates
        # its stale children in smaller batches of any size; every batch must
        # give a row the bits it gets in a batch of one
        p = get_problem(name)
        for size in (1, 7, 30, 150):
            rng = rng_for("batch-rows", name, size)
            X = p.bounds[:, 0] + rng.random((size, p.n_vars)) * (p.bounds[:, 1] - p.bounds[:, 0])
            F = p.evaluate(X)
            for i in range(size):
                assert np.array_equal(F[i:i + 1], p.evaluate(X[i:i + 1])), (name, size, i)

    def test_zdt5_bit_paths_agree(self):
        p = get_problem("ZDT5")
        rng = rng_for("zdt5")
        relaxed = rng.random((6, p.n_vars))
        assert np.array_equal(p.evaluate(relaxed), p.evaluate((relaxed >= 0.5).astype(float)))

    def test_zdt5_known_point(self):
        p = get_problem("ZDT5")
        # all ones: u1=30 -> f1=31; every 5-bit substring u=5 -> v=1 -> g=10
        assert p.evaluate(np.ones((1, 80)))[0] == pytest.approx([31.0, 10.0 / 31.0])


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

    @pytest.mark.parametrize("l", [1, 3])
    def test_odd_distance_count_refused_where_pairs_are_coupled(self, l):
        # WFG2 and WFG3 reduce the distance parameters two at a time, so an
        # odd l would leave one unread; WFG4 reads them as one group
        X = upper_bounds(4 + l) * rng_for(l).random((3, 4 + l))
        for index in (2, 3):
            with pytest.raises(ValueError, match="even number of distance parameters"):
                wfg_evaluate(index, X, m=3, k=4)
        assert np.isfinite(wfg_evaluate(4, X, m=3, k=4)).all()


class TestWfgCorrection:
    EPS = 1.0e-10
    # -eps, 0, 1 and 1 + eps with their neighbouring doubles, signed zeros,
    # values far outside [0, 1], infinities and NaN
    GRID = np.array([
        -EPS, np.nextafter(-EPS, -np.inf), np.nextafter(-EPS, np.inf),
        -0.0, 0.0, np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0), 0.5,
        1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
        1.0 + EPS, np.nextafter(1.0 + EPS, 0.0), np.nextafter(1.0 + EPS, 2.0),
        -3.0, 7.5, -1e300, 1e300, -np.inf, np.inf, np.nan,
    ])

    def test_matches_two_where_definition_bitwise(self):
        rng = rng_for("correct-to-01")
        inputs = [self.GRID, self.GRID[::-1], self.GRID[:, None],
                  rng.choice(self.GRID, (17, 12)), rng.choice(self.GRID, (3, 40))[:, ::3]]
        for X in inputs:
            got, want = _correct_to_01(X), correct_to_01_two_where(X)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), X

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_nonsep_matches_double_loop_bitwise(self, width):
        # every group of equal width at once, against the toolkit's loop per
        # group, on values in and just outside [0, 1] and signed zeros (a
        # NaN's sign bit follows numpy's loop layout, not the arithmetic)
        rng = rng_for("nonsep", width)
        finite = self.GRID[np.isfinite(self.GRID) & (np.abs(self.GRID) < 10)]
        for n, groups in ((1, 1), (5, 4), (17, 2), (33, 3)):
            Y = np.where(rng.random((n, groups * width)) < 0.4,
                         rng.choice(finite, (n, groups * width)), rng.random((n, groups * width)))
            got = _correct_to_01(_r_nonsep(Y.reshape(n, groups, width)))
            want = np.column_stack([r_nonsep_double_loop(Y[:, g * width:(g + 1) * width])
                                    for g in range(groups)])
            assert got.tobytes() == want.tobytes(), (n, groups)


class TestReferenceFronts:
    def test_zdt1_front_shape(self):
        front = reference_data.sample_reference_front("ZDT1", 1001)
        assert front.shape == (1001, 2)
        t = front[:, 0]
        assert np.allclose(front[:, 1], 1.0 - np.sqrt(t))

    def test_dtlz2_quarter_circle(self):
        front = reference_data.sample_reference_front("DTLZ2", 500)
        assert np.allclose((front**2).sum(axis=1), 1.0)

    def test_uf1_front_nondominated_oracle(self):
        front = reference_data.sample_reference_front("UF1", 500)
        assert nd_mask(np.ascontiguousarray(front)).all()

    def test_count_minimum(self):
        with pytest.raises(ValueError):
            reference_data.sample_reference_front("ZDT1", 50)

    def test_unsupported(self):
        with pytest.raises(UnsupportedProblemError):
            reference_data.sample_reference_front("WFG11", 500)

    @pytest.mark.slow
    def test_generators_reproduce_shipped_data(self, tmp_path, monkeypatch):
        # every shipped front, box file and manifest is what its generator
        # writes today, byte for byte
        monkeypatch.setattr(reference_data, "DATA_DIR", tmp_path / "data")
        monkeypatch.setattr(manifests, "OUT_DIR", tmp_path / "manifests")
        reference_data.main()
        manifests.main()
        for written, shipped in ((tmp_path / "data", ROOT / "src" / "moeapap" / "problems" / "data"),
                                 (tmp_path / "manifests", ROOT / "src" / "moeapap" / "manifests")):
            names = sorted(path.name for path in written.iterdir())
            assert names == sorted(path.name for path in shipped.iterdir())
            differ = [n for n in names if (written / n).read_bytes() != (shipped / n).read_bytes()]
            assert not differ, f"generated files differ from the shipped ones: {differ}"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_shipped_fronts_nondominated_and_boxed(self, name):
        front = reference_front(name)
        box, _ = reference_box(name)
        assert nd_mask(np.ascontiguousarray(front)).all()
        assert (front >= box[:, 0] - 1e-12).all()
        assert (front <= box[:, 1] + 1e-12).all()
        assert (box[:, 0] < box[:, 1]).all()

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_shipped_hv_star_is_front_hypervolume(self, name):
        # without an analytic value, hv_star is the hypervolume of the
        # shipped front in its box, as the package's own kernel computes it,
        # to the last bit; with one, the sampled front falls short of it
        box, hv_star = reference_box(name)
        hv = hypervolume(clip_to_box(reference_front(name), box), box[:, 1])
        if name in reference_data.UNDOMINATED_VOLUMES:
            assert hv < hv_star
        else:
            assert hv_star == hv

    @pytest.mark.parametrize("name, undominated", [
        *((f"WFG{i}", 8.0 * np.pi) for i in range(4, 10)),
        ("UF8", np.pi / 6.0),
        ("UF9", 5.0 / 24.0),
        ("UF10", np.pi / 6.0),
    ])
    def test_analytic_hv_star(self, name, undominated):
        # the true front leaves undominated an ellipsoid octant (WFG4-9,
        # semi-axes 2, 4 and 6), the unit-sphere octant (UF8, UF10) or two
        # planar pieces' 5/24 (UF9) of a box floored at 0
        box, hv_star = reference_box(name)
        assert (box[:, 0] == 0.0).all()
        hv_all = float(np.prod(box[:, 1] - box[:, 0]))
        assert hv_all - hv_star == pytest.approx(undominated, rel=1e-9, abs=0.0)

    def test_discrete_fronts_full(self):
        assert reference_front("ZDT5").shape[0] == 31
        assert reference_front("UF5").shape[0] == 21

    def test_zdt1_box_values(self):
        box, _ = reference_box("ZDT1")
        assert box[:, 0] == pytest.approx([0.0, 0.0])
        assert box[:, 1] == pytest.approx([1.0, 10.0])

    def test_dtlz2_ideal(self):
        box, _ = reference_box("DTLZ2")
        assert box[:, 0] == pytest.approx([0.0, 0.0])

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_box_contains_random_evaluations(self, name):
        p = get_problem(name)
        box, _ = reference_box(name)
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
