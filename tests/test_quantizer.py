import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scistats

from oracles import (decision_intervals, loop_decision_borders,
                     sibling_point, two_call_helper_values,
                     two_call_sibling_points)
from pufsec.optimize import _symmetric_quantizer
from pufsec.stats import DomainError, PufModel, unit_interval_rule
from pufsec.quantizer import (InputQuantizer, _decision_borders,
                              _sibling_rows, _helper_values, make_equidistant,
                              make_equiprobable, sibling_points)
from pufsec.tables import equidistant_reference

MODEL = PufModel(2241.0, 129.0)


class TestConstruction:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256])
    def test_equiprobable_masses_exact(self, n):
        q = make_equiprobable(MODEL, n)
        assert np.all(q.probs == 1.0 / n)
        assert np.all(np.diff(q.borders) > 0)
        assert q.cdf[0] == 0.0 and q.cdf[-1] == 1.0

    def test_equidistant_even_centering(self):
        q = make_equidistant(MODEL, 4, 1000.0)
        assert np.allclose(q.inner_borders, [-1000.0, 0.0, 1000.0])

    def test_equidistant_odd_centering(self):
        q = make_equidistant(MODEL, 5, 1000.0)
        assert np.allclose(q.inner_borders, [-1500.0, -500.0, 500.0, 1500.0])

    def test_probs_sum_to_one(self):
        for n in (3, 7, 33):
            q = make_equidistant(MODEL, n, 900.0)
            assert q.probs.sum() == pytest.approx(1.0, abs=1e-14)

    def test_empty_tail_rejected(self):
        # a huge step pushes all mass out of the tail intervals
        with pytest.raises(DomainError):
            make_equidistant(MODEL, 64, 50000.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_equiprobable(MODEL, 1)
        with pytest.raises(DomainError):
            make_equidistant(MODEL, 4, -1.0)
        with pytest.raises(DomainError):
            InputQuantizer.from_borders(MODEL, [1.0, 1.0])

    def test_json_roundtrip(self):
        # the quantizer dict that optimize and simulate print rebuilds it
        q = make_equidistant(MODEL, 8, 20000.0 / 8)
        d = json.loads(json.dumps(q.to_dict()))
        q2 = InputQuantizer.from_borders(PufModel(d["sigma_p"], d["sigma_n"]),
                                         d["borders"], kind=d["type"],
                                         step=d["step"])
        assert np.allclose(q.borders[1:-1], q2.borders[1:-1])
        assert np.allclose(q.probs, q2.probs)
        assert q2.kind == "equidistant" and q2.step == q.step
        assert d["sigma_p"] == 2241.0


class TestHelperData:
    @given(st.floats(min_value=-9000.0, max_value=9000.0),
           st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_equiprobable(self, x, n):
        q = make_equiprobable(MODEL, n)
        t, w = _helper_values(q, x)
        assert 0 <= t < n and 0.0 <= w < 1.0
        assert sibling_point(q, t, w) == pytest.approx(x, abs=1e-6)

    def test_roundtrip_deep_tail(self):
        # interval buried 8 sigma out still round-trips (side-stable math)
        q = InputQuantizer.from_borders(MODEL, [-8 * 2241.0, 0.0, 8 * 2241.0])
        for x in (-18500.0, 18500.0):
            t, w = _helper_values(q, x)
            assert sibling_point(q, t, w) == pytest.approx(x, rel=1e-9)

    def test_border_point_goes_up(self):
        q = make_equiprobable(MODEL, 4)
        b = q.inner_borders[1]          # = 0
        t, w = _helper_values(q, b)
        assert t == 2 and w == pytest.approx(0.0, abs=1e-12)

    def test_w_uniformity_by_transform(self):
        # F(x) restricted to an interval, rescaled, is uniform: exact KS on
        # a deterministic quantile grid
        q = make_equiprobable(MODEL, 8)
        u = (np.arange(2000) + 0.5) / 2000
        xs = MODEL.sigma_p * scistats.norm.ppf(u)
        ws = _helper_values(q, xs)[1]
        stat = scistats.kstest(ws, "uniform").statistic
        assert stat < 0.01

    def test_helper_values_match_two_call_form(self):
        # one Phi call on -|z| gives the two-call form's helper values to the
        # bit: at both zeros, on every border, one ulp either side of it, at
        # +-38 sigma_P and on random points
        rng = np.random.default_rng(7)
        inner = np.unique(rng.uniform(-8.0, 8.0, 40))
        for q in (make_equiprobable(MODEL, 16),
                  make_equidistant(MODEL, 256, 20000.0 / 256),
                  InputQuantizer.from_borders(MODEL, MODEL.sigma_p * inner)):
            b = q.inner_borders
            x = np.concatenate((
                [0.0, -0.0, 38 * MODEL.sigma_p, -38 * MODEL.sigma_p],
                b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                rng.normal(0.0, MODEL.sigma_p, 2000)))
            t, w = _helper_values(q, x)
            t2, w2 = two_call_helper_values(q, x)
            assert np.array_equal(t, t2)
            assert np.array_equal(w, w2)
            assert np.array_equal(np.signbit(w), np.signbit(w2))

    def test_sibling_points_vectorized_matches_scalar(self):
        q = make_equidistant(MODEL, 8, 2500.0)
        ws = np.array([0.0, 0.2, 0.7, 0.999])
        mat = sibling_points(q, ws)
        assert mat.shape == (4, 8)
        for i, w in enumerate(ws):
            for t in range(8):
                assert mat[i, t] == pytest.approx(sibling_point(q, t, float(w)))

    def test_sibling_points_ordered(self):
        q = make_equidistant(MODEL, 16, 1200.0)
        for w in (0.0, 0.31, 0.97):
            x = sibling_points(q, w)
            assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_sibling_points_match_two_call_form(self, seed):
        # one Phi^{-1} call, with the upper entries negated after it, gives
        # the two-call form's points to the bit, w = 0 (-inf) included
        rng = np.random.default_rng(seed)
        inner = np.unique(rng.uniform(-8.0, 8.0, 40))
        quantizers = (make_equiprobable(MODEL, 16),
                      make_equidistant(MODEL, 256, 20000.0 / 256),
                      InputQuantizer.from_borders(MODEL, MODEL.sigma_p * inner))
        ws = np.concatenate(([0.0, np.nextafter(1.0, 0.0)],
                             rng.uniform(0.0, 1.0, 2000)))
        for q in quantizers:
            assert np.array_equal(sibling_points(q, ws),
                                  two_call_sibling_points(q, ws))
            for w in ws[:3]:
                assert np.array_equal(sibling_points(q, w),
                                      two_call_sibling_points(q, w))

    @pytest.mark.parametrize("shape", [(1,), (4095,), (4097,), (100_003,),
                                       (3, 5001)])
    def test_blocked_sibling_points_match_two_call_form(self, shape):
        # sibling_points evaluates every row in one call, whatever the
        # input's length or shape: sizes about a 4,096-row block, a large
        # input and a 2-D w
        rng = np.random.default_rng(shape[-1])
        ws = rng.uniform(0.0, 1.0, shape)
        ws.flat[0] = 0.0
        for q in (make_equiprobable(MODEL, 16),
                  make_equidistant(MODEL, 16, 20000.0 / 16)):
            got = sibling_points(q, ws)
            assert got.shape == shape + (16,)
            assert np.array_equal(got, two_call_sibling_points(q, ws))

    @pytest.mark.parametrize("q", [
        make_equiprobable(MODEL, 16),
        make_equidistant(MODEL, 64, 20000.0 / 64),
        make_equidistant(MODEL, 256, 20000.0 / 256)])
    def test_level_rows_are_the_sibling_points(self, q):
        # the helper behind sibling_points gives the same bits for any
        # levels asked for, at w = 0 (level 0 at -inf) and at the largest
        # helper value included
        rng = np.random.default_rng(q.levels)
        ws = np.concatenate(([0.0, np.nextafter(1.0, 0.0)],
                             rng.uniform(0.0, 1.0, 3000)))
        full = sibling_points(q, ws)
        assert np.array_equal(_sibling_rows(q, ws, slice(None)), full)
        lo = np.clip(rng.integers(-2, q.levels, (len(ws), 1)), 0,
                     q.levels - 5)
        for levels in (lo + np.arange(5), np.zeros((len(ws), 5), int),
                       np.full((len(ws), 5), q.levels - 1)):
            assert np.array_equal(_sibling_rows(q, ws, levels),
                                  np.take_along_axis(full, levels, axis=1))

    def test_invalid_inputs(self):
        q = make_equiprobable(MODEL, 4)
        with pytest.raises(DomainError):
            sibling_point(q, 4, 0.5)
        with pytest.raises(DomainError):
            sibling_point(q, 0, 1.0)


def brute_force_map(q, w, y, sigma_n):
    """Independent MAP rule: maximize p_t * phi((y - x_t)/sigma_n).

    Exact ties (y on a decision border) go to the higher level, matching
    the border-goes-up convention of the decision intervals."""
    x = sibling_points(q, w)
    score = np.log(q.probs) - (y - x) ** 2 / (2.0 * sigma_n ** 2)
    return len(score) - 1 - int(np.argmax(score[::-1]))


class TestOutputQuantizer:
    @pytest.mark.parametrize("strategy,n", [("equiprobable", 4),
                                            ("equiprobable", 8),
                                            ("equidistant", 8),
                                            ("equidistant", 16)])
    def test_matches_brute_force_on_grid(self, strategy, n):
        if strategy == "equiprobable":
            q = make_equiprobable(MODEL, n)
        else:
            q = make_equidistant(MODEL, n, 20000.0 / n)
        ys = np.linspace(-12000.0, 12000.0, 401)
        for w in (0.0, 0.13, 0.5, 0.86, 0.999):
            labels, borders = decision_intervals(q, w)
            for y in ys:
                got = labels[int(np.searchsorted(borders[1:-1], y,
                                                 side="right"))]
                assert got == brute_force_map(q, w, y, MODEL.sigma_n), (w, y)

    def test_labels_strictly_increasing_subsequence(self):
        q = make_equidistant(MODEL, 32, 20000.0 / 32)
        for w in np.linspace(0, 0.999, 25):
            labels, borders = decision_intervals(q, float(w))
            assert list(labels) == sorted(set(labels))
            assert np.all(np.diff(borders) > 0)

    def test_merging_occurs_for_unequal_masses(self):
        # tail levels of a wide equidistant quantizer are dominated for
        # some helper values
        q = make_equidistant(MODEL, 64, 20000.0 / 64)
        merged = [len(decision_intervals(q, float(w))[0])
                  for w in np.linspace(0, 0.999, 40)]
        assert min(merged) < 64

    def test_no_merging_for_equiprobable_small(self):
        # w = 0 is excluded: there the left tail level degenerates away
        q = make_equiprobable(MODEL, 4)
        for w in (0.01, 0.5, 0.99):
            assert decision_intervals(q, w)[0] == (0, 1, 2, 3)


def _border_stack_quantizer(name):
    """The quantizers the envelope kernel is gated on: fixed-range
    equidistant at three noise levels, equiprobable N = 256, and four
    perturbed N = 256 optimizer candidates."""
    kind, arg = name.split("-")
    if kind == "equiprobable":
        return make_equiprobable(MODEL, int(arg))
    if kind == "perturbed":
        rng = np.random.default_rng(int(arg))
        h = np.arange(1, 128) / 256 * np.exp(0.1 * rng.standard_normal(127))
        return _symmetric_quantizer(MODEL, np.sort(h), 256)
    levels, sigma_n = arg.split("@")
    return equidistant_reference(PufModel(2241.0, float(sigma_n)),
                                 int(levels))


BORDER_STACKS = ([f"equidistant-{n}@{sn}" for sn in (129, 200, 400)
                  for n in (8, 16, 32, 64, 128, 256)]
                 + ["equiprobable-256"]
                 + [f"perturbed-{seed}" for seed in range(4)])


@pytest.mark.parametrize("name", BORDER_STACKS)
def test_envelope_borders_match_the_loop_to_the_bit(name):
    # the envelope passes against the level-by-level loop they replaced,
    # on the computed halves of the 32- and 64-node rules
    q = _border_stack_quantizer(name)
    for nodes in (32, 64):
        xs, _ = unit_interval_rule(nodes)
        x = sibling_points(q, xs[:nodes // 2])
        assert np.array_equal(_decision_borders(q, x, q.model.sigma_n),
                              loop_decision_borders(q, x, q.model.sigma_n))


def test_envelope_gate_covers_merged_rows():
    # the stacks above exercise the envelope, not only the adjacent path
    merged = 0
    for name in BORDER_STACKS:
        q = _border_stack_quantizer(name)
        b = _decision_borders(q, sibling_points(q, unit_interval_rule(32)[0]),
                              q.model.sigma_n)
        merged += int(np.sum(np.any(np.diff(b, axis=1) == 0, axis=1)))
    assert merged >= 100
