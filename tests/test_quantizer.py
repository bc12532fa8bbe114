import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scistats

from oracles import sibling_point, two_call_sibling_points
from pufsec.stats import DomainError, PufModel
from pufsec.quantizer import (InputQuantizer, helper_data, make_equidistant,
                              make_equiprobable, output_quantizer, reconstruct,
                              sibling_points)

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
        q = make_equidistant(MODEL, 8, 20000.0 / 8)
        q2 = InputQuantizer.from_json(q.to_json())
        assert np.allclose(q.borders[1:-1], q2.borders[1:-1])
        assert np.allclose(q.probs, q2.probs)
        assert q2.kind == "equidistant" and q2.step == q.step
        d = json.loads(q.to_json())
        assert d["sigma_p"] == 2241.0


class TestHelperData:
    @given(st.floats(min_value=-9000.0, max_value=9000.0),
           st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_equiprobable(self, x, n):
        q = make_equiprobable(MODEL, n)
        t, w = helper_data(q, x)
        assert 0 <= t < n and 0.0 <= w < 1.0
        assert sibling_point(q, t, w) == pytest.approx(x, abs=1e-6)

    def test_roundtrip_deep_tail(self):
        # interval buried 8 sigma out still round-trips (side-stable math)
        q = InputQuantizer.from_borders(MODEL, [-8 * 2241.0, 0.0, 8 * 2241.0])
        for x in (-18500.0, 18500.0):
            t, w = helper_data(q, x)
            assert sibling_point(q, t, w) == pytest.approx(x, rel=1e-9)

    def test_border_point_goes_up(self):
        q = make_equiprobable(MODEL, 4)
        b = q.inner_borders[1]          # = 0
        t, w = helper_data(q, b)
        assert t == 2 and w == pytest.approx(0.0, abs=1e-12)

    def test_w_uniformity_by_transform(self):
        # F(x) restricted to an interval, rescaled, is uniform: exact KS on
        # a deterministic quantile grid
        q = make_equiprobable(MODEL, 8)
        u = (np.arange(2000) + 0.5) / 2000
        xs = MODEL.sigma_p * scistats.norm.ppf(u)
        ws = [helper_data(q, x)[1] for x in xs]
        stat = scistats.kstest(ws, "uniform").statistic
        assert stat < 0.01

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
        # at N = 16 a row block holds 4,096 rows: these are 1, 1, 2, 25 and
        # 4 blocks, the last of a 2-D w
        rng = np.random.default_rng(shape[-1])
        ws = rng.uniform(0.0, 1.0, shape)
        ws.flat[0] = 0.0
        for q in (make_equiprobable(MODEL, 16),
                  make_equidistant(MODEL, 16, 20000.0 / 16)):
            got = sibling_points(q, ws)
            assert got.shape == shape + (16,)
            assert np.array_equal(got, two_call_sibling_points(q, ws))

    def test_invalid_inputs(self):
        q = make_equiprobable(MODEL, 4)
        with pytest.raises(DomainError):
            helper_data(q, math.inf)
        with pytest.raises(DomainError):
            sibling_point(q, 4, 0.5)
        with pytest.raises(DomainError):
            sibling_point(q, 0, 1.0)


def brute_force_map(q, w, y, sigma_n):
    """Independent MAP rule: maximize p_t * phi((y - x_t)/sigma_n).

    Exact ties (y on a decision border) go to the higher level, matching
    the border-goes-up convention of reconstruct."""
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
            oq = output_quantizer(q, w)
            for y in ys:
                assert reconstruct(oq, float(y)) == brute_force_map(
                    q, w, y, MODEL.sigma_n), (w, y)

    def test_labels_strictly_increasing_subsequence(self):
        q = make_equidistant(MODEL, 32, 20000.0 / 32)
        for w in np.linspace(0, 0.999, 25):
            oq = output_quantizer(q, float(w))
            assert list(oq.labels) == sorted(set(oq.labels))
            assert np.all(np.diff(oq.borders) > 0)

    def test_merging_occurs_for_unequal_masses(self):
        # tail levels of a wide equidistant quantizer are dominated for
        # some helper values
        q = make_equidistant(MODEL, 64, 20000.0 / 64)
        merged = [len(output_quantizer(q, float(w)).labels)
                  for w in np.linspace(0, 0.999, 40)]
        assert min(merged) < 64

    def test_no_merging_for_equiprobable_small(self):
        # w = 0 is excluded: there the left tail level degenerates away
        q = make_equiprobable(MODEL, 4)
        for w in (0.01, 0.5, 0.99):
            assert output_quantizer(q, w).labels == (0, 1, 2, 3)

    def test_reconstruct_validation(self):
        oq = output_quantizer(make_equiprobable(MODEL, 4), 0.5)
        with pytest.raises(DomainError):
            reconstruct(oq, math.nan)
        with pytest.raises(DomainError):
            output_quantizer(make_equiprobable(MODEL, 4), 1.5)
