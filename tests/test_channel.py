import multiprocessing
import os
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from pufsec.stats import DomainError, PufModel, unit_interval_rule
from pufsec.quantizer import (InputQuantizer, make_equidistant,
                              make_equiprobable, sibling_points)
import pufsec
from pufsec import _blocks, bounds, channel, info, quantizer, stats
from pufsec.channel import (_PHI_ONE, _PHI_ZERO, AttackerSpec, ChannelMatrix,
                            _mi_per_node, _mirror_half, _rule,
                            averaged_channel, per_w_channels)
from pufsec.info import entropy, mutual_information
from pufsec.optimize import _symmetric_quantizer
from pufsec.tables import make_quantizer
from blockpool import (pooled_crowded_inline, spy_public_calls,
                       spy_threads)
from oracles import (analog_triple, decision_intervals, dense_mi_per_node,
                     dense_per_w_channels, erasure_joint, oracle_channel,
                     oracle_output_quantizer)

MODEL = PufModel(2241.0, 129.0)


class TestChannelMatrix:
    def test_row_sum_validation(self):
        with pytest.raises(DomainError):
            ChannelMatrix(np.array([[0.6, 0.3]]))

    def test_rows_stochastic_everywhere(self):
        # acceptance property: all rows sum to 1 within 1e-9
        for q in (make_equiprobable(MODEL, 8),
                  make_equidistant(MODEL, 16, 20000.0 / 16)):
            ws, _ = unit_interval_rule(64)
            mats = per_w_channels(q, ws)
            assert np.max(np.abs(mats.sum(axis=2) - 1.0)) < 1e-9
            assert np.all(mats >= 0)
            avg = averaged_channel(q, nodes=64)
            assert np.max(np.abs(avg.p.sum(axis=1) - 1.0)) < 1e-9

    @given(st.integers(2, 32).flatmap(lambda n: st.tuples(
               st.floats(-3.0, 0.0),
               st.lists(st.floats(0.01, 0.5), min_size=n - 1,
                        max_size=n - 1))),
           st.floats(60.0, 400.0),
           st.lists(st.one_of(st.just(0.0),
                              st.floats(0.0, 1.0, exclude_max=True)),
                    min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_per_w_matches_scalar_construction(self, knots, sigma_n, ws):
        # the scalar pop-stack merge in tests/oracles.py is the second
        # route for the vectorized decision borders
        start, gaps = knots
        model = PufModel(2241.0, sigma_n)
        inner = model.sigma_p * (start + np.cumsum(gaps) - gaps[0])
        q = InputQuantizer.from_borders(model, inner)
        mats = per_w_channels(q, ws)
        # at w = 0 level 0 has no sibling point (-inf): its row is NaN on
        # both routes, and every other row is a distribution
        defined = np.isfinite(sibling_points(q, ws))
        assert np.all(np.abs(mats.sum(axis=2) - 1.0)[defined] < 1e-12)
        for w, mat in zip(ws, mats):
            x = sibling_points(q, w)
            labels, borders = oracle_output_quantizer(x, q.probs, sigma_n)
            got_labels, got_borders = decision_intervals(q, w)
            assert got_labels == labels
            assert np.array_equal(got_borders, borders)
            rows = np.isfinite(x)
            gap = mat - oracle_channel(x, q.probs, sigma_n)
            assert np.max(np.abs(gap[rows])) <= 1e-15
        assert np.array_equal(mats, dense_per_w_channels(q, ws),
                              equal_nan=True)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(DomainError):
            ChannelMatrix(np.array([[np.nan, 1.0]]))
        # at w = 0 level 0 has no sibling point, so its row is NaN
        with pytest.raises(DomainError):
            ChannelMatrix(per_w_channels(make_equiprobable(PufModel(), 4),
                                         [0.0])[0])

    def test_sigma_n_zero_is_the_identity(self):
        # the borders are the sibling points' midpoints and z = +-inf, so
        # every row is one 1 and the rest 0, with no RuntimeWarning
        m = PufModel(2241.0, 0.0)
        for strategy, levels in (("equiprobable", 2), ("equiprobable", 3),
                                 ("equiprobable", 64), ("equidistant", 16),
                                 ("equidistant", 256)):
            q = make_quantizer(m, levels, strategy)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mats = per_w_channels(q, np.linspace(0.01, 0.99, 7))
                s = bounds.summarize_channel(q, m)
            assert np.array_equal(
                mats, np.broadcast_to(np.eye(levels), mats.shape))
            assert np.array_equal(s.joint, np.diag(s.probs))
            assert abs(s.i_cond - entropy(q.probs)) <= 1e-15

    @pytest.mark.parametrize("entry", [
        lambda q, m: per_w_channels(q, [0.5], m),
        lambda q, m: averaged_channel(q, m, nodes=16),
        lambda q, m: bounds.summarize_channel(q, m, nodes=16)],
        ids=["per_w_channels", "averaged_channel", "summarize_channel"])
    def test_model_sigma_p_must_be_the_quantizers(self, entry):
        # the sibling points are the quantizer's, so a model with another
        # sigma_p used to be answered at the quantizer's sigma_p; another
        # sigma_n is a legal model
        q = make_equiprobable(PufModel(), 8)
        with pytest.raises(DomainError, match="sigma_p"):
            entry(q, PufModel(1000.0, 129.0))
        entry(q, PufModel(2241.0, 200.0))


class TestBandKernel:
    """The band-limited, node-blocked kernels must equal the dense forms in
    tests/oracles.py to the bit, NaN row at w = 0 included."""

    @staticmethod
    def assert_matches_dense(q, ws):
        mats = per_w_channels(q, ws)
        assert mats.shape == (len(ws), q.levels, q.levels)
        assert np.array_equal(mats, dense_per_w_channels(q, ws),
                              equal_nan=True)
        assert np.array_equal(_mi_per_node(mats, q.probs),
                              dense_mi_per_node(mats, q.probs),
                              equal_nan=True)

    def test_ndtr_saturates_outside_the_band(self):
        # per_w_channels writes 0.0 and 1.0 itself outside the band; if a
        # scipy release moves either edge of ndtr's saturation, this fails
        low = np.concatenate(([-np.inf, -1e300], -np.geomspace(1e6, 60.0),
                              np.linspace(-60.0, _PHI_ZERO, 1_000_001)))
        high = np.concatenate((np.linspace(_PHI_ONE, 60.0, 1_000_001),
                               np.geomspace(60.0, 1e6), [1e300, np.inf]))
        assert np.all(special.ndtr(low) == 0.0)
        assert np.all(special.ndtr(high) == 1.0)

    @pytest.mark.parametrize("levels", (2, 3, 4, 8, 16, 32, 64, 128, 256))
    @pytest.mark.parametrize("strategy", ("equiprobable", "equidistant"))
    def test_table_quantizers_match_dense(self, strategy, levels):
        q = _table_quantizer(strategy, levels)
        # K = 100 is no multiple of the block's node count at N = 32..128; the
        # dense oracle's memory grows as K N^2, so N = 256 stops at K = 128
        for k in (16, 64, 100, 128, 256):
            if k * levels ** 2 <= 128 * 256 ** 2:
                self.assert_matches_dense(q, np.arange(k) / k)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_knots_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        model = PufModel(2241.0, rng.uniform(60.0, 400.0))
        inner = np.unique(rng.uniform(-5.0, 5.0, rng.integers(1, 200)))
        q = InputQuantizer.from_borders(model, model.sigma_p * inner)
        ws = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(16, 200))))
        ws[0] = 0.0
        self.assert_matches_dense(q, ws)


def _table_quantizer(strategy, levels):
    return make_quantizer(MODEL, levels, strategy)


def _optimizer_candidate(seed):
    """A mirror-symmetric quantizer as the optimizer builds it, from a
    random lower half of the knot vector, with its own noise level."""
    rng = np.random.default_rng(seed)
    levels = int(rng.integers(2, 65))
    model = PufModel(2241.0, rng.uniform(60.0, 400.0))
    h = np.sort(rng.uniform(0.0, 0.5, (levels - 1) // 2))
    return _symmetric_quantizer(model, h, levels)


def _rule_rows(monkeypatch, q, nodes):
    """Node counts of the stacks `_rule` has per_w_channels compute."""
    rows = []
    real = channel.per_w_channels

    def spy(q, ws, model=None):
        rows.append(len(ws))
        return real(q, ws, model)

    monkeypatch.setattr(channel, "per_w_channels", spy)
    _rule(q, q.model, nodes)
    return rows


class TestMirrorFold:
    """On mirror-symmetric quantizers and Gauss-Legendre nodes `_rule`
    evaluates half the nodes and folds the other half onto them (see
    DECISIONS.md, "The mirror-folded channel kernel").  Its averaged channel
    and I(S;S~|W) equal the dense oracle's reductions of the full stack up
    to rounding; per_w_channels itself never folds and matches the dense
    stack to the bit."""

    NODES = (16, 17, 64, 128, 256)

    @staticmethod
    def assert_folded_close(q):
        for k in TestMirrorFold.NODES:
            # the dense oracle's memory grows as K N^2 (cap as in
            # TestBandKernel)
            if k * q.levels ** 2 > 128 * 256 ** 2:
                continue
            xs, wts = unit_interval_rule(k)
            assert _mirror_half(q, xs) == (k + 1) // 2
            dense = dense_per_w_channels(q, xs)
            mats = per_w_channels(q, xs)
            assert np.array_equal(mats, dense)
            assert np.max(np.abs(mats.sum(axis=2) - 1.0)) <= 1e-12
            p, mi = _rule(q, q.model, k)
            assert np.max(np.abs(p - np.tensordot(wts, dense, axes=1))) <= 2e-14
            assert abs(mi - wts @ dense_mi_per_node(dense, q.probs)) <= 1e-14

    @pytest.mark.parametrize("levels", (2, 3, 4, 5, 8, 16, 32, 64, 128, 256))
    @pytest.mark.parametrize("strategy", ("equiprobable", "equidistant"))
    def test_table_quantizers_fold_to_dense(self, strategy, levels):
        self.assert_folded_close(_table_quantizer(strategy, levels))

    @pytest.mark.parametrize("seed", range(6))
    def test_optimizer_candidates_fold_to_dense(self, seed):
        self.assert_folded_close(_optimizer_candidate(seed))

    def test_no_fold_without_exact_symmetry(self, monkeypatch):
        xs, wts = unit_interval_rule(64)
        asym = InputQuantizer.from_borders(
            MODEL, MODEL.sigma_p * np.array([-1.0, -0.2, 0.4, 1.3]))
        # one ulp off antisymmetric is enough to take the unfolded path
        ep = make_equiprobable(MODEL, 8)
        near = InputQuantizer.from_borders(
            MODEL, np.nextafter(ep.inner_borders, np.inf))
        for q in (asym, near):
            assert _mirror_half(q, xs) == 64
            assert _rule_rows(monkeypatch, q, 64) == [64]
            # unfolded, the reductions are the dense ones to the bit
            dense = dense_per_w_channels(q, xs)
            p, mi = _rule(q, q.model, 64)
            assert np.array_equal(p, np.tensordot(wts, dense, axes=1))
            assert mi == float(wts @ dense_mi_per_node(dense, q.probs))
        # symmetric quantizer, but arange(K)/K forms no mirror pairs
        ws = np.arange(64) / 64
        assert _mirror_half(ep, ws) == 64
        assert np.array_equal(per_w_channels(ep, ws),
                              dense_per_w_channels(ep, ws), equal_nan=True)

    def test_quantizers_are_exactly_symmetric(self):
        qs = [make_equiprobable(MODEL, n) for n in (3, 5, 7, 9, 33, 255)]
        qs += [_optimizer_candidate(seed) for seed in range(6)]
        for q in qs:
            inner = q.inner_borders
            assert np.array_equal(inner, -inner[::-1])
            assert np.array_equal(q.probs, q.probs[::-1])

    @pytest.mark.parametrize("nodes", (16, 17, 64, 128))
    def test_conditional_mi_on_folded_stack(self, nodes):
        xs, wts = unit_interval_rule(nodes)
        qs = [_table_quantizer(s, n) for s in ("equiprobable", "equidistant")
              for n in (2, 3, 8, 64, 256)]
        qs += [_optimizer_candidate(seed) for seed in range(6)]
        for q in qs:
            assert _mirror_half(q, xs) == (nodes + 1) // 2
            dense = wts @ dense_mi_per_node(dense_per_w_channels(q, xs),
                                            q.probs)
            # the optimizer's objective: the folded I alone
            assert abs(_rule(q, q.model, nodes, channel=False)[1]
                       - dense) <= 1e-14

    def test_fold_evaluates_half_the_sibling_points(self, monkeypatch):
        q = make_equiprobable(MODEL, 64)
        assert _rule_rows(monkeypatch, q, 128) == [64]


class TestNodePool:
    """per_w_channels and _mi_per_node run their node blocks on a shared
    thread pool (see DECISIONS.md, "Parallel node blocks").  Every block
    writes its own slice, so the pooled results equal inline ones to the
    bit, on any number of threads."""

    @staticmethod
    def assert_pool_matches_inline(monkeypatch, q, ws, nodes=None):
        def results():
            mats = per_w_channels(q, ws)
            mi = (_rule(q, q.model, nodes, channel=False)[1] if nodes
                  else _mi_per_node(mats, q.probs))
            return mats, mi

        pooled, crowded, inline = pooled_crowded_inline(monkeypatch, results)
        for got in (pooled, crowded):
            for a, b in zip(got, inline):
                assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("strategy,nodes", [
        ("equiprobable", 128), ("equiprobable", 256), ("equidistant", 128)])
    def test_pool_matches_inline(self, monkeypatch, strategy, nodes):
        # equidistant N = 256 has merged rows
        xs, _ = unit_interval_rule(nodes)
        self.assert_pool_matches_inline(
            monkeypatch, _table_quantizer(strategy, 256), xs, nodes)

    def test_unfolded_stack_with_nan_row(self, monkeypatch):
        q = make_equiprobable(MODEL, 256)
        ws = np.arange(128) / 128            # no mirror pairs, w = 0 first
        assert _mirror_half(q, ws) == 128
        assert np.isnan(per_w_channels(q, ws[:1])[0, 0]).any()
        self.assert_pool_matches_inline(monkeypatch, q, ws)

    def test_public_functions_stay_on_the_calling_thread(self, monkeypatch):
        # the perfbench tracer keeps one span stack, which is not
        # thread-safe: no public quantizer, stats or info function may run in
        # a job.  At N = 128 both kernels' stacks span several blocks, and
        # the thread spies make the pool take some of them.
        calls = spy_public_calls(
            monkeypatch, (pufsec, quantizer, stats, channel, info, bounds))
        main = threading.get_ident()
        workers, mi_workers = set(), set()
        ndtr = spy_threads(special.ndtr, workers)
        monkeypatch.setattr(channel, "special", types.SimpleNamespace(ndtr=ndtr))
        monkeypatch.setattr(channel, "_log_ratios",
                            spy_threads(channel._log_ratios, mi_workers))
        monkeypatch.setattr(_blocks, "_THREADS", 2)  # a helper even on one CPU
        bounds.summarize_channel(make_equidistant(MODEL, 128, 20000.0 / 128),
                                 nodes=64)
        assert calls and set(calls) == {main}
        assert len(workers) > 1 and len(mi_workers) > 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_pool(self):
        q = make_equiprobable(MODEL, 64)
        xs, _ = unit_interval_rule(128)
        mats = per_w_channels(q, xs)        # the parent's pool threads run
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(per_w_channels, (q, xs)).get(timeout=60)
        assert np.array_equal(child, mats)


class TestAveraging:
    def test_quadrature_refinement_metadata(self):
        q = make_equiprobable(MODEL, 8)
        avg = averaged_channel(q, nodes=64)
        assert avg.metadata["refinement_delta"] < 1e-9
        assert not avg.metadata["quadrature_warning"]

    def test_non_finite_delta_is_flagged(self):
        # outer intervals of mass 4.8e-310: an O(1) channel entry over a
        # subnormal marginal gives I(S;S~|W) = inf and a NaN delta, which
        # must not read as a trusted result.  The RuntimeWarnings are the
        # known defect of such masses, expected here, not suppressed.
        q = InputQuantizer.from_borders(
            PufModel(), [-84310.0, -1000.0, 0.0, 1000.0, 84310.0])
        with pytest.warns(RuntimeWarning):
            s = bounds.summarize_channel(q)
        assert s.i_cond == np.inf
        assert np.isnan(s.metadata["mi_refinement_delta"])
        assert s.metadata["quadrature_warning"] is True

    def test_symmetry_of_averaged_matrix(self):
        # the Gaussian model is symmetric under x -> -x, so the averaged
        # channel of a symmetric quantizer is persymmetric
        q = make_equiprobable(MODEL, 8)
        p = averaged_channel(q, nodes=128).p
        assert np.allclose(p, p[::-1, ::-1], atol=1e-12)

    def test_conditional_vs_averaged_mi_regression(self):
        # |I(S;S~|W) - I(S;S~)| stays below 1e-3 bits for the tabulated
        # configurations; the bounds module relies on this closeness
        for n in (4, 8):
            q = make_equiprobable(MODEL, n)
            joint = q.probs[:, None] * averaged_channel(q, nodes=128).p
            gap = abs(bounds.summarize_channel(q, nodes=128).i_cond
                      - mutual_information(joint))
            assert gap < 1e-3

    def test_nodes_validation(self):
        with pytest.raises(DomainError):
            averaged_channel(make_equiprobable(MODEL, 4), nodes=8)


class TestQuadrature:
    """summarize_channel, averaged_channel and the optimizer's reported rate
    share one routine: a doubling chain of Gauss-Legendre rules, each computed on
    its mirror half, that stops at the first rule within _CHANNEL_TOL and
    _MI_TOL of its half rule (DECISIONS.md, "Error-controlled node
    count")."""

    # equiprobable N = 8 converges at the first candidate rule
    CHAINS = {16: (8, 16), 17: (8, 17), 128: (16, 32)}

    @pytest.mark.parametrize("nodes", CHAINS)
    def test_one_stack_and_its_half(self, monkeypatch, nodes):
        # each stack of the chain is computed on its mirror half only
        chain = self.CHAINS[nodes]
        q = make_equiprobable(MODEL, 8)
        calls = []
        real = channel.per_w_channels

        def spy(q, ws, model=None):
            calls.append(ws)
            return real(q, ws, model)

        monkeypatch.setattr(channel, "per_w_channels", spy)
        for f in (bounds.summarize_channel, averaged_channel):
            calls.clear()
            f(q, nodes=nodes)
            assert len(calls) == len(chain)
            for ws, k in zip(calls, chain):
                # the computed half of the k-node rule, nothing more
                xs = unit_interval_rule(k)[0]
                assert np.array_equal(ws, xs[:(k + 1) // 2])

    @staticmethod
    def assert_summary_is_the_stack(q, nodes=128):
        s = bounds.summarize_channel(q, nodes=nodes)
        k = s.metadata["nodes_used"]
        p, mi = channel._rule(q, q.model, k)
        p_half, mi_half = channel._rule(q, q.model, k // 2)
        assert np.array_equal(s.joint,
                              np.clip(q.probs[:, None] * p, 0.0, None))
        assert s.i_cond == mi == _rule(q, q.model, k, channel=False)[1]
        assert s.metadata["refinement_delta"] == np.max(np.abs(p - p_half))
        assert s.metadata["mi_refinement_delta"] == abs(mi - mi_half)
        # the folded reduction is the full stack's, up to rounding
        xs, wts = unit_interval_rule(k)
        full = np.tensordot(wts, per_w_channels(q, xs), axes=1)
        assert np.max(np.abs(p - full)) <= 1e-15
        # k is the first rule of the chain that meets both tolerances
        converged = (s.metadata["refinement_delta"] <= channel._CHANNEL_TOL
                     and s.metadata["mi_refinement_delta"] <= channel._MI_TOL)
        assert converged or k == nodes
        j = k // 2
        while j >= 32:      # the earlier candidates in the chain
            pj, mij = channel._rule(q, q.model, j)
            pj2, mij2 = channel._rule(q, q.model, j // 2)
            assert (np.max(np.abs(pj - pj2)) > channel._CHANNEL_TOL
                    or abs(mij - mij2) > channel._MI_TOL)
            j //= 2
        return s

    @pytest.mark.parametrize("strategy", ("equiprobable", "equidistant"))
    def test_table_summaries_are_the_stack_to_the_bit(self, strategy):
        # only equidistant N = 256 is flagged and runs the whole chain, from
        # the kinks where merging switches on or off; every other table
        # quantizer converges at the first candidate (DECISIONS.md,
        # "Error-controlled node count")
        for levels in (2, 4, 8, 16, 32, 64, 128, 256):
            q = _table_quantizer(strategy, levels)
            s = self.assert_summary_is_the_stack(q)
            flagged = strategy == "equidistant" and levels == 256
            assert s.metadata["quadrature_warning"] == flagged
            assert s.metadata["nodes_used"] == (128 if flagged else 32)
            # second route: the single 128-node rule the chain replaced
            p, mi = channel._rule(q, q.model, 128)
            assert abs(s.i_cond - mi) <= 1e-12
            assert np.max(np.abs(s.joint - q.probs[:, None] * p)) <= 1e-12

    def test_optimizer_candidates_are_the_stack_to_the_bit(self):
        for seed in range(6):
            self.assert_summary_is_the_stack(_optimizer_candidate(seed))


class TestAttackerSpec:
    def test_digital_needs_no_pa(self):
        a = AttackerSpec("digital", p_d=0.18)
        assert a.p_a is None

    def test_analog_ordering_enforced(self):
        with pytest.raises(DomainError):
            AttackerSpec("analog", p_d=0.5, p_a=0.4)
        with pytest.raises(DomainError):
            AttackerSpec("digital", p_d=1.5)
        with pytest.raises(DomainError):
            AttackerSpec("sideways", p_d=0.1)
        with pytest.raises(DomainError, match="p_a"):
            AttackerSpec("digital", p_d=0.18, p_a=0.9)


class TestExtensions:
    """The attacker-extended sources that the dispersion oracles enumerate
    (tests/oracles.py) obey the erasure identities of the attacker model."""

    def setup_method(self):
        self.q = make_equiprobable(MODEL, 4)
        self.base = averaged_channel(self.q, nodes=64)
        self.joint = self.q.probs[:, None] * self.base.p

    def test_digital_extension_rows(self):
        ext = erasure_joint(self.joint, 0.18) / self.q.probs[:, None]
        # the last column is the erasure, seen with probability p_d
        assert np.allclose(ext[:, -1], 0.18, atol=1e-12)
        assert np.allclose(ext.sum(axis=1), 1.0, atol=1e-12)

    def test_digital_erasure_mi_identity(self):
        # I(S; S~_d) = (1 - p_d) I(S; S~) exactly for an erasure channel
        p_d = 0.3
        joint_ext = erasure_joint(self.joint, p_d)
        assert mutual_information(joint_ext) == pytest.approx(
            (1.0 - p_d) * mutual_information(self.joint), abs=1e-12)

    def test_analog_extension_rows_and_masses(self):
        # P(view | S), view = (S~_d, S~_a) in analog_triple's column order
        ext = (analog_triple(self.joint, 0.18, 0.36).sum(axis=1)
               / self.q.probs[:, None])
        assert np.allclose(ext.sum(axis=1), 1.0, atol=1e-12)
        # outcome class masses: (E,E) = p_d, (s~,E) = p_a-p_d, rest 1-p_a
        n = 4
        cols = np.arange(ext.shape[1])
        both_erased = cols == (n * (n + 1) + n)
        ana_erased = (cols % (n + 1) == n) & ~both_erased
        assert np.allclose(ext[:, both_erased].sum(axis=1), 0.18)
        assert np.allclose(ext[:, ana_erased].sum(axis=1), 0.36 - 0.18)

    def test_analog_collapse_at_pa_eq_pd(self):
        # with p_a = p_d every unerased cell reveals S exactly:
        # I(S; view) = (1 - p_d) H(S)
        p = 0.25
        joint_ext = analog_triple(self.joint, p, p).sum(axis=1)
        assert mutual_information(joint_ext) == pytest.approx(
            (1.0 - p) * entropy(self.q.probs), abs=1e-12)

    def test_analog_reading_is_exact(self):
        # unerased analog coordinate always equals the enrolled level
        ext = analog_triple(self.joint, 0.1, 0.2).sum(axis=1)
        n = 4
        for s in range(n):
            for d in range(n + 1):
                for a in range(n):
                    if a != s:
                        assert ext[s, d * (n + 1) + a] == 0.0
