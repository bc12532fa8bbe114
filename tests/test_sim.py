import multiprocessing
import os
import threading
import types

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import special, stats as scistats

import pufsec
from pufsec import _blocks, bounds, quantizer, sim as sim_mod, stats
from pufsec.cli import main
from pufsec.stats import DomainError, PufModel
from pufsec.quantizer import make_equidistant, make_equiprobable
from pufsec.channel import AttackerSpec, averaged_channel
from pufsec.sim import (SimConfig, attacker_observations, leakage_test,
                        run_simulation)
from pufsec.info import mutual_information
from pufsec.tables import make_quantizer
from blockpool import pooled_crowded_inline, spy_public_calls, spy_threads
from oracles import full_row_simulate_chunk, leakage_samples, plugin_mi

MODEL = PufModel(2241.0, 129.0)


class TestDeterminism:
    def test_identical_report_bytes(self):
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 4),
                        samples=50_000, seed=1234)
        assert run_simulation(cfg).to_json() == run_simulation(cfg).to_json()

    def test_seed_changes_output(self):
        q = make_equiprobable(MODEL, 4)
        a = run_simulation(SimConfig(MODEL, q, samples=50_000, seed=1))
        b = run_simulation(SimConfig(MODEL, q, samples=50_000, seed=2))
        assert a.to_json() != b.to_json()

    def test_chunking_invariance(self, monkeypatch):
        # crossing chunk boundaries must not change the sample stream, so
        # every entry point gives the same output in one chunk or in five
        import pufsec.sim as sim_mod
        q = make_equidistant(MODEL, 8, 20000.0 / 8)
        cfgs = [SimConfig(MODEL, q, samples=20_000, seed=9, attacker=att)
                for att in (AttackerSpec("digital", p_d=0.18),
                            AttackerSpec("analog", p_d=0.18, p_a=0.36))]

        def outputs():
            return [run_simulation(cfgs[0]).to_json(),
                    leakage_test(cfgs[0]),
                    leakage_test(cfgs[0], helper="center-distance"),
                    *(attacker_observations(c)["counts"].tolist()
                      for c in cfgs)]

        assert cfgs[0].samples <= sim_mod._CHUNK
        ref = outputs()
        monkeypatch.setattr(sim_mod, "_CHUNK", 4097)
        assert outputs() == ref


class TestPipeline:
    def test_noiseless_zero_errors(self):
        m = PufModel(2241.0, 0.0)
        cfg = SimConfig(m, make_equiprobable(m, 8), samples=20_000, seed=5)
        rep = run_simulation(cfg)
        assert rep.error_rate == 0.0
        assert np.allclose(rep.matrix, np.eye(8))

    @pytest.mark.parametrize("strategy,n", [("equiprobable", 8),
                                            ("equidistant", 8)])
    def test_noiseless_matches_averaged_channel(self, strategy, n):
        # sigma_N = 0 on both routes: S~ = S in the simulator, and the
        # identity channel from the quadrature's own arithmetic
        m = PufModel(2241.0, 0.0)
        q = make_quantizer(m, n, strategy)
        rep = run_simulation(SimConfig(m, q, samples=20_000, seed=6))
        theory = averaged_channel(q, nodes=128).p
        assert np.array_equal(theory, np.eye(n))
        assert np.array_equal(rep.matrix, theory)

    def test_matrix_matches_quadrature_within_3se(self):
        # acceptance criterion run: 1e7 samples, seed 42, N=4 equiprobable
        q = make_equiprobable(MODEL, 4)
        cfg = SimConfig(MODEL, q, samples=10_000_000, seed=42)
        rep = run_simulation(cfg)
        theory = averaged_channel(q, nodes=128).p
        # entries with expected count below ~10 are granular; give them an
        # absolute slack of one count per row instead
        row = rep.counts.sum(axis=1, keepdims=True)
        slack = 3.0 * np.sqrt(theory * (1 - theory) / row) + 2.0 / row
        assert np.all(np.abs(rep.matrix - theory) <= slack)
        # plug-in informations within 0.01 bits of quadrature values
        joint = q.probs[:, None] * theory
        assert rep.mi_plugin == pytest.approx(mutual_information(joint),
                                              abs=0.01)
        assert rep.mi_conditional == pytest.approx(
            bounds.summarize_channel(q, nodes=128).i_cond, abs=0.01)

    @pytest.mark.parametrize("strategy,n", [("equidistant", 8),
                                            ("equiprobable", 3)])
    def test_plugin_informations_match_the_loop_oracle(self, strategy, n):
        q = (make_equidistant(MODEL, n, 20000.0 / n)
             if strategy == "equidistant" else make_equiprobable(MODEL, n))
        cfg = SimConfig(MODEL, q, samples=20_000, seed=13)
        rep = run_simulation(cfg)
        # the counts of each helper-value bin, tallied one sample at a time
        s, w, s_tilde, _ = full_row_simulate_chunk(cfg, 0, cfg.samples)
        bins = {}
        for a, b, t in zip(s.tolist(), w.tolist(), s_tilde.tolist()):
            k = min(int(b * sim_mod._W_BINS), sim_mod._W_BINS - 1)
            bins.setdefault(k, np.zeros((n, n), dtype=np.int64))[a, t] += 1
        assert np.array_equal(sum(bins.values()), rep.counts)
        assert rep.mi_plugin == pytest.approx(plugin_mi(rep.counts),
                                              abs=1e-12)
        cond = sum(c.sum() / cfg.samples * plugin_mi(c)
                   for c in bins.values())
        assert rep.mi_conditional == pytest.approx(cond, abs=1e-12)

    def test_error_rate_matches_channel(self):
        q = make_equiprobable(MODEL, 8)
        cfg = SimConfig(MODEL, q, samples=500_000, seed=3)
        rep = run_simulation(cfg)
        theory = 1.0 - np.mean(np.diag(averaged_channel(q, nodes=128).p))
        se = np.sqrt(theory * (1 - theory) / cfg.samples)
        assert abs(rep.error_rate - theory) <= 3 * se

    def test_w_histograms_uniform_overall(self):
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 4),
                        samples=200_000, seed=11)
        rep = run_simulation(cfg)
        pooled = rep.w_histograms.sum(axis=0)
        expect = cfg.samples / sim_mod._W_BINS
        assert np.max(np.abs(pooled - expect)) < 5 * np.sqrt(expect)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimConfig(MODEL, make_equiprobable(MODEL, 4), samples=0, seed=1)
        for seed in (-1, 1.5):
            with pytest.raises(DomainError):
                SimConfig(MODEL, make_equiprobable(MODEL, 4), samples=10,
                          seed=seed)
        SimConfig(MODEL, make_equiprobable(MODEL, 4), samples=10,
                  seed=np.uint32(7))

    # a float count would fail later in run_simulation with a raw
    # TypeError, and a bool would pass as the integer 0 or 1
    @pytest.mark.parametrize("field,value", [
        ("samples", 1000.0), ("samples", True), ("samples", "1000"),
        ("seed", True), ("seed", np.bool_(False)), ("seed", 7.0)])
    def test_non_integer_count_or_seed_rejected(self, field, value):
        kwargs = {"samples": 1000, "seed": 1, field: value}
        with pytest.raises(DomainError, match=field):
            SimConfig(MODEL, make_equiprobable(MODEL, 4), **kwargs)
        SimConfig(MODEL, make_equiprobable(MODEL, 4),
                  **{**kwargs, field: np.int64(5)})

    def test_quantizer_for_another_model_rejected(self):
        # X would be drawn with one sigma_p and quantized with another
        with pytest.raises(DomainError):
            SimConfig(PufModel(1000.0, 129.0), make_equiprobable(MODEL, 4),
                      samples=20_000, seed=1)


class TestLeakage:
    def test_zero_leakage_passes(self):
        # acceptance property: KS p-values pass at 1e5 samples
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 8),
                        samples=100_000, seed=7)
        res = leakage_test(cfg)
        ps = [v["p_value"] for v in res.values() if not v["under_sampled"]]
        assert len(ps) == 8
        assert all(p > 0.01 for p in ps)

    def test_negative_control_rejects(self):
        # center-distance helper data leaks for non-equiprobable intervals
        q = make_equidistant(MODEL, 8, 20000.0 / 8)
        cfg = SimConfig(MODEL, q, samples=100_000, seed=7)
        res = leakage_test(cfg, helper="center-distance")
        ps = [v["p_value"] for v in res.values() if not v["under_sampled"]]
        assert ps and all(p < 1e-6 for p in ps)

    def test_under_sampled_flagged(self):
        q = make_equidistant(MODEL, 8, 20000.0 / 8)
        cfg = SimConfig(MODEL, q, samples=2_000, seed=1)
        res = leakage_test(cfg)
        assert any(v["under_sampled"] for v in res.values())

    def test_unknown_helper_rejected(self):
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 4),
                        samples=1000, seed=1)
        with pytest.raises(DomainError):
            leakage_test(cfg, helper="bogus")

    @pytest.mark.parametrize("helper", ["zero-leakage", "center-distance"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_scipy_kstest(self, n, helper):
        # the statistic is scipy's exact-method one and the p-value its
        # asymptotic one, to the bit (DECISIONS.md, "Asymptotic Kolmogorov
        # p-values in the leakage test"); 100,000 samples span two chunks
        # and leave the outer levels of both quantizers under-sampled
        q = make_equidistant(MODEL, n, 20000.0 / n)
        cfg = SimConfig(MODEL, q, samples=100_000, seed=13)
        res = leakage_test(cfg, helper=helper)
        samples = leakage_samples(cfg, helper)
        assert res[0]["under_sampled"] and res[0]["samples"] == samples[0].size
        assert res[0]["statistic"] is res[0]["p_value"] is None
        tested = [t for t in res if not res[t]["under_sampled"]]
        assert len(tested) >= n // 2
        for t in tested:
            ws = samples[t]
            assert res[t]["samples"] == ws.size >= 100
            assert res[t]["statistic"] == scistats.kstest(
                ws, "uniform").statistic
            assert res[t]["p_value"] == scistats.kstest(
                ws, "uniform", method="asymp").pvalue


class TestAttackerObservations:
    def test_digital_erasure_fraction(self):
        att = AttackerSpec("digital", p_d=0.18)
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 4),
                        samples=200_000, seed=5, attacker=att)
        counts = attacker_observations(cfg)["counts"]
        frac = counts[:, -1].sum() / counts.sum()
        assert frac == pytest.approx(0.18, abs=3 * np.sqrt(0.18 * 0.82 / 2e5))

    def test_analog_fractions_and_exactness(self):
        att = AttackerSpec("analog", p_d=0.18, p_a=0.36)
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 4),
                        samples=200_000, seed=5, attacker=att)
        counts = attacker_observations(cfg)["counts"]
        n = 4
        total = counts.sum()
        both = counts[:, n, n].sum() / total
        ana_erased = counts[:, :, n].sum() / total
        assert both == pytest.approx(0.18, abs=0.01)
        assert ana_erased == pytest.approx(0.36, abs=0.01)
        # whenever the analog reading survives it equals the enrolled level
        for s in range(n):
            for a in range(n):
                if a != s:
                    assert counts[s, :, a].sum() == 0

    def test_requires_attacker(self):
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 4),
                        samples=1000, seed=1)
        with pytest.raises(DomainError):
            attacker_observations(cfg)


class TestBlockPool:
    """Every sim pass runs its sample chunks, each from its Philox draw to
    its tally, as jobs of the shared pool (DECISIONS.md, "Parallel node
    blocks").  The tallies add integer counts under a lock and the leakage
    test joins its per-level pieces in chunk order, so every output is the
    same on any number of threads.  A 20,000-sample run is one chunk and
    runs inline, so these tests cut the chunks to 4,097 samples (five
    chunks)."""

    @staticmethod
    def outputs(n, sigma_n=129.0):
        m = PufModel(2241.0, sigma_n)
        q = make_equidistant(m, n, 20000.0 / n)
        cfgs = [SimConfig(m, q, samples=20_000, seed=9, attacker=att)
                for att in (AttackerSpec("digital", p_d=0.18),
                            AttackerSpec("analog", p_d=0.18, p_a=0.36))]
        return [run_simulation(cfgs[0]).to_json(),
                leakage_test(cfgs[0]),
                leakage_test(cfgs[0], helper="center-distance"),
                *(attacker_observations(c)["counts"] for c in cfgs)]

    # equidistant N = 64 at sigma_N = 400 sends about 14% of the samples
    # to the MAP step's full-row fallback (TestWindowedMAP), N = 8 none;
    # at N = 256 every chunk adds a 64 x 256 x 256 cond_counts tally
    @pytest.mark.parametrize("n,sigma_n", [(8, 129.0), (64, 129.0),
                                           (64, 400.0), (8, 0.0),
                                           (256, 129.0)])
    def test_pool_matches_inline(self, monkeypatch, n, sigma_n):
        monkeypatch.setattr(sim_mod, "_CHUNK", 4097)
        pooled, crowded, inline = pooled_crowded_inline(
            monkeypatch, lambda: self.outputs(n, sigma_n))
        for got in (pooled, crowded):
            assert got[:3] == inline[:3]
            for a, b in zip(got[3:], inline[3:]):
                assert np.array_equal(a, b)

    def test_public_functions_stay_on_the_calling_thread(self, monkeypatch):
        # N = 8 never takes the MAP step's full-row fallback; equidistant
        # N = 64 at sigma_N = 400 does for about 14% of its samples
        calls = spy_public_calls(monkeypatch,
                                 (pufsec, quantizer, stats, sim_mod))
        main_thread = threading.get_ident()
        monkeypatch.setattr(_blocks, "_THREADS", 2)  # a helper even on one CPU
        monkeypatch.setattr(sim_mod, "_CHUNK", 4097)
        for n, sigma_n in ((8, 129.0), (64, 400.0)):
            workers = set()
            ndtri = spy_threads(special.ndtri, workers)
            monkeypatch.setattr(sim_mod, "special", types.SimpleNamespace(
                ndtri=ndtri, kolmogorov=special.kolmogorov))
            self.outputs(n, sigma_n)
            assert calls and set(calls) == {main_thread}
            assert len(workers) > 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(sim_mod, "_CHUNK", 4097)   # the child inherits it
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 16), samples=20_000,
                        seed=3)
        report = run_simulation(cfg).to_json()   # the parent's pool runs
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(run_simulation, (cfg,)).get(timeout=60)
        assert child.to_json() == report


def grid_config(strategy, n, sigma_n):
    m = PufModel(2241.0, sigma_n)
    q = (make_equiprobable(m, n) if strategy == "equiprobable"
         else make_equidistant(m, n, 20000.0 / n))
    return SimConfig(m, q, samples=1, seed=17)


class TestWindowedMAP:
    """The MAP step scores a five-level window around the interval that
    holds y and takes the full row only where the window's argmax is not
    certified (DECISIONS.md, "Windowed MAP step in the Monte-Carlo
    oracle"); every sample must be the full row's to the bit."""

    @pytest.mark.parametrize("sigma_n", [0.0, 60.0, 129.0, 400.0])
    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64, 256])
    @pytest.mark.parametrize("strategy", ["equidistant", "equiprobable"])
    def test_chunk_matches_the_full_row(self, strategy, n, sigma_n):
        cfg = grid_config(strategy, n, sigma_n)
        for start, size in ((0, 20_000), (123_457, 4097)):
            got = sim_mod._simulate_chunk(cfg, start, size)
            ref = full_row_simulate_chunk(cfg, start, size)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    @staticmethod
    def full_rows(monkeypatch, cfg, size):
        """Rows the chunk's MAP step sends through the full-row helper."""
        rows = []
        real = quantizer._sibling_rows

        def spy(q, w, levels):
            if isinstance(levels, slice):
                rows.append(len(w))
            return real(q, w, levels)

        monkeypatch.setattr(quantizer, "_sibling_rows", spy)
        sim_mod._simulate_chunk(cfg, 0, size)
        return sum(rows)

    def test_grid_exercises_the_fallback(self, monkeypatch):
        # the inner intervals of equidistant N = 64 (312 wide) are narrower
        # than the noise at sigma_N = 400, so its winner often sits on or
        # beyond the window's edge; with equal interval masses the winner
        # is the nearest sibling point, always one of r - 1, r and r + 1
        size = 20_000
        fallback = self.full_rows(
            monkeypatch, grid_config("equidistant", 64, 400.0), size)
        assert 0.05 * size < fallback < 0.5 * size
        assert self.full_rows(
            monkeypatch, grid_config("equiprobable", 64, 400.0), size) == 0


def test_dump_csv_walks_the_chunks(tmp_path, monkeypatch):
    # the dump draws its rows chunk by chunk, as the simulation does, so
    # its rows do not depend on the chunk size; sim.decisions allocates all
    # the rows at once
    sizes = []
    chunk = sim_mod._simulate_chunk

    def spy(cfg, start, size):
        sizes.append(size)
        return chunk(cfg, start, size)

    monkeypatch.setattr(sim_mod, "_simulate_chunk", spy)

    def dump(name):
        path = tmp_path / name
        res = CliRunner().invoke(
            main, ["--seed", "7", "simulate", "--levels", "8", "--samples",
                   "20000", "--dump-csv", str(path)],
            catch_exceptions=False)
        assert res.exit_code == 0
        return path.read_bytes()

    ref = dump("one_chunk.csv")
    assert 20_000 <= sim_mod._CHUNK
    assert ref.count(b"\n") == 20_001
    monkeypatch.setattr(sim_mod, "_CHUNK", 4097)
    sizes.clear()
    assert dump("five_chunks.csv") == ref
    assert max(sizes) == 4097
