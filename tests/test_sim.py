import multiprocessing
import os
import threading
import types

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import special

import pufsec
from pufsec import _blocks, quantizer, sim as sim_mod, stats
from pufsec.cli import main
from pufsec.stats import DomainError, PufModel
from pufsec.quantizer import make_equidistant, make_equiprobable
from pufsec.channel import AttackerSpec, averaged_channel
from pufsec.sim import (SimConfig, attacker_observations, leakage_test,
                        run_simulation)
from pufsec.info import conditional_mi_given_w, mutual_information
from blockpool import pooled_crowded_inline, spy_public_calls, spy_threads

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
            conditional_mi_given_w(q, nodes=128), abs=0.01)

    def test_error_rate_matches_channel(self):
        q = make_equiprobable(MODEL, 8)
        cfg = SimConfig(MODEL, q, samples=500_000, seed=3)
        rep = run_simulation(cfg)
        theory = 1.0 - np.mean(np.diag(averaged_channel(q, nodes=128).p))
        se = np.sqrt(theory * (1 - theory) / cfg.samples)
        assert abs(rep.error_rate - theory) <= 3 * se

    def test_w_histograms_uniform_overall(self):
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 4),
                        samples=200_000, seed=11, w_bins=20)
        rep = run_simulation(cfg)
        pooled = rep.w_histograms.sum(axis=0)
        expect = cfg.samples / 20
        assert np.max(np.abs(pooled - expect)) < 5 * np.sqrt(expect)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimConfig(MODEL, make_equiprobable(MODEL, 4), samples=0, seed=1)
        with pytest.raises(DomainError):
            SimConfig(MODEL, make_equiprobable(MODEL, 4), samples=10,
                      seed=1, w_bins=1)

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
    """The MAP step of every sample chunk and the sibling points under it
    run in row blocks on the shared pool (DECISIONS.md, "Parallel node
    blocks").  Each block writes its own slice, so every count is the same
    on any number of threads."""

    @staticmethod
    def outputs(n, sigma_n=129.0):
        m = PufModel(2241.0, sigma_n)
        # 20,000 samples are 3 blocks at N = 8 and 20 at N = 64
        q = make_equidistant(m, n, 20000.0 / n)
        cfgs = [SimConfig(m, q, samples=20_000, seed=9, attacker=att)
                for att in (AttackerSpec("digital", p_d=0.18),
                            AttackerSpec("analog", p_d=0.18, p_a=0.36))]
        return [run_simulation(cfgs[0]).to_json(),
                leakage_test(cfgs[0]),
                leakage_test(cfgs[0], helper="center-distance"),
                *(attacker_observations(c)["counts"] for c in cfgs)]

    @pytest.mark.parametrize("n,sigma_n", [(8, 129.0), (64, 129.0),
                                           (8, 0.0)])
    def test_pool_matches_inline(self, monkeypatch, n, sigma_n):
        pooled, crowded, inline = pooled_crowded_inline(
            monkeypatch, lambda: self.outputs(n, sigma_n))
        for got in (pooled, crowded):
            assert got[:3] == inline[:3]
            for a, b in zip(got[3:], inline[3:]):
                assert np.array_equal(a, b)

    def test_public_functions_stay_on_the_calling_thread(self, monkeypatch):
        calls = spy_public_calls(monkeypatch,
                                 (pufsec, quantizer, stats, sim_mod))
        main_thread = threading.get_ident()
        workers = set()
        ndtri = spy_threads(special.ndtri, workers)
        monkeypatch.setattr(sim_mod, "special",
                            types.SimpleNamespace(ndtri=ndtri))
        monkeypatch.setattr(_blocks, "_THREADS", 2)  # a helper even on one CPU
        self.outputs(8)
        assert calls and set(calls) == {main_thread}
        assert len(workers) > 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_its_own_pool(self):
        cfg = SimConfig(MODEL, make_equiprobable(MODEL, 16), samples=20_000,
                        seed=3)
        report = run_simulation(cfg).to_json()   # the parent's pool runs
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(run_simulation, (cfg,)).get(timeout=60)
        assert child.to_json() == report


def test_dump_csv_walks_the_chunks(tmp_path, monkeypatch):
    # the dump walks the same chunks as the simulation, so its memory is
    # bounded by the chunk size and its rows do not depend on it
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
