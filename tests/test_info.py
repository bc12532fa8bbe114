import warnings

import numpy as np
import pytest

from oracles import (analog_triple, digital_triple, erasure_joint, oracle_v1,
                     oracle_vc, oracle_vc_prime, random_markov)
from pufsec import bounds
from pufsec.channel import AttackerSpec, _quadrature, _rule
from pufsec.stats import DomainError, PufModel
from pufsec.quantizer import make_equidistant, make_equiprobable
from pufsec.tables import RATE_LEVELS, make_quantizer
from pufsec.info import entropy, mutual_information


class TestBasicMeasures:
    def test_entropy_uniform(self):
        assert entropy(np.full(8, 0.125)) == pytest.approx(3.0, abs=1e-14)

    def test_entropy_point_mass(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_mi_product_is_zero(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.25, 0.25, 0.5])
        assert mutual_information(np.outer(px, py)) == pytest.approx(0.0, abs=1e-14)

    def test_mi_identity_channel(self):
        j = np.diag([0.2, 0.3, 0.5])
        assert mutual_information(j) == pytest.approx(entropy(j.sum(1)), abs=1e-14)

    def test_pmf_validation(self):
        with pytest.raises(DomainError):
            entropy(np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            mutual_information(np.full(4, 0.25))
        # a NaN sum is not within the tolerance of 1
        with pytest.raises(DomainError):
            entropy(np.array([np.nan, 1.0]))
        with pytest.raises(DomainError):
            entropy(np.array([0.5, np.nan, 0.5]))
        with pytest.raises(DomainError):
            mutual_information(np.array([[0.5, np.nan], [0.25, 0.25]]))

    @pytest.mark.parametrize("m", [1e-200, 1e-300])
    def test_mi_of_a_near_empty_input(self, m):
        # P_X P_Y of the 1e-200 cell underflows to 0; the ratio form does not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mi = mutual_information(np.diag([m, 1.0 - m]))
        assert mi == pytest.approx(entropy([m, 1.0 - m]), rel=1e-12)


def random_summary(rng):
    """Summary of a random 2-8 level quantizer (equiprobable or equidistant)
    under a noise level drawn log-uniformly from [60, 400]."""
    model = PufModel(2241.0, float(np.exp(rng.uniform(np.log(60), np.log(400)))))
    levels = int(rng.integers(2, 9))
    if rng.random() < 0.5:
        q = make_equiprobable(model, levels)
    else:
        q = make_equidistant(model, levels, 20000.0 / levels)
    return bounds.summarize_channel(q, model, nodes=64)


def random_attacker(rng):
    p_d = float(rng.uniform(0.0, 0.5))
    return p_d, float(rng.uniform(p_d, 1.0))


class TestDispersionOracles:
    # acceptance property: the dispersion formulas match enumeration to
    # 1e-12 on alphabets of size <= 8, here on random quantizers, noise
    # levels and attacker parameters

    @pytest.mark.parametrize("seed", range(5))
    def test_v1_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        s = random_summary(rng)
        p_d, p_a = random_attacker(rng)
        assert bounds.dispersion_v1(s) == pytest.approx(oracle_v1(s.joint),
                                                        abs=1e-12)
        dig = AttackerSpec("digital", p_d=p_d)
        assert bounds.dispersion_v2(s, dig) == pytest.approx(
            oracle_v1(erasure_joint(s.joint, p_d)), abs=1e-12)
        ext = analog_triple(s.joint, p_d, p_a).sum(axis=1)
        ana = AttackerSpec("analog", p_d=p_d, p_a=p_a)
        assert bounds.dispersion_v2(s, ana) == pytest.approx(
            oracle_v1(ext), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_vc_matches_enumeration(self, seed):
        rng = np.random.default_rng(100 + seed)
        s = random_summary(rng)
        p_d, p_a = random_attacker(rng)
        ana = AttackerSpec("analog", p_d=p_d, p_a=p_a)
        assert bounds.dispersion_vc(s, ana, "theorem") == \
            pytest.approx(oracle_vc(analog_triple(s.joint, p_d, p_a)),
                          abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_vc_prime_matches_enumeration(self, seed):
        rng = np.random.default_rng(200 + seed)
        s = random_summary(rng)
        p_d, _ = random_attacker(rng)
        dig = AttackerSpec("digital", p_d=p_d)
        assert bounds.dispersion_vc(s, dig) == pytest.approx(
            oracle_vc_prime(digital_triple(s.joint, p_d)), abs=1e-12)

    def test_strict_improvement_on_100_markov_sources(self):
        # acceptance property: the exact converse dispersion is strictly
        # below the generic one on random Markov chains
        rng = np.random.default_rng(42)
        for _ in range(100):
            pmf = random_markov(rng, int(rng.integers(2, 6)),
                                int(rng.integers(2, 6)),
                                int(rng.integers(2, 6)))
            assert oracle_vc_prime(pmf) < oracle_vc(pmf)


class TestConditionalMI:
    def test_refinement_diagnostics(self):
        q = make_equiprobable(PufModel(), 4)
        s = bounds.summarize_channel(q, nodes=64)
        val, delta = s.i_cond, s.metadata["mi_refinement_delta"]
        assert 0.0 < val < 2.0
        assert delta < 1e-9
        # the chain stops at 32 of the 64 nodes; the value is that rule's,
        # in the summary and in the optimizer's re-score, and the delta
        # compares it with its half
        k = s.metadata["nodes_used"]
        assert k == 32
        assert val == _rule(q, q.model, k)[1]
        assert val == _quadrature(q, q.model, 64)[1]
        assert delta == abs(val - _rule(q, q.model, k // 2)[1])

    @pytest.mark.parametrize("strategy", ["equiprobable", "equidistant"])
    def test_conditional_minus_averaged_mi_on_table_quantizers(self, strategy):
        # zero leakage, I(S;W) = 0, gives I(S;S~|W) = I(S;S~,W) >= I(S;S~);
        # the gap is largest at equiprobable N = 32, 1.235e-3 bits
        m = PufModel()
        for n in RATE_LEVELS:
            q = make_quantizer(m, n, strategy)
            s = bounds.summarize_channel(q)
            assert -1e-12 <= s.i_cond - s.i_avg <= 1.3e-3

    def test_more_levels_more_information(self):
        m = PufModel()
        vals = [bounds.summarize_channel(make_equiprobable(m, n),
                                         nodes=64).i_cond
                for n in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
