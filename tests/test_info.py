import numpy as np
import pytest

from oracles import (analog_triple, digital_triple, erasure_joint, oracle_v1,
                     oracle_vc, oracle_vc_prime, random_markov)
from pufsec import bounds
from pufsec.stats import DomainError, PufModel
from pufsec.quantizer import make_equidistant, make_equiprobable
from pufsec.info import conditional_mi_given_w, entropy, mutual_information


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
        assert bounds.dispersion_v2_digital(s, p_d) == pytest.approx(
            oracle_v1(erasure_joint(s.joint, p_d)), abs=1e-12)
        ext = analog_triple(s.joint, p_d, p_a).sum(axis=1)
        assert bounds.dispersion_v2_analog(s, p_d, p_a) == pytest.approx(
            oracle_v1(ext), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_vc_matches_enumeration(self, seed):
        rng = np.random.default_rng(100 + seed)
        s = random_summary(rng)
        p_d, p_a = random_attacker(rng)
        assert bounds.dispersion_vc_analog(s, p_d, "theorem") == \
            pytest.approx(oracle_vc(analog_triple(s.joint, p_d, p_a)),
                          abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_vc_prime_matches_enumeration(self, seed):
        rng = np.random.default_rng(200 + seed)
        s = random_summary(rng)
        p_d, _ = random_attacker(rng)
        assert bounds.dispersion_vc_prime_digital(s, p_d) == pytest.approx(
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
        val, info = conditional_mi_given_w(q, nodes=64, full_output=True)
        assert 0.0 < val < 2.0
        assert info["refinement_delta"] < 1e-9

    def test_more_levels_more_information(self):
        m = PufModel()
        vals = [conditional_mi_given_w(make_equiprobable(m, n), nodes=64)
                for n in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
