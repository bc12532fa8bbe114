import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
from hypothesis import given, settings, strategies as st

from scipy import special

from pufsec.stats import DomainError, PufModel, q_inverse, unit_interval_rule

mpmath.mp.dps = 60


def mp_q(x):
    return mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2


def log_q_function(x):
    """ln Q(x) by scipy's log_ndtr: the forward map of the round trips."""
    return float(special.log_ndtr(-x))


def q_function(x):
    return math.exp(log_q_function(x))


class TestGaussianPrimitives:
    """The forward map of the q_inverse round trips, against mpmath."""

    @pytest.mark.parametrize("x", [-8.0, -3.0, -1.0, 0.0, 0.5, 2.0, 6.0, 12.0, 30.0])
    def test_q_function_against_mpmath(self, x):
        assert q_function(x) == pytest.approx(float(mp_q(x)), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, 1.0, 5.0, 13.0, 25.0, 37.0])
    def test_log_q_function_against_mpmath(self, x):
        ref = float(mpmath.log(mp_q(x)))
        assert log_q_function(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestQInverse:
    def test_moderate_values(self):
        # verify through the 60-digit forward map: Q(q_inverse(p)) == p
        for p in (0.5, 0.1, 1e-3, 1e-9, 1e-30, 1e-200):
            back = float(mp_q(q_inverse(p)))
            assert back == pytest.approx(p, rel=1e-10)

    @pytest.mark.parametrize("lam", [1, 8, 32, 64, 100, 128, 192, 256])
    def test_log2_roundtrip_down_to_2_pow_minus_256(self, lam):
        # acceptance property: round-trip relative error <= 1e-9
        x = q_inverse(log2_p=-lam)
        back = log_q_function(x) / math.log(2.0)
        assert back == pytest.approx(-lam, rel=1e-9)

    @pytest.mark.parametrize("kw", [
        {"log2_p": -lam} for lam in (964.0, 1024.0, 4096.0, 65536.0, 1e6)]
        + [{"p": p} for p in (1e-291, 1e-300, 5e-324)], ids=str)
    def test_deep_tail_against_mpmath(self, kw):
        # the deep tail (p < 1e-290, i.e. lambda > 963), which the tables
        # never reach; the reference solves ln Q(x) = ln p at 80 digits
        with mpmath.workdps(80):
            log_p = (mpmath.log(mpmath.mpf(kw["p"])) if "p" in kw
                     else kw["log2_p"] * mpmath.log(2))
            ref = mpmath.findroot(lambda x: mpmath.log(mp_q(x)) - log_p,
                                  mpmath.sqrt(-2 * log_p))
            assert abs(q_inverse(**kw) - ref) <= 1e-12 * ref

    def test_security_128_reference(self):
        # Q^{-1}(2^-128) ~ 13.0555 (60-digit mpmath reference)
        ref = float(mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(2) ** -128))
        assert q_inverse(log2_p=-128.0) == pytest.approx(ref, rel=1e-11)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            q_inverse(0.0)
        with pytest.raises(DomainError):
            q_inverse(1.0)
        with pytest.raises(DomainError):
            q_inverse(0.5, log2_p=-1.0)
        with pytest.raises(DomainError):
            q_inverse()

    @given(st.floats(min_value=-5.0, max_value=8.0))
    @settings(max_examples=50, deadline=None)
    def test_inverse_of_q(self, x):
        # below about -5 the double rounding of 1 - Q(x) caps the attainable
        # round-trip accuracy, hence the asymmetric range
        assert q_inverse(q_function(x)) == pytest.approx(x, abs=1e-8)


class TestQuadrature:
    def test_rule_is_cached_and_normalized(self):
        xs, ws = unit_interval_rule(64)
        assert xs.shape == ws.shape == (64,)
        assert np.all((xs > 0) & (xs < 1))
        assert ws.sum() == pytest.approx(1.0, abs=1e-14)
        xs2, _ = unit_interval_rule(64)
        assert xs2 is xs

    def test_polynomial_exactness(self):
        # Gauss-Legendre with k nodes is exact through degree 2k-1
        xs, ws = unit_interval_rule(16)
        assert ws @ (7 * xs ** 6) == pytest.approx(1.0, rel=1e-14)
        assert ws @ (32 * xs ** 31) == pytest.approx(1.0, rel=1e-13)

    def test_error_estimate(self):
        # doubling the node count changes a smooth integral by < 1e-12
        coarse, fine = (ws @ np.exp(xs) for xs, ws in (unit_interval_rule(32),
                                                      unit_interval_rule(64)))
        assert coarse == pytest.approx(math.e - 1.0, rel=1e-13)
        assert abs(fine - coarse) < 1e-12

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_monomials(self, k):
        xs, ws = unit_interval_rule(32)
        assert ws @ xs ** k == pytest.approx(1.0 / (k + 1), rel=1e-12)


class TestPufModel:
    def test_defaults(self):
        m = PufModel()
        assert (m.sigma_p, m.sigma_n) == (2241.0, 129.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            PufModel(0.0, 129.0)
        with pytest.raises(DomainError):
            PufModel(2241.0, -1.0)
        with pytest.raises(DomainError):
            PufModel(math.nan, 129.0)

    def test_noiseless_allowed(self):
        assert PufModel(2241.0, 0.0).sigma_n == 0.0


def test_q_function_monotone_decreasing():
    # strictly decreasing wherever double precision can still resolve 1 - Q
    xs = np.linspace(-7, 7, 141)
    vals = [q_function(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
