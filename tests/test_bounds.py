import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pufsec.stats import DomainError, PufModel
from pufsec.quantizer import make_equidistant, make_equiprobable
from pufsec.channel import AttackerSpec
from pufsec import bounds, channel
from oracles import (analog_triple, digital_triple, erasure_joint,
                     min_cells_scan, oracle_v1, oracle_vc, oracle_vc_prime)

MODEL = PufModel(2241.0, 129.0)


@pytest.fixture(scope="module")
def summaries():
    return {n: bounds.summarize_channel(make_equiprobable(MODEL, n), MODEL,
                                        nodes=128)
            for n in (2, 4, 8)}


class TestAsymptoticRates:
    def test_two_level_rates_are_pd(self):
        # a 2-level equiprobable quantizer at these noise levels carries
        # essentially one full bit: rate = p_d (published anchor rows)
        for p_d in (0.1, 0.18):
            r = bounds.asymptotic_rate(bounds.summarize_channel(
                make_equiprobable(MODEL, 2), MODEL),
                AttackerSpec("digital", p_d=p_d))[0]
            assert r == pytest.approx(p_d, abs=4e-4)

    def test_published_digital_anchors(self, summaries):
        # levels 4 and 8 of the published rate tables
        def rate(n, p_d):
            return bounds.asymptotic_rate(
                summaries[n], AttackerSpec("digital", p_d=p_d))[0]

        assert rate(4, 0.18) == pytest.approx(0.360, abs=0.004)
        assert rate(8, 0.18) == pytest.approx(0.536, abs=0.004)
        assert rate(8, 0.1) == pytest.approx(0.298, abs=0.004)

    def test_published_analog_anchors(self, summaries):
        lo, hi = bounds.asymptotic_rate(
            summaries[8], AttackerSpec("analog", p_d=0.18, p_a=0.36))
        assert lo == pytest.approx(0.524, abs=0.006)
        assert hi == pytest.approx(bounds.asymptotic_rate(
            summaries[8], AttackerSpec("digital", p_d=0.18))[0], abs=1e-12)

    def test_analog_collapse_large_alphabet(self):
        s = bounds.summarize_channel(make_equiprobable(MODEL, 32), MODEL)
        lo, _ = bounds.asymptotic_rate(
            s, AttackerSpec("analog", p_d=0.18, p_a=0.36))
        assert lo == 0.0

    def test_zero_pd_zero_rate(self, summaries):
        assert bounds.asymptotic_rate(
            summaries[8], AttackerSpec("digital", p_d=0.0))[0] == 0.0

    def test_parameter_validation(self, summaries):
        with pytest.raises(DomainError):
            bounds.asymptotic_rate(summaries[4],
                                   AttackerSpec("digital", p_d=1.5))
        with pytest.raises(DomainError):
            bounds.asymptotic_rate(summaries[4],
                                   AttackerSpec("analog", p_d=0.5, p_a=0.4))


class TestDispersionCrossChecks:
    """Closed-form dispersions against the enumeration oracles evaluated
    on explicitly constructed attacker-extended sources (1e-12)."""

    def test_v1_route(self, summaries):
        for s in summaries.values():
            assert bounds.dispersion_v1(s) == pytest.approx(
                oracle_v1(s.joint), abs=1e-12)

    @pytest.mark.parametrize("p_d", [0.1, 0.18, 0.5])
    def test_v2_digital_route(self, summaries, p_d):
        for s in summaries.values():
            assert bounds.dispersion_v2(
                s, AttackerSpec("digital", p_d=p_d)) == pytest.approx(
                oracle_v1(erasure_joint(s.joint, p_d)), abs=1e-12)

    @pytest.mark.parametrize("p_d", [0.1, 0.18])
    def test_vc_prime_digital_route(self, summaries, p_d):
        for s in summaries.values():
            assert bounds.dispersion_vc(
                s, AttackerSpec("digital", p_d=p_d)) == pytest.approx(
                oracle_vc_prime(digital_triple(s.joint, p_d)), abs=1e-12)

    def test_vc_analog_theorem_route(self, summaries):
        p_d, p_a = 0.18, 0.36
        for s in summaries.values():
            ana = AttackerSpec("analog", p_d=p_d, p_a=p_a)
            assert bounds.dispersion_vc(s, ana, "theorem") == \
                pytest.approx(oracle_vc(analog_triple(s.joint, p_d, p_a)),
                              abs=1e-12)

    @pytest.mark.parametrize("p_d,p_a", [(0.18, 0.36), (0.1, 0.2), (0.3, 0.9)])
    def test_v2_analog_route(self, summaries, p_d, p_a):
        for s in summaries.values():
            ext = analog_triple(s.joint, p_d, p_a).sum(axis=1)
            assert bounds.dispersion_v2(
                s, AttackerSpec("analog", p_d=p_d, p_a=p_a)) == pytest.approx(
                oracle_v1(ext), abs=1e-12)

    def test_vc_analog_pa_independent(self, summaries):
        s = summaries[4]
        r1 = bounds.finite_rate_analog_conv(s, p_d=0.18, p_a=0.2, n=1000,
                                            epsilon=1e-6, security_bits=128)
        r2 = bounds.finite_rate_analog_conv(s, p_d=0.18, p_a=0.9, n=1000,
                                            epsilon=1e-6, security_bits=128)
        assert r1 == r2

    def test_variant_validation(self, summaries):
        with pytest.raises(DomainError):
            bounds.dispersion_vc(summaries[4],
                                 AttackerSpec("analog", p_d=0.18, p_a=0.36),
                                 "other")


class TestDegenerateIdentities:
    """Hand-derived closed forms for the noiseless channel (acceptance
    criterion: 1e-12 agreement)."""

    @staticmethod
    @pytest.fixture(scope="class")
    def noiseless():
        # sigma_n = 0 itself, and sigma_n six orders below the level
        # spacing: both channel matrices are exactly the identity in double
        # precision
        out = []
        for sigma_n in (0.0, 1e-6):
            m = PufModel(2241.0, sigma_n)
            s = bounds.summarize_channel(make_equiprobable(m, 8), m, nodes=64)
            assert np.array_equal(s.joint, np.diag(s.probs))
            out.append(s)
        return out

    @pytest.mark.parametrize("p_d", [0.0, 0.1, 0.18, 0.5, 0.9])
    def test_noiseless_uniform_v2(self, noiseless, p_d):
        ref = p_d * (1.0 - p_d) * math.log2(8) ** 2
        for s in noiseless:
            assert bounds.dispersion_v2(
                s, AttackerSpec("digital", p_d=p_d)) == pytest.approx(
                ref, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.18, 0.4])
    def test_noiseless_analog_v2_reduces_to_digital(self, noiseless, p):
        # at p_a = p_d the analog attacker's extra coordinate is always
        # erased together with the digital one; for a noiseless channel
        # the remaining (s~, s) outcome carries the same density as s~
        for s in noiseless:
            assert bounds.dispersion_v2(
                s, AttackerSpec("analog", p_d=p, p_a=p)) == pytest.approx(
                bounds.dispersion_v2(s, AttackerSpec("digital", p_d=p)),
                abs=1e-12)

    def test_noisy_analog_v2_does_not_reduce(self):
        # documented deviation: with substantial channel noise the analog
        # view (s~, s) has a different information density than s~ alone
        # even at p_a = p_d, so the two dispersions differ; see DECISIONS.md,
        # "Noisy analog v2 does not reduce to the digital one"
        m = PufModel(2241.0, 1500.0)
        s = bounds.summarize_channel(make_equiprobable(m, 4), m, nodes=64)
        diff = abs(
            bounds.dispersion_v2(s, AttackerSpec("analog", p_d=0.3, p_a=0.3))
            - bounds.dispersion_v2(s, AttackerSpec("digital", p_d=0.3)))
        assert diff > 1e-3


class TestFiniteRates:
    def test_rate_decomposition(self, summaries):
        s = summaries[4]
        r1 = bounds.finite_rate_digital_ach(s, p_d=0.18, n=1000,
                                            epsilon=1e-6, security_bits=128)
        r4 = bounds.finite_rate_digital_ach(s, p_d=0.18, n=4000,
                                            epsilon=1e-6, security_bits=128)
        # the achievability first-order term uses the averaged I(S;S~)
        c = s.i_avg * 0.18
        # penalty scales exactly as 1/sqrt(n)
        assert (c - r4) == pytest.approx((c - r1) / 2.0, rel=1e-12)

    def test_ach_below_converse_in_tabulated_range(self, summaries):
        s = summaries[8]
        for n in (500, 2000, 10000):
            ach = bounds.finite_rate_digital_ach(s, p_d=0.18, n=n,
                                                 epsilon=1e-6,
                                                 security_bits=128)
            conv = bounds.finite_rate_digital_conv(s, p_d=0.18, n=n,
                                                   epsilon=1e-6,
                                                   security_bits=128)
            assert ach < conv

    def test_eps_delta_budget_checked(self, summaries):
        with pytest.raises(DomainError):        # delta = 2^-1
            bounds.finite_rate_digital_ach(summaries[4], p_d=0.18, n=100,
                                           epsilon=0.7, security_bits=1)
        with pytest.raises(TypeError):          # no lambda
            bounds.finite_rate_digital_ach(summaries[4], p_d=0.18, n=100,
                                           epsilon=1e-6)


    @pytest.mark.parametrize("kind", ["digital", "analog"])
    @pytest.mark.parametrize("direction", ["achievability", "converse"])
    def test_finite_rate_is_min_cells_rate(self, summaries, kind, direction):
        # the finite_rate_* functions evaluate the same first - penalty /
        # sqrt(n) that min_cells inverts
        s = summaries[8]
        att = AttackerSpec(kind, p_d=0.18,
                           p_a=0.36 if kind == "analog" else None)
        kw = {"p_d": 0.18, "epsilon": 1e-6, "security_bits": 128}
        if kind == "analog":
            kw["p_a"] = 0.36
        fn = getattr(bounds, f"finite_rate_{kind}_"
                             f"{'ach' if direction == 'achievability' else 'conv'}")
        first, penalty = bounds._rate_terms(att, direction, s, 1e-6,
                                            security_bits=128)
        for m in (1, 7, 459, 1508, 20000):
            assert fn(s, n=m, **kw) == pytest.approx(
                first - penalty / math.sqrt(m), rel=1e-12)


_Q4 = make_equiprobable(MODEL, 4)
_S4 = bounds.summarize_channel(_Q4, MODEL, nodes=16)
_FIN = {"n": 1000, "epsilon": 1e-6, "security_bits": 128}
DIGITAL_RATES = {
    "asymptotic_rate_digital":
        lambda p_d, s=_S4: bounds.asymptotic_rate(
            s, AttackerSpec("digital", p_d=p_d)),
    "finite_rate_digital_ach":
        lambda p_d, s=_S4: bounds.finite_rate_digital_ach(s, p_d=p_d, **_FIN),
    "finite_rate_digital_conv":
        lambda p_d, s=_S4: bounds.finite_rate_digital_conv(s, p_d=p_d,
                                                           **_FIN),
}
ANALOG_RATES = {
    "asymptotic_rate_analog":
        lambda p_d, p_a, s=_S4: bounds.asymptotic_rate(
            s, AttackerSpec("analog", p_d=p_d, p_a=p_a)),
    "finite_rate_analog_ach":
        lambda p_d, p_a, s=_S4: bounds.finite_rate_analog_ach(
            s, p_d=p_d, p_a=p_a, **_FIN),
    "finite_rate_analog_conv":
        lambda p_d, p_a, s=_S4: bounds.finite_rate_analog_conv(
            s, p_d=p_d, p_a=p_a, **_FIN),
}


class TestParameterDomain:
    """Every rate function rejects an out-of-range (p_d, p_a) with a
    DomainError (asymptotic_rate through the AttackerSpec it takes), and
    every rate function and min_cells reject a quantizer where they take
    a ChannelSummary."""

    @pytest.mark.parametrize("name", sorted(DIGITAL_RATES))
    def test_digital_rate_needs_a_summary(self, name):
        with pytest.raises(DomainError, match="summarize_channel"):
            DIGITAL_RATES[name](0.18, s=_Q4)

    @pytest.mark.parametrize("name", sorted(ANALOG_RATES))
    def test_analog_rate_needs_a_summary(self, name):
        with pytest.raises(DomainError, match="summarize_channel"):
            ANALOG_RATES[name](0.18, 0.36, s=_Q4)

    def test_min_cells_needs_a_summary(self):
        query = bounds.BoundQuery(attacker=AttackerSpec("digital", p_d=0.18),
                                  quantizer=_Q4, epsilon=1e-6,
                                  security_bits=128)
        with pytest.raises(DomainError, match="summarize_channel"):
            bounds.min_cells(query, "converse", summary=_Q4)

    @pytest.mark.parametrize("bad", [np.nan, 1e-9])
    def test_summary_rejects_a_bad_averaged_joint(self, monkeypatch, bad):
        avg, i_cond = channel._quadrature(_Q4, MODEL, 32)
        p = avg.p.copy()
        p[1, 2] += bad
        monkeypatch.setattr(bounds, "_quadrature", lambda *a: (
            SimpleNamespace(p=p, metadata=avg.metadata), i_cond))
        with pytest.raises(DomainError, match="pmf"):
            bounds.summarize_channel(_Q4, MODEL, nodes=32)

    @pytest.mark.parametrize("name", sorted(DIGITAL_RATES))
    @pytest.mark.parametrize("p_d", [-0.1, 1.5, math.nan])
    def test_digital_pd_out_of_range(self, name, p_d):
        with pytest.raises(DomainError):
            DIGITAL_RATES[name](p_d)

    @pytest.mark.parametrize("name", sorted(ANALOG_RATES))
    @pytest.mark.parametrize("p_d,p_a", [(-0.1, 0.5), (1.5, 1.5),
                                         (0.36, 0.18), (0.18, 1.2)])
    def test_analog_pd_pa_out_of_range(self, name, p_d, p_a):
        with pytest.raises(DomainError):
            ANALOG_RATES[name](p_d, p_a)


class TestMinCells:
    def test_published_digital_anchors(self):
        q = make_equiprobable(MODEL, 8)
        s = bounds.summarize_channel(q, MODEL, nodes=128)
        att = AttackerSpec("digital", p_d=0.18)
        query = bounds.BoundQuery(attacker=att, quantizer=q, epsilon=1e-6,
                                  security_bits=128)
        assert bounds.min_cells(query, "achievability", summary=s) == 1508
        assert bounds.min_cells(query, "converse", summary=s) == 459

    def test_audit_anchors(self):
        q = make_equiprobable(MODEL, 8)
        s = bounds.summarize_channel(q, MODEL, nodes=128)
        att = AttackerSpec("digital", p_d=0.18)
        q100 = bounds.BoundQuery(attacker=att, quantizer=q, epsilon=1e-6,
                                 security_bits=100)
        assert bounds.min_cells(q100, "converse", summary=s) == 389

    def test_matches_linear_scan_small_targets(self):
        q = make_equiprobable(MODEL, 4)
        s = bounds.summarize_channel(q, MODEL, nodes=64)
        att = AttackerSpec("digital", p_d=0.18)
        for lam in (1, 2, 5, 16):
            query = bounds.BoundQuery(attacker=att, quantizer=q,
                                      epsilon=1e-6, security_bits=lam)
            for direction in ("achievability", "converse"):
                got = bounds.min_cells(query, direction, summary=s)
                first, pen = bounds._rate_terms(att, direction, s, 1e-6,
                                                security_bits=lam)
                scan = next(n for n in range(1, 100000)
                            if n * max(first - pen / math.sqrt(n), 0.0) >= lam)
                assert got == scan

    def test_summary_of_another_quantizer_rejected(self):
        # a 4-level query read off the 8-level summary gave that summary's
        # 459 cells, where its own summary gives 606
        q4, q8 = make_equiprobable(MODEL, 4), make_equiprobable(MODEL, 8)
        query = bounds.BoundQuery(attacker=AttackerSpec("digital", p_d=0.18),
                                  quantizer=q4, epsilon=1e-6,
                                  security_bits=128)
        assert bounds.min_cells(query, "converse", summary=bounds.
                                summarize_channel(q4, MODEL)) == 606
        wrong = [bounds.summarize_channel(q8, MODEL),
                 bounds.summarize_channel(q4, PufModel(2241.0, 200.0))]
        for s in wrong:
            with pytest.raises(DomainError, match="another quantizer"):
                bounds.min_cells(query, "converse", summary=s)
        # an equal quantizer built anew is the same quantizer
        twin = bounds.summarize_channel(make_equiprobable(MODEL, 4), MODEL)
        assert bounds.min_cells(query, "converse", summary=twin) == 606

    def test_infeasible_returns_none(self):
        q = make_equiprobable(MODEL, 32)
        att = AttackerSpec("analog", p_d=0.18, p_a=0.36)
        query = bounds.BoundQuery(attacker=att, quantizer=q, epsilon=1e-6,
                                  security_bits=128)
        s = bounds.summarize_channel(q, MODEL, nodes=64)
        assert bounds.min_cells(query, "achievability", summary=s) is None

    def test_query_validation(self):
        q = make_equiprobable(MODEL, 4)
        att = AttackerSpec("digital", p_d=0.18)
        with pytest.raises(TypeError):          # no lambda
            bounds.BoundQuery(attacker=att, quantizer=q, epsilon=1e-6)
        with pytest.raises(DomainError):
            bounds.BoundQuery(attacker=att, quantizer=q, epsilon=2.0,
                              security_bits=128)


@st.composite
def _cell_queries(draw):
    """A summary at N = 2..64 with a query against it: either attacker,
    epsilon up to 0.999 (a negative penalty), lambda from 1 bit, and
    p_d = 0 or a large analog alphabet (first-order term <= 0)."""
    levels = draw(st.integers(2, 64))
    model = PufModel(2241.0, draw(st.floats(30.0, 600.0)))
    if draw(st.booleans()):
        q = make_equiprobable(model, levels)
    else:
        q = make_equidistant(model, levels, 20000.0 / levels)
    p_d = 0.0 if draw(st.integers(0, 5)) == 0 else draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        att = AttackerSpec("digital", p_d=p_d)
    else:
        att = AttackerSpec("analog", p_d=p_d, p_a=draw(st.floats(p_d, 1.0)))
    eps = draw(st.one_of(st.floats(1e-12, 1e-3), st.floats(0.5, 0.999)))
    # 2^-lambda < 1 - epsilon
    low = max(1.0, -1.001 * math.log2(1.0 - eps))
    query = bounds.BoundQuery(attacker=att, quantizer=q, epsilon=eps,
                              security_bits=draw(st.floats(low, 256.0)))
    return query, bounds.summarize_channel(q, model, nodes=16)


class TestMinCellsSearch:
    """min_cells starts at the closed-form root and settles the rounding
    with integer steps; a linear scan of every n is the second route."""

    @given(_cell_queries(),
           st.sampled_from(("achievability", "converse")),
           st.sampled_from((1, 300, 200_000)).flatmap(
               lambda top: st.integers(max(top // 300, 1), top)))
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, drawn, direction, cap):
        query, s = drawn
        first, penalty = bounds._rate_terms(
            query.attacker, direction, s, query.epsilon, query.security_bits)
        target = query.security_bits
        got = bounds.min_cells(query, direction, cap, summary=s)
        # a first-order term <= 0 is infeasible, even where a negative
        # penalty lets n * rate(n) reach a small target at small n
        assert got == (min_cells_scan(first, penalty, target, cap)
                       if first > 0.0 else None)
        if got is not None and got > 1:
            # a cap one below the answer cuts it off
            assert bounds.min_cells(query, direction, got - 1,
                                    summary=s) is None


class TestAnalogTables:
    def test_equidistant_reference_anchors(self):
        # published analog equidistant rows at 8 levels
        m = MODEL
        q = make_equidistant(m, 8, 20000.0 / 8)
        s = bounds.summarize_channel(q, m, nodes=128)
        att = AttackerSpec("analog", p_d=0.18, p_a=0.36)
        query = bounds.BoundQuery(attacker=att, quantizer=q, epsilon=1e-6,
                                  security_bits=128)
        assert bounds.min_cells(query, "achievability", summary=s) == 1679
        assert bounds.min_cells(query, "converse", summary=s) == 363

    def test_reference_vs_theorem_variant(self):
        # the published-value variant scales the second moment by 1/|S|,
        # so it is never above the theorem form
        q = make_equiprobable(MODEL, 8)
        s = bounds.summarize_channel(q, MODEL, nodes=64)
        att = AttackerSpec("analog", p_d=0.18, p_a=0.36)
        ref = bounds.dispersion_vc(s, att, "reference")
        thm = bounds.dispersion_vc(s, att, "theorem")
        assert ref <= thm
