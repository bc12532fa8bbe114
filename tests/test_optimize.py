import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pufsec.stats import DomainError, PufModel
from pufsec.quantizer import make_equiprobable
from pufsec.channel import AttackerSpec
from pufsec.optimize import (KNOT_MARGIN, best_equidistant_step,
                             optimize_quantizer, repair_knots)
from pufsec import bounds, channel, optimize
from pufsec.stats import unit_interval_rule
from oracles import quantizer_from_knots, unquantized_rate

MODEL = PufModel(2241.0, 129.0)
DIGITAL = AttackerSpec("digital", p_d=0.18)
ANALOG = AttackerSpec("analog", p_d=0.18, p_a=0.36)


class TestRepair:
    @given(st.lists(st.floats(min_value=-2.0, max_value=3.0,
                              allow_nan=False), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_repair_always_valid(self, u):
        r = repair_knots(np.array(u))
        assert np.all(np.diff(r) > 0) or len(r) == 1
        assert np.all(r >= KNOT_MARGIN) and np.all(r <= 1.0 - KNOT_MARGIN)

    def test_valid_knots_unchanged(self):
        u = np.array([0.2, 0.5, 0.9])
        assert np.allclose(repair_knots(u), u)

    def test_quantizer_from_knots(self):
        q = quantizer_from_knots(MODEL, np.array([0.25, 0.5, 0.75]))
        ref = make_equiprobable(MODEL, 4)
        assert np.allclose(q.inner_borders, ref.inner_borders, atol=1e-9)


class TestEquidistantStep:
    def test_two_level_degenerate(self):
        step, rate = best_equidistant_step(MODEL, 2, DIGITAL)
        assert rate == pytest.approx(0.18, abs=1e-3)

    def test_beats_fixed_range_step(self):
        # the searched step must be at least as good as the fixed +-10000
        # range convention used by the published tables
        from pufsec.quantizer import make_equidistant
        step, rate = best_equidistant_step(MODEL, 8, DIGITAL)
        fixed = bounds.asymptotic_rate(bounds.summarize_channel(
            make_equidistant(MODEL, 8, 20000.0 / 8), MODEL), DIGITAL)[0]
        assert rate >= fixed - 1e-9

    def test_analog_objective(self):
        step, rate = best_equidistant_step(MODEL, 16, ANALOG)
        # analog-optimal equidistant spacing packs levels tighter than the
        # digital optimum and clears the published optimized value
        assert rate > 0.600

    def test_validation(self):
        with pytest.raises(DomainError):
            best_equidistant_step(MODEL, 1, DIGITAL)

    def test_optimizer_starts_from_the_default_step(self, monkeypatch):
        # the equidistant start the optimizer scores is the step this
        # function returns
        steps, real = [], optimize.best_equidistant_step

        def spy(*args, **kw):
            steps.append(real(*args, **kw)[0])
            return steps[-1], None

        monkeypatch.setattr(optimize, "best_equidistant_step", spy)
        optimize_quantizer(MODEL, 8, DIGITAL, budget=1)
        assert steps == [best_equidistant_step(MODEL, 8, DIGITAL)[0]]


def _summary(q):
    return bounds.summarize_channel(q, MODEL)


def _below_unquantized(res):
    # data processing: no quantizer's rate exceeds p_d I(X;Y)
    return res.rate <= unquantized_rate(MODEL, res.objective.p_d)


class TestOptimizer:
    @pytest.mark.parametrize("n,paper", [(2, 0.18), (4, 0.36), (8, 0.537)])
    def test_digital_small_alphabets(self, n, paper):
        res = optimize_quantizer(MODEL, n, DIGITAL, budget=400)
        equiprob = bounds.asymptotic_rate(
            _summary(make_equiprobable(MODEL, n)), DIGITAL)[0]
        assert _below_unquantized(res)
        assert res.rate >= equiprob - 1e-4
        assert res.rate >= paper - 0.005
        assert res.quantizer.levels == n

    def test_analog_beats_equiprobable_collapse(self):
        # at 16 levels the equiprobable analog rate collapses to ~0.356;
        # the optimizer must recover a substantially better quantizer
        res = optimize_quantizer(MODEL, 16, ANALOG, budget=800)
        assert res.rate > 0.55
        assert _below_unquantized(res)

    def test_rate_is_the_asymptotic_rate(self):
        # one rate formula: the objective is exactly the public asymptotic
        # rate (the lower bound for the analog attacker)
        dig = optimize_quantizer(MODEL, 4, DIGITAL, budget=120)
        assert dig.rate == bounds.asymptotic_rate(
            _summary(dig.quantizer), DIGITAL)[0]
        ana = optimize_quantizer(MODEL, 8, ANALOG, budget=200)
        assert ana.rate == bounds.asymptotic_rate(
            _summary(ana.quantizer), ANALOG)[0]
        assert _below_unquantized(dig) and _below_unquantized(ana)

    def test_default_nodes_give_the_public_rate(self):
        # the reported rate is read on the same 128-node cap as
        # summarize_channel's default
        dig = optimize_quantizer(MODEL, 4, DIGITAL, budget=60)
        assert dig.rate == bounds.asymptotic_rate(
            bounds.summarize_channel(dig.quantizer), DIGITAL)[0]
        ana = optimize_quantizer(MODEL, 8, ANALOG, budget=60)
        assert ana.rate == bounds.asymptotic_rate(
            bounds.summarize_channel(ana.quantizer), ANALOG)[0]
        assert _below_unquantized(dig) and _below_unquantized(ana)

    def test_rate_is_the_public_rate_of_its_summary(self):
        # the result carries the summary its rate is read from: the found
        # quantizer's, at the default node cap
        dig = optimize_quantizer(MODEL, 4, DIGITAL, budget=60)
        assert dig.summary.quantizer is dig.quantizer
        assert dig.summary.nodes == 128 and dig.summary.model == MODEL
        assert dig.rate == bounds.asymptotic_rate(dig.summary, DIGITAL)[0]
        ana = optimize_quantizer(MODEL, 8, ANALOG, budget=60)
        assert ana.summary.quantizer is ana.quantizer
        assert ana.summary.nodes == 128
        assert ana.rate == bounds.asymptotic_rate(ana.summary, ANALOG)[0]

    def test_budget_accounting(self):
        res = optimize_quantizer(MODEL, 4, DIGITAL, budget=50)
        assert res.evaluations >= 4          # at least the start ranking
        assert res.rate > 0.0
        assert _below_unquantized(res)

    @pytest.mark.parametrize("levels,budget", [(16, 30), (32, 60), (8, 20)])
    def test_budget_is_a_hard_cap(self, levels, budget):
        res = optimize_quantizer(MODEL, levels, DIGITAL, budget=budget)
        assert res.evaluations <= max(budget, 2)
        assert res.budget_exhausted == (res.evaluations >= budget)
        assert _below_unquantized(res)

    def test_deterministic(self):
        a = optimize_quantizer(MODEL, 4, DIGITAL, budget=120)
        b = optimize_quantizer(MODEL, 4, DIGITAL, budget=120)
        assert a.rate == b.rate
        assert np.array_equal(a.quantizer.inner_borders,
                              b.quantizer.inner_borders)

    def test_default_budget_between_listed_alphabets(self):
        # N = 24 takes N = 32's budget: at 300 evaluations, the old default
        # for an unlisted N, the search ran out at rate 0.692307
        res = optimize_quantizer(MODEL, 24, DIGITAL)
        assert not res.budget_exhausted
        assert res.evaluations <= optimize._BUDGETS[32]
        assert res.rate >= 0.69231
        assert _below_unquantized(res)

    def test_validation(self):
        with pytest.raises(DomainError):
            optimize_quantizer(MODEL, 1, DIGITAL)
        with pytest.raises(DomainError):
            optimize_quantizer(MODEL, 4, DIGITAL, budget=0)


@pytest.mark.parametrize("nodes,search", [(128, 32), (64, 32)])
def test_search_runs_on_one_fixed_rule(monkeypatch, nodes, search):
    # every candidate, the two starts and the equidistant step search
    # included, is scored on the 32-node rule whatever the cap of the chain
    # behind the result's summary: per_w_channels sees exactly its 16
    # computed mirror-half nodes; only the result's summary goes through
    # the error-controlled chain, capped at `nodes` (the default cap 128,
    # or 64 when the optimizer's summarize_channel is bound to that cap)
    calls, phase = [], ["search"]
    real_stack, real_quadrature = channel.per_w_channels, bounds._quadrature

    def stack_spy(q, ws, model=None):
        calls.append((phase[0], np.asarray(ws)))
        return real_stack(q, ws, model)

    def quadrature_spy(q, model, n):
        phase[0] = "report"
        assert n == nodes
        return real_quadrature(q, model, n)

    monkeypatch.setattr(channel, "per_w_channels", stack_spy)
    monkeypatch.setattr(bounds, "_quadrature", quadrature_spy)
    if nodes != channel._NODE_CAP:
        monkeypatch.setattr(optimize, "summarize_channel",
                            functools.partial(bounds.summarize_channel,
                                              nodes=nodes))
    res = optimize_quantizer(MODEL, 8, DIGITAL, budget=60)
    searched = [ws for ph, ws in calls if ph == "search"]
    assert len(searched) >= res.evaluations
    assert channel._SEARCH_NODES == search
    assert res.summary.nodes <= nodes
    half = unit_interval_rule(search)[0][:search // 2]
    assert all(np.array_equal(ws, half) for ws in searched)
    assert any(ph == "report" for ph, _ in calls)
