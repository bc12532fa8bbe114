"""Acceptance suite: eight criteria, one test (and one printed PASS/FAIL
line) each.  Reference values are the published tables embedded in
pufsec.tables.PUBLISHED; tolerances are stated per criterion.

Run with `pytest -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from pufsec.stats import PufModel, q_inverse
from pufsec.quantizer import (make_equidistant, make_equiprobable,
                              sibling_points)
from pufsec.channel import AttackerSpec, averaged_channel, per_w_channels
from pufsec import bounds
from pufsec.optimize import optimize_quantizer
from pufsec.sim import SimConfig, leakage_test, run_simulation
from pufsec.tables import PUBLISHED, TableSpec, generate_table
from pufsec.stats import unit_interval_rule
from oracles import decision_intervals, erasure_joint, oracle_v1, \
    oracle_vc, oracle_vc_prime, random_markov, unquantized_rate

MODEL = PufModel(2241.0, 129.0)


def report(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)
    assert ok, line


def test_criterion_1_rate_tables_digital_equiprobable():
    """Equiprobable digital rate columns within +-0.004, < 10 s/column."""
    worst = 0.0
    for tid, p_d in ((1, 0.1), (2, 0.18)):
        t0 = time.time()
        for n in (2, 4, 8, 16, 32):
            s = bounds.summarize_channel(make_equiprobable(MODEL, n), MODEL,
                                         nodes=128)
            rate = bounds.asymptotic_rate_digital(s, p_d=p_d)
            worst = max(worst, abs(rate - PUBLISHED[tid][n][2]))
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"column took {elapsed:.1f}s"
    report(1, worst <= 0.004, f"max |dev| = {worst:.4f}")


def test_criterion_2_rate_table_analog_equiprobable():
    """Analog equiprobable lower bounds within +-0.006, incl. the collapse
    at 16 levels and exact zero at 32."""
    rates = {}
    for n in (2, 4, 8, 16, 32):
        s = bounds.summarize_channel(make_equiprobable(MODEL, n), MODEL,
                                     nodes=128)
        rates[n] = bounds.asymptotic_rate_analog(s, p_d=0.18, p_a=0.36)[0]
    worst = max(abs(rates[n] - PUBLISHED[2][n][3]) for n in (2, 4, 8, 16))
    lo32 = rates[32]
    report(2, worst <= 0.006 and lo32 == 0.0,
           f"max |dev| = {worst:.4f}, rate(32) = {lo32}")


def test_criterion_3_digital_cell_tables():
    """All cells of the four digital cell-count tables within +-1% or
    +-3 cells, all four tables in < 2 min."""
    t0 = time.time()
    bad = []
    for tid in (3, 4, 5, 6):
        table = generate_table(TableSpec(tid), MODEL, compare=True)
        for row in table["rows"]:
            for col, (got, ref) in enumerate(zip(row["values"],
                                                 row["published"])):
                if abs(got - ref) > max(0.01 * ref, 3):
                    bad.append((tid, row["levels"], col, got, ref))
    elapsed = time.time() - t0
    report(3, not bad and elapsed < 120.0,
           f"{len(bad)} cells out of tolerance, {elapsed:.0f}s")


def test_criterion_4_analog_cell_tables():
    """Analog tables: equiprobable 4-level achievability 1399 +- 1% and
    32-level infeasible; equidistant converse within +-1% and
    achievability >= published - 1% or better (smaller)."""
    att = AttackerSpec("analog", p_d=0.18, p_a=0.36)

    q4 = make_equiprobable(MODEL, 4)
    s4 = bounds.summarize_channel(q4, MODEL, nodes=128)
    query = bounds.BoundQuery(attacker=att, quantizer=q4, epsilon=1e-6,
                              security_bits=128)
    ach4 = bounds.min_cells(query, "achievability", summary=s4)
    ok = abs(ach4 - 1399) <= 0.01 * 1399

    q32 = make_equiprobable(MODEL, 32)
    query32 = bounds.BoundQuery(attacker=att, quantizer=q32, epsilon=1e-6,
                                security_bits=128)
    s32 = bounds.summarize_channel(q32, MODEL, nodes=128)
    ach32 = bounds.min_cells(query32, "achievability", summary=s32)
    ok = ok and ach32 is None

    t8 = generate_table(TableSpec(8), MODEL, compare=True)
    for row in t8["rows"]:
        for col in (1, 3, 5):                       # converse columns
            got, ref = row["values"][col], row["published"][col]
            ok = ok and abs(got - ref) <= max(0.01 * ref, 3)
        for col in (0, 2, 4):                       # achievability columns
            got, ref = row["values"][col], row["published"][col]
            if ref is None:
                ok = ok and got is None
            else:
                ok = ok and (got <= ref or got - ref <= 0.01 * ref)
    report(4, ok, f"equiprobable ach(4) = {ach4}, ach(32) = {ach32}")


def test_criterion_5_security_audit():
    """Converse audit: 389 cells at lambda=100, 459 at lambda=128, and the
    audit command declares 128 cells INFEASIBLE (exit code 1)."""
    q = make_equiprobable(MODEL, 8)
    s = bounds.summarize_channel(q, MODEL, nodes=128)
    att = AttackerSpec("digital", p_d=0.18)
    conv100 = bounds.min_cells(
        bounds.BoundQuery(attacker=att, quantizer=q, epsilon=1e-6,
                          security_bits=100), "converse", summary=s)
    conv128 = bounds.min_cells(
        bounds.BoundQuery(attacker=att, quantizer=q, epsilon=1e-6,
                          security_bits=128), "converse", summary=s)

    from click.testing import CliRunner
    from pufsec.cli import main
    res = CliRunner().invoke(main, ["audit", "--cells", "128", "--levels",
                                    "8", "--pd", "0.18", "--eps", "1e-6",
                                    "--security", "100"])
    ok = (abs(conv100 - 389) <= 0.01 * 389 and conv128 == 459
          and res.exit_code == 1 and "INFEASIBLE" in res.output)
    report(5, ok, f"conv(100) = {conv100}, conv(128) = {conv128}, "
                  f"audit exit = {res.exit_code}")


@pytest.mark.parametrize("kind", ["digital", "analog"])
def test_criterion_6_optimizer(kind):
    """Optimizer never below equiprobable - 1e-4; digital optimized rates
    for levels <= 32 reach the published values within 0.005 (values
    above the published ones count as pass: the published numbers are a
    search result, not an upper bound, and several of our quantizers are
    verifiably better -- see DECISIONS.md, "Optimized rate cells above
    the published ones")."""
    budgets = {2: 100, 4: 300, 8: 700, 16: 1500, 32: 2000}
    p_d, p_a = 0.18, 0.36
    att = (AttackerSpec("digital", p_d=p_d) if kind == "digital"
           else AttackerSpec("analog", p_d=p_d, p_a=p_a))
    ok = True
    details = []
    for i, n in enumerate((2, 4, 8, 16, 32)):
        res = optimize_quantizer(MODEL, n, att, budgets[n], nodes=64)
        s = bounds.summarize_channel(res.quantizer, MODEL, nodes=128)
        eq = bounds.summarize_channel(make_equiprobable(MODEL, n), MODEL)
        if kind == "digital":
            rate = bounds.asymptotic_rate_digital(s, p_d=p_d)
            base = bounds.asymptotic_rate_digital(eq, p_d=p_d)
            paper = PUBLISHED[2][n][4]
            ok = ok and rate >= paper - 0.005
        else:
            rate = bounds.asymptotic_rate_analog(s, p_d=p_d, p_a=p_a)[0]
            base = bounds.asymptotic_rate_analog(eq, p_d=p_d, p_a=p_a)[0]
        # data processing: no quantizer beats p_d I(X;Y)
        ok = ok and rate >= base - 1e-4 and res.rate <= unquantized_rate(
            MODEL, p_d)
        details.append(f"{n}:{rate:.3f}")
    report(6, ok, f"{kind} " + " ".join(details))


def test_criterion_7_property_suite():
    """Bundle of paper-free properties (each also covered in the module
    suites): stochastic rows, leakage KS pass + negative-control reject,
    brute-force MAP agreement, dispersion enumeration oracles, strict
    converse-dispersion improvement, q_inverse round-trip, Monte-Carlo
    channel agreement at 1e7 samples."""
    ok = True

    # channel rows stochastic to 1e-9
    ws, _ = unit_interval_rule(64)
    mats = per_w_channels(make_equiprobable(MODEL, 8), ws)
    ok = ok and float(np.max(np.abs(mats.sum(axis=2) - 1.0))) < 1e-9

    # zero-leakage KS passes; center-distance negative control rejects
    ks = leakage_test(SimConfig(MODEL, make_equiprobable(MODEL, 8),
                                samples=100_000, seed=7))
    ok = ok and all(v["p_value"] > 0.01 for v in ks.values()
                    if not v["under_sampled"])
    neg = leakage_test(SimConfig(MODEL, make_equidistant(MODEL, 8, 2500.0),
                                 samples=100_000, seed=7),
                       helper="center-distance")
    ps = [v["p_value"] for v in neg.values() if not v["under_sampled"]]
    ok = ok and bool(ps) and all(p < 1e-6 for p in ps)

    # MAP decision intervals equal brute-force MAP on a grid
    q = make_equidistant(MODEL, 8, 2500.0)
    for w in (0.02, 0.5, 0.97):
        labels, borders = decision_intervals(q, w)
        x = sibling_points(q, w)
        for y in np.linspace(-11000, 11000, 201):
            score = np.log(q.probs) - (y - x) ** 2 / (2 * 129.0 ** 2)
            brute = len(score) - 1 - int(np.argmax(score[::-1]))
            got = labels[int(np.searchsorted(borders[1:-1], y, side="right"))]
            ok = ok and got == brute

    # dispersion formula vs enumeration oracle (small alphabet)
    s4 = bounds.summarize_channel(make_equiprobable(MODEL, 4), MODEL,
                                  nodes=64)
    ok = ok and abs(bounds.dispersion_v2_digital(s4, 0.18)
                    - oracle_v1(erasure_joint(s4.joint, 0.18))) < 1e-12

    # strict improvement of the exact converse dispersion, 100 sources
    rng = np.random.default_rng(42)
    for _ in range(100):
        nx, ny, nz = rng.integers(2, 6, size=3)
        pmf = random_markov(rng, nx, ny, nz)
        ok = ok and oracle_vc_prime(pmf) < oracle_vc(pmf)

    # q_inverse round-trip down to 2^-256
    for lam in (1, 16, 64, 128, 256):
        x = q_inverse(log2_p=-lam)
        from pufsec.stats import log_q_function
        ok = ok and abs(log_q_function(x) / math.log(2) + lam) <= 1e-9 * lam

    # Monte-Carlo matrix within 3 SE at 1e7 samples
    qq = make_equiprobable(MODEL, 4)
    rep = run_simulation(SimConfig(MODEL, qq, samples=10_000_000, seed=42))
    theory = averaged_channel(qq, nodes=128).p
    row = rep.counts.sum(axis=1, keepdims=True)
    slack = 3.0 * np.sqrt(theory * (1 - theory) / row) + 2.0 / row
    ok = ok and bool(np.all(np.abs(rep.matrix - theory) <= slack))

    report(7, ok)


def test_criterion_8_degenerate_identities():
    """Noiseless-uniform eavesdropper dispersion equals the hand-derived
    p_d (1 - p_d) log2^2 |S|, and the analog dispersion reduces to the
    digital one at p_a = p_d, both to 1e-12.  The reduction is tested on
    the noiseless channel: for noisy channels the two differ (the analog
    view is strictly more informative); see DECISIONS.md, "Noisy analog
    v2 does not reduce to the digital one"."""
    m = PufModel(2241.0, 1e-6)          # identity channel in double precision
    s = bounds.summarize_channel(make_equiprobable(m, 8), m, nodes=64)
    ok = True
    for p_d in (0.1, 0.18, 0.5, 0.9):
        ref = p_d * (1.0 - p_d) * math.log2(8) ** 2
        ok = ok and abs(bounds.dispersion_v2_digital(s, p_d) - ref) < 1e-12
        ok = ok and abs(bounds.dispersion_v2_analog(s, p_d, p_d)
                        - bounds.dispersion_v2_digital(s, p_d)) < 1e-12
    report(8, ok)
