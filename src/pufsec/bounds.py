"""Asymptotic secret-key rates, finite-blocklength achievability/converse
rates, and the minimum-cell-count search.

All rates are in bits per PUF cell.  The O(log n / n) residual of the
normal-approximation bounds is dropped with zero constant throughout; the
resulting numbers are the ones tabulated by the package.

Dispersion (second-order) terms are evaluated on the helper-data-averaged
joint P(S, S~); first-order terms use the conditional mutual information
I(S; S~ | W) except for the digital achievability bound, whose statement
uses the averaged I(S; S~).  Zero leakage, I(S; W) = 0, makes
I(S; S~ | W) = I(S; S~, W) >= I(S; S~); on the tabulated quantizers at the
default model the gap stays below 1.3e-3 bits (1.235e-3 at equiprobable
N = 32), a bound the test suite checks.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .stats import DomainError, PufModel, q_inverse
from .quantizer import InputQuantizer
# per_w_channels stays bound here although _quadrature makes the call:
# the perfbench tracer wraps it, and checks the wrap, in this namespace.
from .channel import AttackerSpec, _NODE_CAP, _quadrature
from .channel import per_w_channels  # noqa: F401
from .info import _log_ratios, _validate_pmf, entropy

# The largest cell count min_cells searches by default; the published
# tables stop reporting above it.
LOG2_CAP_DEFAULT = 20000


@dataclasses.dataclass(frozen=True, eq=False)
class ChannelSummary:
    """Cached quantities of one (quantizer, model) pair needed by every
    bound: the averaged joint pmf, entropies/informations, and the raw
    second moments that the dispersion formulas combine."""

    quantizer: InputQuantizer
    model: PufModel
    nodes: int
    probs: np.ndarray          # P_S
    joint: np.ndarray          # P_{S,S~}, helper-data averaged
    h_s: float                 # H(S)
    i_avg: float               # I(S;S~) of the averaged joint
    i_cond: float              # I(S;S~|W)
    a2: float                  # sum P_SS~ log2^2(P_SS~ |S| / P_S~)
    b2: float                  # sum P_S log2^2(P_S |S|)
    c2: float                  # sum P_SS~ log2^2(P_{S~|S} / P_S~)
    d2_per_s: float            # sum_s P_S(s) D(P_{S~|S=s} || P_S~)^2
    metadata: dict

    @property
    def levels(self) -> int:
        return self.quantizer.levels

    @property
    def log_alphabet(self) -> float:
        return math.log2(self.levels)

    @property
    def b1(self) -> float:
        """D(P_S || uniform) = log2|S| - H(S)."""
        return self.log_alphabet - self.h_s

    @property
    def a1(self) -> float:
        """D(P_SS~ || uniform x P_S~) = I(S;S~) + log2|S| - H(S)."""
        return self.i_avg + self.b1


def summarize_channel(q: InputQuantizer, model: PufModel | None = None,
                      nodes: int = _NODE_CAP) -> ChannelSummary:
    """Summary of q under `model` on the error-controlled quadrature chain
    ending at `nodes`.  Every information moment is a sum over the averaged
    joint of the density L = log2 P(s~|s) / P(s~) from `info._log_ratios`:
    i_avg of joint * L, c2 of joint * L^2, d2_per_s from the row sums
    P_S(s) D(P_{S~|S=s} || P_S~) of joint * L, and a2 of
    joint * (L + log2(|S| P_S))^2."""
    model = model or q.model
    avg, i_cond = _quadrature(q, model, nodes)
    probs = q.probs
    joint, lr, _ = _log_ratios(np.clip(avg.p, 0.0, None), probs)
    _validate_pmf(joint)        # a NaN or a mass off 1 raises, not spreads
    dens = joint * lr
    log_unif = np.log2(probs * q.levels)
    return ChannelSummary(
        quantizer=q, model=model, nodes=nodes,
        probs=probs, joint=joint,
        h_s=entropy(probs),
        i_avg=max(float(dens.sum()), 0.0),
        i_cond=i_cond,
        a2=float(np.sum(joint * (lr + log_unif[:, None]) ** 2)),
        b2=float(probs @ log_unif ** 2),
        c2=float(np.sum(dens * lr)),
        d2_per_s=float(np.sum(dens.sum(axis=1) ** 2 / probs)),
        metadata=dict(avg.metadata),
    )


def _check_summary(s):
    if not isinstance(s, ChannelSummary):
        raise DomainError("expected a ChannelSummary from summarize_channel")


# ---------------------------------------------------------------------------
# First-order terms and asymptotic rates


def _first_order(att: AttackerSpec, direction: str, i_cond: float,
                 h_s: float, i_avg: float | None = None) -> float:
    """First-order term of the rate bound against `att`: I(S;S~|W) p_d for
    either converse, I(S;S~) p_d for digital achievability, and
    I(S;S~|W)(1 - p_a + p_d) - H(S)(1 - p_a) for analog achievability."""
    if direction == "converse":
        return i_cond * att.p_d
    if direction != "achievability":
        raise DomainError(
            f"direction must be 'achievability' or 'converse', got {direction!r}")
    if att.kind == "digital":
        return i_avg * att.p_d
    return i_cond * (1.0 - att.p_a + att.p_d) - h_s * (1.0 - att.p_a)


def _asymptotic_rate(att: AttackerSpec, i_cond: float, h_s: float) -> float:
    """Key rate the optimizer maximizes: the capacity against the digital
    attacker, the lower bound (clamped at zero) against the analog one."""
    if att.kind == "digital":
        return _first_order(att, "converse", i_cond, h_s)
    return max(_first_order(att, "achievability", i_cond, h_s), 0.0)


def asymptotic_rate(s: ChannelSummary, att: AttackerSpec):
    """(lower, upper) bounds on the secret-key capacity against `att`, in
    bits per cell.  Against the digital attacker both are the capacity
    I(S; S~ | W) * p_d; against the analog one the lower bound is clamped
    at zero."""
    _check_summary(s)
    return (_asymptotic_rate(att, s.i_cond, s.h_s),
            _first_order(att, "converse", s.i_cond, s.h_s))


# ---------------------------------------------------------------------------
# Dispersion terms (helper-data-averaged joint)


def dispersion_v1(s: ChannelSummary) -> float:
    """Legitimate-channel dispersion (shared by both attacker models)."""
    return max(s.a2 - s.a1 ** 2, 0.0)


def dispersion_v2(s: ChannelSummary, att: AttackerSpec) -> float:
    """Eavesdropper dispersion.  Digital attacker: erasure mixture of the
    noisy density (weight 1-p_d) and the source-only density (weight p_d).
    Analog attacker: three-way mixture of the (E,E), (s~,E) and (s~,s)
    outcomes."""
    p_d = att.p_d
    if att.kind == "digital":
        mean = (1.0 - p_d) * s.a1 + p_d * s.b1
        return max((1.0 - p_d) * s.a2 + p_d * s.b2 - mean ** 2, 0.0)
    p_a = att.p_a
    log_n = s.log_alphabet
    mean = log_n + s.i_avg * (p_a - p_d) - p_a * s.h_s
    second = (p_d * s.b2 + (p_a - p_d) * s.a2 + (1.0 - p_a) * log_n ** 2)
    return max(second - mean ** 2, 0.0)


def dispersion_vc(s: ChannelSummary, att: AttackerSpec,
                  variant: str = "reference") -> float:
    """Converse dispersion.  The digital attacker has one form, the exact
    V_c', whatever `variant` says; the analog one is independent of p_a.

    The analog variant="theorem" evaluates
    p_d * sum P_SS~ log2^2(P_{S~|S}/P_S~) - p_d^2 I(S;S~)^2, the closed
    form the analysis states.  That form does not reproduce the published
    analog-converse cell counts; those follow the same expression with the
    second moment scaled by 1/|S| (variant="reference", the default used
    by the table pipeline).  The reference variant matches every published
    analog converse cell to within 0.5%.
    """
    if variant not in ("theorem", "reference"):
        raise DomainError(
            f"variant must be 'theorem' or 'reference', got {variant!r}")
    p_d = att.p_d
    if att.kind == "digital":
        return max(p_d * s.c2 - p_d ** 2 * s.d2_per_s, 0.0)
    second = s.c2 if variant == "theorem" else s.c2 / s.levels
    return max(p_d * second - p_d ** 2 * s.i_avg ** 2, 0.0)


# ---------------------------------------------------------------------------
# Finite-blocklength rates


def _check_n(n):
    if not (isinstance(n, (int, np.integer)) or float(n).is_integer()) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")


def _check_eps_lambda(epsilon, security_bits):
    if security_bits is None or not security_bits >= 1:
        raise DomainError(
            f"security level must be >= 1 bit, got {security_bits}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0,1), got {epsilon!r}")
    delta = 2.0 ** -float(security_bits)
    if epsilon + delta >= 1.0:
        raise DomainError(
            f"epsilon + delta must be < 1, got {epsilon} + {delta}")


def _check_cap(cap):
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")


def _rate_terms(att: AttackerSpec, direction: str, s: ChannelSummary,
                epsilon: float, security_bits: float):
    """(first, penalty) with rate(n) = first - penalty / sqrt(n), the
    normal approximation of the achievability or converse bound at
    delta = 2^-security_bits; epsilon and security_bits must already be
    checked."""
    first = _first_order(att, direction, s.i_cond, s.h_s, s.i_avg)
    if direction == "achievability":
        penalty = (math.sqrt(dispersion_v1(s)) * q_inverse(epsilon)
                   + math.sqrt(dispersion_v2(s, att))
                   * q_inverse(log2_p=-float(security_bits)))
    else:
        penalty = math.sqrt(dispersion_vc(s, att)) * q_inverse(
            epsilon + 2.0 ** -float(security_bits))
    return first, penalty


def _rate_at(first: float, penalty: float, n) -> float:
    return first - penalty / math.sqrt(n)


def _finite_rate(att, direction, s, n, epsilon, security_bits):
    _check_n(n)
    _check_eps_lambda(epsilon, security_bits)
    _check_summary(s)
    return _rate_at(*_rate_terms(att, direction, s, epsilon, security_bits),
                    n)


def finite_rate_digital_ach(s: ChannelSummary, p_d, n, epsilon, *,
                            security_bits) -> float:
    """Normal-approximation achievable key rate against the digital
    attacker (may be negative; callers clamp)."""
    return _finite_rate(AttackerSpec("digital", p_d=p_d), "achievability",
                        s, n, epsilon, security_bits)


def finite_rate_digital_conv(s: ChannelSummary, p_d, n, epsilon, *,
                             security_bits) -> float:
    """Exact second-order converse rate against the digital attacker."""
    return _finite_rate(AttackerSpec("digital", p_d=p_d), "converse",
                        s, n, epsilon, security_bits)


def finite_rate_analog_ach(s: ChannelSummary, p_d, p_a, n, epsilon, *,
                           security_bits) -> float:
    """Normal-approximation achievable key rate against the analog
    attacker (may be negative; callers clamp)."""
    return _finite_rate(AttackerSpec("analog", p_d=p_d, p_a=p_a),
                        "achievability", s, n, epsilon, security_bits)


def finite_rate_analog_conv(s: ChannelSummary, p_d, p_a, n, epsilon, *,
                            security_bits) -> float:
    """Second-order converse rate against the analog attacker, with the
    default (reference) dispersion variant.  The value does not depend on
    p_a; the argument is kept for interface symmetry."""
    return _finite_rate(AttackerSpec("analog", p_d=p_d, p_a=p_a), "converse",
                        s, n, epsilon, security_bits)


# ---------------------------------------------------------------------------
# Query objects and the minimum-cell-count search


@dataclasses.dataclass(frozen=True)
class BoundQuery:
    """One evaluation request: attacker model, quantizer, reliability
    epsilon and a security level lambda in bits, delta = 2^-lambda."""

    attacker: AttackerSpec
    quantizer: InputQuantizer
    epsilon: float
    security_bits: float
    n: int | None = None

    def __post_init__(self):
        _check_eps_lambda(self.epsilon, self.security_bits)
        if self.n is not None:
            _check_n(self.n)


def min_cells(query: BoundQuery, direction: str,
              cap: int = LOG2_CAP_DEFAULT, *,
              summary: ChannelSummary) -> int | None:
    """Smallest cell count n <= cap with n * rate(n) >= `security_bits`
    (lambda), or None (infeasible) when there is none or first <= 0.

    rate(n) = first - penalty / sqrt(n) is the query's achievability or
    converse bound on `summary`, which must summarize the query's
    quantizer under that quantizer's model (else a DomainError).  With
    t = sqrt(n), the search starts at the square of the positive root of
    first t^2 - penalty t = target, rounded up; integer steps settle the
    rounding with the predicate, which is monotone as n * rate(n)
    increases wherever it is positive (DECISIONS.md, "Closed-form
    min_cells").
    """
    _check_cap(cap)
    _check_summary(summary)
    q, sq = query.quantizer, summary.quantizer
    # identity first: every caller in the package passes the query's own
    same_q = sq is q or (sq.model == q.model
                         and np.array_equal(sq.borders, q.borders))
    if not (same_q and (summary.model is q.model or summary.model == q.model)):
        raise DomainError("the summary is of another quantizer or model "
                          "than the query")
    first, penalty = _rate_terms(query.attacker, direction, summary,
                                 query.epsilon, query.security_bits)
    if not first > 0.0:
        return None
    target = float(query.security_bits)

    def meets(n):
        return n * max(_rate_at(first, penalty, n), 0.0) >= target

    sq = math.sqrt(penalty ** 2 + 4.0 * first * target)
    # the form of the positive root that cancels no digits
    root = ((penalty + sq) / (2.0 * first) if penalty > 0.0
            else 2.0 * target / (sq - penalty))
    n = max(math.ceil(root * root), 1) if root * root < cap else cap
    while n > 1 and meets(n - 1):
        n -= 1
    while not meets(n):
        if n == cap:
            return None
        n += 1
    return n
