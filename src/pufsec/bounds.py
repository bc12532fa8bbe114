"""Asymptotic secret-key rates, finite-blocklength achievability/converse
rates, and the minimum-cell-count search.

All rates are in bits per PUF cell.  The O(log n / n) residual of the
normal-approximation bounds is dropped with zero constant throughout; the
resulting numbers are the ones tabulated by the package.

Dispersion (second-order) terms are evaluated on the helper-data-averaged
joint P(S, S~); first-order terms use the conditional mutual information
I(S; S~ | W) except for the digital achievability bound, whose statement
uses the averaged I(S; S~).  The two differ by less than 1e-3 bits for
every configuration this package tabulates, and the difference is tracked
as a regression quantity in the test suite.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .stats import DomainError, PufModel, q_inverse
from .quantizer import InputQuantizer
# per_w_channels stays bound here although _quadrature makes the call:
# the perfbench tracer wraps it, and checks the wrap, in this namespace.
from .channel import AttackerSpec, _quadrature, per_w_channels  # noqa: F401
from .info import entropy, mutual_information

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
                      nodes: int = 128) -> ChannelSummary:
    model = model or q.model
    avg, i_cond = _quadrature(q, model, nodes)
    probs = q.probs
    joint = probs[:, None] * avg.p
    joint = np.clip(joint, 0.0, None)
    marg = joint.sum(axis=0)
    n_levels = q.levels

    nz = joint > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # log2 of the three reference ratios, on the joint support only.
        lr_unif = np.log2(joint[nz] * n_levels /
                          np.broadcast_to(marg, joint.shape)[nz])
        lr_cond = np.log2(
            (joint / probs[:, None])[nz] /
            np.broadcast_to(marg, joint.shape)[nz])
    w = joint[nz]
    a2 = float(w @ lr_unif ** 2)
    c2 = float(w @ lr_cond ** 2)

    # per-s divergences D(P_{S~|S=s} || P_S~)
    d2 = 0.0
    for s in range(n_levels):
        row = joint[s] / probs[s]
        m = row > 0
        d_s = float(row[m] @ np.log2(row[m] / marg[m]))
        d2 += probs[s] * d_s ** 2

    pnz = probs > 0
    b2 = float(probs[pnz] @ np.log2(probs[pnz] * n_levels) ** 2)

    return ChannelSummary(
        quantizer=q, model=model, nodes=nodes,
        probs=probs, joint=joint,
        h_s=entropy(probs),
        i_avg=mutual_information(joint),
        i_cond=i_cond,
        a2=a2, b2=b2, c2=c2, d2_per_s=d2,
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


def asymptotic_rate_digital(s: ChannelSummary, p_d: float = 0.1) -> float:
    """Secret-key capacity against the digital attacker:
    I(S; S~ | W) * p_d bits per cell."""
    att = AttackerSpec("digital", p_d=p_d)
    _check_summary(s)
    return _asymptotic_rate(att, s.i_cond, s.h_s)


def asymptotic_rate_analog(s: ChannelSummary, p_d: float = 0.1,
                           p_a: float = 0.2):
    """(lower, upper) bounds on the key capacity against the analog
    attacker; the lower bound is clamped at zero."""
    att = AttackerSpec("analog", p_d=p_d, p_a=p_a)
    _check_summary(s)
    return (_asymptotic_rate(att, s.i_cond, s.h_s),
            _first_order(att, "converse", s.i_cond, s.h_s))


# ---------------------------------------------------------------------------
# Dispersion terms (helper-data-averaged joint)


def dispersion_v1(s: ChannelSummary) -> float:
    """Legitimate-channel dispersion (shared by both attacker models)."""
    return max(s.a2 - s.a1 ** 2, 0.0)


def dispersion_v2_digital(s: ChannelSummary, p_d: float) -> float:
    """Eavesdropper dispersion, digital attacker: erasure mixture of the
    noisy density (weight 1-p_d) and the source-only density (weight p_d)."""
    AttackerSpec("digital", p_d=p_d)
    mean = (1.0 - p_d) * s.a1 + p_d * s.b1
    return max((1.0 - p_d) * s.a2 + p_d * s.b2 - mean ** 2, 0.0)


def dispersion_vc_prime_digital(s: ChannelSummary, p_d: float) -> float:
    """Exact converse dispersion for the digital attacker."""
    AttackerSpec("digital", p_d=p_d)
    return max(p_d * s.c2 - p_d ** 2 * s.d2_per_s, 0.0)


def dispersion_v2_analog(s: ChannelSummary, p_d: float, p_a: float) -> float:
    """Eavesdropper dispersion, analog attacker: three-way mixture of the
    (E,E), (s~,E) and (s~,s) outcomes."""
    AttackerSpec("analog", p_d=p_d, p_a=p_a)
    log_n = s.log_alphabet
    mean = log_n + s.i_avg * (p_a - p_d) - p_a * s.h_s
    second = (p_d * s.b2 + (p_a - p_d) * s.a2 + (1.0 - p_a) * log_n ** 2)
    return max(second - mean ** 2, 0.0)


def dispersion_vc_analog(s: ChannelSummary, p_d: float,
                         variant: str = "reference") -> float:
    """Converse dispersion for the analog attacker; independent of p_a.

    variant="theorem" evaluates p_d * sum P_SS~ log2^2(P_{S~|S}/P_S~)
    - p_d^2 I(S;S~)^2, the closed form the analysis states.  That form
    does not reproduce the published analog-converse cell counts; those
    follow the same expression with the second moment scaled by 1/|S|
    (variant="reference", the default used by the table pipeline).  The
    reference variant matches every published analog converse cell to
    within 0.5%.
    """
    AttackerSpec("digital", p_d=p_d)          # p_d in [0, 1]; p_a plays no part
    if variant == "theorem":
        second = s.c2
    elif variant == "reference":
        second = s.c2 / s.levels
    else:
        raise DomainError(
            f"variant must be 'theorem' or 'reference', got {variant!r}")
    return max(p_d * second - p_d ** 2 * s.i_avg ** 2, 0.0)


# ---------------------------------------------------------------------------
# Finite-blocklength rates


def _check_n(n):
    if not (isinstance(n, (int, np.integer)) or float(n).is_integer()) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")


def _check_eps_delta(epsilon, delta=None, security_bits=None):
    if (delta is None) == (security_bits is None):
        raise DomainError("pass exactly one of delta or security_bits")
    if security_bits is not None and security_bits < 1:
        raise DomainError(f"security level must be >= 1 bit, got {security_bits}")
    if delta is not None and not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0,1), got {delta!r}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0,1), got {epsilon!r}")
    d = _delta_value(delta, security_bits)
    if epsilon + d >= 1.0:
        raise DomainError(
            f"epsilon + delta must be < 1, got {epsilon} + {d}")


def _delta_value(delta=None, security_bits=None) -> float:
    if security_bits is not None:
        return 2.0 ** -float(security_bits)
    return float(delta)


def _rate_terms(att: AttackerSpec, direction: str, s: ChannelSummary,
                epsilon: float, delta=None, security_bits=None):
    """(first, penalty) with rate(n) = first - penalty / sqrt(n), the
    normal approximation of the achievability or converse bound; epsilon
    and delta/security_bits must already be checked."""
    first = _first_order(att, direction, s.i_cond, s.h_s, s.i_avg)
    if direction == "achievability":
        if att.kind == "digital":
            v2 = dispersion_v2_digital(s, att.p_d)
        else:
            v2 = dispersion_v2_analog(s, att.p_d, att.p_a)
        if security_bits is not None:
            qinv_delta = q_inverse(log2_p=-float(security_bits))
        else:
            qinv_delta = q_inverse(delta)
        penalty = (math.sqrt(dispersion_v1(s)) * q_inverse(epsilon)
                   + math.sqrt(v2) * qinv_delta)
    else:
        if att.kind == "digital":
            vc = dispersion_vc_prime_digital(s, att.p_d)
        else:
            vc = dispersion_vc_analog(s, att.p_d)
        penalty = math.sqrt(vc) * q_inverse(
            epsilon + _delta_value(delta, security_bits))
    return first, penalty


def _rate_at(first: float, penalty: float, n) -> float:
    return first - penalty / math.sqrt(n)


def _finite_rate(att, direction, s, n, epsilon, delta, security_bits):
    _check_n(n)
    _check_eps_delta(epsilon, delta, security_bits)
    _check_summary(s)
    return _rate_at(*_rate_terms(att, direction, s, epsilon, delta,
                                 security_bits), n)


def finite_rate_digital_ach(s: ChannelSummary, p_d=0.1, n=1000, epsilon=1e-6,
                            delta=None, *, security_bits=None) -> float:
    """Normal-approximation achievable key rate against the digital
    attacker (may be negative; callers clamp)."""
    return _finite_rate(AttackerSpec("digital", p_d=p_d), "achievability",
                        s, n, epsilon, delta, security_bits)


def finite_rate_digital_conv(s: ChannelSummary, p_d=0.1, n=1000,
                             epsilon=1e-6, delta=None, *,
                             security_bits=None) -> float:
    """Exact second-order converse rate against the digital attacker."""
    return _finite_rate(AttackerSpec("digital", p_d=p_d), "converse",
                        s, n, epsilon, delta, security_bits)


def finite_rate_analog_ach(s: ChannelSummary, p_d=0.1, p_a=0.2, n=1000,
                           epsilon=1e-6, delta=None, *,
                           security_bits=None) -> float:
    """Normal-approximation achievable key rate against the analog
    attacker (may be negative; callers clamp)."""
    return _finite_rate(AttackerSpec("analog", p_d=p_d, p_a=p_a),
                        "achievability", s, n, epsilon, delta, security_bits)


def finite_rate_analog_conv(s: ChannelSummary, p_d=0.1, p_a=0.2, n=1000,
                            epsilon=1e-6, delta=None, *,
                            security_bits=None) -> float:
    """Second-order converse rate against the analog attacker, with the
    default (reference) dispersion variant.  The value does not depend on
    p_a; the argument is kept for interface symmetry."""
    return _finite_rate(AttackerSpec("analog", p_d=p_d, p_a=p_a), "converse",
                        s, n, epsilon, delta, security_bits)


# ---------------------------------------------------------------------------
# Query objects and the minimum-cell-count search


@dataclasses.dataclass(frozen=True)
class BoundQuery:
    """One evaluation request: attacker model, quantizer, reliability
    epsilon and either an explicit delta or a security level in bits."""

    attacker: AttackerSpec
    quantizer: InputQuantizer
    epsilon: float
    security_bits: float | None = None
    delta: float | None = None
    n: int | None = None

    def __post_init__(self):
        _check_eps_delta(self.epsilon, self.delta, self.security_bits)
        if self.n is not None:
            _check_n(self.n)

    @property
    def target_bits(self) -> float:
        """Secret size the searched code must carry: lambda, or
        -log2(delta) when delta is given explicitly."""
        if self.security_bits is not None:
            return float(self.security_bits)
        return -math.log2(self.delta)


def min_cells(query: BoundQuery, direction: str,
              cap: int = LOG2_CAP_DEFAULT, *,
              summary: ChannelSummary) -> int | None:
    """Smallest cell count n <= cap with n * rate(n) >= the target secret
    size in bits, or None (infeasible) when there is none or first <= 0.

    rate(n) = first - penalty / sqrt(n) is the query's achievability or
    converse bound on `summary`.  With t = sqrt(n), the search starts at
    the square of the positive root of first t^2 - penalty t = target,
    rounded up; integer steps settle the rounding with the predicate, which
    is monotone as n * rate(n) increases wherever it is positive
    (DECISIONS.md, "Closed-form min_cells").
    """
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    _check_summary(summary)
    first, penalty = _rate_terms(query.attacker, direction, summary,
                                 query.epsilon, query.delta,
                                 query.security_bits)
    if not first > 0.0:
        return None
    target = query.target_bits

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
