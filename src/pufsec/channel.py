"""Channel matrices of the legitimate reconstruction path.

The legitimate channel P(S~ | S, W=w) follows from the helper-data-shifted
MAP decision borders and the Gaussian reconstruction noise.  The digital
attacker sees S~ through an erasure channel with probability p_d, the analog
attacker additionally reads the exact secret on cells that survive a larger
erasure fraction p_a; those views enter the rates only through the moments
of the averaged channel (`pufsec.bounds`), so no attacker matrix is built.

Gauss-Legendre quadrature over the uniform helper value, in panels
between any MAP switch points, turns the per-helper-value channels into
the averaged channel P(S~|S) and I(S; S~ | W).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import special

from . import _blocks
from .info import _log_ratios
from .stats import DomainError, PufModel, unit_interval_rule
from .quantizer import InputQuantizer, _decision_borders, sibling_points

# scipy's ndtr returns exactly 1.0 from z = 8.29237 up and exactly 0.0 from
# z = -37.677 down, so outside [_PHI_ZERO, _PHI_ONE] it is not evaluated and
# the result is the same to the bit (tests/test_channel.py pins both edges).
_PHI_ONE = 8.3
_PHI_ZERO = -38.0


@dataclasses.dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Row-stochastic matrix P(output | input) over finite alphabets."""

    p: np.ndarray
    metadata: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        m = self.p
        if m.ndim != 2:
            raise DomainError("channel matrix must be 2-D")
        if not np.all(np.isfinite(m)):
            raise DomainError("channel matrix has non-finite entries")
        if np.any(m < -1e-15):
            raise DomainError("channel matrix has negative entries")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-9:
            raise DomainError("channel matrix rows must sum to 1")


@dataclasses.dataclass(frozen=True)
class AttackerSpec:
    """Digital attacker erases a fraction p_d of cells; the analog attacker
    erases p_a >= p_d but reads surviving cells exactly."""

    kind: str
    p_d: float
    p_a: float | None = None

    def __post_init__(self):
        if self.kind not in ("digital", "analog"):
            raise DomainError(f"unknown attacker kind {self.kind!r}")
        if not 0.0 <= self.p_d <= 1.0:
            raise DomainError(f"p_d must lie in [0,1], got {self.p_d}")
        if self.kind == "analog":
            if self.p_a is None or not self.p_d <= self.p_a <= 1.0:
                raise DomainError(
                    f"analog attacker needs p_d <= p_a <= 1, got p_a={self.p_a}")
        elif self.p_a is not None:
            raise DomainError("p_a does not apply to the digital attacker")


def _mirror_half(q: InputQuantizer, ws: np.ndarray) -> int:
    """Number of leading helper values whose channels give the whole stack.

    The source and the noise are symmetric about zero.  So when the inner
    borders are antisymmetric, the masses symmetric and ws + ws[::-1] == 1,
    P(S~|S, W=ws[K-1-k]) is P(S~|S, W=ws[k]) with S and S~ both reversed,
    and (K + 1) // 2 nodes suffice.  The test is exact, not a tolerance:
    a quantizer that is only nearly symmetric gets all K nodes.
    """
    inner = q.inner_borders
    if (np.array_equal(inner, -inner[::-1])
            and np.array_equal(q.probs, q.probs[::-1])
            and np.all(ws + ws[::-1] == 1.0)):
        return (len(ws) + 1) // 2
    return len(ws)


def per_w_channels(q: InputQuantizer, ws, model: PufModel | None = None):
    """Stack of per-helper-value channels on the full output alphabet
    0..N-1 (levels merged away at a given w get zero columns).

    Returns an array of shape (len(ws), N, N): the Gaussian mass of each
    sibling point between consecutive MAP decision borders.  Phi is
    evaluated only where it is not exactly 0 or 1; a level whose sibling
    point is -inf (S = 0 at w = 0) gets a NaN row.  At sigma_n = 0 the
    borders are the sibling points' midpoints and z = +-inf, so the channel
    is the identity (DECISIONS.md, "The noiseless channel").  Every node
    given is evaluated; `_reduce` passes only the mirror half it needs.
    """
    model = model or q.model
    if model.sigma_p != q.model.sigma_p:    # q's sibling points use q's
        raise DomainError("the model and the quantizer differ in sigma_p")
    x = sibling_points(q, np.asarray(ws, dtype=float))     # (K, N)
    # one call for all nodes, on this thread: on merged rows the kernel
    # repeats envelope passes, each a few numpy calls over all those rows
    b = _decision_borders(q, x, model.sigma_n)              # (K, N+1)
    k, n = x.shape
    out = np.empty((k, n, n))

    def job(blk):
        # at w = 0 the -inf sibling point meets the -inf border: the NaN
        # that inf - inf gives is the documented NaN row, not a fault; at
        # sigma_n = 0 the division gives z = +-inf
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (b[blk, None, :] - x[blk, :, None]) / model.sigma_n
            one = z >= _PHI_ONE
            band = ~(one | (z <= _PHI_ZERO))     # NaN stays in the band
            f = one.astype(float)
            # boolean indexing, not ndtr(z, out=f, where=band): on scipy
            # 1.17.1 that call crashed the interpreter (segfault) at these
            # shapes
            f[band] = special.ndtr(z[band])
            np.subtract(f[:, :, 1:], f[:, :, :-1], out=out[blk])

    _blocks._run_blocks(job, _blocks._row_blocks(k, n * (n + 1)))
    return out


def _mi_per_node(mats, probs):
    """I(S;S~|W=w) at each quadrature node from stacked channel matrices:
    the sum of joint * L from `info._log_ratios`, in place on L under the
    kernel's support mask and over L's full zero-filled shape, so each
    node's sum adds in a fixed order.
    """
    k, n, m = mats.shape
    out = np.empty(k)

    def job(blk):
        joint, lr, nz = _log_ratios(mats[blk], probs)
        # the mask keeps a NaN row's (w = 0) joint out of the sum
        np.multiply(joint, lr, out=lr, where=nz)
        out[blk] = lr.sum(axis=(1, 2))

    _blocks._run_blocks(job, _blocks._row_blocks(k, n * m))
    return out


def _rule(q: InputQuantizer, model: PufModel, nodes: int,
          channel: bool = True):
    """`_reduce` on the `nodes`-point Gauss-Legendre rule, less the stack."""
    return _reduce(q, model, *unit_interval_rule(nodes), channel)[:2]


def _reduce(q: InputQuantizer, model: PufModel, xs: np.ndarray,
            wts: np.ndarray, channel: bool = True):
    """(averaged channel P(S~|S), I(S; S~ | W), computed stack) on the rule
    with nodes xs and weights wts; the channel is None unless `channel`.

    On a mirror-symmetric quantizer (`_mirror_half`) only the leading half
    of the stack is computed; this is the one place the fold is decided,
    as `per_w_channels` evaluates every node it is given.  Node K-1-k
    repeats node k's information, so for I(S;S~|W) the half carries the
    weights of both; its channel is node k's with S and S~ both reversed,
    so the averaged channel adds the reversed reduction of the mirrored
    weights.
    """
    half = _mirror_half(q, xs)
    mats = per_w_channels(q, xs[:half], model)
    mirror = wts[half:][::-1]           # weights of node K-1-k, k < K - half
    folded = wts[:half].copy()
    folded[:len(mirror)] += mirror
    mi = float(folded @ _mi_per_node(mats, q.probs))
    if not channel:
        return None, mi, mats
    p = np.tensordot(wts[:half], mats, axes=1)
    p += np.tensordot(mirror, mats[:len(mirror)], axes=1)[::-1, ::-1]
    return p, mi, mats


def _panel_rule(switch, m: int):
    """m-point Gauss-Legendre panels between consecutive points of 0, switch,
    1, or the cached m-point rule; on symmetric points the upper nodes are
    1 - w and an odd rule's middle node is 1/2, for `_mirror_half`."""
    if not len(switch):
        return unit_interval_rule(m)
    t, u = unit_interval_rule(m)
    edges = np.concatenate(([0.0], switch, [1.0]))
    width = np.diff(edges)[:, None]
    xs, wts = (edges[:-1, None] + width * t).ravel(), (width * u).ravel()
    if np.all(edges + edges[::-1] == 1.0):
        h = len(xs) // 2
        xs[-h:], xs[h:-h] = 1.0 - xs[:h][::-1], 0.5
    return xs, wts


def _switch_points(q: InputQuantizer, model: PufModel, xs: np.ndarray,
                   mats: np.ndarray) -> np.ndarray:
    """Helper values where the set of dominated levels (b_t == b_{t+1}, so
    an exactly zero column of the stack `mats`) changes between consecutive
    computed nodes xs, bisected on the MAP borders.  On a mirror half, the
    set at w = 1/2 is its own mirror image, and each point w found adds
    1 - w."""
    dominated = ~np.any(mats, axis=1)                   # (K, N)
    if not dominated.any():             # no level dominated at any node
        return np.empty(0)
    mirrored = len(mats) < len(xs)
    if mirrored:
        xs = np.append(xs[:len(mats)], 0.5)
        dominated = np.vstack((dominated, dominated[-1, ::-1]))
    k = np.flatnonzero(np.any(dominated[1:] != dominated[:-1], axis=1))
    if not k.size:
        return np.empty(0)
    lo, hi, pattern = xs[k], xs[k + 1], dominated[k]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        b = _decision_borders(q, sibling_points(q, mid), model.sigma_n)
        same = np.all((b[:, 1:] == b[:, :-1]) == pattern, axis=1)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    s = 0.5 * (lo + hi)
    return np.concatenate((s, 1.0 - s[::-1])) if mirrored else s


# The error-controlled chain stops at the first rule within both
# tolerances of its half rule (DECISIONS.md, "Error-controlled node count").
_CHANNEL_TOL = 1e-10
_MI_TOL = 1e-12
# The optimizer scores every candidate on this one rule: the first rule the
# chain can certify, and the one it certifies for most quantizers
# (DECISIONS.md, "Error-controlled node count").
_SEARCH_NODES = 32
# The cap of the chain behind every summary, query and table.
_NODE_CAP = 128
# Bisections per switch point.
_BISECTIONS = 40


def _quadrature(q: InputQuantizer, model: PufModel, nodes: int):
    """(averaged channel P(S~|S), I(S; S~ | W)) by a doubling chain of
    Gauss-Legendre rules that ends at `nodes`, e.g. 16, 32, 64, 128.

    Each rule is checked against the one before it; the first rule with
    max|P - P_before| <= _CHANNEL_TOL and |I - I_before| <= _MI_TOL, or
    else the last rule, is reported.  Below 32 nodes the chain is the
    `nodes` rule alone, checked against the `nodes // 2` rule.  The two
    differences, recorded in the channel's metadata with the node count
    used, estimate the error of the half rule, an upper estimate for the
    reported one.  The channel is flagged (`quadrature_warning`) when its
    difference exceeds 1e-6 or either difference is not finite.

    Where the first rule's stack has switch points (kinks), each later rule
    of k nodes is `_panel_rule`'s, k // panels nodes on each panel between
    them (DECISIONS.md, "Panels at the MAP switch points").
    """
    if nodes < 16:
        raise DomainError(f"nodes must be >= 16, got {nodes}")
    chain = [nodes]
    while chain[0] >= 32 or len(chain) == 1:
        chain.insert(0, chain[0] // 2)
    xs, wts = unit_interval_rule(chain[0])
    p, mi, mats = _reduce(q, model, xs, wts)
    switch = _switch_points(q, model, xs, mats)
    del mats            # one stack at a time, dropped once reduced
    for k in chain[1:]:
        p_half, mi_half = p, mi
        xs, wts = _panel_rule(switch, k // (len(switch) + 1))
        p, mi = _reduce(q, model, xs, wts)[:2]
        delta = float(np.max(np.abs(p - p_half)))
        mi_delta = abs(mi - mi_half)
        if delta <= _CHANNEL_TOL and mi_delta <= _MI_TOL:
            break
    meta = {"nodes": nodes, "nodes_used": len(xs), "refinement_delta": delta,
            "quadrature_warning": not (delta <= 1e-6
                                       and np.isfinite(mi_delta)),
            "mi_refinement_delta": mi_delta,
            "switch_points": switch.tolist()}
    return ChannelMatrix(p, metadata=meta), mi


def averaged_channel(q: InputQuantizer, model: PufModel | None = None,
                     nodes: int = _NODE_CAP) -> ChannelMatrix:
    """W-averaged channel P(S~|S) on the full label set, by Gauss-Legendre
    quadrature over the uniform helper value on at most `nodes` nodes."""
    return _quadrature(q, model or q.model, nodes)[0]
