"""Discrete information measures and the conditional mutual information
I(S; S~ | W) of the helper-data channel.

All logarithms are base 2; every quantity below is in bits.  The zero-mass
convention 0*log(0) = 0 applies throughout.
"""

from __future__ import annotations

import numpy as np

from .stats import DomainError, PufModel, unit_interval_rule
from .quantizer import InputQuantizer
from . import _blocks, channel as channel_mod


def _validate_pmf(p, tol=1e-12):
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-15):
        raise DomainError("pmf has negative entries")
    if abs(p.sum() - 1.0) > tol:
        raise DomainError(f"pmf sums to {p.sum()!r}, not 1")
    return np.clip(p, 0.0, None)


def entropy(p) -> float:
    """Shannon entropy in bits."""
    p = _validate_pmf(p).ravel()
    nz = p > 0
    return float(-(p[nz] @ np.log2(p[nz])))


def mutual_information(joint) -> float:
    """I(X;Y) in bits from a joint pmf over X x Y."""
    j = _validate_pmf(joint)
    if j.ndim != 2:
        raise DomainError("joint pmf must be 2-D")
    px = j.sum(axis=1)
    py = j.sum(axis=0)
    nz = j > 0
    ratio = j[nz] / np.outer(px, py)[nz]
    return max(float(j[nz] @ np.log2(ratio)), 0.0)


def _mi_per_node(mats, probs):
    """I(S;S~|W=w) at each quadrature node from stacked channel matrices.

    Works with the ratio P(s~|s) / P(s~) rather than joint / (P_S * P_S~):
    the latter underflows for quantizers with near-empty intervals.  The
    ratio and its log are taken on the support only; `contrib` keeps the
    full zero-filled shape so each node's sum adds in a fixed order.
    """
    k, n, m = mats.shape
    out = np.empty(k)

    def job(blk):
        joint = probs[None, :, None] * mats[blk]
        out_marg = joint.sum(axis=1, keepdims=True)
        nz = joint > 0
        contrib = np.zeros_like(joint)
        np.divide(mats[blk], out_marg, out=contrib, where=nz)
        np.log2(contrib, out=contrib, where=nz)
        np.multiply(joint, contrib, out=contrib, where=nz)
        out[blk] = contrib.sum(axis=(1, 2))

    _blocks._run_blocks(job, _blocks._row_blocks(k, n * m))
    return out


def _conditional_mi(q: InputQuantizer, model: PufModel, nodes: int) -> float:
    """I(S; S~ | W) in bits by `nodes`-point Gauss-Legendre quadrature over
    the uniform helper value; the one implementation every rate uses."""
    xs, wts = unit_interval_rule(nodes)
    mats = channel_mod.per_w_channels(q, xs, model)
    # on a mirror-folded stack node K-1-k repeats node k's information,
    # so the leading half carries the weights of both
    half = channel_mod._mirror_half(q, xs)
    folded = wts[:half].copy()
    folded[:nodes - half] += wts[half:][::-1]
    return float(folded @ _mi_per_node(mats[:half], q.probs))


def conditional_mi_given_w(q: InputQuantizer, model: PufModel | None = None,
                           nodes: int = 128, full_output: bool = False):
    """I(S; S~ | W) in bits, integrating the per-helper-value mutual
    information over the uniform helper distribution."""
    model = model or q.model
    if nodes < 16:
        raise DomainError(f"nodes must be >= 16, got {nodes}")
    val = _conditional_mi(q, model, nodes)
    if not full_output:
        return val
    delta = abs(_conditional_mi(q, model, 2 * nodes) - val)
    return val, {"refinement_delta": delta, "quadrature_warning": delta > 1e-6}
