"""Discrete information measures and the conditional mutual information
I(S; S~ | W) of the helper-data channel.

All logarithms are base 2; every quantity below is in bits.  The zero-mass
convention 0*log(0) = 0 applies throughout.
"""

from __future__ import annotations

import numpy as np

from .stats import DomainError, PufModel
from .quantizer import InputQuantizer
from .channel import _quadrature


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


def conditional_mi_given_w(q: InputQuantizer, model: PufModel | None = None,
                           nodes: int = 128, full_output: bool = False):
    """I(S; S~ | W) in bits, integrating the per-helper-value mutual
    information over the uniform helper distribution on at most `nodes`
    Gauss-Legendre nodes.  With full_output, also the node count used, its
    difference to the rule of half as many nodes and whether that exceeds
    1e-6."""
    avg, val = _quadrature(q, model or q.model, nodes)
    if not full_output:
        return val
    delta = avg.metadata["mi_refinement_delta"]
    return val, {"refinement_delta": delta, "quadrature_warning": delta > 1e-6,
                 "nodes_used": avg.metadata["nodes_used"]}
