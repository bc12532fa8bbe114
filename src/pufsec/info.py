"""Discrete information measures: entropy and mutual information.

All logarithms are base 2; every quantity below is in bits.  The zero-mass
convention 0*log(0) = 0 applies throughout.
"""

from __future__ import annotations

import numpy as np

from .stats import DomainError


def _validate_pmf(p, tol=1e-12):
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise DomainError("pmf has non-finite entries")
    if np.any(p < -1e-15):
        raise DomainError("pmf has negative entries")
    if not abs(p.sum() - 1.0) <= tol:
        raise DomainError(f"pmf sums to {p.sum()!r}, not 1")
    return np.clip(p, 0.0, None)


def _log_ratios(mats, probs):
    """(joint, L, support) of channel matrices P(s~|s) stacked on the last
    two axes under the input pmf `probs`: joint = P_S(s) P(s~|s), L the
    information density log2 P(s~|s) / P(s~) on the support joint > 0, 0
    elsewhere.  Every information quantity of the package is a moment of L.

    The ratio form, not joint / (P_S P_S~): that product underflows for
    near-empty intervals (1e-200 * 1e-200 is 0), the ratio does not.
    """
    joint = probs[:, None] * mats
    marg = joint.sum(axis=-2, keepdims=True)
    nz = joint > 0
    lr = np.zeros_like(joint)
    np.divide(mats, marg, out=lr, where=nz)
    np.log2(lr, out=lr, where=nz)
    return joint, lr, nz


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
    rows = np.divide(j, px[:, None], out=np.zeros_like(j),
                     where=px[:, None] > 0)
    j, lr, _ = _log_ratios(rows, px)
    return max(float(np.sum(j * lr)), 0.0)
