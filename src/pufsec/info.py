"""Discrete information measures: entropy and mutual information.

All logarithms are base 2; every quantity below is in bits.  The zero-mass
convention 0*log(0) = 0 applies throughout.
"""

from __future__ import annotations

import numpy as np

from .stats import DomainError


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
