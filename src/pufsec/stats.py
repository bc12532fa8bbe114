"""Scalar Gaussian primitives and 1-D quadrature.

Everything here is a pure function; the only state is a cache of
Gauss-Legendre node tables.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy import special


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclasses.dataclass(frozen=True)
class PufModel:
    """Gaussian source/noise model: enrollment X ~ N(0, sigma_p^2),
    reconstruction Y = X + N with N ~ N(0, sigma_n^2)."""

    sigma_p: float = 2241.0
    sigma_n: float = 129.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_p) and self.sigma_p > 0):
            raise DomainError(
                f"sigma_p must be finite and positive, got {self.sigma_p!r}")
        # sigma_n = 0 (noiseless reconstruction) is a legal degenerate case
        if not (math.isfinite(self.sigma_n) and self.sigma_n >= 0):
            raise DomainError(
                f"sigma_n must be finite and nonnegative, got {self.sigma_n!r}")


def q_inverse(p=None, *, log2_p=None):
    """Inverse of the Gaussian Q-function.

    Pass either ``p`` in (0,1) directly or ``log2_p`` = log2(p) so that
    cryptographic security levels (p = 2^-256) stay representable; log2_p
    and p < 1e-290 go through `ndtri_exp` (DECISIONS.md, "One inverse-Q
    path").
    """
    if (p is None) == (log2_p is None):
        raise DomainError("pass exactly one of p or log2_p")
    if p is not None:
        if not (0.0 < p < 1.0):
            raise DomainError(f"p must lie in (0,1), got {p!r}")
        if p >= 1e-290:
            return float(-special.ndtri(p))
        log_p = math.log(p)
    else:
        if not (math.isfinite(log2_p) and log2_p < 0.0):
            raise DomainError(f"log2_p must be finite and negative, got {log2_p!r}")
        log_p = log2_p * math.log(2.0)
    return float(-special.ndtri_exp(log_p))


@functools.lru_cache(maxsize=32)
def unit_interval_rule(nodes: int):
    """Gauss-Legendre nodes/weights mapped onto [0, 1]."""
    if nodes < 2:
        raise DomainError(f"need at least 2 quadrature nodes, got {nodes}")
    t, w = np.polynomial.legendre.leggauss(nodes)
    return (t + 1.0) / 2.0, w / 2.0

