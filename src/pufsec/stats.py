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

LN2 = math.log(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def q_function(x):
    """Gaussian tail integral Q(x) = P(N(0,1) > x)."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise DomainError("non-finite argument to q_function")
    out = special.ndtr(-x)
    return float(out) if out.ndim == 0 else out


def log_q_function(x):
    """Natural log of Q(x); usable far beyond double-precision underflow."""
    x = np.asarray(x, dtype=float)
    out = special.log_ndtr(-x)
    return float(out) if out.ndim == 0 else out


def _log_std_pdf(x):
    return -0.5 * x * x - math.log(SQRT_2PI)


def q_inverse(p=None, *, log2_p=None):
    """Inverse of the Gaussian Q-function.

    Pass either ``p`` in (0,1) directly or ``log2_p`` = log2(p) so that
    cryptographic security levels (p = 2^-256) stay representable.
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
        log_p = log2_p * LN2
        if log_p > math.log(1e-290):
            return float(-special.ndtri(math.exp(log_p)))

    # Deep tail: Newton on ln Q(x) = log_p, seeded from Q(x) ~ phi(x)/x.
    t = -2.0 * log_p
    x = math.sqrt(max(t - math.log(2.0 * math.pi * t), 1.0))
    for _ in range(60):
        f = log_q_function(x) - log_p
        fp = -math.exp(_log_std_pdf(x) - log_q_function(x))
        step = f / fp
        x -= step
        if abs(step) < 1e-13 * abs(x):
            break
    return x


@functools.lru_cache(maxsize=32)
def unit_interval_rule(nodes: int):
    """Gauss-Legendre nodes/weights mapped onto [0, 1]."""
    if nodes < 2:
        raise DomainError(f"need at least 2 quadrature nodes, got {nodes}")
    t, w = np.polynomial.legendre.leggauss(nodes)
    return (t + 1.0) / 2.0, w / 2.0

