"""Input quantizers, zero-leakage helper data, sibling points, and the
helper-data-dependent MAP decision borders with dominated-level merging.

Helper data for a point x in quantization interval A_t is the fraction of
the interval's probability mass to the left of x.  That makes W uniform on
[0,1) and independent of the secret level S.  Tail arithmetic is done on
whichever side of the distribution is numerically safe (CDF left of zero,
survival function right of zero) so that quantizers with borders deep in
the tails stay usable.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import special

from .stats import DomainError, PufModel


@dataclasses.dataclass(frozen=True, eq=False)
class InputQuantizer:
    """Partition of the real line into N intervals with per-interval mass.

    borders has length N+1 and starts/ends with -inf/+inf; cdf/sf hold
    F_X and 1-F_X evaluated at each border (kept separately for tail
    accuracy); probs has length N and sums to one.
    """

    model: PufModel
    borders: np.ndarray
    cdf: np.ndarray
    sf: np.ndarray
    probs: np.ndarray
    kind: str = "custom"
    step: float | None = None

    def __post_init__(self):
        b = self.borders
        if b[0] != -np.inf or b[-1] != np.inf:
            raise DomainError("outer borders must be -inf/+inf")
        if not np.all(np.diff(b) > 0):
            raise DomainError("borders must be strictly increasing")
        if np.any(self.probs <= 0.0):
            raise DomainError("every quantization interval needs positive mass")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise DomainError("interval probabilities must sum to 1")

    @property
    def levels(self) -> int:
        return len(self.probs)

    @property
    def inner_borders(self) -> np.ndarray:
        return self.borders[1:-1]

    @classmethod
    def from_borders(cls, model: PufModel, inner_borders, kind="custom", step=None):
        inner = np.sort(np.asarray(inner_borders, dtype=float))
        if inner.size and not np.all(np.isfinite(inner)):
            raise DomainError("inner borders must be finite")
        b = np.concatenate(([-np.inf], inner, [np.inf]))
        z = b / model.sigma_p
        cdf = special.ndtr(z)
        sf = special.ndtr(-z)
        probs = _interval_probs(b, cdf, sf)
        return cls(model, b, cdf, sf, probs, kind=kind, step=step)

    def to_dict(self) -> dict:
        d = {
            "type": self.kind,
            "levels": self.levels,
            "borders": [float(x) for x in self.inner_borders],
            "probs": [float(p) for p in self.probs],
            "sigma_p": self.model.sigma_p,
            "sigma_n": self.model.sigma_n,
        }
        if self.step is not None:
            d["step"] = float(self.step)
        return d


def _interval_probs(borders, cdf, sf):
    # Difference on whichever side keeps both endpoints small.
    return np.where(borders[:-1] >= 0, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])


def make_equiprobable(model: PufModel, levels: int) -> InputQuantizer:
    """N intervals of mass 1/N each; borders at Gaussian quantiles."""
    if levels < 2:
        raise DomainError(f"levels must be >= 2, got {levels}")
    u = np.arange(1, levels) / levels
    inner = model.sigma_p * special.ndtri(u)
    # ndtri(t/N) and ndtri(1 - t/N) need not be exact negatives (odd N);
    # this makes the borders exactly antisymmetric and leaves exact ones be
    inner = 0.5 * (inner - inner[::-1])
    q = InputQuantizer.from_borders(model, inner, kind="equiprobable")
    # Snap the stored CDF grid to the exact rationals t/N.
    cdf = np.concatenate(([0.0], u, [1.0]))
    sf = np.concatenate(([1.0], (levels - np.arange(1, levels)) / levels, [0.0]))
    probs = np.full(levels, 1.0 / levels)
    return InputQuantizer(model, q.borders, cdf, sf, probs, kind="equiprobable")


def make_equidistant(model: PufModel, levels: int, step: float) -> InputQuantizer:
    """N-1 finite borders spaced by `step`, centered symmetrically about 0.

    Even N puts a border at 0 (borders 0, +-step, ...); odd N uses
    +-step/2, +-3*step/2, ...
    """
    if levels < 2:
        raise DomainError(f"levels must be >= 2, got {levels}")
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"step must be positive, got {step!r}")
    k = np.arange(1, levels)
    inner = step * (k - levels / 2.0)
    try:
        return InputQuantizer.from_borders(model, inner, kind="equidistant", step=step)
    except DomainError as e:
        raise DomainError(
            f"step={step} with {levels} levels leaves empty tail intervals"
        ) from e


def _helper_values(q: InputQuantizer, x: np.ndarray):
    """Interval indices and zero-leakage helper values of the points x.

    The helper value is the fraction of the interval's mass left of x, taken
    on the numerically safe side of the distribution and clipped into
    [0, 1).  A point exactly on a border belongs to the upper interval.
    """
    t = np.searchsorted(q.inner_borders, x, side="right")
    # one ndtr call: -|z| is z on the lower side (Phi(z)) and -z on the
    # upper side (1 - Phi(z))
    p = special.ndtr(-np.abs(x / q.model.sigma_p))
    w = np.where(x <= 0, p - q.cdf[t], q.sf[t] - p) / q.probs[t]
    return t, np.clip(w, 0.0, np.nextafter(1.0, 0.0))


def sibling_points(q: InputQuantizer, w) -> np.ndarray:
    """g_t^{-1}(w) for every level t; w may be a scalar or an array
    (result shape (..., N)).  One call on all rows: a channel stack has at
    most 128 x 256 entries, half of one pool block (DECISIONS.md, "Parallel
    node blocks")."""
    w = np.asarray(w, dtype=float)
    x = _sibling_rows(q, w.reshape(-1), slice(None))
    return x.reshape(w.shape + (q.levels,))


def _sibling_rows(q: InputQuantizer, w: np.ndarray, levels) -> np.ndarray:
    """g_t^{-1}(w[i]) for the levels t of row i: `levels` is slice(None)
    for all N levels (result (len(w), N)) or an integer array of shape
    (len(w), k) (result (len(w), k)).  Every entry is the same to the bit
    whichever levels are asked for; a pool job calls this, not the public
    `sibling_points`."""
    wp = w[:, None] * q.probs[levels]
    u = q.cdf[:-1][levels] + wp        # mass from the left
    v = q.sf[:-1][levels] - wp         # mass from the right
    lower = u <= 0.5
    # the upper entries are -Phi^{-1}(v): one ndtri call, then a product
    # with -sigma_p there (negation is exact, so it may come first or last)
    x = special.ndtri(np.where(lower, u, np.clip(v, 0.0, 1.0)))
    x *= np.where(lower, q.model.sigma_p, -q.model.sigma_p)
    return x


def _decision_borders(q: InputQuantizer, x: np.ndarray,
                      sigma_n: float) -> np.ndarray:
    """MAP decision borders for sibling points x of shape (K, N).

    Returns b of shape (K, N+1): Y in [b_t, b_{t+1}) decides S~ = t, and a
    dominated level (one that never wins the MAP comparison) gets
    b_t == b_{t+1}.  Where the adjacent equal-posterior crossings increase
    they are the borders.  The other rows take the upper envelope of the
    log-posteriors, lines in y with increasing slopes x_t / sigma_n^2: a
    level is dominated when its crossing with the active level on its left
    is at or above its crossing with the active level on its right, and
    each pass drops every dominated level of every such row until none is
    left.  The lower border L_t of each level is then its crossing with
    the active level on its left, and since MAP regions are ordered in t,
    b_t is the suffix minimum of L.
    """
    probs = q.probs

    def crossing(lo, hi, p_lo, p_hi):
        # equal-posterior point of p_lo phi(y - lo) and p_hi phi(y - hi)
        return np.log(p_lo / p_hi) * sigma_n ** 2 / (hi - lo) + (lo + hi) / 2.0

    taus = crossing(x[:, :-1], x[:, 1:], probs[:-1], probs[1:])
    b = np.concatenate((np.full((len(x), 1), -np.inf), taus,
                        np.full((len(x), 1), np.inf)), axis=1)
    merged = ~np.all(np.diff(taus, axis=1) > 0, axis=1)
    if merged.any():
        xm = x[merged]
        n = xm.shape[1]
        levels = np.arange(n)
        # levels 0 and N-1 are never tested: the lines of least and of
        # greatest slope always reach the envelope
        active = np.ones(xm.shape, dtype=bool)
        while True:
            # left[:, t-1] is the active level below level t = 1..N-1, and
            # c[:, t-1] its crossing with t
            left = np.maximum.accumulate(
                np.where(active[:, :-1], levels[:-1], 0), axis=1)
            c = crossing(np.take_along_axis(xm, left, axis=1), xm[:, 1:],
                         probs[left], probs[1:])
            # the active level above t = 1..N-2; its left one is t itself,
            # so its entry of c is crossing(t, right)
            right = np.minimum.accumulate(
                np.where(active[:, :1:-1], levels[:1:-1], n - 1),
                axis=1)[:, ::-1]
            dominated = active[:, 1:-1] & (
                c[:, :-1] >= np.take_along_axis(c, right - 1, axis=1))
            if not dominated.any():
                break
            active[:, 1:-1] &= ~dominated
        lower = np.concatenate((np.full((len(xm), 1), -np.inf), c), axis=1)
        b[merged, :-1] = np.minimum.accumulate(lower[:, ::-1], axis=1)[:, ::-1]
    return b
