"""Input quantizers, zero-leakage helper data, and helper-data-dependent
output quantizers with dominated-level merging.

Helper data for a point x in quantization interval A_t is the fraction of
the interval's probability mass to the left of x.  That makes W uniform on
[0,1) and independent of the secret level S.  Tail arithmetic is done on
whichever side of the distribution is numerically safe (CDF left of zero,
survival function right of zero) so that quantizers with borders deep in
the tails stay usable.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
from scipy import special

from . import _blocks
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict, model: PufModel | None = None):
        if model is None:
            model = PufModel(d["sigma_p"], d["sigma_n"])
        return cls.from_borders(model, d["borders"], kind=d.get("type", "custom"),
                                step=d.get("step"))

    @classmethod
    def from_json(cls, s: str, model: PufModel | None = None):
        return cls.from_dict(json.loads(s), model=model)


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


def helper_values(q: InputQuantizer, x: np.ndarray):
    """Interval indices and zero-leakage helper values of the points x.

    The helper value is the fraction of the interval's mass left of x, taken
    on the numerically safe side of the distribution and clipped into
    [0, 1).  A point exactly on a border belongs to the upper interval.
    """
    t = np.searchsorted(q.inner_borders, x, side="right")
    z = x / q.model.sigma_p
    w = np.where(x <= 0,
                 (special.ndtr(z) - q.cdf[t]) / q.probs[t],
                 (q.sf[t] - special.ndtr(-z)) / q.probs[t])
    return t, np.clip(w, 0.0, np.nextafter(1.0, 0.0))


def helper_data(q: InputQuantizer, x: float):
    """Quantize x and compute its zero-leakage helper value.

    Returns (t, w) with t the interval index and w in [0,1) the fraction
    of interval mass left of x.  A point exactly on a border belongs to
    the upper interval (w = 0 there).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    t, w = helper_values(q, np.float64(x))
    return int(t), float(w)


def sibling_points(q: InputQuantizer, w) -> np.ndarray:
    """g_t^{-1}(w) for every level t; w may be a scalar or an array
    (result shape (..., N)).  The rows run in blocks (`_blocks`), each
    written into its own slice of the output."""
    w = np.asarray(w, dtype=float)
    flat = w.reshape(-1)
    out = np.empty((flat.size, q.levels))

    def job(blk):
        wb = flat[blk]
        u = q.cdf[:-1] + np.multiply.outer(wb, q.probs)   # mass from the left
        v = q.sf[:-1] - np.multiply.outer(wb, q.probs)    # mass from the right
        lower = u <= 0.5
        # the upper entries are -Phi^{-1}(v): one ndtri call, then negate them
        x = special.ndtri(np.where(lower, u, np.clip(v, 0.0, 1.0)),
                          out=out[blk])
        np.negative(x, out=x, where=~lower)
        x *= q.model.sigma_p

    _blocks._run_blocks(job, _blocks._row_blocks(flat.size, q.levels))
    return out.reshape(w.shape + (q.levels,))


@dataclasses.dataclass(frozen=True, eq=False)
class OutputQuantizer:
    """Decision intervals on the reconstruction axis for one helper value.

    labels is the strictly increasing subsequence of input levels that
    survive merging; borders has length len(labels)+1 with +-inf ends.
    """

    borders: np.ndarray
    labels: tuple
    helper_w: float

    @property
    def inner_borders(self) -> np.ndarray:
        return self.borders[1:-1]


def _decision_borders(q: InputQuantizer, x: np.ndarray,
                      sigma_n: float) -> np.ndarray:
    """MAP decision borders for sibling points x of shape (K, N).

    Returns b of shape (K, N+1): Y in [b_t, b_{t+1}) decides S~ = t, and a
    dominated level (one that never wins the MAP comparison) gets
    b_t == b_{t+1}.  Where the adjacent equal-posterior crossings increase
    they are the borders.  On the other rows the lower border of level t
    is L_t = max over j < t of crossing(j, t), and since MAP regions are
    ordered in t, b_t is the suffix minimum of L.
    """
    def crossings(x, d):
        # crossing(t - d, t) of p_{t-d} phi(y - x_{t-d}) and p_t phi(y - x_t)
        lo, hi = x[:, :-d], x[:, d:]
        return (np.log(q.probs[:-d] / q.probs[d:]) * sigma_n ** 2 / (hi - lo)
                + (lo + hi) / 2.0)

    taus = crossings(x, 1)
    b = np.concatenate((np.full((len(x), 1), -np.inf), taus,
                        np.full((len(x), 1), np.inf)), axis=1)
    merged = ~np.all(np.diff(taus, axis=1) > 0, axis=1)
    if merged.any():
        xm = x[merged]
        lower = np.full(xm.shape, -np.inf)
        for d in range(1, xm.shape[1]):
            lower[:, d:] = np.maximum(lower[:, d:], crossings(xm, d))
        b[merged, :-1] = np.minimum.accumulate(lower[:, ::-1], axis=1)[:, ::-1]
    return b


def output_quantizer(q: InputQuantizer, w: float,
                     model: PufModel | None = None) -> OutputQuantizer:
    """MAP decision intervals for reconstructing S from Y given W = w.

    The labels are the levels with a non-empty decision interval.  At
    w = 0 the left tail's sibling point is -inf, so level 0 never wins.
    """
    model = model or q.model
    if not 0.0 <= w < 1.0:
        raise DomainError(f"helper value must lie in [0,1), got {w!r}")
    b = _decision_borders(q, sibling_points(q, [w]), model.sigma_n)[0]
    with np.errstate(invalid="ignore"):     # -inf - -inf at w = 0 is NaN
        labels = np.nonzero(np.diff(b) > 0)[0]
    full = np.concatenate(([-np.inf], b[labels[1:]], [np.inf]))
    return OutputQuantizer(full, tuple(int(t) for t in labels), float(w))


def reconstruct(oq: OutputQuantizer, y: float) -> int:
    """Label of the decision interval containing y (border goes up)."""
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    return oq.labels[int(np.searchsorted(oq.inner_borders, y, side="right"))]
