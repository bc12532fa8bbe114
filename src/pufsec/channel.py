"""Finite channel matrices for the legitimate reconstruction path and for
the digital / analog tamper attackers.

The legitimate channel P(S~ | S, W=w) follows from the helper-data-shifted
output quantizer and the Gaussian reconstruction noise.  Attacker channels
are erasure extensions of it: the digital attacker sees S~ through an
erasure channel with probability p_d, the analog attacker additionally
reads the exact secret on cells that survive a larger erasure fraction p_a.
"""

from __future__ import annotations

import dataclasses
import io

import numpy as np
from scipy import special

from . import _blocks
from .stats import DomainError, PufModel, unit_interval_rule
from .quantizer import (InputQuantizer, _decision_borders, output_quantizer,
                        sibling_points)

ERASURE = "E"

# scipy's ndtr returns exactly 1.0 from z = 8.29237 up and exactly 0.0 from
# z = -37.677 down, so outside [_PHI_ZERO, _PHI_ONE] it is not evaluated and
# the result is the same to the bit (tests/test_channel.py pins both edges).
_PHI_ONE = 8.3
_PHI_ZERO = -38.0


@dataclasses.dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Row-stochastic matrix P(output | input) over finite alphabets."""

    p: np.ndarray
    input_labels: tuple
    output_labels: tuple
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
        if m.shape != (len(self.input_labels), len(self.output_labels)):
            raise DomainError("label lengths do not match matrix shape")

    @property
    def inputs(self) -> int:
        return self.p.shape[0]

    @property
    def outputs(self) -> int:
        return self.p.shape[1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("input," + ",".join(str(o) for o in self.output_labels) + "\n")
        for lab, row in zip(self.input_labels, self.p):
            buf.write(str(lab) + "," + ",".join(repr(v) for v in row) + "\n")
        return buf.getvalue()


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


def channel_given_w(q: InputQuantizer, w: float,
                    model: PufModel | None = None) -> ChannelMatrix:
    """P(S~ = label | S = t, W = w) over the merged output alphabet."""
    model = model or q.model
    oq = output_quantizer(q, w, model)
    p = per_w_channels(q, [w], model)[0][:, list(oq.labels)]
    return ChannelMatrix(p, tuple(range(q.levels)), oq.labels,
                         metadata={"helper_w": float(w)})


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
    point is -inf (S = 0 at w = 0) gets a NaN row.  On a mirror-symmetric
    quantizer and node set (`_mirror_half`) only the leading half of the
    nodes is evaluated; the other half is its mirror image.
    """
    model = model or q.model
    if model.sigma_n <= 0:
        raise DomainError("channel matrices need sigma_n > 0")
    ws = np.asarray(ws, dtype=float)
    k = len(ws)
    half = _mirror_half(q, ws)
    x = sibling_points(q, ws[:half])                        # (half, N)
    # one call for all nodes, on this thread: on merged rows the kernel
    # loops over the levels in Python, which neither splits into blocks
    # nor gains from a second thread
    b = _decision_borders(q, x, model.sigma_n)              # (half, N+1)
    n = x.shape[1]
    out = np.empty((k, n, n))

    def job(blk):
        # at w = 0 the -inf sibling point meets the -inf border: the NaN
        # that inf - inf gives is the documented NaN row, not a fault
        with np.errstate(invalid="ignore"):
            z = (b[blk, None, :] - x[blk, :, None]) / model.sigma_n
            one = z >= _PHI_ONE
            band = ~(one | (z <= _PHI_ZERO))     # NaN stays in the band
            f = one.astype(float)
            # boolean indexing, not ndtr(z, out=f, where=band): on scipy
            # 1.17.1 that call crashed the interpreter (segfault) at these
            # shapes
            f[band] = special.ndtr(z[band])
            np.subtract(f[:, :, 1:], f[:, :, :-1], out=out[blk])
        # the mirror images of this block's nodes, k-1-j for j < k - half,
        # written while the block is still in cache
        stop = min(blk.stop, k - half)
        if stop > blk.start:
            out[k - stop:k - blk.start] = out[blk.start:stop][::-1, ::-1, ::-1]

    _blocks._run_blocks(job, _blocks._row_blocks(half, n * (n + 1)))
    return out


def averaged_channel(q: InputQuantizer, model: PufModel | None = None,
                     nodes: int = 128) -> ChannelMatrix:
    """W-averaged channel P(S~|S) on the full label set, by Gauss-Legendre
    quadrature over the uniform helper value."""
    model = model or q.model
    if nodes < 16:
        raise DomainError(f"nodes must be >= 16, got {nodes}")

    def estimate(k):
        xs, wts = unit_interval_rule(k)
        mats = per_w_channels(q, xs, model)
        return np.tensordot(wts, mats, axes=1)

    p = estimate(nodes)
    delta = float(np.max(np.abs(estimate(2 * nodes) - p)))
    meta = {"nodes": nodes, "refinement_delta": delta,
            "quadrature_warning": delta > 1e-6}
    labels = tuple(range(q.levels))
    return ChannelMatrix(p, labels, labels, metadata=meta)


def digital_extension(base: ChannelMatrix, p_d: float) -> ChannelMatrix:
    """Pass the channel output through an erasure channel EC(p_d)."""
    AttackerSpec("digital", p_d=p_d)
    p = np.hstack([(1.0 - p_d) * base.p,
                   np.full((base.inputs, 1), p_d)])
    return ChannelMatrix(p, base.input_labels, base.output_labels + (ERASURE,),
                         metadata={"p_d": p_d})


def analog_extension(base: ChannelMatrix, q: InputQuantizer,
                     p_d: float, p_a: float) -> ChannelMatrix:
    """Joint attacker channel S -> (S~_d, S~_a).

    Outcomes per cell: both erased with probability p_d; digital value seen
    but analog erased with probability (p_a - p_d); otherwise the analog
    reading recovers the enrolled secret exactly.
    """
    AttackerSpec("analog", p_d=p_d, p_a=p_a)
    if base.inputs != q.levels:
        raise DomainError("channel inputs do not match quantizer levels")
    n = base.inputs
    m = base.outputs
    digital_syms = list(base.output_labels) + [ERASURE]
    analog_syms = list(base.input_labels) + [ERASURE]
    out_labels = tuple((d, a) for d in digital_syms for a in analog_syms)
    p = np.zeros((n, (m + 1) * (n + 1)))

    def col(d_idx, a_idx):
        return d_idx * (n + 1) + a_idx

    for s in range(n):
        p[s, col(m, n)] = p_d                                  # (E, E)
        for j in range(m):
            p[s, col(j, n)] = (p_a - p_d) * base.p[s, j]       # (s~, E)
            p[s, col(j, s)] = (1.0 - p_a) * base.p[s, j]       # (s~, s)
    return ChannelMatrix(p, base.input_labels, out_labels,
                         metadata={"p_d": p_d, "p_a": p_a})
