"""Monte-Carlo oracle for the enrollment/reconstruction pipeline.

Samples the full per-cell process - enrollment measurement, zero-leakage
helper data, noisy reconstruction, MAP decision, attacker observation -
with a counter-based RNG so that a fixed seed reproduces reports
bit-exactly.  The MAP decision here is an argmax of the log-posteriors
over levels, an implementation of the merged output quantizer that never
calls its decision borders, and therefore usable as an oracle for it.  The
argmax is scored on a window of _WINDOW levels around the interval that
holds the noisy reading and certified per sample; a sample whose
certificate fails is scored on all N levels, so every sample is the full
argmax's to the bit.  With no noise (sigma_N = 0) the decision is S.

Each 65,536-sample chunk, from its Philox draw to its tally or its slice
of the `decisions` arrays, is one job of the block pool (`_blocks`);
counts are added under a lock and per-level pieces joined in chunk order,
so every output is the same on any threads.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
from scipy import special

from . import _blocks, quantizer
from .stats import DomainError, PufModel
from .quantizer import InputQuantizer, _helper_values
from .channel import AttackerSpec
from .info import mutual_information

# Samples per chunk, one pool job in every sim pass.  Small enough that a
# chunk's (size, N) temporaries are reused from the allocator's heap instead
# of being mapped and faulted in afresh (1M-sample chunks are 128 MB at
# N = 16); the Philox per-sample layout makes every result independent of it.
_CHUNK = 65_536
# Levels in the MAP step's window around the interval that holds y.
_WINDOW = 5
# Bins of the helper value in the W histograms and in the W-stratified
# plug-in I(S;S~|W).
_W_BINS = 64


@dataclasses.dataclass(frozen=True)
class SimConfig:
    model: PufModel
    quantizer: InputQuantizer
    samples: int
    seed: int
    attacker: AttackerSpec | None = None

    def __post_init__(self):
        for name, low in (("samples", 1), ("seed", 0)):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                    or v < low):
                raise DomainError(
                    f"{name} must be an integer >= {low}, got {v!r}")
        if self.quantizer.model != self.model:
            raise DomainError("the quantizer was built for another PufModel")


@dataclasses.dataclass(frozen=True)
class SimReport:
    config_summary: dict
    counts: np.ndarray            # (N, N) joint counts of (S, S~)
    matrix: np.ndarray            # empirical P(S~|S)
    matrix_se: np.ndarray         # per-entry standard errors
    error_rate: float
    w_histograms: np.ndarray      # (N, _W_BINS) counts of W given S
    mi_plugin: float              # plug-in I(S;S~) estimate, bits
    mi_conditional: float         # W-stratified plug-in I(S;S~|W)

    def to_json(self) -> str:
        return json.dumps({
            "config": self.config_summary,
            "counts": self.counts.tolist(),
            "matrix": self.matrix.tolist(),
            "matrix_se": self.matrix_se.tolist(),
            "error_rate": self.error_rate,
            "w_histograms": self.w_histograms.tolist(),
            "mi_plugin": self.mi_plugin,
            "mi_conditional": self.mi_conditional,
        }, sort_keys=True)


WORDS_PER_SAMPLE = 4     # enrollment, noise, attacker erasure, one spare


def _uniforms(seed, start, size):
    """Per-sample counter-based randomness: sample i always owns one full
    Philox counter block (4 64-bit words), so chunked, restarted, or
    parallel runs see identical variates.  Philox.advance() moves the
    counter in whole blocks, which is why the slot is 4 words wide."""
    bg = np.random.Philox(seed)
    bg.advance(start)
    u = np.random.Generator(bg).random((size, WORDS_PER_SAMPLE))
    # keep inverse-CDF transforms finite (random() can return exactly 0)
    return np.clip(u, 1e-17, None)


def _chunks(samples):
    """(start, size) of each _CHUNK slice of the samples, one pool job each."""
    return [(k, min(_CHUNK, samples - k)) for k in range(0, samples, _CHUNK)]


def _simulate_chunk(cfg: SimConfig, start, size):
    """One batch of (s, w, s_tilde, u_attack) samples, fully vectorized: one
    pool job, so the MAP step walks its row blocks in a plain loop (a job
    never waits on the pool), each writing its own slice of s_tilde.

    The MAP estimate argmax_t ln p_t - (y - x_t(w))^2 / (2 sigma_n^2) is
    taken over a window of _WINDOW levels (all N when N is smaller) around
    the interval r that holds y.  It is the full row's argmax when every
    level outside the window provably scores below the window's best: the
    sibling points increase in t and rounding is monotone, so level t < lo
    scores at most max_{t<lo} ln p_t - (y - x_lo)^2 / (2 sigma_n^2) where
    x_lo <= y, and likewise above the window.  Rows that fail this
    certificate take the full row (DECISIONS.md, "Windowed MAP step in the
    Monte-Carlo oracle").
    """
    q = cfg.quantizer
    model = cfg.model
    n = q.levels
    u = _uniforms(cfg.seed, start, size)
    x = model.sigma_p * special.ndtri(u[:, 0])
    s, w = _helper_values(q, x)
    if model.sigma_n == 0:
        # noiseless: y = x is level s's own sibling point, so S~ = S
        return s, w, s.copy(), u[:, 2]
    s_tilde = np.empty(size, dtype=np.intp)

    logp = np.log(q.probs)
    c = 2.0 * model.sigma_n ** 2
    width = min(_WINDOW, n)
    offsets = np.arange(width)
    # best ln p below level lo (index lo) and from level hi + 1 on (index
    # hi + 1); -inf where no level is left
    below = np.concatenate(([-np.inf], np.maximum.accumulate(logp)))
    above = np.concatenate(
        (np.maximum.accumulate(logp[::-1])[::-1], [-np.inf]))

    def full_row(wb, y):
        xs = quantizer._sibling_rows(q, wb, slice(None))
        return np.argmax(logp - (y[:, None] - xs) ** 2 / c, axis=1)

    def job(blk):
        y = x[blk] + model.sigma_n * special.ndtri(u[blk, 1])
        wb = w[blk]
        r = np.searchsorted(q.inner_borders, y, side="right")
        lo = np.clip(r - width // 2, 0, n - width)
        hi = lo + (width - 1)
        levels = lo[:, None] + offsets
        xs = quantizer._sibling_rows(q, wb, levels)
        dist = (y[:, None] - xs) ** 2 / c
        log_post = logp[levels] - dist
        pick = np.argmax(log_post, axis=1)
        best = log_post[np.arange(len(y)), pick]
        low_ok = (lo == 0) | ((xs[:, 0] <= y)
                              & (below[lo] - dist[:, 0] < best))
        high_ok = (hi == n - 1) | ((y <= xs[:, -1])
                                   & (above[hi + 1] - dist[:, -1] < best))
        full = ~(low_ok & high_ok)
        out = lo + pick
        if full.any():
            out[full] = full_row(wb[full], y[full])
        s_tilde[blk] = out

    # sized as 4 entries per window level: blocks of 3,276 samples keep the
    # (rows, 5) temporaries in cache (2 vCPU, N = 16: 10 to 40 entries per
    # sample timed alike, 80 and more slower)
    for blk in _blocks._row_blocks(size, _WINDOW * 4):
        job(blk)
    return s, w, s_tilde, u[:, 2]


def _tally(counts: np.ndarray, lock, *index) -> None:
    """counts[index] += 1 per sample, repeats included: one bincount over
    the flattened index (1.6x faster than np.add.at at 1M samples), taken
    under the lock of the chunk jobs sharing `counts`, so that one dense
    temporary of counts.size entries is alive at a time."""
    flat = np.ravel_multi_index(index, counts.shape)
    with lock:
        counts += np.bincount(flat, minlength=counts.size).reshape(
            counts.shape)


def run_simulation(cfg: SimConfig) -> SimReport:
    """End-to-end Monte-Carlo run; deterministic for a fixed seed."""
    q = cfg.quantizer
    n = q.levels
    # one tally of (W bin, S, S~); the (S, S~) counts and the W histograms
    # are its integer sums
    cond_counts = np.zeros((_W_BINS, n, n), dtype=np.int64)
    lock = threading.Lock()

    def job(chunk):
        s, w, s_tilde, _ = _simulate_chunk(cfg, *chunk)
        wb = np.minimum((w * _W_BINS).astype(np.int64), _W_BINS - 1)
        _tally(cond_counts, lock, wb, s, s_tilde)

    _blocks._run_blocks(job, _chunks(cfg.samples))
    counts = cond_counts.sum(axis=0)
    w_hist = cond_counts.sum(axis=2).T
    row = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = np.where(row > 0, counts / row, 0.0)
        se = np.where(row > 0, np.sqrt(matrix * (1.0 - matrix) / row), 0.0)
    error_rate = 1.0 - counts.trace() / cfg.samples
    total = cfg.samples
    mi = mutual_information(counts / total)
    mi_cond = sum((c.sum() / total) * mutual_information(c / c.sum())
                  for c in cond_counts if c.sum() > 0)
    summary = {
        "sigma_p": cfg.model.sigma_p, "sigma_n": cfg.model.sigma_n,
        "levels": n, "samples": cfg.samples, "seed": cfg.seed,
        "quantizer": q.to_dict(),
        "attacker": dataclasses.asdict(cfg.attacker) if cfg.attacker else None,
    }
    return SimReport(summary, counts, matrix, se, float(error_rate),
                     w_hist, mi, float(mi_cond))


def decisions(cfg: SimConfig, rows: int):
    """(s, w, s_tilde) of the first `rows` samples, each as run_simulation
    draws it: one pool job per chunk, each filling its own slice."""
    s = np.empty(rows, dtype=np.intp)
    w = np.empty(rows)
    s_tilde = np.empty(rows, dtype=np.intp)

    def job(chunk):
        blk = slice(chunk[0], sum(chunk))
        s[blk], w[blk], s_tilde[blk], _ = _simulate_chunk(cfg, *chunk)

    _blocks._run_blocks(job, _chunks(rows))
    return s, w, s_tilde


def leakage_test(cfg: SimConfig, *, helper: str = "zero-leakage") -> dict:
    """Per-level KS tests of W | S=s against Uniform[0,1).

    helper="zero-leakage" uses the interval-mass helper value (should be
    uniform); helper="center-distance" is the classical leaky scheme
    (linear position within the interval), the negative control that must
    fail for non-equiprobable quantizers.

    The statistic is the two-sided D = max(D+, D-) of the sorted sample;
    the p-value is Kolmogorov's limit law P(K > D sqrt(n)), not the exact
    finite-n law (DECISIONS.md, "Asymptotic Kolmogorov p-values in the
    leakage test").  A level with fewer than 100 samples is not tested.
    """
    if helper not in ("zero-leakage", "center-distance"):
        raise DomainError(f"unknown helper scheme {helper!r}")
    q = cfg.quantizer
    chunks = _chunks(cfg.samples)
    pieces = [None] * len(chunks)   # per chunk, its W | S = t for every t

    def job(chunk):
        u = _uniforms(cfg.seed, *chunk)
        x = cfg.model.sigma_p * special.ndtri(u[:, 0])
        if helper == "zero-leakage":
            s, w = _helper_values(q, x)
        else:
            # linear position within the (finite part of the) interval
            s = np.searchsorted(q.inner_borders, x, side="right")
            lo = np.where(np.isfinite(q.borders[s]), q.borders[s],
                          q.borders[1] - 3 * cfg.model.sigma_p)
            hi = np.where(np.isfinite(q.borders[s + 1]), q.borders[s + 1],
                          q.borders[-2] + 3 * cfg.model.sigma_p)
            w = np.clip((x - lo) / (hi - lo), 0.0, np.nextafter(1.0, 0.0))
        pieces[chunk[0] // _CHUNK] = [w[s == t] for t in range(q.levels)]

    _blocks._run_blocks(job, chunks)
    out, tested, d, sizes = {}, [], [], []
    for t in range(q.levels):
        v = np.sort(np.concatenate([p[t] for p in pieces]))
        n = v.size
        out[t] = {"statistic": None, "p_value": None, "samples": n,
                  "under_sampled": n < 100}
        if n >= 100:
            # scipy's ks_1samp expressions, so D is its statistic to the bit
            d.append(max((np.arange(1.0, n + 1) / n - v).max(),
                         (v - np.arange(0.0, n) / n).max()))
            tested.append(t)
            sizes.append(n)
    p = special.kolmogorov(np.array(d) * np.sqrt(sizes))
    for t, stat, pv in zip(tested, d, p.tolist()):
        out[t].update(statistic=float(stat), p_value=pv)
    return out


def attacker_observations(cfg: SimConfig) -> dict:
    """Empirical joint counts of (S, attacker view) for the configured
    attacker, sharing the legitimate pipeline's randomness layout."""
    if cfg.attacker is None:
        raise DomainError("config has no attacker")
    att = cfg.attacker
    n = cfg.quantizer.levels
    # (S, digital view) or (S, digital view, analog view); view n = erasure
    views = 1 if att.kind == "digital" else 2
    counts = np.zeros((n,) + (n + 1,) * views, dtype=np.int64)
    lock = threading.Lock()

    def job(chunk):
        s, w, s_tilde, u = _simulate_chunk(cfg, *chunk)
        index = [s, np.where(u < att.p_d, n, s_tilde)]
        if views == 2:
            index.append(np.where(u < att.p_a, n, s))
        _tally(counts, lock, *index)

    _blocks._run_blocks(job, _chunks(cfg.samples))
    return {"counts": counts, "attacker": att}
