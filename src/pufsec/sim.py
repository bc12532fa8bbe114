"""Monte-Carlo oracle for the enrollment/reconstruction pipeline.

Samples the full per-cell process - enrollment measurement, zero-leakage
helper data, noisy reconstruction, MAP decision, attacker observation -
with a counter-based RNG so that a fixed seed reproduces reports
bit-exactly.  The MAP decision here is an argmax over levels, which is an
independent implementation of the merged output quantizer and therefore
usable as an oracle for it.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
from scipy import special, stats as scistats

from . import _blocks
from .stats import DomainError, PufModel
from .quantizer import InputQuantizer, helper_values, sibling_points
from .channel import AttackerSpec

# Samples per chunk.  Small enough that a chunk's (size, N) temporaries are
# reused from the allocator's heap instead of being mapped and faulted in
# afresh (1M-sample chunks are 128 MB at N = 16); the Philox per-sample
# layout makes every result independent of it.
_CHUNK = 65_536


@dataclasses.dataclass(frozen=True)
class SimConfig:
    model: PufModel
    quantizer: InputQuantizer
    samples: int
    seed: int
    attacker: AttackerSpec | None = None
    w_bins: int = 64

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if self.w_bins < 2:
            raise DomainError(f"w_bins must be >= 2, got {self.w_bins}")
        if self.quantizer.model != self.model:
            raise DomainError("the quantizer was built for another PufModel")


@dataclasses.dataclass(frozen=True)
class SimReport:
    config_summary: dict
    counts: np.ndarray            # (N, N) joint counts of (S, S~)
    matrix: np.ndarray            # empirical P(S~|S)
    matrix_se: np.ndarray         # per-entry standard errors
    error_rate: float
    w_histograms: np.ndarray      # (N, w_bins) counts of W given S
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


def _plugin_mi(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    j = counts / total
    px = j.sum(axis=1, keepdims=True)
    py = j.sum(axis=0, keepdims=True)
    nz = j > 0
    return float((j[nz] * np.log2(j[nz] / (px * py)[nz])).sum())


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


def _simulate_chunk(cfg: SimConfig, start, size):
    """One batch of (s, w, s_tilde, u_attack) samples, fully vectorized.
    The MAP step runs in row blocks (`_blocks`), each writing its own slice
    of s_tilde."""
    q = cfg.quantizer
    model = cfg.model
    u = _uniforms(cfg.seed, start, size)
    x = model.sigma_p * special.ndtri(u[:, 0])
    s, w = helper_values(q, x)
    centers = sibling_points(q, w)                       # (size, N)
    s_tilde = np.empty(size, dtype=np.intp)

    def job(blk):
        if model.sigma_n == 0:
            # noiseless limit of the MAP rule: nearest sibling point
            s_tilde[blk] = np.argmin(np.abs(x[blk, None] - centers[blk]),
                                     axis=1)
            return
        y = x[blk] + model.sigma_n * special.ndtri(u[blk, 1])
        # MAP estimate: argmax_t ln p_t - (y - x_t(w))^2 / (2 sigma_n^2)
        log_post = (np.log(q.probs)[None, :]
                    - (y[:, None] - centers[blk]) ** 2
                    / (2.0 * model.sigma_n ** 2))
        s_tilde[blk] = np.argmax(log_post, axis=1)

    _blocks._run_blocks(job, _blocks._row_blocks(size, q.levels))
    return s, w, s_tilde, u[:, 2]


def _tally(counts: np.ndarray, *index) -> None:
    """counts[index] += 1 per sample, repeats included: one bincount over
    the flattened index (1.6x faster than np.add.at at 1M samples)."""
    flat = np.ravel_multi_index(index, counts.shape)
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)


def run_simulation(cfg: SimConfig) -> SimReport:
    """End-to-end Monte-Carlo run; deterministic for a fixed seed."""
    q = cfg.quantizer
    n = q.levels
    counts = np.zeros((n, n), dtype=np.int64)
    w_hist = np.zeros((n, cfg.w_bins), dtype=np.int64)
    cond_counts = np.zeros((cfg.w_bins, n, n), dtype=np.int64)
    done = 0
    while done < cfg.samples:
        size = min(_CHUNK, cfg.samples - done)
        s, w, s_tilde, _ = _simulate_chunk(cfg, done, size)
        _tally(counts, s, s_tilde)
        wb = np.minimum((w * cfg.w_bins).astype(np.int64), cfg.w_bins - 1)
        _tally(w_hist, s, wb)
        _tally(cond_counts, wb, s, s_tilde)
        done += size
    row = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = np.where(row > 0, counts / row, 0.0)
        se = np.where(row > 0, np.sqrt(matrix * (1.0 - matrix) / row), 0.0)
    error_rate = 1.0 - counts.trace() / cfg.samples
    mi = _plugin_mi(counts)
    total = cfg.samples
    mi_cond = sum((cond_counts[b].sum() / total) * _plugin_mi(cond_counts[b])
                  for b in range(cfg.w_bins) if cond_counts[b].sum() > 0)
    summary = {
        "sigma_p": cfg.model.sigma_p, "sigma_n": cfg.model.sigma_n,
        "levels": n, "samples": cfg.samples, "seed": cfg.seed,
        "quantizer": q.to_dict(),
        "attacker": dataclasses.asdict(cfg.attacker) if cfg.attacker else None,
    }
    return SimReport(summary, counts, matrix, se, float(error_rate),
                     w_hist, mi, float(mi_cond))


def leakage_test(cfg: SimConfig, *, helper: str = "zero-leakage") -> dict:
    """Per-level KS tests of W | S=s against Uniform[0,1).

    helper="zero-leakage" uses the interval-mass helper value (should be
    uniform); helper="center-distance" is the classical leaky scheme
    (linear position within the interval), the negative control that must
    fail for non-equiprobable quantizers.
    """
    if helper not in ("zero-leakage", "center-distance"):
        raise DomainError(f"unknown helper scheme {helper!r}")
    q = cfg.quantizer
    per_level: dict[int, list] = {t: [] for t in range(q.levels)}
    done = 0
    while done < cfg.samples:
        size = min(_CHUNK, cfg.samples - done)
        u = _uniforms(cfg.seed, done, size)
        x = cfg.model.sigma_p * special.ndtri(u[:, 0])
        if helper == "zero-leakage":
            s, w = helper_values(q, x)
        else:
            # linear position within the (finite part of the) interval
            s = np.searchsorted(q.inner_borders, x, side="right")
            lo = np.where(np.isfinite(q.borders[s]), q.borders[s],
                          q.borders[1] - 3 * cfg.model.sigma_p)
            hi = np.where(np.isfinite(q.borders[s + 1]), q.borders[s + 1],
                          q.borders[-2] + 3 * cfg.model.sigma_p)
            w = np.clip((x - lo) / (hi - lo), 0.0, np.nextafter(1.0, 0.0))
        for t in range(q.levels):
            per_level[t].append(w[s == t])
        done += size
    out = {}
    for t in range(q.levels):
        ws = np.concatenate(per_level[t]) if per_level[t] else np.array([])
        if ws.size < 100:
            out[t] = {"statistic": None, "p_value": None,
                      "samples": int(ws.size), "under_sampled": True}
            continue
        res = scistats.kstest(ws, "uniform")
        out[t] = {"statistic": float(res.statistic),
                  "p_value": float(res.pvalue),
                  "samples": int(ws.size), "under_sampled": False}
    return out


def attacker_observations(cfg: SimConfig) -> dict:
    """Empirical joint counts of (S, attacker view) for the configured
    attacker, sharing the legitimate pipeline's randomness layout."""
    if cfg.attacker is None:
        raise DomainError("config has no attacker")
    att = cfg.attacker
    q = cfg.quantizer
    n = q.levels
    if att.kind == "digital":
        counts = np.zeros((n, n + 1), dtype=np.int64)   # last col = erasure
    else:
        counts = np.zeros((n, n + 1, n + 1), dtype=np.int64)
    done = 0
    while done < cfg.samples:
        size = min(_CHUNK, cfg.samples - done)
        s, w, s_tilde, u = _simulate_chunk(cfg, done, size)
        if att.kind == "digital":
            obs = np.where(u < att.p_d, n, s_tilde)
            _tally(counts, s, obs)
        else:
            dig_obs = np.where(u < att.p_d, n, s_tilde)
            ana_obs = np.where(u < att.p_a, n, s)
            _tally(counts, s, dig_obs, ana_obs)
        done += size
    return {"counts": counts, "attacker": att}
