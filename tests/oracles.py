"""Enumeration oracles: the independent second route for every closed-form
dispersion in pufsec.bounds, and the plain forms of the package's kernels.

Each dispersion oracle loops over the alphabet and evaluates the defining
variance of an information density directly, so it shares no arithmetic
with the closed forms built from a ChannelSummary's second moments.  The
pmf builders construct the attacker-extended sources explicitly; the
package builds no attacker channel, so these are the only ones.

The merge oracle is the scalar pop-stack construction of the MAP output
quantizer, the second route for the vectorized decision borders in
pufsec.quantizer, and the loop oracle the level-by-level form those borders
must match to the bit; `decision_intervals` reads the package's own
intervals off those borders for one helper value, for the merge oracle and
the brute-force MAP rule to check.

The dense kernels are the band-free, unblocked, unfolded forms of the
channel stack and of I(S;S~|W=w); the package's kernels match them to the
bit, and the reductions `channel._rule` folds onto a mirror half match
theirs to rounding.  The two-call sibling points and helper values are the
forms the one-call kernels must match to the bit; the scalar sibling point
reads one level of the sibling-point kernel, with its arguments checked,
for the helper-data round trips.  The knot quantizer is the plain
knot-to-border map, without the mirror symmetry the optimizer imposes on
its candidates.  The full-row sample chunk takes the Monte-Carlo MAP argmax
over all N sibling points, the form the windowed MAP step must match to
the bit.

The cell scan tests every n up to the cap, the second route for the
closed-form start and integer steps of `min_cells`.  The unquantized rate
is the data-processing ceiling p_d I(X;Y) that no quantizer's rate may
exceed.
"""

import math

import numpy as np
from scipy import special

from pufsec import _blocks
from pufsec.optimize import repair_knots
from pufsec.sim import _uniforms
from pufsec.stats import DomainError
from pufsec.quantizer import (InputQuantizer, _decision_borders,
                              helper_values, sibling_points)


def random_markov(rng, nx, ny, nz):
    """P_XYZ = P_X P_{Y|X} P_{Z|Y}: a genuine X -> Y -> Z chain."""
    px = rng.dirichlet(np.ones(nx))
    pyx = np.stack([rng.dirichlet(np.ones(ny)) for _ in range(nx)])
    pzy = np.stack([rng.dirichlet(np.ones(nz)) for _ in range(ny)])
    return px[:, None, None] * pyx[:, :, None] * pzy[None, :, :]


def oracle_v1(j):
    """Var[log2(P_XY(x,y)|X| / P_Y(y))] by enumeration."""
    nx, ny = j.shape
    py = j.sum(axis=0)
    m1 = m2 = 0.0
    for x in range(nx):
        for y in range(ny):
            if j[x, y] > 0:
                r = math.log2(j[x, y] * nx / py[y])
                m1 += j[x, y] * r
                m2 += j[x, y] * r * r
    return m2 - m1 * m1


def oracle_vc(pmf):
    """Var[log2(P_XYZ / (P_XZ P_{Y|Z}))] by enumeration."""
    nx, ny, nz = pmf.shape
    pxz = pmf.sum(axis=1)
    pyz = pmf.sum(axis=0)
    pz = pyz.sum(axis=0)
    m1 = m2 = 0.0
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if pmf[x, y, z] > 0:
                    # P_{Y|Z} first: the product P_XZ * P_YZ of two tiny
                    # masses underflows to 0 on analog-extended sources
                    r = math.log2(pmf[x, y, z] /
                                  (pxz[x, z] * (pyz[y, z] / pz[z])))
                    m1 += pmf[x, y, z] * r
                    m2 += pmf[x, y, z] * r * r
    return m2 - m1 * m1


def oracle_vc_prime(pmf):
    """sum_x P(x) Var[log2(P_{YZ|X} / (P_{Z|X} P_{Y|Z})) | X=x]."""
    nx, ny, nz = pmf.shape
    px = pmf.sum(axis=(1, 2))
    pxz = pmf.sum(axis=1)
    pyz = pmf.sum(axis=0)
    pz = pyz.sum(axis=0)
    total = 0.0
    for x in range(nx):
        if px[x] == 0:
            continue
        m1 = m2 = 0.0
        for y in range(ny):
            for z in range(nz):
                if pmf[x, y, z] > 0:
                    w = pmf[x, y, z] / px[x]
                    r = math.log2(w / ((pxz[x, z] / px[x]) *
                                       (pyz[y, z] / pz[z])))
                    m1 += w * r
                    m2 += w * r * r
        total += px[x] * (m2 - m1 * m1)
    return total


def erasure_joint(joint, p_d):
    """Joint pmf of (S, S~_d) after EC(p_d) on the second coordinate."""
    return np.hstack([(1 - p_d) * joint, p_d * joint.sum(1, keepdims=True)])


def digital_triple(joint, p_d):
    """(S, S~, S~_d) pmf: the erasure acts on S~ only."""
    n_in, n_out = joint.shape
    pmf = np.zeros((n_in, n_out, n_out + 1))
    for i in range(n_in):
        for j in range(n_out):
            pmf[i, j, j] = (1 - p_d) * joint[i, j]
            pmf[i, j, n_out] = p_d * joint[i, j]
    return pmf


def analog_triple(joint, p_d, p_a):
    """(S, S~, (S~_d, S~_a)) pmf with the three shared-erasure outcomes."""
    n, m = joint.shape
    pmf = np.zeros((n, m, (m + 1) * (n + 1)))
    for i in range(n):
        for j in range(m):
            pmf[i, j, m * (n + 1) + n] += p_d * joint[i, j]
            pmf[i, j, j * (n + 1) + n] += (p_a - p_d) * joint[i, j]
            pmf[i, j, j * (n + 1) + i] += (1 - p_a) * joint[i, j]
    return pmf


def _map_border(x_lo, x_hi, p_lo, p_hi, sigma_n):
    # Crossing point of p_lo * phi(y - x_lo) and p_hi * phi(y - x_hi).
    # numpy's log, as in the kernel: math.log differs from it by one ulp on
    # about 0.5% of ratios near 1, which moves a border by one ulp.
    return (np.log(p_lo / p_hi) * sigma_n ** 2 / (x_hi - x_lo)
            + (x_lo + x_hi) / 2.0)


def oracle_output_quantizer(x, p, sigma_n):
    """MAP labels and borders for sibling points x and level masses p.

    Walks the levels left to right; a level whose crossing with the next
    one does not exceed its own lower border is dominated and popped, and
    the border is recomputed between the surviving neighbours.  A level
    whose sibling point is -inf (the left tail at w = 0) never wins.
    """
    finite = [t for t in range(len(x)) if math.isfinite(x[t])]
    labels = [finite[0]]
    borders = []
    for t in finite[1:]:
        while True:
            tau = _map_border(x[labels[-1]], x[t], p[labels[-1]], p[t],
                              sigma_n)
            if borders and tau <= borders[-1]:
                labels.pop()
                borders.pop()
                continue
            break
        labels.append(t)
        borders.append(tau)
    return tuple(labels), np.concatenate(([-np.inf], borders, [np.inf]))


def loop_decision_borders(q, x, sigma_n):
    """MAP decision borders for sibling points x of shape (K, N), with
    merged rows done level distance by level distance: L_t is the maximum
    over j < t of crossing(j, t) and b_t the suffix minimum of L.  The
    package's envelope passes must give the same borders to the bit."""
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


def decision_intervals(q, w):
    """(labels, borders) of the non-empty MAP decision intervals at W = w,
    read off the package's decision borders."""
    b = _decision_borders(q, sibling_points(q, [w]), q.model.sigma_n)[0]
    with np.errstate(invalid="ignore"):     # -inf - -inf at w = 0
        labels = np.nonzero(np.diff(b) > 0)[0]
    borders = np.concatenate(([-np.inf], b[labels[1:]], [np.inf]))
    return tuple(int(t) for t in labels), borders


def oracle_channel(x, p, sigma_n):
    """P(S~ | S) for one helper value on the full alphabet (zero columns
    for merged levels), from the scalar merge."""
    labels, borders = oracle_output_quantizer(x, p, sigma_n)
    with np.errstate(invalid="ignore"):     # -inf - -inf at w = 0
        z = (borders[None, :] - x[:, None]) / sigma_n
    out = np.zeros((len(x), len(x)))
    out[:, list(labels)] = np.diff(special.ndtr(z), axis=1)
    return out


def sibling_point(q, t, w):
    """Point in interval t whose helper value is w, i.e. g_t^{-1}(w)."""
    if not 0 <= t < q.levels:
        raise DomainError(f"level index {t} out of range")
    if not 0.0 <= w < 1.0:
        raise DomainError(f"helper value must lie in [0,1), got {w!r}")
    return float(sibling_points(q, w)[t])


def two_call_sibling_points(q, w):
    """g_t^{-1}(w) with Phi^{-1} called separately on the lower entries
    (mass from the left) and on the upper ones (mass from the right)."""
    w = np.asarray(w, dtype=float)
    u = q.cdf[:-1] + np.multiply.outer(w, q.probs)
    v = q.sf[:-1] - np.multiply.outer(w, q.probs)
    lower = u <= 0.5
    x = np.where(lower,
                 special.ndtri(np.where(lower, u, 0.5)),
                 -special.ndtri(np.where(lower, 0.5, np.clip(v, 0.0, 1.0))))
    return q.model.sigma_p * x


def two_call_helper_values(q, x):
    """Interval indices and helper values with Phi called on z for the
    lower side and on -z for the upper side, both on every point."""
    t = np.searchsorted(q.inner_borders, x, side="right")
    z = x / q.model.sigma_p
    w = np.where(x <= 0,
                 (special.ndtr(z) - q.cdf[t]) / q.probs[t],
                 (q.sf[t] - special.ndtr(-z)) / q.probs[t])
    return t, np.clip(w, 0.0, np.nextafter(1.0, 0.0))


def dense_per_w_channels(q, ws):
    """P(S~|S, W=w) stack with Phi taken on every entry of the dense
    (K, N, N+1) grid of border offsets."""
    x = sibling_points(q, np.asarray(ws, dtype=float))
    b = _decision_borders(q, x, q.model.sigma_n)
    with np.errstate(invalid="ignore"):     # -inf - -inf at w = 0
        z = (b[:, None, :] - x[:, :, None]) / q.model.sigma_n
    return np.diff(special.ndtr(z), axis=2)


def dense_mi_per_node(mats, probs):
    """I(S;S~|W=w) per node over the whole (K, N, N) stack at once."""
    joint = probs[None, :, None] * mats
    out_marg = joint.sum(axis=1, keepdims=True)
    nz = joint > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(nz, mats, 1.0) / np.where(nz, out_marg, 1.0)
        contrib = np.where(nz, joint * np.log2(np.where(nz, ratio, 1.0)), 0.0)
    return contrib.sum(axis=(1, 2))


def quantizer_from_knots(model, u):
    """Quantizer with borders sigma_P * Phi^{-1}(u) at the repaired knots u,
    with no symmetry imposed."""
    inner = model.sigma_p * special.ndtri(repair_knots(u))
    return InputQuantizer.from_borders(model, inner, kind="optimized")


def full_row_simulate_chunk(cfg, start, size):
    """One batch of (s, w, s_tilde, u_attack) samples with the MAP argmax
    taken over the sibling points of all N levels of every sample."""
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


def min_cells_scan(first, penalty, target, cap):
    """Smallest n in 1..cap with n * max(first - penalty / sqrt(n), 0) >=
    target, by evaluating every n, or None when no n <= cap meets it."""
    n = np.arange(1, cap + 1, dtype=float)
    bits = n * np.maximum(first - penalty / np.sqrt(n), 0.0)
    hit = np.flatnonzero(bits >= target)
    return int(hit[0]) + 1 if hit.size else None


def unquantized_rate(model, p_d):
    """p_d I(X;Y) = p_d / 2 log2(1 + sigma_P^2 / sigma_N^2): S, S~ and W are
    functions of X, Y and X, so I(S;S~|W) <= I(X;Y) for every quantizer."""
    return p_d * 0.5 * math.log2(1.0 + (model.sigma_p / model.sigma_n) ** 2)
