"""Search over input quantizers maximizing the asymptotic key rate: the
"optimized" table columns and the equidistant step-size selection.

The search space is the vector of cumulative-probability knots
u_1 < ... < u_{N-1} in (0,1); borders are sigma_P * Phi^{-1}(u_t).  This
keeps borders ordered under perturbation and makes the equiprobable
quantizer the centroid of the space.  The source and the noise are
symmetric, so the search is restricted to mirror-symmetric knot vectors
and runs over their lower half only.  The objective is nonsmooth at
helper values where output-quantizer merging switches on or off, so one
deterministic derivative-free simplex search with a sort/clip repair step
is used.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import special

from .stats import DomainError, PufModel
from .quantizer import InputQuantizer, make_equidistant
# per_w_channels stays bound here although _rule makes the call: the
# perfbench tracer wraps it, and checks the wrap, in this namespace.
from .channel import AttackerSpec, _SEARCH_NODES, _rule
from .channel import per_w_channels  # noqa: F401
from .info import entropy
from .bounds import ChannelSummary, _asymptotic_rate, summarize_channel

KNOT_MARGIN = 1e-6
_STEP_SUBINTERVALS = 3
# The one default evaluation budget, per alphabet size.  Small alphabets
# converge well inside it; from 64 levels on the budget binds.  Another N
# takes the budget of the smallest listed N above it, and 150 above 256.
_BUDGETS = {2: 100, 4: 400, 8: 900, 16: 1800, 32: 2400,
            64: 900, 128: 300, 256: 150}


@dataclasses.dataclass(frozen=True)
class OptimizeResult:
    summary: ChannelSummary     # of the quantizer found
    rate: float                 # the objective's public rate on `summary`
    evaluations: int
    budget_exhausted: bool
    objective: AttackerSpec

    @property
    def quantizer(self) -> InputQuantizer:
        return self.summary.quantizer


def _rate(q: InputQuantizer, attacker: AttackerSpec) -> float:
    """Asymptotic rate on the one _SEARCH_NODES-point rule, without the
    averaged channel and dispersion moments a ChannelSummary would also
    compute: the objective must not switch rules between candidates."""
    mi = _rule(q, q.model, _SEARCH_NODES, channel=False)[1]
    return _asymptotic_rate(attacker, mi, entropy(q.probs))


def repair_knots(u: np.ndarray) -> np.ndarray:
    """Project an arbitrary real vector onto valid knot space: sorted,
    inside [margin, 1-margin], strictly increasing."""
    u = np.sort(np.clip(np.asarray(u, dtype=float), KNOT_MARGIN, 1.0 - KNOT_MARGIN))
    # enforce strict increase with a minimal gap; the downward sweep
    # handles clusters saturated against the upper margin
    gap = 1e-9
    for i in range(1, len(u)):
        if u[i] <= u[i - 1]:
            u[i] = min(u[i - 1] + gap, 1.0 - KNOT_MARGIN)
    for i in range(len(u) - 2, -1, -1):
        if u[i] >= u[i + 1]:
            u[i] = u[i + 1] - gap
    return u


def best_equidistant_step(model: PufModel, levels: int,
                          objective: AttackerSpec):
    """(step, rate) maximizing the asymptotic rate over the step size.

    Bounded scalar search on log-step over [sigma_P/50, 10*sigma_P],
    restarted on _STEP_SUBINTERVALS subintervals because the objective need
    not be unimodal; steps whose tail intervals underflow score -inf.
    Every step is scored, and the returned rate read, on the optimizer's
    one fixed rule, not on the error-controlled quadrature of the public
    rates.
    """
    if levels < 2:
        raise DomainError(f"levels must be >= 2, got {levels}")
    # local: only the optimizer needs scipy.optimize, which is slow to import
    from scipy import optimize as sciopt

    def score(log_step):
        try:
            q = make_equidistant(model, levels, math.exp(log_step))
        except DomainError:
            return 1e9          # infeasible step (empty tail intervals)
        return -_rate(q, objective)

    lo = math.log(model.sigma_p / 50.0)
    hi = math.log(10.0 * model.sigma_p)
    if levels == 2:
        # all steps give the single border at zero
        step = model.sigma_p
        return step, _rate(make_equidistant(model, 2, step), objective)
    best = (None, math.inf)
    edges = np.linspace(lo, hi, _STEP_SUBINTERVALS + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        res = sciopt.minimize_scalar(score, bounds=(a, b), method="bounded",
                                     options={"xatol": 1e-4})
        if res.fun < best[1]:
            best = (res.x, res.fun)
    if best[0] is None or best[1] >= 1e9:
        raise DomainError("no feasible equidistant step found")
    return math.exp(best[0]), -best[1]


def _symmetric_knots(h: np.ndarray, levels: int) -> np.ndarray:
    """Full knot vector of a mirror-symmetric quantizer from its lower half
    h (the first (levels-1)//2 knots): h, then 1/2 when levels is even,
    then 1 - reversed(h)."""
    mid = [0.5] if levels % 2 == 0 else []
    return np.concatenate((h, mid, 1.0 - h[::-1]))


def _symmetric_quantizer(model: PufModel, h: np.ndarray,
                         levels: int) -> InputQuantizer:
    """Quantizer of the mirror-symmetric knot vector with lower half h.
    Its borders are made exactly antisymmetric (ndtri(u) and ndtri(1 - u)
    need not be exact negatives), so the channel kernel folds them."""
    inner = model.sigma_p * special.ndtri(
        repair_knots(_symmetric_knots(h, levels)))
    return InputQuantizer.from_borders(model, 0.5 * (inner - inner[::-1]),
                                       kind="optimized")


def optimize_quantizer(model: PufModel, levels: int,
                       objective: AttackerSpec, budget: int | None = None):
    """Best mirror-symmetric input quantizer found within the budget, by
    default the per-alphabet `_BUDGETS`.

    The source and the noise are symmetric about zero, so only the lower
    half of the knot vector is searched.  The two structured starts, the
    equiprobable and the best equidistant quantizer, are always scored;
    one Nelder-Mead from the better of them spends the rest of the budget.
    The search is deterministic and its objective is never below the
    better start's.  Every candidate, the starts included, is scored on the
    one `channel._SEARCH_NODES`-point rule; the result carries the found
    quantizer's `summarize_channel` summary, and its rate is the public one
    on that summary.  `evaluations` counts the scorings of the starts and of
    the Nelder-Mead, at most max(budget, 2); the step search behind the
    equidistant start is neither counted nor bound by the budget.
    """
    if levels < 2:
        raise DomainError(f"levels must be >= 2, got {levels}")
    if budget is None:
        budget = next((b for n, b in _BUDGETS.items() if n >= levels), 150)
    if budget < 1:
        raise DomainError(f"budget must be positive, got {budget}")
    # local: only the optimizer needs scipy.optimize, which is slow to import
    from scipy import optimize as sciopt

    evals = 0

    def neg_rate(h):
        nonlocal evals
        evals += 1
        try:
            q = _symmetric_quantizer(model, h, levels)
        except DomainError:
            return 1e9
        return -_rate(q, objective)

    half = (levels - 1) // 2
    starts = [np.arange(1, half + 1) / levels]
    try:
        step, _ = best_equidistant_step(model, levels, objective)
        starts.append(make_equidistant(model, levels, step).cdf[1:half + 1])
    except DomainError:
        pass
    best_f, best_h = min(((neg_rate(h), h) for h in starts),
                         key=lambda fh: fh[0])
    if half and evals < budget:
        res = sciopt.minimize(
            neg_rate, best_h, method="Nelder-Mead",
            options={"maxfev": budget - evals,
                     "xatol": 1e-6, "fatol": 1e-9, "adaptive": True})
        if res.fun < best_f:
            best_h, best_f = res.x, res.fun
    # the search scores on one fixed rule; the reported rate is re-scored
    # on the error-controlled quadrature every public rate uses
    s = summarize_channel(_symmetric_quantizer(model, best_h, levels), model)
    return OptimizeResult(
        summary=s, rate=_asymptotic_rate(objective, s.i_cond, s.h_s),
        evaluations=evals, budget_exhausted=evals >= budget,
        objective=objective)
