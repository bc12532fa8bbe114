"""Search over input quantizers maximizing the asymptotic key rate: the
"optimized" table columns and the equidistant step-size selection.

The search space is the vector of cumulative-probability knots
u_1 < ... < u_{N-1} in (0,1); borders are sigma_P * Phi^{-1}(u_t).  This
keeps borders ordered under perturbation and makes the equiprobable
quantizer the centroid of the space.  The objective is nonsmooth at
helper values where output-quantizer merging switches on or off, so a
derivative-free simplex search with a sort/clip repair step is used.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import optimize as sciopt
from scipy import special

from .stats import DomainError, PufModel
from .quantizer import InputQuantizer, make_equidistant
# per_w_channels stays bound here although _conditional_mi makes the call:
# the perfbench tracer wraps it, and checks the wrap, in this namespace.
from .channel import AttackerSpec, per_w_channels  # noqa: F401
from .info import _conditional_mi, entropy
from .bounds import _asymptotic_rate

KNOT_MARGIN = 1e-6


@dataclasses.dataclass(frozen=True)
class OptimizeResult:
    quantizer: InputQuantizer
    rate: float
    evaluations: int
    budget_exhausted: bool
    objective: AttackerSpec


def _rate(q: InputQuantizer, attacker: AttackerSpec, nodes: int) -> float:
    """Asymptotic rate at `nodes` quadrature nodes, without the averaged
    channel and dispersion moments a ChannelSummary would also compute."""
    return _asymptotic_rate(attacker, _conditional_mi(q, q.model, nodes),
                            entropy(q.probs))


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


def quantizer_from_knots(model: PufModel, u) -> InputQuantizer:
    u = repair_knots(u)
    inner = model.sigma_p * special.ndtri(u)
    return InputQuantizer.from_borders(model, inner, kind="optimized")


def best_equidistant_step(model: PufModel, levels: int,
                          objective: AttackerSpec, *, nodes: int = 64,
                          restarts: int = 3):
    """(step, rate) maximizing the asymptotic rate over the step size.

    Bounded scalar search on log-step over [sigma_P/50, 10*sigma_P],
    restarted on `restarts` subintervals because the objective need not
    be unimodal; steps whose tail intervals underflow score -inf.
    """
    if levels < 2:
        raise DomainError(f"levels must be >= 2, got {levels}")

    def score(log_step):
        try:
            q = make_equidistant(model, levels, math.exp(log_step))
        except DomainError:
            return 1e9          # infeasible step (empty tail intervals)
        return -_rate(q, objective, nodes)

    lo = math.log(model.sigma_p / 50.0)
    hi = math.log(10.0 * model.sigma_p)
    if levels == 2:
        # all steps give the single border at zero
        step = model.sigma_p
        return step, _rate(make_equidistant(model, 2, step), objective, nodes)
    best = (None, math.inf)
    edges = np.linspace(lo, hi, restarts + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        res = sciopt.minimize_scalar(score, bounds=(a, b), method="bounded",
                                     options={"xatol": 1e-4})
        if res.fun < best[1]:
            best = (res.x, res.fun)
    if best[0] is None or best[1] >= 1e9:
        raise DomainError("no feasible equidistant step found")
    return math.exp(best[0]), -best[1]


def optimize_quantizer(model: PufModel, levels: int,
                       objective: AttackerSpec, budget: int = 2000, *,
                       nodes: int = 64, seed: int = 0,
                       random_starts: int = 8):
    """Best input quantizer found within the evaluation budget.

    Multi-start Nelder-Mead on the knot vector: starts are the
    equiprobable quantizer, the best equidistant quantizer, and
    `random_starts` Dirichlet-random knot vectors.  Returns an
    OptimizeResult; its rate is never below the best start's rate.
    """
    if levels < 2:
        raise DomainError(f"levels must be >= 2, got {levels}")
    if budget < 1:
        raise DomainError(f"budget must be positive, got {budget}")
    evals = 0

    def neg_rate(u):
        nonlocal evals
        evals += 1
        try:
            q = quantizer_from_knots(model, u)
        except DomainError:
            return 1e9
        return -_rate(q, objective, nodes)

    equiprob = np.arange(1, levels) / levels
    starts = [equiprob]
    try:
        step, _ = best_equidistant_step(model, levels, objective, nodes=nodes)
        eq = make_equidistant(model, levels, step)
        starts.append(np.clip(eq.cdf[1:-1], KNOT_MARGIN, 1 - KNOT_MARGIN))
    except DomainError:
        pass
    rng = np.random.default_rng(seed)
    for _ in range(random_starts):
        probs = rng.dirichlet(np.ones(levels))
        starts.append(np.cumsum(probs)[:-1])

    # Rank the starts by objective, then spend the budget on the best few
    # (high-dimensional simplex searches need depth more than breadth).
    # One simplex construction already costs levels+1 evaluations, so for
    # large alphabets only the single best start gets a deep dive.
    starts = [repair_knots(u) for u in starts]
    scored = sorted(((neg_rate(u), i) for i, u in enumerate(starts)))
    best_f, best_i = scored[0]
    best_u = starts[best_i]
    n_deep = min(3, len(starts)) if levels <= 32 else 1
    for rank, (_, i) in enumerate(scored[:n_deep]):
        if evals >= budget:
            break
        share = max((budget - evals) // (n_deep - rank), levels + 2)
        res = sciopt.minimize(
            neg_rate, starts[i], method="Nelder-Mead",
            options={"maxfev": share,
                     "xatol": 1e-6, "fatol": 1e-9, "adaptive": True})
        if res.fun < best_f:
            best_u, best_f = repair_knots(res.x), res.fun
    # polish from the overall best with whatever budget remains
    if evals < budget and levels <= 32:
        res = sciopt.minimize(
            neg_rate, best_u, method="Nelder-Mead",
            options={"maxfev": budget - evals,
                     "xatol": 1e-6, "fatol": 1e-9, "adaptive": True})
        if res.fun < best_f:
            best_u, best_f = repair_knots(res.x), res.fun
    q = quantizer_from_knots(model, best_u)
    # final rate at the search resolution; callers can re-score with more nodes
    return OptimizeResult(
        quantizer=q, rate=max(-best_f, 0.0), evaluations=evals,
        budget_exhausted=evals >= budget, objective=objective)
