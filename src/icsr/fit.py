"""Multi-start nonlinear least squares for skeleton coefficients.

A skeleton that is affine in all its coefficients at once (Plan.affine:
c*sin(x) + c, say) is fitted without LM.  One pass at c = 0 gives its
value there and its partials, which do not depend on c; each restart
then takes one undamped Gauss-Newton step from its start, exact for such
a model, all of them in one multi-right-hand-side lstsq.  Its starts are
drawn as LM's would be, so the rng stream of a run does not depend on
which fits were affine.

Any other skeleton goes through a plain Levenberg-Marquardt loop over
exact Jacobians: one evaluate_batch pass over the tree's plan, lowered
once per fit, carries each value together with its partials in every
coefficient (forward-mode differentiation), so a trial point costs one
row of evaluation.  All restarts run in lockstep: each step solves every
live restart's damped normal equations in one stacked solve, then
evaluates all their trial points, with their Jacobians, as the rows of
one pass.  J^T J, J^T r and r.r come from one stacked matmul, and the
per-restart tests run on Python floats.  A restart that stops (converged,
out of iterations, or with its damping overflowed) drops out of later
batches.  Every row of a stacked numpy call gets the bits it would get
alone, so a restart's result does not depend on which restarts run
beside it.  At 20-200 points a step costs numpy calls, not arithmetic,
so each does as few as it can.

A restart stops when its gradient is flat (gtol), its step is tiny
(xtol) or an accepted step barely lowers the SSE (ftol), by the module
constants _GTOL, _XTOL and _FTOL; when it runs out of iterations (cap)
or its damping overflows (mu_overflow); or when it has stalled: its last
_STALL_WINDOW accepted steps together lowered the SSE by no more than
_STALL_RTOL of where they started.  The stall test ends the restarts of
wrong forms that drift along an asymptote whose infimum lies at infinity
(c*sinh(c*x) walking off to +/-383 and -/+0.001, say), where every step
still gains a sliver and the one-step ftol test never fires.  It only
ends a restart early, so a stalled restart holds exactly the state the
same number of iterations gives without it, and it does not count as
converged.

Undefined predictions contribute a large constant penalty residual
instead of poisoning the solve, which lets restarts wander through
invalid coefficient regions and still rank restarts by SSE.

Coefficients that sit on a definedness cliff get special treatment: if
a coefficient's partial is not finite at a point where the prediction is
defined (the exponent of an integer power over negative inputs, whose
partial x^c*log(x) is NaN there, is the canonical case), any step along
that coordinate would leave the domain and be rejected outright.  Such
coordinates are frozen for the iteration by zeroing their Jacobian
column, which pins them in the LM step while the remaining coefficients
keep optimizing.  Points where the prediction is undefined, or whose
residual is clipped, get zero partials: their residual does not move.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .expr import Plan, Skeleton, evaluate_batch, lower
from .validate import integer

PENALTY = 1.0e6
# LM's stopping thresholds (see the docstring)
_GTOL = 1e-8
_XTOL = 1e-10
_FTOL = 1e-12
# A restart whose last _STALL_WINDOW accepted steps lowered its SSE by at
# most _STALL_RTOL of the SSE before them has stalled (see the docstring).
_STALL_WINDOW = 10
_STALL_RTOL = 1e-4
# Residuals are clipped to a huge finite band so overflow in y - yhat can
# never feed inf into the normal equations; anything near the band is
# garbage by many orders of magnitude anyway.
_RESIDUAL_CAP = 1.0e100
# Every restart's start is a row of one array, so a count from a config
# file is capped well below what that array could ever allocate.
_MAX_RESTARTS = 1000


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 5
    max_iterations: int = 200

    def __post_init__(self):
        integer(self, "restarts", 1, _MAX_RESTARTS)
        integer(self, "max_iterations", 1)


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one skeleton on one dataset.

    coefficients/sse describe the best restart (minimum final SSE) and
    predictions its values at the n training points, from the fitter's
    last evaluation (all NaN when no restart ends finite).  valid means
    every prediction is finite, the gate scoring relies on.  restart_sses,
    iterations and stops hold each restart's final SSE, iteration count
    and stop reason: gtol, xtol, ftol, stall, cap or mu_overflow from LM;
    for an affine skeleton lstsq (1 iteration), or undefined (0, SSE inf)
    where the form is undefined at a training point for every c.  frozen
    counts the Jacobian columns pinned on a definedness cliff, summed over
    every Jacobian each restart adopted (its start and each accepted step).
    """

    coefficients: np.ndarray
    sse: float
    predictions: np.ndarray
    valid: bool
    best_restart: int
    restart_sses: tuple
    iterations: tuple
    stops: tuple
    frozen: int


def _penalize(res):
    """Put PENALTY in place of every non-finite residual and clip the rest
    to the cap, in place."""
    np.copyto(res, PENALTY, where=~np.isfinite(res))
    np.minimum(res, _RESIDUAL_CAP, out=res)
    np.maximum(res, -_RESIDUAL_CAP, out=res)


def _probe(plan: Plan, points: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Residuals, predictions, masked Jacobian of the prediction and the
    number of frozen columns at each row of points, from one
    evaluate_batch pass that carries the exact partials.  Shapes: (k, n),
    (k, n) and (k, m, n), and a list of k ints."""
    pred, jac = evaluate_batch(plan, points, X, jacobian=True)
    res = y - pred
    # false where the prediction is undefined (NaN), y - pred overflowed or
    # the residual is clipped: there it does not move with the coefficients
    moves = np.abs(res) < _RESIDUAL_CAP
    finite = np.isfinite(jac)
    if moves.all() and finite.all():
        return res, pred, jac, [0] * len(points)
    _penalize(res)
    # on a cliff: a partial that is not finite where the prediction is defined
    defined = np.isfinite(pred)
    frozen = (~finite & defined[:, None]).any(axis=2)
    jac = np.where(moves[:, None] & ~frozen[:, :, None], jac, 0.0)
    return res, pred, jac, frozen.sum(axis=1).tolist()


def _normal_equations(res, jac):
    """Every row's [[J^T J, -J^T r], [., r.r]], with J the Jacobian of res,
    from one stacked matmul of [-J; r] with its transpose; and its SSE."""
    both = np.concatenate((jac, res[:, None]), axis=1)
    products = both @ both.transpose(0, 2, 1)
    return products, products[:, -1, -1].tolist()


def _solve(A, b):
    """The solution of every system A[t] x = b[t]; NaN for a singular one.
    One stacked solve gives each row the bits its own solve gives."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for t in range(len(b)):
            try:
                x[t] = np.linalg.solve(A[t], b[t, :, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def _flat(gradient):
    """Whether every entry of a gradient (a list) is within _GTOL; not if one is NaN."""
    return all(abs(v) <= _GTOL for v in gradient)


def _levenberg_marquardt(plan, starts, X, y, config):
    """Minimize 0.5 * ||res||^2 from every row of starts, in lockstep.

    Each step solves every live restart's damped normal equations in one
    stacked solve, then probes all their trial points with one _probe
    call.  Returns the final coefficients and predictions as (k, m) and
    (k, n) arrays, per-restart sse, iteration count and stop reason
    lists, and the number of Jacobian columns frozen on a cliff, summed
    over the Jacobians the restarts adopted."""
    k, m = starts.shape
    eye = np.eye(m)
    c = starts.astype(float)
    res, pred, jac, frozen = _probe(plan, c, X, y)
    normal, sse = _normal_equations(res, jac)
    frozen = sum(frozen)
    stops = ["gtol" if _flat(r) else None for r in normal[:, :m, m].tolist()]
    mu = [1e-3 * max(max(A.diagonal().tolist()), 1e-12) for A in normal[:, :m, :m]]
    nu = [2.0] * k
    iterations = [0] * k
    # each restart's SSE before and after its last _STALL_WINDOW accepted steps
    recent = [deque([s], maxlen=_STALL_WINDOW + 1) for s in sse]
    final_c, final_pred = np.empty_like(c), np.empty_like(pred)
    rows = list(range(k))  # the restart on each row of c, pred and normal
    while True:
        for t, i in enumerate(rows):
            if stops[i] is None and iterations[i] >= config.max_iterations:
                stops[i] = "cap"
        keep = [t for t, i in enumerate(rows) if stops[i] is None]
        if len(keep) < len(rows):
            for t, i in enumerate(rows):
                if stops[i] is not None:
                    final_c[i], final_pred[i] = c[t], pred[t]
            if not keep:
                break
            rows = [rows[t] for t in keep]
            c, pred, normal = c[keep], pred[keep], normal[keep]
        damping = [mu[i] for i in rows]
        rhs = normal[:, :m, m]
        deltas = _solve(normal[:, :m, :m] + np.multiply.outer(damping, eye), rhs)
        # per row: |delta|^2, |c|^2 and delta . rhs
        lengths, sizes, gains = (np.array((deltas, c, deltas))
                                 * np.array((deltas, c, rhs))).sum(axis=2).tolist()
        stepping = []
        for t, i in enumerate(rows):
            iterations[i] += 1
            if not math.isfinite(lengths[t]):
                mu[i] *= nu[i]
                nu[i] *= 2.0
            elif math.sqrt(lengths[t]) <= _XTOL * (math.sqrt(sizes[t]) + _XTOL):
                stops[i] = "xtol"
            else:
                stepping.append(t)
        if not stepping:
            continue
        if len(stepping) < len(rows):
            still = np.zeros((len(rows), 1), dtype=bool)
            still[stepping] = True
            deltas = np.where(still, deltas, 0.0)
        trials = c + deltas
        trial_res, trial_pred, trial_jac, trial_frozen = _probe(plan, trials, X, y)
        trial_normal, trial_sse = _normal_equations(trial_res, trial_jac)
        gradients = trial_normal[:, :m, m].tolist()
        taken = [False] * len(rows)
        for t in stepping:
            i = rows[t]
            predicted = damping[t] * lengths[t] + gains[t]
            actual = sse[i] - trial_sse[t]
            if not (predicted > 0 and actual > 0):
                mu[i] *= nu[i]
                nu[i] *= 2.0
                if not math.isfinite(mu[i]):
                    stops[i] = "mu_overflow"
                continue
            rho = min(actual / predicted, 1.0)  # same 1/3 below; a huge rho overflows ** 3
            taken[t] = True
            frozen += trial_frozen[t]
            if abs(actual) <= _FTOL * max(sse[i], 1e-300):
                stops[i] = "ftol"
            elif _flat(gradients[t]):
                stops[i] = "gtol"
            sse[i] = trial_sse[t]
            window = recent[i]
            window.append(sse[i])
            if (stops[i] is None and len(window) > _STALL_WINDOW
                    and window[0] - sse[i] <= _STALL_RTOL * window[0]):
                stops[i] = "stall"
            if stops[i] is None:
                mu[i] *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu[i] = 2.0
        if all(taken):
            c, pred, normal = trials, trial_pred, trial_normal
        elif any(taken):
            taken = np.array(taken)[:, None]
            np.copyto(c, trials, where=taken)
            np.copyto(pred, trial_pred, where=taken)
            np.copyto(normal, trial_normal, where=taken[:, :, None])
    return final_c, final_pred, sse, iterations, stops, frozen


def _least_squares(plan, starts, X, y):
    """_levenberg_marquardt's results for an affine plan (see the module
    docstring).  Where its value at 0 or a partial is not finite, it is
    undefined for every c: every restart stops 'undefined'.  A start whose
    residual overflows takes no step."""
    k, m = starts.shape
    offset, basis = evaluate_batch(plan, np.zeros(m), X, jacobian=True)
    if not (np.isfinite(offset).all() and np.isfinite(basis).all()):
        return starts, np.full((k, len(y)), np.nan), [math.inf] * k, [0] * k, ["undefined"] * k, 0
    res = y - offset - starts @ basis
    res[~np.isfinite(res).all(axis=1)] = 0.0
    c = starts + np.linalg.lstsq(basis.T, res.T, rcond=None)[0].T
    pred = evaluate_batch(plan, c, X)
    res = y - pred
    _penalize(res)
    return c, pred, (res * res).sum(axis=1).tolist(), [1] * k, ["lstsq"] * k, 0


@np.errstate(all="ignore")  # overflow in an SSE or a step is handled as inf
def fit(skeleton: Skeleton, dataset: Dataset, config: FitConfig = FitConfig(),
        rng: np.random.Generator | None = None) -> FitResult:
    """Fit skeleton coefficients to the dataset's training points.

    Restart 0 starts from the skeleton's literal-derived hints where
    available (standard normal draws fill the gaps); the remaining
    restarts start from standard normal vectors.  The restart with the
    smallest final SSE wins.  A result is only valid if the winning
    coefficients are finite and the fitted expression is defined on every
    training point.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    m = skeleton.num_slots
    X, y = dataset.X, dataset.y

    if m == 0:
        pred = evaluate_batch(skeleton.expr, np.empty(0), X)
        valid = bool(np.all(np.isfinite(pred)))
        sse = float(np.sum((y - pred) ** 2)) if valid else float("inf")
        return FitResult(
            coefficients=np.empty(0),
            sse=sse,
            predictions=pred,
            valid=valid,
            best_restart=0,
            restart_sses=(),
            iterations=(),
            stops=(),
            frozen=0,
        )

    starts = np.empty((config.restarts, m))
    for restart in range(config.restarts):
        if restart == 0:
            starts[restart] = [
                hint if hint is not None else float(rng.standard_normal())
                for hint in skeleton.hints
            ]
        else:
            starts[restart] = rng.standard_normal(m)
    plan = lower(skeleton.expr)
    c, pred, sses, iterations, stops, frozen = (
        _least_squares(plan, starts, X, y) if plan.affine
        else _levenberg_marquardt(plan, starts, X, y, config))
    finite = [r for r, sse in enumerate(sses) if np.all(np.isfinite(c[r])) and sse < np.inf]
    if finite:
        best = min(finite, key=sses.__getitem__)
        coefficients, sse, predictions = c[best], sses[best], pred[best].copy()
    else:
        best, sse = -1, float("inf")
        coefficients, predictions = np.full(m, np.nan), np.full(len(y), np.nan)
    return FitResult(
        coefficients=coefficients,
        sse=sse,
        predictions=predictions,
        valid=bool(np.all(np.isfinite(predictions))),
        best_restart=best,
        restart_sses=tuple(sses),
        iterations=tuple(iterations),
        stops=tuple(stops),
        frozen=frozen,
    )
