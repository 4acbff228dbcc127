"""Multi-start nonlinear least squares for skeleton coefficients.

The optimizer is a plain Levenberg-Marquardt loop over central-difference
Jacobians.  All restarts run in lockstep: each step solves every live
restart's damped normal equations on its own, then evaluates the trial
points of all of them, each with its 2m probes c +/- h*e_j, as the rows
of one evaluate_batch call on the tree's plan, lowered once per fit.  A
restart that stops (converged, out of iterations, or with its damping
overflowed) drops out of later batches.  Every restart does exactly the
arithmetic it would do alone, so results do not depend on which
restarts run beside it.  At 20-200 points a step costs numpy calls, not
arithmetic, so each does as few as it can.

A restart stops when its gradient is flat (gtol), its step is tiny
(xtol) or an accepted step barely lowers the SSE (ftol); when it runs
out of iterations (cap) or its damping overflows (mu_overflow); or when
it has stalled: its last _STALL_WINDOW accepted steps together lowered
the SSE by no more than _STALL_RTOL of where they started.  The stall
test ends the restarts of wrong forms that drift along an asymptote
whose infimum lies at infinity (c*sinh(c*x) walking off to +/-383 and
-/+0.001, say), where every step still gains a sliver and the
one-step ftol test never fires.  It only ends a restart early, so a
stalled restart holds exactly the state the same number of iterations
gives without it, and it does not count as converged.

Undefined predictions contribute a large constant penalty residual
instead of poisoning the solve, which lets restarts wander through
invalid coefficient regions and still rank restarts by SSE.

Coefficients that sit on a definedness cliff get special treatment: if
nudging a coefficient by the finite-difference step turns predictions
that are defined at the current point into undefined ones (an integer
exponent over negative inputs is the canonical case), the central
difference is meaningless and any step along that coordinate would be
rejected outright.  Such coordinates are frozen for the iteration by
zeroing their Jacobian column, which pins them in the LM step while the
remaining coefficients keep optimizing.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .expr import Plan, Skeleton, evaluate_batch, lower
from .validate import integer, of_type, real

PENALTY = 1.0e6
# A restart whose last _STALL_WINDOW accepted steps lowered its SSE by at
# most _STALL_RTOL of the SSE before them has stalled (see the docstring).
_STALL_WINDOW = 10
_STALL_RTOL = 1e-4
# Residuals are clipped to a huge finite band so overflow in y - yhat can
# never feed inf into the normal equations; anything near the band is
# garbage by many orders of magnitude anyway.
_RESIDUAL_CAP = 1.0e100


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 5
    max_iterations: int = 200
    warm_start: bool = True
    gtol: float = 1e-8
    xtol: float = 1e-10
    ftol: float = 1e-12

    def __post_init__(self):
        for key in ("restarts", "max_iterations"):
            integer(self, key, 1)
        for key in ("gtol", "xtol", "ftol"):
            real(self, key, lambda v: v >= 0, "a finite number >= 0")
        of_type(self, "warm_start", bool, "true or false")


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one skeleton on one dataset.

    coefficients/sse describe the best restart (minimum final SSE).
    valid means the fitted expression is defined and finite on every
    training point, which is the gate scoring relies on.  restart_sses
    keeps the per-restart final SSEs for budget accounting and tests;
    iterations holds each restart's LM iteration count and stops why it
    stopped (gtol, xtol, ftol, stall, cap or mu_overflow), in the same
    order.  converged means some restart met gtol, xtol or ftol.
    """

    coefficients: np.ndarray
    sse: float
    converged: bool
    valid: bool
    best_restart: int
    restart_sses: tuple
    iterations: tuple
    stops: tuple


def _probe(plan: Plan, points: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Residuals, definedness mask and central-difference Jacobian at each
    row of points, all from one evaluate_batch call over the rows and
    their 2m probes c +/- h*e_j.  Shapes: (k, n), (k, n) and (k, n, m)."""
    k, m = points.shape
    h = np.fmax(1e-6, 1e-6 * np.abs(points))
    probes = np.repeat(points[:, None, :], 2 * m + 1, axis=1)
    j = np.arange(m)
    probes[:, 1 + j, j] += h
    probes[:, 1 + m + j, j] -= h
    pred = evaluate_batch(plan, probes.reshape(-1, m), X).reshape(k, 2 * m + 1, -1)
    defined = np.isfinite(pred)
    # y is finite, so a residual is non-finite exactly where the prediction
    # is undefined or y - pred overflowed
    res = y - pred
    np.copyto(res, PENALTY, where=~np.isfinite(res))
    np.minimum(res, _RESIDUAL_CAP, out=res)
    np.maximum(res, -_RESIDUAL_CAP, out=res)
    up, down = slice(1, m + 1), slice(m + 1, None)
    jac = (res[:, up] - res[:, down]) / (2 * h)[:, :, None]
    # on a cliff: defined at the point but not at both of its probes
    cliff = defined[:, up] & defined[:, down]
    jac[np.less(cliff, defined[:, :1], out=cliff).any(axis=2)] = 0.0
    return res[:, 0], defined[:, 0], np.ascontiguousarray(jac.transpose(0, 2, 1))


def _levenberg_marquardt(plan, starts, X, y, config):
    """Minimize 0.5 * ||res||^2 from every row of starts, in lockstep.

    Each step solves every live restart's damped normal equations, then
    probes all their trial points with one _probe call.  Returns the final
    coefficients and definedness masks as (k, m) and (k, n) arrays, plus
    per-restart sse, iteration count and stop reason lists."""
    k, m = starts.shape
    eye = np.eye(m)
    c = starts.astype(float)
    res, defined, jac = _probe(plan, c, X, y)
    defined = defined.copy()
    sse = [float(r @ r) for r in res]
    JTJ = [J.T @ J for J in jac]
    g = [J.T @ r for J, r in zip(jac, res)]
    stops = ["gtol" if np.abs(gi).max() <= config.gtol else None for gi in g]
    mu = [1e-3 * max(float(A.diagonal().max()), 1e-12) for A in JTJ]
    nu = [2.0] * k
    iterations = [0] * k
    # each restart's SSE before and after its last _STALL_WINDOW accepted steps
    recent = [deque([s], maxlen=_STALL_WINDOW + 1) for s in sse]
    while None in stops:
        stepping, deltas = [], []
        for i in [i for i, stop in enumerate(stops) if stop is None]:
            if iterations[i] >= config.max_iterations:
                stops[i] = "cap"
                continue
            iterations[i] += 1
            try:
                delta = np.linalg.solve(JTJ[i] + mu[i] * eye, -g[i])
            except np.linalg.LinAlgError:
                delta = None
            # np.linalg.norm of a vector is sqrt(v.dot(v)), bit for bit
            if delta is None or not np.isfinite(delta).all():
                mu[i] *= nu[i]
                nu[i] *= 2.0
            elif (math.sqrt(delta.dot(delta))
                  <= config.xtol * (math.sqrt(c[i].dot(c[i])) + config.xtol)):
                stops[i] = "xtol"
            else:
                stepping.append(i)
                deltas.append(delta)
        if not stepping:
            continue
        trials = c[stepping] + np.array(deltas)
        trial_res, trial_defined, trial_jac = _probe(plan, trials, X, y)
        for t, (i, delta) in enumerate(zip(stepping, deltas)):
            trial_sse = float(trial_res[t] @ trial_res[t])
            predicted = float(delta @ (mu[i] * delta - g[i]))
            actual = sse[i] - trial_sse
            if not (predicted > 0 and actual > 0):
                mu[i] *= nu[i]
                nu[i] *= 2.0
                if not math.isfinite(mu[i]):
                    stops[i] = "mu_overflow"
                continue
            rho = min(actual / predicted, 1.0)  # same 1/3 below; a huge rho overflows ** 3
            c[i], defined[i] = trials[t], trial_defined[t]
            if abs(actual) <= config.ftol * max(sse[i], 1e-300):
                stops[i] = "ftol"
            sse[i] = trial_sse
            if stops[i] is None:
                J = trial_jac[t]
                JTJ[i] = J.T @ J
                g[i] = J.T @ trial_res[t]
                if np.abs(g[i]).max() <= config.gtol:
                    stops[i] = "gtol"
            window = recent[i]
            window.append(trial_sse)
            if (stops[i] is None and len(window) > _STALL_WINDOW
                    and window[0] - trial_sse <= _STALL_RTOL * window[0]):
                stops[i] = "stall"
            if stops[i] is not None:
                continue
            mu[i] *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu[i] = 2.0
    return c, defined, sse, iterations, stops


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
            converged=True,
            valid=valid,
            best_restart=0,
            restart_sses=(),
            iterations=(),
            stops=(),
        )

    starts = np.empty((config.restarts, m))
    for restart in range(config.restarts):
        if restart == 0 and config.warm_start:
            starts[restart] = [
                hint if hint is not None else float(rng.standard_normal())
                for hint in skeleton.hints
            ]
        else:
            starts[restart] = rng.standard_normal(m)
    c, defined, sses, iterations, stops = _levenberg_marquardt(
        lower(skeleton.expr), starts, X, y, config)
    finite = [r for r, sse in enumerate(sses) if np.all(np.isfinite(c[r])) and sse < np.inf]
    if not finite:
        return FitResult(
            coefficients=np.full(m, np.nan),
            sse=float("inf"),
            converged=False,
            valid=False,
            best_restart=-1,
            restart_sses=tuple(sses),
            iterations=tuple(iterations),
            stops=tuple(stops),
        )
    best = min(finite, key=sses.__getitem__)
    return FitResult(
        coefficients=c[best],
        sse=sses[best],
        converged=any(s in ("gtol", "xtol", "ftol") for s in stops),
        valid=bool(np.all(defined[best])),
        best_restart=best,
        restart_sses=tuple(sses),
        iterations=tuple(iterations),
        stops=tuple(stops),
    )
