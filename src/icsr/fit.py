"""Multi-start nonlinear least squares for skeleton coefficients.

A skeleton that is affine in all its coefficients at once (Plan.affine:
c*sin(x) + c, say, or x*x with none) is fitted without LM or random
starts.  One pass at c = 0 gives its value there and its partials, which
do not depend on c; each restart then takes one undamped Gauss-Newton
step, exact for such a model, all of them in one multi-right-hand-side
lstsq.  Restart 0 steps from the hints (0 in a gap), the others from 0,
so theirs is the direct solve.  That solve leaves out a point where the
value at 0 or a partial is not finite, undefined or overflowed
(1e-300*exp(x)*exp(x) at x = 357), and the fit is undefined where no
restart's solution is defined either.

Any other skeleton goes through a plain Levenberg-Marquardt loop over
exact Jacobians: one pass over the tree's plan, lowered once per fit,
carries each value together with its partials in every coefficient
(forward-mode differentiation), so a trial point costs one row of
evaluation.  All restarts run in lockstep: each step solves every live
restart's damped normal equations in one stacked solve, then evaluates
all their trial points, with their Jacobians, as the rows of one pass
written straight into [-J; r].  J^T J, J^T r and r.r come from one
stacked matmul, and the per-restart tests run on Python floats.  A
restart that stops drops out of later batches.  Every row of a stacked
numpy call gets the bits it would get alone, so a restart's state at an
iteration does not depend on which restarts run beside it.  At 20-200
points a step costs numpy calls, not arithmetic, so each does as few as
it can.

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

Two rules stop a restart that can no longer win (beaten), as racing
(Maron & Moore 1997) and successive halving (Jamieson & Talwalkar 2016)
do: once restart i stops at SSE exactly 0, every later one stops and
the earlier ones run on (a tie goes to the lower index); until then, a
restart that has taken _RACE_ITERATIONS iterations stops if its SSE is
over _RACE_FACTOR times the lowest of a stopped restart that could win
(finite, defined everywhere) and, at the pace of its last accepted steps
for every iteration left, would still end above it.  Like stall, both
only end a restart early.

Undefined predictions contribute a large constant penalty residual
instead of poisoning the solve, which lets restarts wander through
invalid coefficient regions and still rank restarts by SSE.  The penalty
does not scale with y and a residual is clipped to a cap that may
outweigh it, so a restart defined at every point outranks any that is not.

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

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .expr import Plan, Skeleton, _evaluate, evaluate_batch, lower
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
# The race (see the docstring).  Its pace test spares a restart still falling
# fast: without it keijzer8 at 1 % noise lost one 18x better than the winner.
_RACE_ITERATIONS = 10
_RACE_FACTOR = 2.0
# Residuals are clipped to a huge finite band so overflow in y - yhat can
# never feed inf into the normal equations; anything near the band is
# garbage by many orders of magnitude anyway.
_RESIDUAL_CAP = 1.0e100
# Every restart's start is a row of one array, so a count from a config
# file is capped well below what that array could ever allocate.
_MAX_RESTARTS = 1000
# Far above any converging restart's count, so no config asks for an endless fit.
_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 5
    max_iterations: int = 200

    def __post_init__(self):
        integer(self, "restarts", 1, _MAX_RESTARTS)
        integer(self, "max_iterations", 1, _MAX_ITERATIONS)


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one skeleton on one dataset.

    coefficients/sse describe the best restart (see fit) and
    predictions its values at the n training points, from the fitter's
    last evaluation (all NaN when no restart ends finite).  valid means
    every prediction is finite, the gate scoring relies on.  restart_sses,
    iterations and stops hold each restart's final SSE, iteration count
    and stop reason: gtol, xtol, ftol, stall, cap, mu_overflow or beaten
    (it could no longer win) from LM;
    for an affine skeleton, a coefficient-free one too, lstsq (1
    iteration) or undefined (0, SSE inf; see _least_squares).  frozen
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
    """Predictions, the number of frozen columns and the normal equations
    [[J^T J, -J^T r], [., r.r]] (J the masked Jacobian of res) at each row
    of points: one pass of the plan, under the fit's errstate, writes the
    partials and residuals into one [-J; r] for one stacked matmul.
    Shapes: (k, n), a list of k ints and (k, m + 1, m + 1)."""
    k, m = points.shape
    both = np.empty((k, m + 1, len(y)))
    jac, res = both[:, :m], both[:, m]
    pred = _evaluate(plan, points, X, jac)
    np.subtract(y, pred, out=res)
    frozen = [0] * k
    # a sum of squares under the cap's square puts every entry under it; else
    # mask non-finite partials and residuals undefined, overflowed or clipped
    if not np.vdot(both, both) < _RESIDUAL_CAP ** 2:
        moves = np.abs(res) < _RESIDUAL_CAP
        _penalize(res)
        # on a cliff: a partial that is not finite where the prediction is defined
        cliff = (~np.isfinite(jac) & np.isfinite(pred)[:, None]).any(axis=2)
        np.copyto(jac, 0.0, where=~(moves[:, None] & ~cliff[:, :, None]))
        frozen = cliff.sum(axis=1).tolist()
    return pred, frozen, both @ both.transpose(0, 2, 1)


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


@np.errstate(all="ignore")  # as in fit: a test may call this directly
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
    pred, frozen, normal = _probe(plan, c, X, y)
    column = normal[:, :, m].tolist()  # per row: -J^T r, then r.r
    sse = [v[m] for v in column]
    frozen = sum(frozen)
    stops = ["gtol" if _flat(v[:m]) else None for v in column]
    mu = [1e-3 * max(max(A.diagonal().tolist()), 1e-12) for A in normal[:, :m, :m]]
    nu = [2.0] * k
    iterations = [0] * k
    # each restart's SSE before and after its last _STALL_WINDOW accepted steps
    recent = [deque([s], maxlen=_STALL_WINDOW + 1) for s in sse]
    # the lowest (SSE, restart) among stopped restarts that could win
    best, first = math.inf, k
    final_c, final_pred = np.empty_like(c), np.empty_like(pred)
    rows = list(range(k))  # the restart on each row of c, pred and normal
    while True:
        for t, i in enumerate(rows):
            if stops[i] is None and iterations[i] >= config.max_iterations:
                stops[i] = "cap"
            if (stops[i] is not None and (sse[i], i) < (best, first)
                    and np.isfinite(c[t]).all() and np.isfinite(pred[t]).all()):
                best, first = sse[i], i
        for i in rows:  # beaten: see the docstring
            if stops[i] is None and (i > first if best == 0.0 else (
                    iterations[i] >= _RACE_ITERATIONS and sse[i] > _RACE_FACTOR * best
                    and sse[i] * (sse[i] / recent[i][0])  # at its pace, for the steps left
                    ** ((config.max_iterations - iterations[i]) / max(len(recent[i]) - 1, 1))
                    > best)):
                stops[i] = "beaten"
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
        # per row: |delta|^2, |c|^2 and delta . rhs, as rows of one sum
        both = np.concatenate((deltas, c, deltas)) * np.concatenate((deltas, c, rhs))
        lengths, sizes, gains = np.add.reduce(both, axis=1).reshape(3, -1).tolist()
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
        trial_pred, trial_frozen, trial_normal = _probe(plan, trials, X, y)
        column = trial_normal[:, :, m].tolist()
        taken = [False] * len(rows)
        for t in stepping:
            i = rows[t]
            trial_sse = column[t][m]
            predicted = damping[t] * lengths[t] + gains[t]
            actual = sse[i] - trial_sse
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
            elif _flat(column[t][:m]):
                stops[i] = "gtol"
            sse[i] = trial_sse
            window = recent[i]
            window.append(trial_sse)
            if (stops[i] is None and len(window) > _STALL_WINDOW
                    and window[0] - trial_sse <= _STALL_RTOL * window[0]):
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
    docstring).  A start whose residual overflows takes no step.  Where a
    point left out of the solve is undefined at every restart's solution,
    every restart stops 'undefined'."""
    k, m = starts.shape
    offset, basis = evaluate_batch(plan, np.zeros(m), X, jacobian=True)
    rows = np.isfinite(offset) & np.isfinite(basis).all(axis=0)
    res = y[rows] - offset[rows] - starts @ basis[:, rows]
    res[~np.isfinite(res).all(axis=1)] = 0.0
    c = starts + np.linalg.lstsq(basis[:, rows].T, res.T, rcond=None)[0].T
    pred = evaluate_batch(plan, c, X)
    if np.isnan(pred[:, ~rows]).all(axis=0).any():
        return starts, np.full((k, len(y)), np.nan), [math.inf] * k, [0] * k, ["undefined"] * k, 0
    res = y - pred
    _penalize(res)
    return c, pred, (res * res).sum(axis=1).tolist(), [1] * k, ["lstsq"] * k, 0


def fit_memo_key(skeleton) -> tuple:
    """(key, the bits of each hint or None): all of a skeleton that its fit
    depends on, and the key of a fit memo."""
    return skeleton.key, tuple(None if h is None else h.hex() for h in skeleton.hints)


def fit_rng(memo_key: tuple) -> np.random.Generator:
    """The generator a fit draws its restart starts from, seeded from the
    SHA-256 digest of its fit_memo_key."""
    digest = hashlib.sha256(json.dumps(memo_key).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


@np.errstate(all="ignore")  # overflow in an SSE or a step is handled as inf
def fit(skeleton: Skeleton, dataset: Dataset, config: FitConfig = FitConfig(),
        rng: np.random.Generator | None = None) -> FitResult:
    """Fit skeleton coefficients to the dataset's training points.

    Restart 0 starts from the skeleton's literal-derived hints where
    available.  Its gaps and the other restarts start from 0 for an affine
    skeleton, and for LM from standard normal draws from rng, by default
    fit_rng(fit_memo_key(skeleton)).  The restart with the smallest final
    SSE wins, though one defined on every training point beats any that
    is not.  A result is only valid if the winning coefficients are
    finite and the fitted expression is defined on every training point.
    """
    m = skeleton.num_slots
    X, y = dataset.X, dataset.y
    plan = lower(skeleton.expr)
    starts = np.zeros((config.restarts, m))
    if plan.affine:
        starts[0] = [0.0 if hint is None else hint for hint in skeleton.hints]
        c, pred, sses, iterations, stops, frozen = _least_squares(plan, starts, X, y)
    else:
        if rng is None:
            rng = fit_rng(fit_memo_key(skeleton))
        starts[0] = [float(rng.standard_normal()) if hint is None else hint
                     for hint in skeleton.hints]
        starts[1:] = rng.standard_normal((config.restarts - 1, m))
        c, pred, sses, iterations, stops, frozen = _levenberg_marquardt(
            plan, starts, X, y, config)
    finite = [r for r, sse in enumerate(sses) if np.all(np.isfinite(c[r])) and sse < np.inf]
    if finite:
        defined = np.isfinite(pred).all(axis=1).tolist()
        best = min(finite, key=lambda r: (not defined[r], sses[r]))
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
