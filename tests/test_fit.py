import hashlib
import math
import types
from dataclasses import fields

import numpy as np
import pytest

import icsr.fit as fit_module
from icsr.bench import get_benchmark, load_benchmarks, sample
from icsr.dataset import Dataset
from icsr.engine import EngineConfig, NoValidSeedsError, run
from icsr.expr import canonicalize, evaluate_batch, lower, parse
from icsr.fit import FitConfig, FitResult, fit
from icsr.llm import ReplayBackend


def _converged(res):
    return any(s in ("gtol", "xtol", "ftol") for s in res.stops)


def _assert_fresh_predictions(res, tree, X):
    # the fitter's own predictions are a fresh evaluation's, bit for bit
    fresh = evaluate_batch(tree, res.coefficients, X)
    assert res.predictions.shape == (len(X),)
    assert res.predictions.tobytes() == fresh.tobytes()


def _dataset(expr_text, coeffs, x, name="synthetic"):
    tree = parse(expr_text, 1)
    y = evaluate_batch(tree, coeffs, x.reshape(-1, 1))
    return Dataset(x.reshape(-1, 1), y, name=name)


def test_recovers_sine_offset():
    x = np.linspace(-3, 3, 40)
    ds = _dataset("c*sin(x) + c", [0.4, 2.7], x)
    sk = canonicalize(parse("c*sin(x) + c", 1))
    res = fit(sk, ds, rng=np.random.default_rng(0))
    # an affine skeleton: one exact least-squares step per restart, no LM
    assert res.valid and res.stops == ("lstsq",) * 5
    # canonical slot order: offset first, sine multiplier second
    np.testing.assert_allclose(res.coefficients, [2.7, 0.4], rtol=1e-6)
    assert res.sse < 1e-12


def test_recovers_exponential_decay():
    x = np.linspace(-1, 2, 50)
    ds = _dataset("c*exp(c*x)", [1.7, -0.8], x)
    sk = canonicalize(parse("c*exp(c*x)", 1))
    res = fit(sk, ds, rng=np.random.default_rng(4))
    assert res.valid
    np.testing.assert_allclose(res.coefficients, [1.7, -0.8], rtol=1e-5)


def test_recovers_power_exponent():
    x = np.linspace(0.5, 4, 40)
    ds = _dataset("x^c", [0.426], x)
    sk = canonicalize(parse("x^c", 1))
    res = fit(sk, ds, rng=np.random.default_rng(5))
    assert res.valid
    np.testing.assert_allclose(res.coefficients, [0.426], rtol=1e-5)


def test_matches_closed_form_linear_least_squares():
    rng = np.random.default_rng(7)
    x = np.linspace(-3, 3, 40)
    y = 3.0 * x - 1.0 + 0.01 * rng.standard_normal(x.size)
    ds = Dataset(x.reshape(-1, 1), y)
    sk = canonicalize(parse("c*x + c", 1))
    res = fit(sk, ds, rng=np.random.default_rng(3))
    A = np.column_stack([np.ones_like(x), x])
    expected, *_ = np.linalg.lstsq(A, y, rcond=None)
    np.testing.assert_allclose(res.coefficients, expected, rtol=1e-7)
    # an affine skeleton: one exact least-squares step per restart, no LM
    assert res.valid and res.frozen == 0
    assert res.stops == ("lstsq",) * 5 and res.iterations == (1,) * 5
    np.testing.assert_allclose(res.restart_sses, res.sse, rtol=1e-12)
    _assert_fresh_predictions(res, sk.expr, ds.X)


def test_warm_start_from_literal_hints_wins_restart_zero():
    x = np.linspace(0.1, 4, 30)
    ds = _dataset("sqrt(1.23*x)", [], x)
    sk = canonicalize(parse("sqrt(1.23*x)", 1))
    assert sk.hints == (1.23,)
    res = fit(sk, ds, rng=np.random.default_rng(0))
    assert res.best_restart == 0
    assert res.sse <= 1e-20
    np.testing.assert_allclose(res.coefficients, [1.23], rtol=1e-9)


def test_partial_warm_start_fills_missing_hint():
    x = np.linspace(-3, 3, 40)
    sk = canonicalize(parse("c*sin(x) + 2.7", 1))
    assert sk.hints == (2.7, None)
    ds = Dataset(x.reshape(-1, 1), 2.7 + 0.4 * np.sin(x))
    res = fit(sk, ds, rng=np.random.default_rng(0))
    assert res.valid
    np.testing.assert_allclose(res.coefficients, [2.7, 0.4], rtol=1e-6)


def test_no_slot_skeleton_evaluates_directly():
    x = np.linspace(-2, 2, 25)
    sk = canonicalize(parse("x*x", 1))
    assert sk.num_slots == 0
    ds = Dataset(x.reshape(-1, 1), x**2)
    res = fit(sk, ds, rng=np.random.default_rng(0))
    assert res.valid
    assert res.sse == 0.0
    assert res.restart_sses == (0.0,) * 5 and res.stops == ("lstsq",) * 5
    assert res.coefficients.shape == (0,)
    _assert_fresh_predictions(res, sk.expr, ds.X)


def test_no_slot_skeleton_undefined_everywhere_is_invalid():
    x = np.linspace(-2, -1, 10)
    sk = canonicalize(parse("log(x)*x", 1))
    assert sk.num_slots == 0
    ds = Dataset(x.reshape(-1, 1), np.ones(10))
    res = fit(sk, ds, rng=np.random.default_rng(0))
    assert not res.valid


def test_undefined_region_handled_by_penalty():
    # true offset sits on the domain boundary; bad starts leave points
    # undefined and have to be pushed out by the penalty residuals
    x = np.linspace(0.0, 4.0, 30)
    sk = canonicalize(parse("sqrt(x - c)", 1))
    ds = Dataset(x.reshape(-1, 1), np.sqrt(x))
    res = fit(sk, ds, rng=np.random.default_rng(1))
    assert res.valid
    assert abs(res.coefficients[0]) < 1e-4
    assert res.sse < 1e-5


def test_always_undefined_skeleton_reports_invalid():
    x = np.linspace(-2, -1, 10)
    sk = canonicalize(parse("log(x) + c", 1))
    ds = Dataset(x.reshape(-1, 1), np.ones(10))
    res = fit(sk, ds, rng=np.random.default_rng(2))
    assert not res.valid
    assert res.sse >= 1e12
    # affine, and undefined where its value at 0 is: so for every c
    assert res.stops == ("undefined",) * 5 and res.iterations == (0,) * 5
    assert res.restart_sses == (np.inf,) * 5 and res.frozen == 0
    assert res.best_restart == -1 and np.isnan(res.coefficients).all()


def test_reports_one_sse_per_restart_and_picks_the_minimum():
    x = np.linspace(-3, 3, 40)
    ds = _dataset("c*sin(x) + c", [0.4, 2.7], x)
    sk = canonicalize(parse("c*sin(x) + c", 1))
    cfg = FitConfig(restarts=5)
    res = fit(sk, ds, cfg, rng=np.random.default_rng(11))
    assert len(res.restart_sses) == 5
    finite = [s for s in res.restart_sses if np.isfinite(s)]
    assert res.sse == min(finite)
    assert res.restart_sses[res.best_restart] == res.sse


def test_deterministic_given_rng_seed():
    x = np.linspace(-2, 2, 30)
    ds = _dataset("c*x^c", [0.5, 3.0], np.abs(x) + 0.1)
    sk = canonicalize(parse("c*x^c", 1))
    a = fit(sk, ds, rng=np.random.default_rng(42))
    b = fit(sk, ds, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    assert a.restart_sses == b.restart_sses
    assert a.best_restart == b.best_restart


def test_single_restart_config():
    x = np.linspace(-3, 3, 40)
    ds = _dataset("c*x + c", [2.0, -1.0], x)
    sk = canonicalize(parse("c*x + c", 1))
    res = fit(sk, ds, FitConfig(restarts=1), rng=np.random.default_rng(0))
    assert len(res.restart_sses) == 1
    assert res.best_restart == 0
    assert res.valid


def test_each_affine_restart_steps_from_its_own_start():
    # the two columns of c*x + c*x are equal, so the data fix only the sum of
    # the coefficients; each restart keeps its own start's difference
    sk = canonicalize(parse("c*x + c*x", 1))
    assert sk.num_slots == 2
    x = np.linspace(0.5, 2.0, 12)
    ds = Dataset(x.reshape(-1, 1), 3.0 * x)
    starts = np.random.default_rng(0).standard_normal((5, 2))
    c, pred, sses, iterations, stops, frozen = fit_module._least_squares(
        lower(sk.expr), starts, ds.X, ds.y)
    np.testing.assert_allclose(c.sum(axis=1), 3.0, rtol=1e-12)
    np.testing.assert_allclose(c[:, 0] - c[:, 1], starts[:, 0] - starts[:, 1], rtol=1e-12)
    assert (iterations, stops, frozen) == ([1] * 5, ["lstsq"] * 5, 0)
    assert max(sses) < 1e-20


def test_an_affine_start_whose_residual_overflows_takes_no_step():
    # the hint 1e300 times x near 1e10 overflows: restart 0 stays at its
    # start, undefined there, and the others fit
    x = np.linspace(1e10, 2e10, 12)
    ds = Dataset(x.reshape(-1, 1), 2.0 + 3.0 * x)
    sk = canonicalize(parse("2 + 1e300*x", 1))
    assert sk.hints == (2.0, 1e300)
    res = fit(sk, ds, rng=np.random.default_rng(0))
    assert res.stops == ("lstsq",) * 5 and res.best_restart != 0 and res.valid
    assert res.restart_sses[0] == 12 * fit_module.PENALTY**2
    np.testing.assert_allclose(res.predictions, ds.y, rtol=1e-12)


def test_an_affine_fit_leaves_out_a_point_whose_partial_overflows():
    # exp(x)*exp(x) overflows at x = 357, so the partial in c is inf there,
    # but 1e-300*exp(x)*exp(x) is finite: the lstsq solves on the other
    # points, and the warm start fits all three
    x = np.array([1.0, 2.0, 357.0])
    ds = Dataset(x.reshape(-1, 1), 1e-300 * np.exp(x) * np.exp(x))
    res = fit(canonicalize(parse("1e-300*exp(x)*exp(x)", 1)), ds)
    assert res.valid and res.best_restart == 0 and res.stops == ("lstsq",) * 5
    np.testing.assert_allclose(res.predictions, ds.y, rtol=1e-12)


def test_a_restart_defined_everywhere_beats_an_undefined_one():
    # no defined prediction comes near y = 1e150 at x = 0.1: the warm start
    # c = 1 is defined everywhere, but its residual there is clipped to the
    # cap, so its SSE reads 1e200, above the PENALTY^2 of the restarts that
    # end at c < -0.1, which are undefined there
    x = np.array([0.1, 5.0, 6.0])
    ds = Dataset(x.reshape(-1, 1), np.array([1e150, np.log(6.0), np.log(7.0)]))
    res = fit(canonicalize(parse("log(1.0 + x)", 1)), ds)
    assert "lstsq" not in res.stops
    assert res.restart_sses[0] > min(res.restart_sses[1:]) >= fit_module.PENALTY**2
    assert res.valid and res.best_restart == 0 and res.sse == res.restart_sses[0]
    assert res.sse == fit_module._RESIDUAL_CAP ** 2  # the clipped miss alone
    # so too with no undefined restart in the batch beside it
    alone = fit(canonicalize(parse("log(1.0 + x)", 1)), ds, FitConfig(restarts=1))
    assert alone.sse == fit_module._RESIDUAL_CAP ** 2
    np.testing.assert_allclose(res.predictions[1:], ds.y[1:], rtol=1e-12)


def test_an_affine_fit_draws_nothing_and_restarts_after_0_solve_directly(monkeypatch):
    # the same slots and hints, one form affine and one not: only the LM fit
    # draws from the generator it is given
    x = np.linspace(0.5, 2.0, 12)
    ds = Dataset(x.reshape(-1, 1), 1.5 + 2.0 * x)
    affine, curved = canonicalize(parse("1.5 + c*x", 1)), canonicalize(parse("1.5 + x^c", 1))
    assert affine.hints == curved.hints == (1.5, None)
    states, stops = [], []
    for sk in (affine, curved):
        rng = np.random.default_rng(3)
        stops.append(fit(sk, ds, rng=rng).stops)
        states.append(rng.bit_generator.state)
    assert stops[0] == ("lstsq",) * 5 and "lstsq" not in stops[1]
    assert states[0] == np.random.default_rng(3).bit_generator.state != states[1]
    # the data fix only the sum of c*x + c*x's coefficients, and every
    # restart after 0 starts from 0, so all of them end on the same bits
    original, solved = fit_module._least_squares, []

    def least_squares(*args):
        solved.append(original(*args))
        return solved[-1]

    monkeypatch.setattr(fit_module, "_least_squares", least_squares)
    res = fit(canonicalize(parse("c*x + c*x", 1)), Dataset(x.reshape(-1, 1), 3.0 * x))
    assert res.valid and len({row.tobytes() for row in solved[0][0][1:]}) == 1
    # a coefficient far below any start's rounding survives the direct solve
    x = np.array([1.0, 2.0, 400.0])
    ds = Dataset(x.reshape(-1, 1), 1e-200 * np.exp(x) * np.exp(x))
    sk = canonicalize(parse("c*exp(x)*exp(x)", 1))
    assert sk.hints == (None,)
    res = fit(sk, ds)
    assert res.valid
    np.testing.assert_allclose(res.coefficients, [1e-200], rtol=1e-12)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(restarts=0)
    with pytest.raises(ValueError):
        FitConfig(max_iterations=0)
    # counts are non-bool ints >= 1
    for key in ("restarts", "max_iterations"):
        for bad in (2.5, -1, True, "3", None):
            with pytest.raises(ValueError, match=key):
                FitConfig(**{key: bad})
    edge = FitConfig(restarts=1, max_iterations=np.int64(1))
    assert (edge.restarts, edge.max_iterations) == (1, 1)
    # the stopping thresholds are module constants, not fields
    assert [f.name for f in fields(FitConfig)] == ["restarts", "max_iterations"]


def test_fit_result_is_immutable():
    x = np.linspace(-1, 1, 10)
    ds = _dataset("c*x", [2.0], x)
    res = fit(canonicalize(parse("c*x", 1)), ds, rng=np.random.default_rng(0))
    assert isinstance(res, FitResult)
    with pytest.raises(Exception):
        res.sse = 0.0


# ---------------------------------------------------------------------------
# Golden values: float.hex values captured from the fitter with exact
# Jacobians, which must never drift.  That each restart does exactly the
# arithmetic of fitting it on its own is checked below, against the same
# fits run one restart at a time.  The last three cases pin the rarer
# exits of a restart: every restart running out of iterations, a singular
# damped system (LinAlgError: the warm start's two shifts, both 2, have
# bit-identical Jacobian columns), and a run of rejected steps whose
# damping overflows.  With the default _XTOL the step-size test stops such
# a run long before the damping overflows, so that case turns it off.
#
# _GOLDEN holds the fitter without the stall stop (_STALL_RTOL = 0: every
# accepted step lowers the SSE strictly, so the stall test never fires)
# and without the race (_RACE_ITERATIONS = inf; no case fits exactly, so
# no restart is beaten by an exact one either).  _GOLDEN_STALL holds the
# cases the default stops change: stall in three, the race in warm_hints.
# test_stalled_restart_holds_the_rule_free_state_at_its_count and
# test_a_beaten_restart_holds_the_race_free_state_at_its_count check that
# a stopped restart holds the rule-free fitter's state at its count.
# ---------------------------------------------------------------------------

def _golden_cases():
    x = np.linspace(-1.0, 2.0, 40)
    y = 1.7 * np.exp(-0.8 * x) + 0.2 + 0.01 * np.sin(7 * x)
    yield "warm_hints", parse("1.5*exp(-0.7*x) + 0.3", 1), Dataset(x.reshape(-1, 1), y), 3
    x = np.linspace(0.0, 4.0, 30)
    yield "penalty_region", parse("sqrt(x - c)", 1), Dataset(x.reshape(-1, 1), np.sqrt(x)), 1
    x = np.linspace(-2.0, 2.0, 25)
    y = 1.3 * x**2 + 0.05 * np.cos(3 * x)
    yield "pow_cliff", parse("c*x^2", 1), Dataset(x.reshape(-1, 1), y), 5
    g = np.linspace(0.1, 1.0, 6)
    X = np.array([(a, b) for a in g for b in g])
    y = 0.9 * X[:, 0] * np.sin(1.4 * X[:, 1]) + 0.3
    yield "two_d", parse("c*x1*sin(c*x2) + c", 2), Dataset(X, y), 7
    x = np.linspace(1.0, 5.0, 30)
    yield "iteration_cap", parse("c*sin(c*x)", 1), Dataset(x.reshape(-1, 1), 1e4 * np.sin(3 * x)), 1
    x = np.linspace(-3.0, 3.0, 25)
    yield ("singular_solve", parse("1/(2 + x)*1/(2 + x)", 1),
           Dataset(x.reshape(-1, 1), 2 * np.exp(x / 3)), 0)
    u = np.linspace(1.0, 5.0, 30)
    yield ("mu_overflow", parse("c*x + c", 1),
           Dataset(1e80 * u.reshape(-1, 1), 1e80 * (u + 0.3 * np.sin(3 * u))), 2)


_XTOL = fit_module._XTOL


def _set_golden_xtol(monkeypatch, name):
    """The step-size test off for mu_overflow (see above), at its default
    for every other case."""
    monkeypatch.setattr(fit_module, "_XTOL", 0.0 if name == "mu_overflow" else _XTOL)


# name: (coefficients, sse, restart_sses, iterations)
_GOLDEN = {
    "warm_hints": (
        ["0x1.9c6ff4b432cf9p-3", "0x1.b2d93acee9cdfp+0", "-0x1.9a1991d938185p-1"],
        "0x1.00113c49ceb77p-9",
        ["0x1.00113c49ceb77p-9", "0x1.b5f8484317877p+1", "0x1.00113c49cebb0p-9",
         "0x1.00113c49ceb80p-9", "0x1.00113c49ceb9ep-9"],
        (5, 200, 14, 6, 12),
    ),
    "penalty_region": (
        ["-0x1.5e83c6ab7f808p-67"],
        "0x1.5e83c6ab7f808p-67",
        ["0x1.d1a94a2000002p+39", "0x1.d1a94a2000000p+39", "0x1.d1a94a2000000p+39",
         "0x1.5e83c6ab7f808p-67", "0x1.d1a94a2000004p+39"],
        (2, 4, 2, 82, 3),
    ),
    "pow_cliff": (
        ["0x1.4d799b830da5fp+0", "0x1.0000000000000p+1"],
        "0x1.f27e88a026036p-6",
        ["0x1.f27e88a026036p-6", "0x1.5d3ef798000b8p+43", "0x1.5d3ef79800008p+43",
         "0x1.5d3ef79802f6dp+43", "0x1.5d3ef79800059p+43"],
        (3, 9, 5, 10, 8),
    ),
    "two_d": (
        ["0x1.333333343d83ap-2", "-0x1.ccccccd0f786dp-1", "-0x1.6666665f156ecp+0"],
        "0x1.f64e624354900p-62",
        ["0x1.2cf65a2a1fd60p-60", "0x1.f64e624354900p-62", "0x1.652d8108221e5p-52",
         "0x1.4b222b96a4494p-58", "0x1.4391b2c830268p-56"],
        (11, 5, 6, 5, 7),
    ),
    "iteration_cap": (
        ["0x1.d311ecd2263b9p+4", "0x1.80e7f298fb64fp+5"],
        "0x1.66b7aa0fd8db5p+30",
        ["0x1.687f29cd73b3ap+30", "0x1.66b7aa0fd8db5p+30", "0x1.676473ed261e7p+30",
         "0x1.683e826f03268p+30", "0x1.6890bb960c4dbp+30"],
        (200, 200, 200, 200, 200),
    ),
    "singular_solve": (
        ["-0x1.2822264d01b13p+1", "-0x1.58bb307733006p-9",
         "-0x1.3f4ffe6368ed9p+0", "-0x1.01c36e070528ep-1"],
        "0x1.5d7871c55adafp+7",
        ["0x1.76b3015770710p+7", "0x1.6ef28ee29b26bp+7", "0x1.6fc59d6c72cc7p+7",
         "0x1.671d121a2ee27p+7", "0x1.5d7871c55adafp+7"],
        (24, 45, 15, 21, 23),
    ),
    "mu_overflow": (
        ["-0x1.a6fa212826f90p-2", "0x1.022955d1d6950p+0"],
        "0x1.e79c0020787a9p+531",
        ["0x1.e79c0020787afp+531", "0x1.e79c0020787a9p+531", "0x1.e79c0020787afp+531",
         "0x1.e79c0020787b0p+531", "0x1.e79c0020787abp+531"],
        (4, 35, 3, 5, 7),
    ),
}


_GOLDEN_STALL = {
    "warm_hints": (
        ["0x1.9c6ff4b432cf9p-3", "0x1.b2d93acee9cdfp+0", "-0x1.9a1991d938185p-1"],
        "0x1.00113c49ceb77p-9",
        ["0x1.00113c49ceb77p-9", "0x1.f6101f2e723a0p+1", "0x1.00113c49cebb0p-9",
         "0x1.00113c49ceb80p-9", "0x1.00113c49ceb9ep-9"],
        (5, 17, 14, 6, 12),
    ),
    "iteration_cap": (
        ["0x1.ba1be109decb2p+4", "0x1.80df955c94019p+5"],
        "0x1.66d160edd9e52p+30",
        ["0x1.688c0ae25d849p+30", "0x1.66d160edd9e52p+30", "0x1.6764cff78bfd0p+30",
         "0x1.6892bca77d6c5p+30", "0x1.6891059168183p+30"],
        (26, 29, 27, 18, 21),
    ),
    "singular_solve": (
        ["-0x1.2822264d01b13p+1", "-0x1.58bb307733006p-9",
         "-0x1.3f4ffe6368ed9p+0", "-0x1.01c36e070528ep-1"],
        "0x1.5d7871c55adafp+7",
        ["0x1.76b3015770710p+7", "0x1.6ef29671e0743p+7", "0x1.6fc59d6c72cc7p+7",
         "0x1.671d121a2f47ep+7", "0x1.5d7871c55adafp+7"],
        (24, 40, 15, 20, 23),
    ),
}

# name: (stops without the stall stop and the race, stops with them)
_GOLDEN_STOPS = {
    "warm_hints": (("gtol", "cap", "gtol", "ftol", "ftol"),
                   ("gtol", "beaten", "gtol", "ftol", "ftol")),
    "penalty_region": (("ftol", "ftol", "ftol", "xtol", "ftol"),) * 2,
    "pow_cliff": (("gtol", "ftol", "ftol", "ftol", "ftol"),) * 2,
    "two_d": (("gtol",) * 5,) * 2,
    "iteration_cap": (("cap",) * 5, ("stall",) * 5),
    "singular_solve": (("ftol",) * 5, ("ftol", "stall", "ftol", "stall", "ftol")),
    "mu_overflow": (("ftol", "mu_overflow", "ftol", "ftol", "ftol"),) * 2,
}


def _dispatch_fingerprint():
    """A digest of the bits np.exp gives on fixed inputs.  numpy's exp,
    log, power, sinh and cosh give different low bits under AVX-512
    dispatch than under AVX2, and warm_hints's fit takes its own low bits
    from exp."""
    return hashlib.sha256(np.exp(np.linspace(-3.0, 3.0, 1001)).tobytes()).hexdigest()[:16]


# fingerprint: {name: (golden without the stall stop and the race, golden
# with them)} for each case whose values at that dispatch level differ
# from _GOLDEN and _GOLDEN_STALL.  Both sets were captured in a child
# process with numpy 2.4.6 on an x86-64 machine with AVX-512: under the
# default dispatch (X86_V4), and under NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL AVX512_SPR" (X86_V3, AVX2).
_GOLDEN_BY_DISPATCH = {
    "ba6f9be9c898281f": {},
    "db0cc5f913338ef2": {
        "warm_hints": ((
            ["0x1.9c6ff4b51ce5dp-3", "0x1.b2d93acec5924p+0", "-0x1.9a1991d959dbep-1"],
            "0x1.00113c49ceb6fp-9",
            ["0x1.00113c49ceb9ep-9", "0x1.b5f8484a96b21p+1", "0x1.00113c49cebdep-9",
             "0x1.00113c49cebb5p-9", "0x1.00113c49ceb6fp-9"],
            (5, 200, 14, 6, 12),
        ), (
            ["0x1.9c6ff4b51ce5dp-3", "0x1.b2d93acec5924p+0", "-0x1.9a1991d959dbep-1"],
            "0x1.00113c49ceb6fp-9",
            ["0x1.00113c49ceb9ep-9", "0x1.f6101f2e72312p+1", "0x1.00113c49cebdep-9",
             "0x1.00113c49cebb5p-9", "0x1.00113c49ceb6fp-9"],
            (5, 17, 14, 6, 12),
        )),
    },
}


def _golden(name, stall):
    """A case's golden values at this process's dispatch level."""
    fingerprint = _dispatch_fingerprint()
    if fingerprint not in _GOLDEN_BY_DISPATCH:
        pytest.fail(f"no fit goldens for numpy dispatch fingerprint {fingerprint!r}")
    if name in _GOLDEN_BY_DISPATCH[fingerprint]:
        return _GOLDEN_BY_DISPATCH[fingerprint][name][stall]
    return _GOLDEN_STALL.get(name, _GOLDEN[name]) if stall else _GOLDEN[name]


def _fit_by_lm(monkeypatch, skeleton, dataset, seed):
    """fit, with the plan taken through LM even when it is affine, so LM
    runs on the starts fit draws.  mu_overflow's c*x + c is affine, and
    fit would solve it by lstsq."""
    lower = fit_module.lower
    monkeypatch.setattr(fit_module, "lower", lambda e: lower(e)._replace(affine=False))
    return fit(skeleton, dataset, rng=np.random.default_rng(seed))


def _assert_golden(res, golden):
    coefficients, sse, restart_sses, iterations = golden
    assert [float(v).hex() for v in res.coefficients] == coefficients
    assert float(res.sse).hex() == sse
    assert [float(v).hex() for v in res.restart_sses] == restart_sses
    assert res.iterations == iterations


@pytest.mark.parametrize("name,tree,dataset,seed", list(_golden_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_golden_fit_values_are_bit_exact(monkeypatch, name, tree, dataset, seed):
    monkeypatch.setattr(fit_module, "_STALL_RTOL", 0.0)
    monkeypatch.setattr(fit_module, "_RACE_ITERATIONS", math.inf)
    _set_golden_xtol(monkeypatch, name)
    skeleton = canonicalize(tree, dataset.dim)
    res = _fit_by_lm(monkeypatch, skeleton, dataset, seed)
    _assert_golden(res, _golden(name, stall=False))
    assert res.stops == _GOLDEN_STOPS[name][0]
    _assert_fresh_predictions(res, skeleton.expr, dataset.X)


@pytest.mark.parametrize("name,tree,dataset,seed", list(_golden_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_golden_fit_values_with_the_stall_stop(monkeypatch, name, tree, dataset, seed):
    _set_golden_xtol(monkeypatch, name)
    skeleton = canonicalize(tree, dataset.dim)
    res = _fit_by_lm(monkeypatch, skeleton, dataset, seed)
    _assert_golden(res, _golden(name, stall=True))
    assert res.stops == _GOLDEN_STOPS[name][1]
    _assert_fresh_predictions(res, skeleton.expr, dataset.X)


def test_singular_solve_golden_still_takes_the_linalg_error_branch(monkeypatch):
    raised, steps = [], []
    solve, stacked = np.linalg.solve, fit_module._solve

    def counting_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(np.ndim(a))
            raise

    def recording_solve(A, b):
        steps.append(stacked(A, b))
        return steps[-1]

    monkeypatch.setattr(fit_module.np.linalg, "solve", counting_solve)
    monkeypatch.setattr(fit_module, "_solve", recording_solve)
    name, tree, dataset, seed = [c for c in _golden_cases() if c[0] == "singular_solve"][0]
    res = fit(canonicalize(tree, dataset.dim), dataset, rng=np.random.default_rng(seed))
    _assert_golden(res, _golden(name, stall=True))
    assert res.stops == _GOLDEN_STOPS[name][1]
    # one stacked solve raised; solved row by row, only one row raised again
    assert raised == [3, 2]
    singular = [d for d in steps if np.isnan(d).any()]
    assert len(singular) == 1
    # that restart alone got no step, so it alone took the mu-growth branch
    assert np.isnan(singular[0]).all(axis=1).sum() == 1
    assert np.isfinite(singular[0][~np.isnan(singular[0]).any(axis=1)]).all()


def _exact_case():
    """c*exp(c*x) on its own values at (1.7, -0.8), with restart 2 of five
    normal draws starting there: it stops at SSE 0 before any step."""
    skeleton = canonicalize(parse("c*exp(c*x)", 1))
    X = np.linspace(-1.0, 2.0, 30).reshape(-1, 1)
    starts = np.random.default_rng(46).standard_normal((5, 2))
    starts[2] = [1.7, -0.8]
    return skeleton, Dataset(X, evaluate_batch(skeleton.expr, starts[2], X)), starts


def test_lockstep_restarts_match_each_restart_alone(monkeypatch):
    # alone, a restart has none to be beaten by: a beaten one holds its state
    # alone at its count, where a cap at that count stops it
    config = FitConfig()
    cases = [("exact", *_exact_case())]
    for name, tree, dataset, seed in _golden_cases():
        skeleton = canonicalize(tree, dataset.dim)
        starts = np.random.default_rng(seed).standard_normal((5, skeleton.num_slots))
        cases.append((name, skeleton, dataset, starts))
    beaten = []
    for name, skeleton, dataset, starts in cases:
        _set_golden_xtol(monkeypatch, name)
        plan = lower(skeleton.expr)
        together = fit_module._levenberg_marquardt(plan, starts, dataset.X, dataset.y, config)
        for i in range(5):
            stop = together[4][i]
            count = types.SimpleNamespace(max_iterations=together[3][i])
            alone = fit_module._levenberg_marquardt(plan, starts[i:i + 1], dataset.X, dataset.y,
                                                    count if stop == "beaten" else config)
            assert together[0][i].tobytes() == alone[0][0].tobytes(), name
            assert together[1][i].tobytes() == alone[1][0].tobytes(), name
            assert [float(v[i]).hex() for v in together[2:4]] == [
                float(v[0]).hex() for v in alone[2:4]], name
            assert alone[4][0] == ("cap" if stop == "beaten" else stop), name
            if stop == "beaten":
                beaten.append((name, together[3][i]))
    # the race beats one of warm_hints's restarts; the exact one two at 0
    assert ("warm_hints", 17) in beaten and beaten.count(("exact", 0)) == 2


def _stalling_cases():
    for name, tree, dataset, seed in _golden_cases():
        if name in ("warm_hints", "iteration_cap", "singular_solve"):  # stall changes these
            yield tree, dataset, seed
    # wrong forms whose SSE creeps down an asymptote without end
    for equation, text in (("constant6", "c*sinh(c*x)"), ("keijzer12", "c*tanh(c*x1 + c*x2)")):
        spec = get_benchmark(equation)
        yield parse(text, spec.dim), sample(spec, "train"), 0


@pytest.mark.parametrize("tree,dataset,seed", list(_stalling_cases()))
def test_stalled_restart_holds_the_rule_free_state_at_its_count(monkeypatch, tree, dataset,
                                                                seed):
    monkeypatch.setattr(fit_module, "_RACE_ITERATIONS", math.inf)  # the stall stop alone
    skeleton = canonicalize(tree, dataset.dim)
    plan = lower(skeleton.expr)
    starts = np.random.default_rng(seed).standard_normal((5, skeleton.num_slots))
    X, y = dataset.X, dataset.y
    c, _, sse, iterations, stops, _ = fit_module._levenberg_marquardt(plan, starts, X, y,
                                                                   FitConfig())
    assert "stall" in stops
    monkeypatch.setattr(fit_module, "_STALL_RTOL", 0.0)
    for i, stop in enumerate(stops):
        if stop != "stall":
            continue
        capped = FitConfig(max_iterations=iterations[i])
        c0, _, sse0, iterations0, stops0, _ = fit_module._levenberg_marquardt(plan, starts, X, y,
                                                                           capped)
        assert (iterations0[i], stops0[i]) == (iterations[i], "cap")
        assert c0[i].tobytes() == c[i].tobytes()
        assert float(sse0[i]).hex() == float(sse[i]).hex()


def test_an_exact_restart_beats_the_restarts_after_it(monkeypatch):
    skeleton, dataset, starts = _exact_case()

    def run():
        c, _, sse, iterations, stops, _ = fit_module._levenberg_marquardt(
            lower(skeleton.expr), starts, dataset.X, dataset.y, FitConfig())
        return c.tobytes(), [float(s).hex() for s in sse], iterations, stops

    raced = run()
    _, sse, iterations, stops = raced
    assert (sse[2], iterations[2], stops[2]) == (float(0).hex(), 0, "gtol")
    # the restarts after 2 stop before any step; those before it run on past
    # the race's start, as the race is off once a restart stops at SSE 0
    assert stops[3:] == ["beaten"] * 2 and iterations[3:] == [0, 0]
    assert "beaten" not in stops[:2] and min(iterations[:2]) > fit_module._RACE_ITERATIONS
    monkeypatch.setattr(fit_module, "_RACE_ITERATIONS", math.inf)  # the exact stop alone
    assert run() == raced
    # an exact warm start ends every other restart of a fit, which still
    # reports all five
    hinted = canonicalize(parse("1.7*exp(-0.8*x)", 1))
    ds = Dataset(dataset.X, evaluate_batch(hinted.expr, hinted.hints, dataset.X))
    res = fit(hinted, ds)
    assert res.stops == ("gtol",) + ("beaten",) * 4 and res.iterations == (0,) * 5
    assert (res.best_restart, res.sse, len(res.restart_sses)) == (0, 0.0, 5)


def _beaten_cases():
    for name, tree, dataset, seed in _golden_cases():
        if name == "warm_hints":
            skeleton = canonicalize(tree, dataset.dim)
            yield skeleton, dataset, np.random.default_rng(seed).standard_normal((5, 3))
    yield _exact_case()


@pytest.mark.parametrize("skeleton,dataset,starts", list(_beaten_cases()))
def test_a_beaten_restart_holds_the_race_free_state_at_its_count(monkeypatch, skeleton,
                                                                 dataset, starts):
    plan = lower(skeleton.expr)
    X, y = dataset.X, dataset.y
    c, _, sse, iterations, stops, _ = fit_module._levenberg_marquardt(plan, starts, X, y,
                                                                   FitConfig())
    assert "beaten" in stops
    monkeypatch.setattr(fit_module, "_RACE_ITERATIONS", math.inf)
    for i, stop in enumerate(stops):
        if stop != "beaten":
            continue
        # a count of 0 is below FitConfig's bounds
        capped = types.SimpleNamespace(max_iterations=iterations[i])
        c0, _, sse0, iterations0, stops0, _ = fit_module._levenberg_marquardt(plan, starts, X, y,
                                                                           capped)
        assert (iterations0[i], stops0[i]) == (iterations[i], "cap")
        assert c0[i].tobytes() == c[i].tobytes()
        assert float(sse0[i]).hex() == float(sse[i]).hex()


def _noisy_corpus():
    """Each benchmark equation's train split, y plus Gaussian noise at 1 %
    of its RMS, with its own form and two wrong ones to fit."""
    rng = np.random.default_rng(0)
    for name, spec in load_benchmarks().items():
        train = sample(spec, "train")
        y = train.y + 0.01 * np.sqrt(np.mean(train.y ** 2)) * rng.standard_normal(len(train.y))
        wrong = (("c*exp(c*x) + c", "c*sin(c*x) + c") if spec.dim == 1
                 else ("c*sin(c*x1)*cos(c*x2) + c", "c*exp(c*x1) + c*x2^c"))
        for text in (spec.expression, *wrong):
            skeleton = canonicalize(parse(text, spec.dim), spec.dim)
            if not lower(skeleton.expr).affine:
                yield skeleton, Dataset(train.X, y)


def test_the_race_keeps_the_race_free_winner_on_noisy_data(monkeypatch):
    # no fit here is exact, so every beaten restart is the race's.  Racing by
    # the factor alone (10x after 10 iterations, no pace test) fails here:
    # keijzer8's c + c*exp(c*x) then wins at SSE 408, not 22.3
    corpus = list(_noisy_corpus())
    raced = [fit(skeleton, dataset) for skeleton, dataset in corpus]
    monkeypatch.setattr(fit_module, "_RACE_ITERATIONS", math.inf)
    free = [fit(skeleton, dataset) for skeleton, dataset in corpus]
    for (skeleton, _), a, b in zip(corpus, raced, free):
        assert abs(a.sse - b.sse) <= 1e-9 * b.sse, skeleton.key
    # and the race does cut lockstep steps
    assert sum("beaten" in r.stops for r in raced) > 10
    assert sum(max(r.iterations) for r in raced) < 0.8 * sum(max(r.iterations) for r in free)


def test_cap_exit_is_still_reachable_with_the_stall_stop():
    # a restart whose SSE keeps falling by more than _STALL_RTOL per window
    # all the way to the iteration cap
    res = fit(canonicalize(parse("c*sqrt(abs(x) + c)", 1)),
              sample(get_benchmark("nguyen2"), "train"), FitConfig(restarts=1),
              rng=np.random.default_rng(4))
    assert res.stops == ("cap",) and res.iterations == (200,)
    assert res.valid and not _converged(res)


def test_exponent_on_definedness_cliff_stays_pinned():
    # x^2 over negative x: nudging the exponent makes those points
    # undefined, so the warm-started exponent must not move at all
    x = np.linspace(-2.0, 2.0, 25)
    ds = Dataset(x.reshape(-1, 1), 1.3 * x**2)
    res = fit(canonicalize(parse("c*x^2", 1)), ds, rng=np.random.default_rng(5))
    assert res.best_restart == 0 and res.valid
    assert res.coefficients[1] == 2.0
    np.testing.assert_allclose(res.coefficients[0], 1.3, rtol=1e-9)
    # restart 0 froze the exponent at its start and at each accepted step
    assert res.frozen >= res.iterations[0] > 0


def test_only_the_exponent_column_freezes_over_negative_x():
    # d/dc of x^c is NaN at x < 0 even at the integer warm start, while
    # the multipliers' partials stay finite and both coefficients fit
    x = np.linspace(-2.0, -0.5, 20)
    ds = Dataset(x.reshape(-1, 1), 1.3 * x**2 + 0.7 * x)
    sk = canonicalize(parse("c*x^2 + c*x", 1))
    exponent = sk.hints.index(2.0)
    start = np.array([[0.4, 0.4, 0.4]])
    start[0, exponent] = 2.0
    plan = lower(sk.expr)
    with np.errstate(all="ignore"):  # as fit's covers _probe
        pred, frozen, normal = fit_module._probe(plan, start, ds.X, ds.y)
    assert np.isfinite(pred).all() and frozen == [1]
    values, jac = evaluate_batch(plan, start, ds.X, jacobian=True)
    assert np.isnan(jac[0, exponent]).any()
    jac[0, exponent] = 0.0
    others = np.delete(jac[0], exponent, axis=0)
    assert np.isfinite(others).all() and np.abs(others).min() > 0
    # the normal equations [[J^T J, -J^T r], [., r.r]] are those of exactly
    # this masked Jacobian: the exponent's column is 0, every other entry is not
    both = np.concatenate((jac, (ds.y - values)[:, None]), axis=1)
    assert normal.tobytes() == (both @ both.transpose(0, 2, 1)).tobytes()
    res = fit(sk, ds, rng=np.random.default_rng(0))
    assert res.best_restart == 0 and res.valid
    assert res.coefficients[exponent] == 2.0
    multipliers = np.delete(res.coefficients, exponent)
    np.testing.assert_allclose(sorted(multipliers), [0.7, 1.3], rtol=1e-9)


def test_a_point_the_coefficient_does_not_move_freezes_nothing():
    # sqrt(c*x) at x = 0 is 0 for every c: its partial there is 0, not
    # 0*inf, so c is not pinned and the fit recovers it
    x = np.linspace(0.0, 4.0, 30)
    ds = Dataset(x.reshape(-1, 1), np.sqrt(2.0 * x))
    res = fit(canonicalize(parse("sqrt(c*x)", 1)), ds, rng=np.random.default_rng(0))
    assert res.valid and res.frozen == 0
    np.testing.assert_allclose(res.coefficients, [2.0], rtol=1e-9)


def test_iterations_reported_per_restart():
    x = np.linspace(-3, 3, 40)
    ds = _dataset("c*sin(x) + c", [0.4, 2.7], x)
    sk = canonicalize(parse("c*sin(x) + c", 1))
    res = fit(sk, ds, FitConfig(restarts=4), rng=np.random.default_rng(11))
    assert len(res.iterations) == len(res.restart_sses) == 4
    assert all(isinstance(i, int) and 1 <= i <= 200 for i in res.iterations)
    capped = fit(sk, ds, FitConfig(restarts=3, max_iterations=2),
                 rng=np.random.default_rng(11))
    assert all(i <= 2 for i in capped.iterations)


def test_exact_warm_start_takes_no_iterations():
    x = np.linspace(0.1, 4, 30)
    ds = _dataset("sqrt(1.23*x)", [], x)
    res = fit(canonicalize(parse("sqrt(1.23*x)", 1)), ds, rng=np.random.default_rng(0))
    assert res.iterations[0] == 0
    assert fit(canonicalize(parse("x*x", 1)), ds).iterations == (1,) * 5


def test_icsr_fit_is_the_submodule():
    import icsr
    import icsr.fit as fit_module

    assert isinstance(fit_module, types.ModuleType)
    assert icsr.fit is fit_module
    assert fit_module.fit is fit


def test_no_restart_ending_finite_is_an_invalid_fit(monkeypatch):
    real = fit_module._levenberg_marquardt

    def nonfinite(plan, starts, X, y, config):
        c, pred, sses, iterations, stops, frozen = real(plan, starts, X, y, config)
        return np.full_like(c, np.nan), pred, [np.inf] * len(sses), iterations, stops, frozen

    monkeypatch.setattr(fit_module, "_levenberg_marquardt", nonfinite)
    # c*x^c is not affine, so fit takes it through LM
    x = np.linspace(0.5, 2.0, 12)
    ds = _dataset("2.5*x", [], x)
    res = fit(canonicalize(parse("c*x^c", 1)), ds, FitConfig(restarts=3))
    assert (res.valid, res.best_restart, res.sse) == (False, -1, np.inf)
    assert np.isnan(res.coefficients).all() and res.coefficients.shape == (2,)
    assert np.isnan(res.predictions).all() and res.predictions.shape == (12,)
    assert res.restart_sses == (np.inf,) * 3

    with pytest.raises(NoValidSeedsError) as exc_info:
        run(ds, EngineConfig(n_seed_calls=1, max_iterations=0), ReplayBackend(["f1(x) = c*x^c"]))
    outcome, = exc_info.value.record.calls[0].outcomes
    assert (outcome["raw"], outcome["status"]) == ("c*x^c", "invalid_fit")
