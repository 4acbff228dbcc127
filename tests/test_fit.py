import types

import numpy as np
import pytest

from icsr.dataset import Dataset
from icsr.expr import canonicalize, evaluate_batch, parse
from icsr.fit import FitConfig, FitResult, fit


def _dataset(expr_text, coeffs, x, name="synthetic"):
    tree = parse(expr_text, 1)
    y = evaluate_batch(tree, coeffs, x.reshape(-1, 1))
    return Dataset(x.reshape(-1, 1), y, name=name)


def test_recovers_sine_offset():
    x = np.linspace(-3, 3, 40)
    ds = _dataset("c*sin(x) + c", [0.4, 2.7], x)
    sk = canonicalize(parse("c*sin(x) + c", 1))
    res = fit(sk, ds, rng=np.random.default_rng(0))
    assert res.valid and res.converged
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
    assert res.valid and res.converged
    assert res.sse == 0.0
    assert res.restart_sses == ()
    assert res.coefficients.shape == (0,)


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


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(restarts=0)
    with pytest.raises(ValueError):
        FitConfig(max_iterations=0)
    # counts are non-bool ints >= 1, tolerances finite reals >= 0
    for key in ("restarts", "max_iterations"):
        for bad in (2.5, -1, True, "3", None):
            with pytest.raises(ValueError, match=key):
                FitConfig(**{key: bad})
    for key in ("gtol", "xtol", "ftol"):
        for bad in ("abc", None, float("nan"), float("inf"), -1, -1e-12, False):
            with pytest.raises(ValueError, match=key):
                FitConfig(**{key: bad})
    with pytest.raises(ValueError, match="warm_start"):
        FitConfig(warm_start="no")
    edge = FitConfig(restarts=1, max_iterations=np.int64(1), gtol=0, xtol=0.0, ftol=np.float64(1))
    assert (edge.restarts, edge.max_iterations, edge.gtol) == (1, 1, 0)


def test_fit_result_is_immutable():
    x = np.linspace(-1, 1, 10)
    ds = _dataset("c*x", [2.0], x)
    res = fit(canonicalize(parse("c*x", 1)), ds, rng=np.random.default_rng(0))
    assert isinstance(res, FitResult)
    with pytest.raises(Exception):
        res.sse = 0.0


# ---------------------------------------------------------------------------
# Golden values: the lockstep LM must do exactly the arithmetic of fitting
# each restart on its own, so these float.hex values were captured from
# the one-restart-at-a-time implementation and must never drift.  The last
# three cases, captured from the lockstep fitter with its tree walker, pin
# the rarer exits of a restart: every restart running out of iterations,
# a singular damped system (LinAlgError), and a run of rejected steps
# whose damping overflows.  With the default xtol the step-size test stops
# such a run long before the damping overflows, so that case turns it off.
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
           Dataset(x.reshape(-1, 1), 2 * np.exp(x / 6)), 0)
    u = np.linspace(1.0, 5.0, 30)
    yield ("mu_overflow", parse("c*x + c", 1),
           Dataset(1e80 * u.reshape(-1, 1), 1e80 * (u + 0.3 * np.sin(3 * u))), 1)


_GOLDEN_CONFIG = {"mu_overflow": FitConfig(xtol=0.0)}

# name: (coefficients, sse, restart_sses, iterations, converged)
_GOLDEN = {
    "warm_hints": (
        ["0x1.9c6ff4b44317fp-3", "0x1.b2d93acee7617p+0", "-0x1.9a1991d93a477p-1"],
        "0x1.00113c49ceb72p-9",
        ["0x1.00113c49ceb72p-9", "0x1.b5f8461c1fd9bp+1", "0x1.00113c49cebc1p-9",
         "0x1.00113c49ceb7dp-9", "0x1.00113c49ceba8p-9"],
        (5, 200, 14, 6, 12), True,
    ),
    "penalty_region": (
        ["-0x1.341d1de33e7a0p-22"],
        "0x1.341d477e64e1fp-22",
        ["0x1.d1a94a2000004p+39", "0x1.d1a94a2000000p+39", "0x1.d1a94a2000001p+39",
         "0x1.341d477e64e1fp-22", "0x1.d1a94a2000006p+39"],
        (2, 4, 2, 26, 3), True,
    ),
    "pow_cliff": (
        ["0x1.4d799b830da55p+0", "0x1.0000000000000p+1"],
        "0x1.f27e88a026033p-6",
        ["0x1.f27e88a026033p-6", "0x1.5d3ef798000b9p+43", "0x1.5d3ef79800008p+43",
         "0x1.5d3ef79802f6ep+43", "0x1.5d3ef7980005ap+43"],
        (3, 9, 5, 10, 8), True,
    ),
    "two_d": (
        ["0x1.333333343d83ap-2", "-0x1.ccccccd0f786cp-1", "-0x1.6666665f156eep+0"],
        "0x1.f64e504277d80p-62",
        ["0x1.2cf65c6a2b0d0p-60", "0x1.f64e504277d80p-62", "0x1.652d8000f4ca6p-52",
         "0x1.4b2230d5351b4p-58", "0x1.4391b34de6909p-56"],
        (11, 5, 6, 5, 7), True,
    ),
    "iteration_cap": (
        ["0x1.d0246869c4612p+4", "0x1.80e3f7a700a19p+5"],
        "0x1.66baa6dcfa1f4p+30",
        ["0x1.687b9c71c8ed9p+30", "0x1.66baa6dcfa1f4p+30", "0x1.67648fbdfe22ap+30",
         "0x1.686e8793b5119p+30", "0x1.6890d2f14ec14p+30"],
        (200, 200, 200, 200, 200), False,
    ),
    "singular_solve": (
        ["-0x1.281ff15380e12p+1", "-0x1.5b6efcf429615p-10", "-0x1.3f92f88d96f7bp+0",
         "-0x1.00f7027e25ab8p-1"],
        "0x1.b1094724e8798p+6",
        ["0x1.c36314e0f3b00p+6", "0x1.c0c34141b40cap+6", "0x1.bc14ef8ce2006p+6",
         "0x1.b8f418d00a0d6p+6", "0x1.b1094724e8798p+6"],
        (38, 46, 18, 33, 32), True,
    ),
    "mu_overflow": (
        ["0x1.cf8acddd349f3p-1", "0x1.022955d2627c8p+0"],
        "0x1.e79c0020787aap+531",
        ["0x1.e79c0020787adp+531", "0x1.e79c0020787abp+531", "0x1.e79c0020787aap+531",
         "0x1.e79c0020787adp+531", "0x1.e79c0020787aep+531"],
        (3, 35, 6, 7, 4), True,
    ),
}


@pytest.mark.parametrize("name,tree,dataset,seed", list(_golden_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_golden_fit_values_are_bit_exact(name, tree, dataset, seed):
    config = _GOLDEN_CONFIG.get(name, FitConfig())
    res = fit(canonicalize(tree, dataset.dim), dataset, config, rng=np.random.default_rng(seed))
    coefficients, sse, restart_sses, iterations, converged = _GOLDEN[name]
    assert [float(v).hex() for v in res.coefficients] == coefficients
    assert float(res.sse).hex() == sse
    assert [float(v).hex() for v in res.restart_sses] == restart_sses
    assert res.iterations == iterations
    assert res.converged is converged


def test_exponent_on_definedness_cliff_stays_pinned():
    # x^2 over negative x: nudging the exponent makes those points
    # undefined, so the warm-started exponent must not move at all
    x = np.linspace(-2.0, 2.0, 25)
    ds = Dataset(x.reshape(-1, 1), 1.3 * x**2)
    res = fit(canonicalize(parse("c*x^2", 1)), ds, rng=np.random.default_rng(5))
    assert res.best_restart == 0 and res.valid
    assert res.coefficients[1] == 2.0
    np.testing.assert_allclose(res.coefficients[0], 1.3, rtol=1e-9)


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
    assert fit(canonicalize(parse("x*x", 1)), ds).iterations == ()


def test_icsr_fit_is_the_submodule():
    import icsr
    import icsr.fit as fit_module

    assert isinstance(fit_module, types.ModuleType)
    assert icsr.fit is fit_module
    assert fit_module.fit is fit
    assert (icsr.FitConfig, icsr.FitResult) == (FitConfig, FitResult)
