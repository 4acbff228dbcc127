import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icsr.score import (
    ScoreConfig,
    fitness,
    nmse,
    r_squared,
    r_squared_trimmed,
)


def test_fitness_unit_example_full_length():
    # NMSE=0, C=30, lam=0.05, L=30: r = 1 + 0.05/e
    r, err = fitness(0.0, 30, ScoreConfig())
    assert abs(r - 1.0183939720585722) < 1e-9
    assert abs(err - 0.981938255171139) < 1e-9
    assert abs(r - (1.0 + 0.05 * math.exp(-1.0))) < 1e-15


def test_fitness_unit_example_short_expression():
    r, err = fitness(0.0, 6, ScoreConfig())
    assert abs(r - 1.040936537653899) < 1e-9
    assert abs(err - 0.9606733588714608) < 1e-9


def test_fitness_error_is_reciprocal():
    cfg = ScoreConfig()
    for nm, comp in [(0.0, 5), (0.7, 12), (10.0, 40)]:
        r, err = fitness(nm, comp, cfg)
        assert err == pytest.approx(1.0 / r, rel=1e-15)


def test_fitness_prefers_lower_nmse_then_lower_complexity():
    cfg = ScoreConfig()
    r_good, _ = fitness(0.01, 10, cfg)
    r_bad, _ = fitness(0.5, 10, cfg)
    assert r_good > r_bad
    r_short, _ = fitness(0.1, 5, cfg)
    r_long, _ = fitness(0.1, 25, cfg)
    assert r_short > r_long


def test_fitness_lambda_zero_ignores_complexity():
    cfg = ScoreConfig(lam=0.0)
    r1, _ = fitness(0.2, 3, cfg)
    r2, _ = fitness(0.2, 300, cfg)
    assert r1 == r2 == pytest.approx(1.0 / 1.2)


def test_nmse_frozen_example():
    value = nmse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
    assert abs(value - 0.04761904761678005) < 1e-12


def test_nmse_perfect_prediction_is_zero():
    y = np.array([0.5, -1.5, 2.0])
    assert nmse(y.copy(), y) == 0.0


def test_nmse_zero_target_guard():
    # all-zero targets: denominator collapses to eps
    value = nmse(np.array([1e-3, -1e-3]), np.zeros(2))
    assert value == pytest.approx(2e-6 / 1e-9)


def test_nmse_rejects_non_finite_predictions():
    with pytest.raises(ValueError):
        nmse(np.array([1.0, np.nan]), np.array([1.0, 2.0]))


def test_finite_misses_whose_squares_overflow_score_as_infinite():
    y = np.arange(20.0)
    far = np.full(20, 1e200)
    assert nmse(far, y) == math.inf
    assert r_squared(far, y) == -math.inf
    assert r_squared_trimmed(far, y) == -math.inf


def test_r_squared_basics():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert r_squared(y.copy(), y) == 1.0
    assert r_squared(np.full(4, y.mean()), y) == 0.0
    assert r_squared(np.array([4.0, 3.0, 2.0, 1.0]), y) < 0.0


def test_r_squared_constant_target():
    y = np.full(5, 3.0)
    assert r_squared(np.full(5, 3.0), y) == 1.0
    assert r_squared(np.full(5, 2.9), y) == -np.inf


def test_r_squared_trimmed_drops_the_worst_five_percent():
    y = np.linspace(0.0, 1.9, 20)
    pred = y.copy()
    pred[7] += 100.0
    assert r_squared(pred, y) < -100.0
    assert r_squared_trimmed(pred, y) == 1.0


def test_r_squared_trimmed_frozen_value():
    y = np.linspace(0.0, 1.9, 20)
    pred = y + 0.05
    pred[7] += 100.0
    got = r_squared_trimmed(pred, y)
    assert abs(got - 0.9927857713828937) < 1e-12


def test_r_squared_trimmed_floor_means_small_samples_keep_everything():
    # floor(0.05 * 19) == 0: nothing removed, outlier stays
    y = np.linspace(0.0, 1.8, 19)
    pred = y.copy()
    pred[3] += 100.0
    assert r_squared_trimmed(pred, y) == r_squared(pred, y)
    assert r_squared_trimmed(pred, y) < 0.0


def test_r_squared_trimmed_mean_recomputed_on_survivors():
    # an extreme target dominates the mean; once its (worst-error) point is
    # trimmed, ss_tot must use the survivors' mean, not the original one
    y = np.concatenate([np.linspace(0.0, 1.8, 19), [1000.0]])
    pred = y + 0.1
    pred[19] = 0.0
    got = r_squared_trimmed(pred, y)
    yk = y[:19]
    expected = 1.0 - (19 * 0.1**2) / float(np.sum((yk - yk.mean()) ** 2))
    assert got == pytest.approx(expected, rel=1e-12)


def test_r_squared_trimmed_fraction_parameter():
    y = np.linspace(0.0, 0.9, 10)
    pred = y.copy()
    pred[2] += 50.0
    pred[8] += 50.0
    # 20% of 10 points -> 2 dropped
    assert r_squared_trimmed(pred, y, trim_fraction=0.2) == 1.0
    assert r_squared_trimmed(pred, y, trim_fraction=0.1) < 0.0


def test_score_config_validation():
    with pytest.raises(ValueError):
        ScoreConfig(lam=-0.1)
    with pytest.raises(ValueError):
        ScoreConfig(max_len=0.0)
    with pytest.raises(ValueError):
        ScoreConfig(trim_fraction=1.5)
    for key, bad in (("lam", True), ("lam", "x"), ("max_len", float("inf")),
                     ("trim_fraction", None)):
        with pytest.raises(ValueError, match=key):
            ScoreConfig(**{key: bad})
    # nmse's eps is its own default, not a field
    assert [f.name for f in fields(ScoreConfig)] == ["lam", "max_len", "trim_fraction"]


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e6), st.integers(1, 200))
def test_property_fitness_bounds(nm, comp):
    r, err = fitness(nm, comp, ScoreConfig())
    assert 0.0 < r <= 1.05
    assert err == pytest.approx(1.0 / r, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60))
def test_property_trimmed_r2_never_below_full_r2_for_single_outlier(seed, n):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    pred = y + rng.normal(scale=0.01, size=n)
    pred[rng.integers(n)] += 100.0
    full = r_squared(pred, y)
    trimmed = r_squared_trimmed(pred, y)
    assert trimmed >= full
