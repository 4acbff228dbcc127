import csv
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import sys
import threading
import time

import numpy as np
import pytest

import icsr.bench
import icsr.engine
from icsr.bench import (
    REFERENCE_COMPLEXITY,
    SUITE_NAMES,
    BenchmarkSpec,
    EvalReport,
    RunCell,
    SamplerSpec,
    SamplingError,
    cell_dir,
    dataset_seed,
    equispaced_grid,
    evaluate_ood,
    get_benchmark,
    ground_truth_complexity,
    load_benchmarks,
    ood_bounds,
    ood_csv,
    operator_complexity,
    resolve_suite,
    results_cells,
    results_csv,
    run_suite,
    sample,
    stored_winner,
    summary_csv,
)
from icsr.engine import EngineConfig
from icsr.expr import evaluate_batch, parse
from icsr.llm import LiveBackend, ReplayBackend

from conftest import oracle_response
from test_llm import FakeSession, _ok


def linear_spec(**overrides):
    """A synthetic y = x benchmark used to exercise OOD bookkeeping."""
    fields = dict(
        name="synthetic_linear", family="nguyen", expression="x", dim=1,
        train=SamplerSpec("equispaced", (-1.0,), (1.0,), 40),
        test=SamplerSpec("equispaced", (-1.0,), (1.0,), 40),
        validity_low=(None,), validity_high=(None,),
    )
    fields.update(overrides)
    return BenchmarkSpec(**fields)


# ---------------------------------------------------------------------------
# Benchmark table
# ---------------------------------------------------------------------------

def test_table_has_35_equations_in_four_families():
    table = load_benchmarks()
    assert len(table) == 35
    counts = {}
    for spec in table.values():
        counts[spec.family] = counts.get(spec.family, 0) + 1
    assert counts == {"nguyen": 12, "constant": 8, "keijzer": 12, "r": 3}
    assert set(counts) == set(SUITE_NAMES)


def test_every_ground_truth_parses_and_evaluates():
    for spec in load_benchmarks().values():
        gt = spec.ground_truth()
        ds = sample(spec, "train")
        y = evaluate_batch(gt, np.empty(0), ds.X)
        assert np.all(np.isfinite(y)), spec.name


@pytest.mark.parametrize("name,x,expected", [
    ("nguyen1", [2.0], 2.0**3 + 2.0**2 + 2.0),
    ("nguyen5", [0.7], math.sin(0.49) * math.cos(0.7) - 1.0),
    ("nguyen7", [1.0], math.log(2.0) + math.log(2.0)),
    ("nguyen8", [9.0], 3.0),
    ("r1", [1.0], 8.0 / 1.0),
    ("keijzer3", [0.25], 0.3 * 0.25 * math.sin(2 * math.pi * 0.25)),
    ("nguyen9", [0.5, 0.8], math.sin(0.5) + math.sin(0.8**2)),
    ("nguyen12", [1.2, 0.4], 1.2**4 - 1.2**3 + 0.4**2 / 2 - 0.4),
])
def test_ground_truth_spot_checks(name, x, expected):
    spec = get_benchmark(name)
    got = evaluate_batch(spec.ground_truth(), np.empty(0), np.array([x]))
    assert got[0] == pytest.approx(expected, rel=1e-12)


def test_get_benchmark_case_insensitive_and_unknown():
    assert get_benchmark("Nguyen1").name == "nguyen1"
    with pytest.raises(KeyError):
        get_benchmark("nguyen99")


def test_resolve_suite_tokens():
    assert resolve_suite("all") == list(load_benchmarks())
    assert resolve_suite("r") == ["R1", "R2", "R3"]
    assert resolve_suite("nguyen8") == ["nguyen8"]
    assert len(resolve_suite("keijzer")) == 12


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_dataset_seed_is_stable_and_split_dependent():
    assert dataset_seed("nguyen1", "train") == 331168209
    assert dataset_seed("nguyen1", "test") == 959943994
    assert dataset_seed("nguyen1", "train") == dataset_seed("nguyen1", "train")
    assert dataset_seed("nguyen2", "train") != dataset_seed("nguyen1", "train")


def test_uniform_sampling_bounds_count_and_reproducibility():
    spec = get_benchmark("nguyen1")
    ds1 = sample(spec, "train")
    ds2 = sample(spec, "train")
    assert ds1.X.shape == (spec.train.num, 1)
    assert np.all(ds1.X >= spec.train.low[0]) and np.all(ds1.X <= spec.train.high[0])
    np.testing.assert_array_equal(ds1.X, ds2.X)
    np.testing.assert_array_equal(ds1.y, ds2.y)
    test = sample(spec, "test")
    assert not np.array_equal(ds1.X, test.X)


def test_uniform_sampling_resamples_undefined_points():
    spec = linear_spec(
        expression="log(x)",
        train=SamplerSpec("uniform", (-0.5,), (1.0,), 50),
    )
    ds = sample(spec, "train")
    assert ds.X.shape == (50, 1)
    assert np.all(ds.X > 0.0)
    assert np.all(np.isfinite(ds.y))


def test_uniform_sampling_gives_up_when_domain_is_hopeless():
    spec = linear_spec(
        expression="sqrt(x)",
        train=SamplerSpec("uniform", (-2.0,), (-1.0,), 10),
    )
    with pytest.raises(SamplingError):
        sample(spec, "train")


def test_equispaced_includes_endpoints():
    spec = get_benchmark("keijzer4")
    ds = sample(spec, "train")
    assert ds.X[0, 0] == 0.0
    assert ds.X[-1, 0] == 10.0
    steps = np.diff(ds.X[:, 0])
    np.testing.assert_allclose(steps, steps[0])


def test_equispaced_undefined_point_is_an_error():
    spec = linear_spec(
        expression="1/x",
        test=SamplerSpec("equispaced", (-1.0,), (1.0,), 21),  # hits x=0
    )
    with pytest.raises(SamplingError):
        sample(spec, "test")


def test_equispaced_grid_two_dimensional():
    X = equispaced_grid((0.0, 0.0), (1.0, 1.0), 9, 2)
    expected = np.array([
        [0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
        [0.5, 0.0], [0.5, 0.5], [0.5, 1.0],
        [1.0, 0.0], [1.0, 0.5], [1.0, 1.0],
    ])
    np.testing.assert_allclose(X, expected)
    # non-square request truncates row-major
    X8 = equispaced_grid((0.0, 0.0), (1.0, 1.0), 8, 2)
    np.testing.assert_allclose(X8, expected[:8])


def test_two_dimensional_test_split_shape():
    spec = get_benchmark("keijzer12")
    ds = sample(spec, "test")
    assert ds.X.shape == (spec.test.num, 2)
    assert np.isfinite(ds.y).all()


# ---------------------------------------------------------------------------
# Trimmed R2 with undefined predictions
# ---------------------------------------------------------------------------

def test_trimmed_r2_no_nans_matches_plain_trimmed():
    from icsr.bench import trimmed_r2_with_undefined
    from icsr.score import r_squared_trimmed
    y = np.linspace(0, 1, 40)
    pred = y + 0.01
    r2, excess = trimmed_r2_with_undefined(pred, y)
    assert excess == 0
    assert r2 == r_squared_trimmed(pred, y)


def test_trimmed_r2_nans_consume_trim_budget_first():
    from icsr.bench import trimmed_r2_with_undefined
    y = np.linspace(0, 1, 40)          # k = floor(0.05*40) = 2
    pred = y.copy()
    pred[0] = np.nan
    pred[1] += 100.0
    r2, excess = trimmed_r2_with_undefined(pred, y)
    assert excess == 0
    assert r2 == 1.0


def test_trimmed_r2_nans_filling_the_budget_exactly():
    from icsr.bench import trimmed_r2_with_undefined
    from icsr.score import r_squared
    y = np.linspace(0, 1, 40)          # k = 2
    pred = y + 0.01 * np.sin(7 * y)
    pred[[3, 17]] = np.nan              # n_nan == k: nothing left to trim
    r2, excess = trimmed_r2_with_undefined(pred, y)
    defined = ~np.isnan(pred)
    assert excess == 0
    assert r2 == r_squared(pred[defined], y[defined])


def test_trimmed_r2_excess_nans_are_reported():
    from icsr.bench import trimmed_r2_with_undefined
    y = np.linspace(0, 1, 40)
    pred = y.copy()
    pred[:3] = np.nan                   # one more than the budget of 2
    r2, excess = trimmed_r2_with_undefined(pred, y)
    assert excess == 1
    assert r2 == 1.0                    # perfect on the defined points


def test_trimmed_r2_all_nan():
    from icsr.bench import trimmed_r2_with_undefined
    y = np.linspace(0, 1, 10)
    r2, excess = trimmed_r2_with_undefined(np.full(10, np.nan), y)
    assert r2 == -np.inf
    assert excess == 10


# ---------------------------------------------------------------------------
# Out-of-domain evaluation
# ---------------------------------------------------------------------------

def test_ood_bounds_extension_geometry():
    # test range [0, 4]: half-width 2 grows to 3, then the validity
    # domain cuts the left side at 0
    assert ood_bounds(get_benchmark("nguyen8"), 0.25) == ([0.0], [5.0])
    assert ood_bounds(get_benchmark("nguyen7"), 1.0) == ([-1.0], [4.0])


def test_ood_bounds_zero_extension_is_test_range():
    spec = get_benchmark("nguyen1")
    assert ood_bounds(spec, 0.0) == ([spec.test.low[0]], [spec.test.high[0]])


def test_ood_bounds_empty_intersection():
    spec = linear_spec(validity_low=(6.0,))
    assert ood_bounds(spec, 1.0) is None
    points = evaluate_ood((parse("x", 1), []), spec, [1.0])
    assert points[0].skipped


def test_ood_bounds_clip_to_the_validity_high():
    # test range [-1, 1]: extension 1 grows it to [-3, 3], cut at 1.5
    spec = linear_spec(validity_high=(1.5,))
    assert ood_bounds(spec, 1.0) == ([-3.0], [1.5])
    assert ood_bounds(spec, 0.0) == ([-1.0], [1.0])


@pytest.mark.parametrize("name, extension", [
    ("nguyen1", 1e308), ("nguyen7", 1e308),
    # both bounds are finite, but not the width between them
    ("nguyen1", 6e307),
])
def test_ood_skips_a_box_too_wide_for_a_float(name, extension):
    spec = get_benchmark(name)
    assert ood_bounds(spec, extension) is None
    point, = evaluate_ood((spec.ground_truth(), []), spec, [extension])
    assert point.skipped and point.n_points == 0


def test_ood_skips_an_extension_with_fewer_than_two_defined_truths():
    # sqrt(x - 1) is defined only at x = 1, the grid's right end
    spec = linear_spec(expression="sqrt(x - 1)")
    point, = evaluate_ood((parse("x", 1), []), spec, [0.0])
    assert point.skipped
    assert (point.raw_r2, point.clamped_r2, point.n_points) == (None, None, 0)
    assert point.n_undefined_truth == spec.test.num - 1


def test_ood_oracle_stays_perfect_everywhere():
    spec = get_benchmark("nguyen3")
    candidate = (spec.ground_truth(), [])
    points = evaluate_ood(candidate, spec, [0.0, 0.25, 0.5, 0.75, 1.0])
    for p in points:
        assert p.raw_r2 == 1.0
        assert p.clamped_r2 == 1.0
        assert not p.negative
        assert p.n_points == spec.test.num
        assert p.n_undefined_truth == 0


def test_ood_overfit_high_degree_polynomial_diverges():
    spec = linear_spec()
    x = np.linspace(-1, 1, 40)
    a = float(np.sum(x**6) / np.sum(x**10))   # least squares of a*x^5 on y=x
    candidate = (parse(f"{a!r}*x^5", 1), [])
    points = evaluate_ood(candidate, spec, [0.0, 1.0])
    inside, outside = points
    assert inside.raw_r2 > 0.0
    assert inside.clamped_r2 == inside.raw_r2
    assert not inside.negative
    assert outside.raw_r2 < 0.0
    assert outside.clamped_r2 == 0.0
    assert outside.negative


def test_ood_undefined_truth_points_are_dropped_and_counted():
    spec = get_benchmark("nguyen7")   # log(x+1)+log(x^2+1), valid for x > -1
    candidate = (spec.ground_truth(), [])
    (point,) = evaluate_ood(candidate, spec, [1.0])
    # the extended grid touches x = -1 where the truth is undefined
    assert point.n_undefined_truth >= 1
    assert point.n_points == spec.test.num - point.n_undefined_truth
    assert point.raw_r2 == 1.0


def test_ood_candidate_undefined_on_grid_scores_negative_infinity():
    spec = linear_spec()
    candidate = (parse("log(x)", 1), [])   # undefined on half the grid
    (point,) = evaluate_ood(candidate, spec, [0.0])
    assert point.raw_r2 == -np.inf
    assert point.clamped_r2 == 0.0
    assert point.negative


def test_ood_of_a_run_suite_candidate_is_that_of_its_tree_and_coefficients():
    # run_suite cells hold a Candidate; icsr ood passes (tree, coefficients)
    def factory(spec, seed):
        return ReplayBackend(["f1(x) = c*x^3 + c*x"])

    spec = get_benchmark("nguyen1")
    (cell,) = run_suite(["nguyen1"], EngineConfig(n_seed_calls=1, max_iterations=0), [1],
                        factory).cells
    assert isinstance(cell.candidate, icsr.engine.Candidate)
    pair = (cell.candidate.skeleton.expr, cell.candidate.fit.coefficients)
    points = evaluate_ood(cell.candidate, spec, [0.0, 1.0])
    assert points == evaluate_ood(pair, spec, [0.0, 1.0])
    inside, outside = points  # a partial fit that diverges out of domain
    assert 0.0 < inside.raw_r2 < 1.0 and outside.negative


def test_ood_rejects_negative_extension():
    with pytest.raises(ValueError):
        evaluate_ood((parse("x", 1), []), linear_spec(), [-0.5])


# ---------------------------------------------------------------------------
# Complexity conventions
# ---------------------------------------------------------------------------

def test_operator_complexity_counts_applications_only():
    assert operator_complexity(parse("x^3 + x^2 + x", 1)) == 4
    assert operator_complexity(parse("x", 1)) == 0
    assert operator_complexity(parse("sin(x)", 1)) == 1
    assert operator_complexity(parse("8/(2 + x1^2 + x2^2)", 2)) == 5


def test_ground_truth_complexity_both_conventions():
    got = ground_truth_complexity("nguyen")
    assert got["mean_nodes"] == pytest.approx(10.416666666666666)
    assert got["mean_operators"] == pytest.approx(5.166666666666667)
    assert got["reference"] == 5.2
    for family, ref in REFERENCE_COMPLEXITY.items():
        row = ground_truth_complexity(family)
        assert abs(row["mean_operators"] - ref) <= 0.2, family
        assert row["mean_nodes"] > row["mean_operators"]


def test_ground_truth_complexity_unknown_family():
    with pytest.raises(KeyError):
        ground_truth_complexity("koza")


# ---------------------------------------------------------------------------
# Aggregation and CSV output
# ---------------------------------------------------------------------------

def _cell(family, equation, seed, r2, comp=5, status="ok"):
    return RunCell(family=family, equation=equation, seed=seed, status=status,
                   r2=r2, complexity=comp)


def test_family_rows_mean_and_sem_over_seeds():
    report = EvalReport(cells=[
        _cell("nguyen", "nguyen1", 1, 1.0), _cell("nguyen", "nguyen2", 1, 0.8),
        _cell("nguyen", "nguyen1", 2, 0.6), _cell("nguyen", "nguyen2", 2, 1.0),
    ])
    (row,) = report.family_rows()
    assert row["benchmark"] == "nguyen"
    assert row["n_equations"] == 2
    assert row["n_seeds"] == 2
    assert row["n_missing"] == 0
    # per-seed means are 0.9 and 0.8
    assert row["r2_mean"] == pytest.approx(0.85)
    assert row["r2_sem"] == pytest.approx(0.05)


def test_family_rows_skip_failed_cells():
    report = EvalReport(cells=[
        _cell("r", "r1", 1, 0.9),
        _cell("r", "r2", 1, None, status="failed"),
    ])
    (row,) = report.family_rows()
    assert row["n_missing"] == 1
    assert row["r2_mean"] == pytest.approx(0.9)
    assert row["r2_sem"] == 0.0


def test_results_csv_golden():
    report = EvalReport(cells=[
        _cell("r", "r1", 1, 0.987654321, comp=13),
        _cell("r", "r2", 1, None, comp=None, status="failed"),
    ])
    assert results_csv(report) == (
        "benchmark,equation,seed,r2,complexity,status\n"
        "r,r1,1,0.987654321,13,ok\n"
        "r,r2,1,,,failed\n"
    )


def test_summary_csv_has_both_complexity_conventions():
    report = EvalReport(cells=[_cell("r", "r1", 1, 1.0, comp=13)])
    text = summary_csv(report)
    header, row = text.strip().split("\n")
    assert header.split(",")[:4] == ["benchmark", "n_equations", "n_seeds", "n_missing"]
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["gt_complexity_operators"] == "8.33333333333"
    assert cols["gt_complexity_ref"] == "8.3"


def test_ood_csv_shape():
    rows = [{"benchmark": "nguyen", "extension": 0.25,
             "mean_r2_clamped": 0.75, "neg_fraction": 0.125}]
    assert ood_csv(rows) == (
        "benchmark,extension,mean_r2_clamped,neg_fraction\n"
        "nguyen,0.25,0.75,0.125\n"
    )


# ---------------------------------------------------------------------------
# Suite runs
# ---------------------------------------------------------------------------

def _oracle_factory(spec, seed):
    return ReplayBackend([oracle_response(spec)])


def test_oracle_response_format():
    assert oracle_response(get_benchmark("nguyen1")) == "f1(x) = x^3 + x^2 + x"
    assert oracle_response(get_benchmark("nguyen9")).startswith("f1(x1, x2) = ")


def test_run_suite_oracle_family(tmp_path):
    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2", "R3"], cfg, [1, 2], _oracle_factory,
                       out_dir=str(tmp_path))
    assert len(report.cells) == 6
    assert all(c.status == "ok" for c in report.cells)
    assert all(c.r2 > 0.9999 for c in report.cells)
    (row,) = report.family_rows()
    assert row["benchmark"] == "r"
    assert row["r2_mean"] == pytest.approx(1.0)
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "runs" / "R1" / "seed1" / "summary.json").exists()
    assert (tmp_path / "runs" / "R1" / "seed1" / "runlog.jsonl").exists()


def test_run_suite_runs_each_cell_once_in_first_order(tmp_path):
    # a repeated equation, "r2" resolving to R2 included, or seed is dropped:
    # two runs of a cell would clear and write one directory
    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R2", "R1", "r2"], cfg, [2, 1, 2], _oracle_factory,
                       jobs=2, out_dir=str(tmp_path))
    cells = [("R2", 2), ("R2", 1), ("R1", 2), ("R1", 1)]
    assert [(c.equation, c.seed) for c in report.cells] == cells
    assert all(c.status == "ok" for c in report.cells)
    rows = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [tuple(row.split(",")[1:3]) for row in rows] == [(e, str(s)) for e, s in cells]


def test_run_suite_records_failures(tmp_path):
    def factory(spec, seed):
        if spec.name == "R2":
            return ReplayBackend(["no functions here"])
        return ReplayBackend([oracle_response(spec)])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2"], cfg, [1], factory, out_dir=str(tmp_path))
    by_name = {c.equation: c for c in report.cells}
    assert by_name["R1"].status == "ok"
    assert by_name["R2"].status == "failed"
    assert by_name["R2"].error
    text = (tmp_path / "results.csv").read_text(encoding="utf-8")
    assert "r,R2,1,,,failed" in text
    failed = tmp_path / "runs" / "R2" / "seed1" / "failed.json"
    assert json.loads(failed.read_text(encoding="utf-8")) == {"error": by_name["R2"].error}


def test_run_suite_deeply_nested_reply_is_a_parse_error(tmp_path):
    nested = "f1(x) = " + "(" * 200 + "x" + ")" * 200

    def factory(spec, seed):
        if spec.name == "R2":
            return ReplayBackend([nested + "\nf2(x) = " + spec.expression])
        return ReplayBackend([oracle_response(spec)])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2"], cfg, [1], factory, out_dir=str(tmp_path))
    assert [c.status for c in report.cells] == ["ok", "ok"]
    log = (tmp_path / "runs" / "R2" / "seed1" / "runlog.jsonl").read_text(encoding="utf-8")
    outcomes = json.loads(log)["outcomes"]
    assert [o["status"] for o in outcomes] == ["parse_error", "scored"]


def test_run_suite_oversized_reply_is_a_parse_error(tmp_path):
    oversized = "f1(x) = " + "+".join(["x*c"] * 600)

    def factory(spec, seed):
        if spec.name == "R2":
            return ReplayBackend([oversized + "\nf2(x) = " + spec.expression])
        return ReplayBackend([oracle_response(spec)])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2"], cfg, [1], factory, out_dir=str(tmp_path))
    assert [c.status for c in report.cells] == ["ok", "ok"]
    log = (tmp_path / "runs" / "R2" / "seed1" / "runlog.jsonl").read_text(encoding="utf-8")
    outcomes = json.loads(log)["outcomes"]
    assert [o["status"] for o in outcomes] == ["parse_error", "scored"]


def test_run_suite_records_unexpected_exception_as_failed_cell(tmp_path):
    class Broken:
        def complete(self, request):
            raise ZeroDivisionError("backend bug")

    def factory(spec, seed):
        if spec.name == "R1":
            return Broken()
        return ReplayBackend([oracle_response(spec)])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2"], cfg, [1], factory, out_dir=str(tmp_path))
    by_name = {c.equation: c for c in report.cells}
    assert by_name["R1"].status == "failed"
    assert by_name["R1"].error == "ZeroDivisionError: backend bug"
    assert by_name["R2"].status == "ok"
    text = (tmp_path / "results.csv").read_text(encoding="utf-8")
    assert "r,R1,1,,,failed" in text


def test_a_grid_cut_short_keeps_every_finished_winner(tmp_path):
    def factory(spec, seed):
        if spec.name == "R2":
            raise KeyboardInterrupt
        return _oracle_factory(spec, seed)

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    with pytest.raises(KeyboardInterrupt):
        run_suite(["R1", "R2"], cfg, [1], factory, out_dir=str(tmp_path / "cut"))
    run_suite(["R1"], cfg, [1], factory, out_dir=str(tmp_path / "whole"))
    kept = os.path.join(cell_dir(tmp_path / "cut", "R1", 1), "summary.json")
    whole = os.path.join(cell_dir(tmp_path / "whole", "R1", 1), "summary.json")
    with open(kept, "rb") as a, open(whole, "rb") as b:
        assert a.read() == b.read()
    assert not (tmp_path / "cut" / "results.csv").exists()


def test_a_cell_starts_from_an_empty_directory(tmp_path):
    stale = tmp_path / "runs" / "R1" / "seed1"
    stale.mkdir(parents=True)
    (stale / "summary.json").write_text("{}", encoding="utf-8")
    (stale / "notes.txt").write_text("", encoding="utf-8")

    def factory(spec, seed):
        return ReplayBackend(["no functions here"])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    (cell,) = run_suite(["R1"], cfg, [1], factory, out_dir=str(tmp_path)).cells
    assert cell.status == "failed"
    # the stale files are gone; the failed cell wrote its log and its error
    assert sorted(p.name for p in stale.iterdir()) == ["failed.json", "runlog.jsonl"]


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


_ERF_GRID = """\
from icsr.bench import run_suite
from icsr.engine import EngineConfig
from icsr.llm import ReplayBackend

replies = {{
    "nguyen1": "f1(x) = c*erf(c*x + c) + c\\nf2(x) = c*x^3 + c*x^2 + c*erf(x)",
    "keijzer3": "f1(x) = c*x*erf(c*x) + c",
    "nguyen9": "f1(x1, x2) = c*erf(c*x1) + c*sin(x2^2)",
}}
run_suite(list(replies), EngineConfig(n_seed_calls=1, max_iterations=0), [1, 2],
          lambda spec, seed: ReplayBackend([replies[spec.name]]),
          jobs={jobs}, out_dir={out!r})
print(heavy())
"""


def test_run_suite_with_erf_matches_serial_when_workers_load_scipy(tmp_path, fresh_python):
    # erf loads scipy on first use; in a fresh interpreter the parent
    # never evaluates, so each forked worker does that import itself
    dirs = {}
    for jobs, parent_loads in ((2, "[]"), (1, "['scipy']")):
        dirs[jobs] = tmp_path / f"jobs{jobs}"
        out = fresh_python(_ERF_GRID.format(jobs=jobs, out=str(dirs[jobs])))
        assert out.splitlines() == [parent_loads]
    serial = _tree_bytes(dirs[1])
    assert len(serial) == 2 + 3 * 2 * 2  # reports + summary.json, runlog.jsonl per cell
    assert _tree_bytes(dirs[2]) == serial
    winners = [json.loads(v)["best"]["skeleton"] for k, v in serial.items()
               if k.endswith("summary.json")]
    assert len(winners) == 6 and all("erf" in w for w in winners)


_MEMO_GRID = """\
from icsr.bench import run_suite
from icsr.engine import EngineConfig
from icsr.llm import ReplayBackend

# lines that repeat across calls, seeds and equations: literal variants of
# one template, a parse error, forms that parse in one dimensionality
# only, and a line longer than the front-end memos keep
A = "f1(x) = c*x + c\\nf2(x) = 2.5*x*x\\nf3(x) = c*(\\nf4(x) = c*x2\\nf5(x) = c*x1 + c*x2"
B = ("f1(x) = 0.5*x*x + c\\nf2(x) = c*x + c\\nf3(x) = c*" + "*".join(["x"] * 130)
     + "\\nf4(x) = c*sin(x1) + c*x2*x2")
replies = {"nguyen1": [A, B, A, "f1(x) = x^3 + x^2 + x"],
           "nguyen9": [A, B, A, "f1(x1, x2) = sin(x1) + sin(x2^2)"]}


def grid(out, jobs):
    run_suite(list(replies), EngineConfig(n_seed_calls=2, max_iterations=2), [1, 2],
              lambda spec, seed: ReplayBackend(replies[spec.name]), jobs=jobs, out_dir=out)
"""


def test_a_warm_memo_changes_no_output_byte(tmp_path, fresh_python):
    fresh_python(_MEMO_GRID + f"grid({str(tmp_path / 'cold')!r}, 1)\n")
    grid = {}
    exec(_MEMO_GRID, grid)
    # twice in this process, then in workers forked with the memo warm
    for name, jobs in (("warm", 1), ("warmer", 1), ("forked", 2)):
        hits = icsr.engine.parse_line.cache_info().hits
        grid["grid"](str(tmp_path / name), jobs)
        assert jobs > 1 or icsr.engine.parse_line.cache_info().hits > hits
    cold = _tree_bytes(tmp_path / "cold")
    assert len(cold) == 2 + 2 * 2 * 2  # reports + summary.json, runlog.jsonl per cell
    for name in ("warm", "warmer", "forked"):
        assert _tree_bytes(tmp_path / name) == cold
    statuses = {o["status"] for k, v in cold.items() if k.endswith("runlog.jsonl")
                for line in v.decode("utf-8").splitlines() for o in json.loads(line)["outcomes"]}
    assert statuses == {"scored", "duplicate", "parse_error"}


def test_run_suite_parallel_matches_serial(tmp_path):
    pids = tmp_path / "pids"
    pids.mkdir()

    def factory(spec, seed):
        (pids / f"{spec.name}-{seed}").write_text(str(os.getpid()), encoding="utf-8")
        return ReplayBackend([oracle_response(spec)])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    names = ["R1", "R2", "R3"]
    serial = run_suite(names, cfg, [1, 2], _oracle_factory, jobs=1,
                       out_dir=str(tmp_path / "serial"))
    parallel = run_suite(names, cfg, [1, 2], factory, jobs=4,
                         out_dir=str(tmp_path / "parallel"))
    assert [(c.equation, c.seed, c.r2) for c in serial.cells] == \
           [(c.equation, c.seed, c.r2) for c in parallel.cells]
    assert results_csv(serial) == results_csv(parallel)
    serial_files = _tree_bytes(tmp_path / "serial")
    assert len(serial_files) == 2 + 2 * 6  # reports + summary.json, runlog.jsonl per cell
    assert _tree_bytes(tmp_path / "parallel") == serial_files

    worker_pids = {p.read_text(encoding="utf-8") for p in pids.iterdir()}
    assert len(list(pids.iterdir())) == 6
    assert str(os.getpid()) not in worker_pids
    assert len(worker_pids) <= 4

    for p in pids.iterdir():
        p.unlink()
    run_suite(["R1"], cfg, [1, 2], factory, jobs=8)
    worker_pids = {p.read_text(encoding="utf-8") for p in pids.iterdir()}
    assert len(list(pids.iterdir())) == 2
    assert str(os.getpid()) not in worker_pids
    assert 1 <= len(worker_pids) <= 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_raising_factory_fails_its_cell_alone(tmp_path, jobs):
    def raising(spec, seed):
        if spec.name == "R2":
            raise KeyError("no script for R2")
        return ReplayBackend([oracle_response(spec)])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    out = tmp_path / "raising"
    report = run_suite(["R1", "R2", "R3"], cfg, [1], raising, jobs=jobs, out_dir=str(out))
    assert [c.status for c in report.cells] == ["ok", "failed", "ok"]
    assert report.cells[1].error == "KeyError: 'no script for R2'"
    assert "r,R2,1,,,failed" in (out / "results.csv").read_text(encoding="utf-8")
    # the failed cell's directory says so, in whichever process ran it
    runs = out / "runs"
    assert sorted(p.name for p in (runs / "R2" / "seed1").iterdir()) == ["failed.json"]
    assert json.loads((runs / "R2" / "seed1" / "failed.json").read_text(encoding="utf-8")) == {
        "error": "KeyError: 'no script for R2'"}
    for ok in ("R1", "R3"):
        assert sorted(p.name for p in (runs / ok / "seed1").iterdir()) == [
            "runlog.jsonl", "summary.json"]


def test_a_serial_grid_fits_each_skeleton_once_per_equation(monkeypatch):
    real_fit = icsr.engine.fit
    fitted = []

    def counting(skeleton, dataset, *args):
        fitted.append((dataset.name, icsr.fit.fit_memo_key(skeleton)))
        return real_fit(skeleton, dataset, *args)

    monkeypatch.setattr(icsr.engine, "fit", counting)
    # seed 2's c*x^2 has another hint, so it is another fit; seed 3 repeats seed 1
    replies = {1: "f1(x) = 2.5*x*x\nf2(x) = c*sin(c*x)",
               2: "f1(x) = 0.5*x*x\nf2(x) = c*sin(c*x)",
               3: "f1(x) = c*sin(c*x)\nf2(x) = 2.5*x*x"}
    cfg = EngineConfig(n_seed_calls=1, max_iterations=0, early_stop_r2=2)
    grid = ["R1", "R2"], cfg, [1, 2, 3], lambda spec, seed: ReplayBackend([replies[seed]])
    report = run_suite(*grid)
    assert [c.status for c in report.cells] == ["ok"] * 6
    distinct = [("c*x*x", (2.5.hex(),)), ("c*sin(c*x)", (None, None)), ("c*x*x", (0.5.hex(),))]
    assert fitted == [(name, key) for name in ("R1", "R2") for key in distinct]
    # no memo outlives its grid
    run_suite(*grid)
    assert fitted[6:] == fitted[:6]


def test_run_suite_worker_failures_become_failed_cells(tmp_path):
    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)

    def dying(spec, seed):
        if spec.name == "R2":
            os._exit(1)
        return ReplayBackend([oracle_response(spec)])

    out = tmp_path / "dying"
    report = run_suite(["R1", "R2", "R3"], cfg, [1], dying, jobs=2, out_dir=str(out))
    assert [c.equation for c in report.cells] == ["R1", "R2", "R3"]
    r2 = report.cells[1]
    assert r2.status == "failed"
    assert r2.error.startswith("BrokenProcessPool: ")
    # cells in flight or pending when the worker died fail the same way
    for c in report.cells:
        assert c.status == "ok" or c.error.startswith("BrokenProcessPool: ")
    text = (out / "results.csv").read_text(encoding="utf-8")
    assert "r,R2,1,,,failed" in text
    assert (out / "summary.csv").exists()


def test_a_dead_worker_fails_only_the_cell_it_claimed(tmp_path):
    def dying(spec, seed):
        if (spec.name, seed) == ("R2", 1):
            os._exit(1)
        return ReplayBackend([oracle_response(spec)])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2", "R3"], cfg, [1, 2], dying, jobs=2,
                       out_dir=str(tmp_path / "dying"))
    assert multiprocessing.active_children() == []
    # a worker claims a whole equation, and a replayed cell holds its
    # worker from start to end, so the dead worker had claimed R2 alone:
    # R2's unsent seed fails with it, and the rest ran in the other worker
    assert [(c.equation, c.seed, c.status) for c in report.cells] == [
        ("R1", 1, "ok"), ("R1", 2, "ok"), ("R2", 1, "failed"),
        ("R2", 2, "failed"), ("R3", 1, "ok"), ("R3", 2, "ok")]
    assert all(c.error.startswith("BrokenProcessPool: ") for c in report.cells[2:4])


class _BarrierSession(FakeSession):
    """A FakeSession whose first post waits at a barrier."""

    def __init__(self, outcomes, barrier):
        super().__init__(outcomes)
        self.barrier = barrier

    def post(self, *args, **kwargs):
        if not self.requests:
            self.barrier.wait()
        return super().post(*args, **kwargs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_worker_keeps_cells_in_flight_while_their_calls_wait(tmp_path, jobs):
    # the four cells' first calls meet at one barrier, so the calling
    # process, or two workers, must keep all four in flight, or the
    # barrier times out
    barrier = multiprocessing.get_context("fork").Barrier(4, timeout=10)

    def factory(spec, seed):
        return LiveBackend("http://cells.invalid/v1", api_key="test",
                           session=_BarrierSession([_ok(oracle_response(spec))], barrier))

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2"], cfg, [1, 2], factory, jobs=jobs,
                       out_dir=str(tmp_path / "grid"))
    assert multiprocessing.active_children() == []
    assert [(c.status, c.error) for c in report.cells] == [("ok", None)] * 4
    assert results_csv(report).count(",ok\n") == 4


def test_a_serial_grid_that_never_waits_runs_on_the_calling_thread(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    threads = []

    def factory(spec, seed):
        threads.append(threading.get_ident())
        return _oracle_factory(spec, seed)

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2"], cfg, [1, 2], factory)
    assert [c.status for c in report.cells] == ["ok"] * 4
    assert threads == [threading.get_ident()] * 4
    assert started == []


class _InterruptSession(_BarrierSession):
    """A _BarrierSession whose first post, once past the barrier, raises
    KeyboardInterrupt."""

    def post(self, *args, **kwargs):
        super().post(*args, **kwargs)
        raise KeyboardInterrupt


@pytest.mark.parametrize("where", ["cell", "wait"])
def test_an_interrupt_in_a_serial_live_grid_lets_the_cells_in_flight_finish(
        tmp_path, monkeypatch, where):
    # three live cells in flight at once; the interrupt lands in the
    # calling thread's cell (seed 1's call), or in its wait for the
    # other threads once its own cell is done
    barrier = threading.Barrier(3, timeout=10)
    join = threading.Thread.join
    joined = []

    def interrupted_join(thread, *args):
        if not joined:
            joined.append(thread)
            raise KeyboardInterrupt
        return join(thread, *args)

    if where == "wait":
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)

    def factory(spec, seed):
        session = _InterruptSession if (where, seed) == ("cell", 1) else _BarrierSession
        return LiveBackend("http://cells.invalid/v1", api_key="test",
                           session=session([_ok(oracle_response(spec))], barrier))

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    threads = set(threading.enumerate())
    out = tmp_path / "grid"
    with pytest.raises(KeyboardInterrupt):
        run_suite(["R1"], cfg, [1, 2, 3], factory, out_dir=str(out))
    assert set(threading.enumerate()) == threads
    finished = {seed for seed in (1, 2, 3)
                if (out / "runs" / "R1" / f"seed{seed}" / "summary.json").exists()}
    assert finished == ({2, 3} if where == "cell" else {1, 2, 3})
    assert not (out / "runs" / "R1" / "seed1" / "failed.json").exists()
    assert not (out / "results.csv").exists()


class _SlowSession(FakeSession):
    def post(self, *args, **kwargs):
        time.sleep(0.01)
        return super().post(*args, **kwargs)


def test_a_worker_runs_one_cell_at_a_time_between_its_calls(tmp_path, monkeypatch):
    real_fit = icsr.engine.fit
    lock = threading.Lock()
    running = [0]

    def lonely_fit(*args, **kwargs):
        with lock:
            running[0] += 1
            alone = running[0] == 1
        try:
            time.sleep(0.02)
            assert alone, "two fits ran at once in one process"
            return real_fit(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(icsr.engine, "fit", lonely_fit)
    claims = tmp_path / "claims"
    claims.mkdir()

    def factory(spec, seed):
        # "x" fails if the cell was claimed before, in any process
        with open(claims / f"{spec.name}-{seed}", "x", encoding="utf-8"):
            pass
        replies = [oracle_response(spec), "f1(x) = c*x^2 + c", "f1(x) = c*x + c"]
        return LiveBackend("http://cells.invalid/v1", api_key="test",
                           session=_SlowSession([_ok(r) for r in replies]))

    cfg = EngineConfig(n_seed_calls=3, max_iterations=0)
    names = ["R1", "R2", "R3"]
    # three workers, more than a 2-core machine has, switching threads often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_suite(names, cfg, [1, 2, 3, 4], factory, jobs=3,
                           out_dir=str(tmp_path / "grid"))
    finally:
        sys.setswitchinterval(interval)
    assert multiprocessing.active_children() == []
    assert [(c.status, c.error) for c in report.cells] == [("ok", None)] * 12
    assert len(list(claims.iterdir())) == 12
    # with the fits timed out of the way, the grid is the serial one
    for p in claims.iterdir():
        p.unlink()
    serial = run_suite(names, cfg, [1, 2, 3, 4], factory, jobs=1,
                       out_dir=str(tmp_path / "serial"))
    assert results_csv(serial) == results_csv(report)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cell_raising_system_exit_fails_alone(tmp_path, jobs):
    def exiting(spec, seed):
        if (spec.name, seed) == ("R2", 2):
            raise SystemExit(3)
        return ReplayBackend([oracle_response(spec)])

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    out = tmp_path / "exiting"
    report = run_suite(["R1", "R2", "R3"], cfg, [1, 2, 3], exiting, jobs=jobs, out_dir=str(out))
    assert multiprocessing.active_children() == []
    assert [(c.status, c.error) for c in report.cells] == [("ok", None)] * 4 + [
        ("failed", "SystemExit: 3")] + [("ok", None)] * 4
    assert "r,R2,2,,,failed" in (out / "results.csv").read_text(encoding="utf-8")
    assert (out / "summary.csv").exists()
    assert json.loads((out / "runs" / "R2" / "seed2" / "failed.json").read_text(
        encoding="utf-8")) == {"error": "SystemExit: 3"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_interrupt_in_a_cell_ends_the_grid(tmp_path, jobs):
    def factory(spec, seed):
        if seed == 2:
            raise KeyboardInterrupt
        return _oracle_factory(spec, seed)

    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    threads = set(threading.enumerate())
    cut = tmp_path / "cut"
    # one equation, so one worker runs its seeds in order
    with pytest.raises(KeyboardInterrupt):
        run_suite(["R1"], cfg, [1, 2, 3], factory, jobs=jobs, out_dir=str(cut))
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads
    run_suite(["R1"], cfg, [1], factory, out_dir=str(tmp_path / "whole"))
    kept = os.path.join(cell_dir(cut, "R1", 1), "summary.json")
    whole = os.path.join(cell_dir(tmp_path / "whole", "R1", 1), "summary.json")
    with open(kept, "rb") as a, open(whole, "rb") as b:
        assert a.read() == b.read()
    assert not os.path.exists(cell_dir(cut, "R1", 3))
    assert not (cut / "results.csv").exists()


def test_a_cell_that_cannot_be_pickled_back_fails_alone(tmp_path, monkeypatch):
    run_one = icsr.bench._run_one

    def unpicklable_r2(*args):
        cell = run_one(*args)
        if cell.equation == "R2":
            cell.candidate = threading.Lock()
        return cell

    monkeypatch.setattr(icsr.bench, "_run_one", unpicklable_r2)
    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(["R1", "R2", "R3"], cfg, [1], _oracle_factory, jobs=2)
    assert multiprocessing.active_children() == []
    assert [(c.status, c.error) for c in report.cells] == [
        ("ok", None), ("failed", "TypeError: cannot pickle '_thread.lock' object"), ("ok", None)]


def test_an_interrupted_grid_leaves_no_worker(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    def stuck(spec, seed):
        time.sleep(30)

    monkeypatch.setattr(multiprocessing.connection, "wait", interrupted)
    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    with pytest.raises(KeyboardInterrupt):
        run_suite(["R1", "R2", "R3"], cfg, [1], stuck, jobs=2)
    assert multiprocessing.active_children() == []


def test_a_stored_grid_reads_back_as_the_grid_that_wrote_it(tmp_path):
    # a jobs=2 grid of ok and failed cells, read back from its directory
    # alone: each cell as results.csv rounds it, each winner's OOD curve
    # bit for bit that of the candidate the grid returned
    replies = {
        "nguyen1": ["f1(x) = c*x^3 + c*sin(c*x)\nf2(x) = c*exp(c*x) + c"],
        "nguyen9": ["f1(x1, x2) = c*sin(x1) + c*cos(c*x2^2)"],
        "R2": ["no functions here"],
        "keijzer3": ["f1(x) = c*x*sin(c*x) + c/(x + c)"],
    }
    cfg = EngineConfig(n_seed_calls=1, max_iterations=0)
    report = run_suite(list(replies), cfg, [1, 2],
                       lambda spec, seed: ReplayBackend(replies[spec.name]),
                       jobs=2, out_dir=str(tmp_path))
    assert {c.status for c in report.cells} == {"ok", "failed"}
    with open(tmp_path / "results.csv", encoding="utf-8", newline="") as fh:
        read = results_cells(csv.DictReader(fh))

    def rounded(value):
        return None if value is None else float(format(value, ".12g"))

    assert len(read) == len(report.cells)
    extensions = [0.0, 0.5, 1.0]
    for stored, cell in zip(read, report.cells):
        assert (stored.family, stored.equation, stored.seed, stored.status) == (
            cell.family, cell.equation, cell.seed, cell.status)
        assert (stored.r2, stored.complexity) == (rounded(cell.r2), rounded(cell.complexity))
        if cell.status != "ok":
            continue
        path = os.path.join(cell_dir(str(tmp_path), cell.equation, cell.seed), "summary.json")
        with open(path, encoding="utf-8") as fh:
            spec, winner = stored_winner(stored, json.load(fh))
        assert spec is get_benchmark(cell.equation)
        assert repr(evaluate_ood(winner, spec, extensions)) == repr(
            evaluate_ood(cell.candidate, spec, extensions))

