import json
import os

import numpy as np
import pytest

from icsr.bench import get_benchmark, sample
from icsr.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_NO_SEEDS,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)
from icsr.llm import API_KEY_ENV


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_load_config_accepts_known_sections(tmp_path):
    path = write_json(tmp_path / "c.json", {
        "engine": {"n_seed_calls": 3},
        "sampling": {"temperature": 0.7},
        "score": {"lam": 0.05},
        "seeds": [1, 2],
    })
    doc = load_config(path)
    assert doc["engine"]["n_seed_calls"] == 3


def test_load_config_rejects_unknown_section(tmp_path):
    path = write_json(tmp_path / "c.json", {"enginee": {}})
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_json(tmp_path / "c.json", {"engine": {"n_seeds": 3}})
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path)


def test_load_config_rejects_bad_seeds(tmp_path):
    path = write_json(tmp_path / "c.json", {"seeds": ["one"]})
    with pytest.raises(ConfigError, match="seeds"):
        load_config(path)


def test_load_config_rejects_broken_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path))


def test_main_reports_config_errors_with_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", {"bogus": {}})
    code = main(["run", "--benchmark", "nguyen8", "--config", path,
                 "--replay-file", "unused.json"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_benchmark_with_replay(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json", ["f1(x) = sqrt(x)"])
    out = tmp_path / "out"
    code = main(["run", "--benchmark", "nguyen8", "--replay-file", replay,
                 "--ns", "1", "--iterations", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert "best:" in capsys.readouterr().out

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["best"]["skeleton"] == "sqrt(x)"
    assert summary["evaluation"]["test_r2_trimmed"] == 1.0
    assert summary["calls_issued"] == 1

    log_lines = (out / "runlog.jsonl").read_text(encoding="utf-8").strip().split("\n")
    assert len(log_lines) == 1

    pred_lines = (out / "predictions.csv").read_text(encoding="utf-8").strip().split("\n")
    spec = get_benchmark("nguyen8")
    assert pred_lines[0] == "x,y_true,y_pred"
    assert len(pred_lines) == spec.test.num + 1
    for line in pred_lines[1:]:
        _, y_true, y_pred = line.split(",")
        assert y_true == y_pred


def test_run_requires_exactly_one_input(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c"])
    assert main(["run", "--replay-file", replay]) == EXIT_CONFIG
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("x,y\n1,2\n", encoding="utf-8")
    assert main(["run", "--benchmark", "nguyen8", "--data", str(csv_path),
                 "--replay-file", replay]) == EXIT_CONFIG


def test_run_unknown_benchmark(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c"])
    code = main(["run", "--benchmark", "nguyen99", "--replay-file", replay])
    assert code == EXIT_CONFIG


def test_run_no_valid_seeds_exit_code(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json", ["nothing useful"])
    out = tmp_path / "out"
    code = main(["run", "--benchmark", "nguyen8", "--replay-file", replay,
                 "--ns", "1", "--iterations", "0", "--out", str(out)])
    assert code == EXIT_NO_SEEDS
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["best"] is None
    assert summary["calls_issued"] == 1


def test_run_adhoc_csv_dataset(tmp_path, capsys):
    x = np.linspace(-2, 2, 25)
    rows = ["x,y"] + [f"{v},{3*v - 1}" for v in x]
    data = tmp_path / "line.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c*x + c"])
    out = tmp_path / "out"
    code = main(["run", "--data", str(data), "--replay-file", replay,
                 "--ns", "1", "--iterations", "0", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["dataset"]["name"] == "line"
    assert summary["best"]["r2_train"] > 0.99999
    assert "evaluation" not in summary
    assert (out / "predictions.csv").exists()


def test_run_data_csv_validation(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2,3,4\n", encoding="utf-8")
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c"])
    code = main(["run", "--data", str(bad), "--replay-file", replay])
    assert code == EXIT_CONFIG
    for cell in ("nan", "inf"):
        bad.write_text(f"x,y\n1,2\n{cell},3\n", encoding="utf-8")
        code = main(["run", "--data", str(bad), "--replay-file", replay])
        assert code == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err


def test_run_live_backend_needs_api_key(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    code = main(["run", "--benchmark", "nguyen8", "--backend", "live",
                 "--endpoint", "http://example.invalid/v1"])
    assert code == EXIT_CONFIG
    assert API_KEY_ENV in capsys.readouterr().err


def test_run_flag_overrides_config_file(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        "engine": {"n_seed_calls": 5, "max_iterations": 7},
        "score": {"lam": 0.05},
    })
    replay = write_json(tmp_path / "replay.json", ["f1(x) = sqrt(x)"])
    out = tmp_path / "out"
    code = main(["run", "--benchmark", "nguyen8", "--config", cfg,
                 "--replay-file", replay, "--ns", "1", "--iterations", "0",
                 "--lambda", "0.1", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["n_seed_calls"] == 1
    assert summary["config"]["max_iterations"] == 0
    assert summary["config"]["lam"] == 0.1


# ---------------------------------------------------------------------------
# bench / report / ood
# ---------------------------------------------------------------------------

def _oracle_replay_file(tmp_path, names):
    doc = {}
    for name in names:
        spec = get_benchmark(name)
        args = "x" if spec.dim == 1 else "x1, x2"
        doc[name] = [f"f1({args}) = {spec.expression}"]
    return write_json(tmp_path / "replay.json", doc)


def test_bench_oracle_suite_and_report_round_trip(tmp_path, capsys):
    replay = _oracle_replay_file(tmp_path, ["R1", "R2", "R3"])
    out = tmp_path / "bench_out"
    code = main(["bench", "--suite", "r", "--seeds", "1,2",
                 "--replay-file", replay, "--ns", "1", "--iterations", "0",
                 "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "6/6 runs ok" in printed
    assert "r: r2 1.0000" in printed

    results = (out / "results.csv").read_text(encoding="utf-8")
    assert results.count("\n") == 7  # header + 6 cells
    assert ",ok" in results

    # report rebuilds the same summary from results.csv
    rep_out = tmp_path / "rep"
    code = main(["report", "--runs", str(out), "--out", str(rep_out)])
    assert code == EXIT_OK
    report_text = (rep_out / "report.csv").read_text(encoding="utf-8")
    summary_text = (out / "summary.csv").read_text(encoding="utf-8")
    assert report_text == summary_text


def test_bench_failure_sets_exit_code(tmp_path, capsys):
    spec = get_benchmark("R1")
    doc = {
        "R1": [f"f1(x) = {spec.expression}"],
        "R2": ["total gibberish"],
        "R3": [f"f1(x) = {get_benchmark('R3').expression}"],
    }
    replay = write_json(tmp_path / "replay.json", doc)
    out = tmp_path / "bench_out"
    code = main(["bench", "--suite", "r", "--seeds", "1",
                 "--replay-file", replay, "--ns", "1", "--iterations", "0",
                 "--out", str(out)])
    assert code == EXIT_FAILURE
    results = (out / "results.csv").read_text(encoding="utf-8")
    assert "r,R2,1,,,failed" in results
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == ["R2 seed 1: no valid seed candidates after 1 seed calls"]


def test_bench_replay_missing_equation_entry(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json", {"R1": ["f1(x) = c"]})
    code = main(["bench", "--suite", "r", "--seeds", "1",
                 "--replay-file", replay, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_bench_bad_seeds(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c"])
    code = main(["bench", "--suite", "r", "--seeds", "a,b",
                 "--replay-file", replay])
    assert code == EXIT_CONFIG


def test_ood_command_from_bench_output(tmp_path, capsys):
    replay = _oracle_replay_file(tmp_path, ["R1", "R2", "R3"])
    out = tmp_path / "bench_out"
    assert main(["bench", "--suite", "r", "--seeds", "1",
                 "--replay-file", replay, "--ns", "1", "--iterations", "0",
                 "--out", str(out)]) == EXIT_OK

    code = main(["ood", "--runs", str(out)])
    assert code == EXIT_OK
    text = (out / "ood.csv").read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "benchmark,extension,mean_r2_clamped,neg_fraction"
    assert len(lines) == 5  # four extensions for one family
    # ground-truth candidates stay perfect out of domain
    for line in lines[1:]:
        family, _, clamped, neg = line.split(",")
        assert family == "r"
        assert clamped == "1"
        assert neg == "0"


def test_ood_custom_extensions(tmp_path, capsys):
    replay = _oracle_replay_file(tmp_path, ["R1"])
    out = tmp_path / "bench_out"
    main(["bench", "--suite", "R1", "--seeds", "1", "--replay-file", replay,
          "--ns", "1", "--iterations", "0", "--out", str(out)])
    code = main(["ood", "--runs", str(out), "--extensions", "0.5"])
    assert code == EXIT_OK
    text = (out / "ood.csv").read_text(encoding="utf-8")
    assert text.strip().split("\n")[1].startswith("r,0.5,")


def test_ood_reloads_two_dimensional_skeleton_using_only_x1(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json",
                        {"nguyen9": ["f1(x1, x2) = c*sin(x1) + c"]})
    out = tmp_path / "bench_out"
    assert main(["bench", "--suite", "nguyen9", "--seeds", "1",
                 "--replay-file", replay, "--ns", "1", "--iterations", "0",
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "runs" / "nguyen9" / "seed1" / "summary.json")
                         .read_text(encoding="utf-8"))
    assert summary["best"]["skeleton"] == "c + c*sin(x1)"
    assert main(["ood", "--runs", str(out)]) == EXIT_OK


def test_ood_missing_runs_dir(tmp_path, capsys):
    assert main(["ood", "--runs", str(tmp_path / "nope")]) == EXIT_CONFIG


def test_report_requires_rows(tmp_path, capsys):
    empty = tmp_path / "results.csv"
    empty.write_text("benchmark,equation,seed,r2,complexity,status\n",
                     encoding="utf-8")
    assert main(["report", "--runs", str(empty)]) == EXIT_CONFIG
