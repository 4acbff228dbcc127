import contextlib
import io
import json
import os
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from icsr.bench import get_benchmark, sample
from icsr.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_NO_SEEDS,
    EXIT_OK,
    ConfigError,
    build_engine_config,
    load_config,
    main,
    make_backend_factory,
)
from icsr.engine import MODES, EngineConfig, config_doc
from icsr.expr import parse
from icsr.fit import FitConfig
from icsr.llm import (API_KEY_ENV, MAX_ATTEMPTS, MAX_BEAMS, MAX_NEW_TOKENS,
                      MAX_SCHEDULE_ITERATIONS, MAX_TIMEOUT, MAX_TOP_K, BackendError,
                      CompletionResponse, SamplingParams, TemperatureSchedule)
from icsr.score import ScoreConfig


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


@pytest.mark.parametrize("doc", [
    {"engine": {"n_seeds": 3}},
    {"engine": {"fit": {}}},
    {"engine": {"sampling": {}}},
], ids=["n_seeds", "nested-fit", "nested-sampling"])
def test_load_config_rejects_unknown_key(tmp_path, doc):
    path = write_json(tmp_path / "c.json", doc)
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path)


def test_load_config_rejects_bad_seeds(tmp_path):
    for seeds in (["one"], [True], [-1], [1.5], 3):
        path = write_json(tmp_path / "c.json", {"seeds": seeds})
        with pytest.raises(ConfigError, match="seeds"):
            load_config(path)


@pytest.mark.parametrize("section,key", [
    ("backend", "kind"), ("backend", "endpoint"), ("backend", "replay_file"),
    ("benchmark", "suite"), ("benchmark", "equation"), ("benchmark", "data"),
    ("output", "dir"),
])
def test_non_string_config_value_exits_2_before_any_call(
        tmp_path, monkeypatch, capsys, section, key):
    def no_call(*args, **kwargs):
        raise AssertionError("a model call was made")

    monkeypatch.setenv(API_KEY_ENV, "test-key")
    monkeypatch.setattr("icsr.llm.LiveBackend.complete", no_call)
    cfg = write_json(tmp_path / "c.json", {section: {key: 7}})
    with pytest.raises(ConfigError, match=key):
        load_config(cfg)
    code = main(["run", "--config", cfg, "--backend", "live",
                 "--out", str(tmp_path / "out"), "--ns", "1", "--iterations", "0"])
    assert code == EXIT_CONFIG
    assert f"{key} must be a string" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_config_rejects_broken_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path))


def test_readme_example_config_builds(tmp_path):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Configuration file", 1)[1]
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "c.json"
    path.write_text(block, encoding="utf-8")
    config = build_engine_config(load_config(str(path)))
    assert config.schedule.mode == "linear"
    assert config.model == "my-model"


def test_main_reports_config_errors_with_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", {"bogus": {}})
    code = main(["run", "--benchmark", "nguyen8", "--config", path,
                 "--replay-file", "unused.json"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# keys no longer accepted: the fitter's stopping thresholds and warm-start
# switch, and nmse's eps, are constants
_REMOVED_KEYS = {"fit": ["gtol", "xtol", "ftol", "warm_start"], "score": ["eps"]}
# every key of every section, with a good value (the removed keys with the
# value their constant has)
_GOOD_CONFIG = {
    "engine": {"n_seed_calls": 2, "max_iterations": 0, "top_k": 5, "functions_per_call": 5,
               "early_stop_r2": 0.99999, "seed": 3, "mode": "random", "model": "m"},
    "sampling": {"temperature": 0.7, "top_p": 0.9, "top_k": 60, "num_beams": 1,
                 "max_new_tokens": 512},
    "schedule": {"mode": "linear", "start": 1.0, "end": 0.4, "total_iterations": 50},
    "fit": {"restarts": 2, "max_iterations": 200,
            "gtol": 1e-8, "xtol": 1e-10, "ftol": 1e-12, "warm_start": True},
    "score": {"lam": 0.05, "max_len": 30, "trim_fraction": 0.05, "eps": 1e-9},
    "backend": {"kind": "replay", "endpoint": "http://127.0.0.1:9/v1", "replay_file": "list.json",
                "timeout": 1.0, "max_attempts": 3, "backoff": 0.0,
                "include_sampling_extras": False},
    "benchmark": {"suite": "nguyen", "equation": "nguyen1", "data": "d.csv"},
    "output": {"dir": "out"},
}
# replay files in the fuzz directory, by name: a script, keyed scripts with
# and without the run's equation, entries that are not strings, broken JSON
_REPLAY_FILES = {"list.json": '["f1(x) = c*x"]', "keyed.json": '{"nguyen1": ["f1(x) = c*x"]}',
                 "other.json": '{"nguyen2": ["f1(x) = c*x"]}', "numbers.json": "[1, 2]",
                 "broken.json": "{nope"}
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
_PLAUSIBLE = st.sampled_from([0, 1, 2, 5, 0.5, 1e-9, -1, 2.5, 10**400, float("nan"),
                              float("inf"), True, False, None, "", "x", "linear", "live",
                              "replay", "full", [], {}, [1, 2]])


@st.composite
def _config_documents(draw):
    """A JSON document: mostly an object of known sections and keys, with
    good, plausible or arbitrary values; sometimes an unknown section or
    key, a section that is not an object, or any JSON value at all."""
    doc = {}
    for section in draw(st.lists(st.sampled_from([*_GOOD_CONFIG] * 2 + ["seeds", "bogus"]),
                                 max_size=4, unique=True)):
        good = _GOOD_CONFIG.get(section)
        if good is None or draw(st.integers(0, 9)) == 0:
            doc[section] = draw(st.one_of(st.lists(st.integers(-1, 9), max_size=3),
                                          _PLAUSIBLE, _JSON))
            continue
        keys = draw(st.lists(st.sampled_from([*good] * 3 + ["bogus"]), max_size=4, unique=True))
        doc[section] = {key: draw(st.sampled_from([*_REPLAY_FILES, "missing.json", ""])
                                  if key == "replay_file"
                                  else st.one_of(st.just(good.get(key)), _PLAUSIBLE, _JSON))
                        for key in keys}
    return draw(st.one_of(st.just(doc), st.just(doc), st.just(doc), _JSON))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("config_fuzz")
    for name, text in _REPLAY_FILES.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


@settings(max_examples=300, deadline=None)
@given(_config_documents())
@example({"fit": {"gtol": 1e-6}})
@example({"score": {"eps": 1e-9, "lam": 0.05}})
@example({"score": {"lam": 10**400}})
@example({"backend": {"kind": "live", "endpoint": "http://127.0.0.1:9/v1", "timeout": 10**400}})
@example({"sampling": {"temperature": float("nan")}, "seeds": [1, 2]})
@example({"engine": {"seed": 3}, "fit": {"restarts": 2}, "backend": {"replay_file": "keyed.json"}})
def test_any_config_document_gives_a_config_or_a_config_error(fuzz_dir, doc):
    backend = doc.get("backend") if isinstance(doc, dict) else None
    if isinstance(backend, dict) and isinstance(backend.get("replay_file"), str):
        backend["replay_file"] = str(fuzz_dir / backend["replay_file"])
    path = fuzz_dir / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    removed = isinstance(doc, dict) and any(
        isinstance(doc.get(section), dict) and set(doc[section]) & set(keys)
        for section, keys in _REMOVED_KEYS.items())
    try:
        loaded = load_config(str(path))
        config = build_engine_config(loaded)
        # as with --replay-file list.json, which the file's own replay_file overrides
        loaded["backend"] = {"replay_file": str(fuzz_dir / "list.json"),
                             **loaded.get("backend", {})}
        factory = make_backend_factory(loaded, ["nguyen1"])
    except ConfigError:
        return
    assert not removed
    assert isinstance(config, EngineConfig)
    assert callable(factory("nguyen1", 1).complete)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_AT_LEAST_0 = st.one_of(st.integers(0, 9), st.floats(0, allow_infinity=False))
_ENGINE_CONFIGS = st.builds(
    EngineConfig,
    n_seed_calls=st.integers(1, 10_000), max_iterations=st.integers(0, 10_000),
    top_k=st.integers(1, 10**6), functions_per_call=st.integers(1, 8),
    early_stop_r2=st.one_of(st.integers(-9, 9), _FINITE),
    score=st.builds(ScoreConfig, lam=_AT_LEAST_0,
                    max_len=st.floats(0, exclude_min=True, allow_infinity=False),
                    trim_fraction=st.floats(0, 1, exclude_max=True)),
    fit=st.builds(FitConfig, restarts=st.integers(1, 1000),
                  max_iterations=st.integers(1, 100_000)),
    sampling=st.builds(SamplingParams, temperature=_AT_LEAST_0,
                       top_p=st.floats(0, 1, exclude_min=True), top_k=st.integers(1, MAX_TOP_K),
                       num_beams=st.integers(1, MAX_BEAMS),
                       max_new_tokens=st.integers(1, MAX_NEW_TOKENS)),
    schedule=st.one_of(st.none(), st.builds(
        TemperatureSchedule, mode=st.sampled_from(["constant", "linear"]), start=_AT_LEAST_0,
        end=_AT_LEAST_0, total_iterations=st.integers(1, MAX_SCHEDULE_ITERATIONS))),
    seed=st.integers(0, 2**64), mode=st.sampled_from(MODES), model=st.text(max_size=8))


@settings(max_examples=200, deadline=None)
@given(_ENGINE_CONFIGS)
@example(EngineConfig())
@example(EngineConfig(sampling=SamplingParams(temperature=1), schedule=TemperatureSchedule()))
def test_a_stored_config_document_reads_back_as_its_config(fuzz_dir, config):
    doc = config_doc(config)
    assert ("schedule" in doc) == (config.schedule is not None)
    text = json.dumps(doc, sort_keys=True)
    path = fuzz_dir / "stored.json"
    path.write_text(text, encoding="utf-8")
    loaded = load_config(str(path))
    assert loaded == json.loads(text)
    rebuilt = build_engine_config(loaded)
    assert rebuilt == config
    # 1 and 1.0 are equal but encode apart: the document keeps which one
    assert json.dumps(config_doc(rebuilt), sort_keys=True) == text


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


def test_run_data_csv_skips_blank_rows(tmp_path, capsys):
    data = tmp_path / "gaps.csv"
    data.write_text("x,y\n1,2\n\n2,4\n3,6\n\n", encoding="utf-8")
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c*x"])
    out = tmp_path / "out"
    code = main(["run", "--data", str(data), "--replay-file", replay,
                 "--ns", "1", "--iterations", "0", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["dataset"]["n"] == 3


@pytest.mark.parametrize("header", ["", "x,y\n"])
def test_run_data_csv_with_a_byte_order_mark_keeps_every_row(tmp_path, capsys, header):
    # a file saved as "UTF-8 with BOM": the mark is no part of the first cell
    data = tmp_path / "bom.csv"
    data.write_text(header + "1,2\n2,4\n3,6\n", encoding="utf-8-sig")
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c*x"])
    out = tmp_path / "out"
    code = main(["run", "--data", str(data), "--replay-file", replay,
                 "--ns", "1", "--iterations", "0", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["dataset"]["n"] == 3


def test_run_data_csv_validation(tmp_path, monkeypatch, capsys):
    def no_call(*args, **kwargs):
        raise AssertionError("a model call was made")

    monkeypatch.setattr("icsr.llm.ReplayBackend.complete", no_call)
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
    bad.write_text("x,y\n1,2\n3,4,5\n", encoding="utf-8")
    code = main(["run", "--data", str(bad), "--replay-file", replay])
    assert code == EXIT_CONFIG
    assert "differ in length" in capsys.readouterr().err
    for text in (b"x,y\n\xff,1\n", b"x,y\n" + b"a" * 200_000 + b",1\n"):
        bad.write_bytes(text)
        code = main(["run", "--data", str(bad), "--replay-file", replay])
        assert code == EXIT_CONFIG
        assert f"cannot read data file {bad}" in capsys.readouterr().err


_CSV_NUMBERS = ["0", "1", "-3", "2.5", " 4 ", "7.", "1e-400", "1_0"]
_CSV_ODD = ["nan", "-inf", "inf", "1e400", "0x10", "0x1p3", "", "x", '"5"', "\ufeff1", "1,"]
_CSV_ROW = st.one_of(
    st.sampled_from(["x,y", "x1,x2,y", "x,,y", "y", "\ufeffx,y"]),
    st.lists(st.sampled_from(_CSV_NUMBERS), min_size=2, max_size=3).map(",".join),
    st.lists(st.one_of(st.sampled_from(_CSV_NUMBERS + _CSV_ODD), st.text(max_size=5)),
             max_size=5).map(",".join))
# a byte order mark or none, then headers, numeric, ragged, non-finite,
# overflowing, hex, padded and arbitrary rows, with either line ending
_CSV_TEXT = st.builds(lambda bom, rows, end: bom + end.join(rows) + end,
                      st.sampled_from(["", "\ufeff"]), st.lists(_CSV_ROW, max_size=8),
                      st.sampled_from(["\n", "\r\n"]))


@pytest.fixture(scope="module")
def csv_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv_fuzz")
    write_json(path / "r.json", ["f1(x) = c*x + c"])
    return path


@settings(max_examples=150, deadline=None)
@given(_CSV_TEXT)
@example("x,y\n1,2\n2,3\n3,5\n")
@example("\ufeffx1,x2,y\r\n1,2,3\r\n")
@example("x,y\n1e400,1\n")
def test_any_data_csv_text_exits_0_to_3_without_a_warning(csv_fuzz_dir, text):
    data = csv_fuzz_dir / "data.csv"
    data.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--data", str(data), "--replay-file", str(csv_fuzz_dir / "r.json"),
                     "--ns", "1", "--iterations", "0", "--out", str(csv_fuzz_dir / "out")])
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_CONFIG, EXIT_NO_SEEDS)


def test_malformed_replay_scripts_exit_2_before_any_run(tmp_path, capsys):
    replay = tmp_path / "replay.json"
    cases = [
        (json.dumps({"nguyen1": "f1(x) = c*x"}),
         "replay entry 'nguyen1' must be an array of strings"),
        (json.dumps({"nguyen1": [1]}), "replay entry 'nguyen1' must be an array of strings"),
        (json.dumps([1, 2]), "replay file must be an array of strings"),
        (json.dumps("f1(x) = c*x"), "replay file must be a JSON array or an object of arrays"),
        ("[" * 100_000 + "]" * 100_000, f"cannot read replay file {replay}"),
    ]
    for text, message in cases:
        replay.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["run", "--benchmark", "nguyen1", "--replay-file", str(replay),
                     "--ns", "1", "--iterations", "0", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        code = main(["bench", "--suite", "nguyen1", "--seeds", "1", "--replay-file", str(replay),
                     "--ns", "1", "--iterations", "0", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_run_live_backend_needs_api_key(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    code = main(["run", "--benchmark", "nguyen8", "--backend", "live",
                 "--endpoint", "http://example.invalid/v1"])
    assert code == EXIT_CONFIG
    assert API_KEY_ENV in capsys.readouterr().err


@pytest.mark.parametrize("text,key", [
    ('{"fit": {"restarts": 2.5}}', "restarts"),
    ('{"fit": {"max_iterations": true}}', "max_iterations"),
    ('{"fit": {"gtol": "abc"}}', "gtol"),
    ('{"fit": {"gtol": NaN}}', "gtol"),
    ('{"fit": {"ftol": -1}}', "ftol"),
    ('{"fit": {"xtol": null}}', "xtol"),
    ('{"fit": {"gtol": 1e-6}}', "gtol"),
    # a start per restart, in one array numpy could not allocate
    ('{"fit": {"restarts": 1000000000000000}}', "restarts"),
    # a fit that would not end
    ('{"fit": {"max_iterations": 100001}}', "max_iterations"),
])
def test_run_bad_fit_config_exits_2(tmp_path, capsys, text, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c*sqrt(x)"])
    out = tmp_path / "out"
    code = main(["run", "--benchmark", "nguyen8", "--config", str(cfg),
                 "--replay-file", replay, "--ns", "1", "--iterations", "0", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,key", [
    ('{"engine": {"n_seed_calls": 2.5}}', "n_seed_calls"),
    # runs that would not end
    ('{"engine": {"n_seed_calls": 10001}}', "n_seed_calls"),
    ('{"engine": {"max_iterations": 10001}}', "max_iterations"),
    ('{"engine": {"early_stop_r2": "x"}}', "early_stop_r2"),
    ('{"engine": {"seed": "abc"}}', "seed"),
    ('{"engine": {"seed": -1}}', "seed"),
    ('{"engine": {"top_k": 2.5}}', "top_k"),
    ('{"schedule": {"mode": "linear", "start": "a"}}', "start"),
    ('{"engine": {"functions_per_call": true}}', "functions_per_call"),
    ('{"engine": {"functions_per_call": 9}}', "functions_per_call"),
    ('{"sampling": {"max_new_tokens": 2.5}}', "max_new_tokens"),
    ('{"engine": {"model": 5}}', "model"),
    ('{"score": {"lam": true}}', "lam"),
    pytest.param("[" * 100_000 + "]" * 100_000, "c.json", id="nested-100000-deep"),
])
def test_run_badly_typed_engine_config_exits_2_before_any_call(
        tmp_path, monkeypatch, capsys, text, key):
    def no_call(*args, **kwargs):
        raise AssertionError("a model call was made")

    monkeypatch.setattr("icsr.llm.ReplayBackend.complete", no_call)
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--benchmark", "nguyen1", "--config", str(cfg),
                 "--replay-file", write_json(tmp_path / "r.json", ["f1(x) = c*x"]),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,key,bound", [
    ("sampling", "top_k", MAX_TOP_K),
    ("sampling", "num_beams", MAX_BEAMS),
    ("sampling", "max_new_tokens", MAX_NEW_TOKENS),
    ("schedule", "total_iterations", MAX_SCHEDULE_ITERATIONS),
])
def test_run_count_past_its_bound_exits_2_before_any_call(
        tmp_path, monkeypatch, capsys, section, key, bound):
    def no_call(*args, **kwargs):
        raise AssertionError("a model call was made")

    monkeypatch.setattr("icsr.llm.ReplayBackend.complete", no_call)
    replay = write_json(tmp_path / "r.json", ["f1(x) = c*x"])
    out = tmp_path / "out"
    for value in (10**30, bound + 1):
        cfg = write_json(tmp_path / "c.json", {section: {key: value}})
        code = main(["run", "--benchmark", "nguyen1", "--config", cfg, "--replay-file", replay,
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"{key} must be an integer in [1, {bound}], got {value}" in capsys.readouterr().err
        assert not out.exists()
    config = build_engine_config({section: {key: bound}})
    assert getattr(getattr(config, section), key) == bound


@pytest.mark.parametrize("option,value", [
    ("timeout", "abc"), ("timeout", 0), ("timeout", float("inf")), ("timeout", True),
    # far past what a socket timeout or a sleep can take, and just past the bound
    ("timeout", 1e300), ("timeout", MAX_TIMEOUT * (1 + 2**-52)),
    ("max_attempts", "3"), ("max_attempts", 0), ("max_attempts", 2.0),
    ("max_attempts", MAX_ATTEMPTS + 1),
    ("backoff", -1), ("backoff", None),
    ("include_sampling_extras", "yes"), ("include_sampling_extras", 1),
])
def test_run_bad_live_backend_option_exits_2_before_any_call(
        tmp_path, monkeypatch, capsys, option, value):
    def no_call(*args, **kwargs):
        raise AssertionError("a model call was made")

    monkeypatch.setenv(API_KEY_ENV, "test-key")
    monkeypatch.setattr("icsr.llm.LiveBackend.complete", no_call)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"backend": {option: value}}), encoding="utf-8")
    for kind in ("live", "replay"):
        code = main(["run", "--benchmark", "nguyen8", "--config", str(cfg),
                     "--backend", kind, "--endpoint", "http://127.0.0.1:9/v1",
                     "--replay-file", write_json(tmp_path / "r.json", ["f1(x) = c"]),
                     "--ns", "1", "--iterations", "0", "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert option in capsys.readouterr().err


def test_run_good_live_backend_options_reach_the_backend(tmp_path, monkeypatch):
    seen = []

    def complete(self, request):
        seen.append((self.timeout, self.max_attempts, self.backoff,
                     self.include_sampling_extras))
        raise BackendError("stop here")

    monkeypatch.setenv(API_KEY_ENV, "test-key")
    monkeypatch.setattr("icsr.llm.LiveBackend.complete", complete)
    # the bounds themselves too, with a backoff whose sleeps are capped at timeout
    for options in [(2, 1, 0.0, True), (MAX_TIMEOUT, MAX_ATTEMPTS, 1e300, False)]:
        cfg = write_json(tmp_path / "c.json", {"backend": dict(zip(
            ("timeout", "max_attempts", "backoff", "include_sampling_extras"), options))})
        code = main(["run", "--benchmark", "nguyen8", "--config", cfg, "--backend", "live",
                     "--endpoint", "http://127.0.0.1:9/v1", "--ns", "1", "--iterations", "0",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_NO_SEEDS  # every call failed
        assert seen and seen[-1] == options


def _summary(out):
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


# flag, its value, a config file that sets the key it overrides, and a
# check that the flag's value won
_OVERRIDES = [
    ("--ns", "1", {"engine": {"n_seed_calls": 5}},
     lambda out, reached: _summary(out)["config"]["engine"]["n_seed_calls"] == 1),
    ("--iterations", "0", {"engine": {"max_iterations": 7}},
     lambda out, reached: _summary(out)["config"]["engine"]["max_iterations"] == 0),
    ("--topk", "3", {"engine": {"top_k": 2}},
     lambda out, reached: _summary(out)["config"]["engine"]["top_k"] == 3),
    ("--mode", "seed-only", {"engine": {"mode": "random"}},
     lambda out, reached: _summary(out)["config"]["engine"]["mode"] == "seed-only"),
    ("--model", "flag-model", {"engine": {"model": "file-model"}},
     lambda out, reached: _summary(out)["config"]["engine"]["model"] == "flag-model"),
    ("--seed", "9", {"engine": {"seed": 4}},
     lambda out, reached: _summary(out)["config"]["engine"]["seed"] == 9),
    ("--lambda", "0.1", {"score": {"lam": 0.05}},
     lambda out, reached: _summary(out)["config"]["score"]["lam"] == 0.1),
    ("--backend", "replay", {"backend": {"kind": "live", "endpoint": "http://127.0.0.1:9/v1"}},
     lambda out, reached: reached == [] and _summary(out)["calls_issued"] == 1),
    ("--endpoint", "http://127.0.0.1:9/flag",
     {"backend": {"kind": "live", "endpoint": "http://127.0.0.1:9/file"}},
     lambda out, reached: reached == ["http://127.0.0.1:9/flag"]),
    ("--replay-file", "replay.json", {"backend": {"replay_file": "missing.json"}},
     lambda out, reached: _summary(out)["best"]["skeleton"] == "c + c*x"),
    ("--benchmark", "nguyen8", {"benchmark": {"equation": "nguyen1"}},
     lambda out, reached: _summary(out)["dataset"]["name"] == "nguyen8"),
    ("--data", "line.csv", {"benchmark": {"data": "missing.csv"}},
     lambda out, reached: _summary(out)["dataset"]["name"] == "line"),
    ("--suite", "R1", {"benchmark": {"suite": "R2"}},
     lambda out, reached: os.listdir(out / "runs") == ["R1"]),
    ("--out", "out", {"output": {"dir": "file_out"}},
     lambda out, reached: (out / "summary.json").exists()
     and not (out.parent / "file_out").exists()),
]


@pytest.mark.parametrize("flag,value,doc,check", _OVERRIDES,
                         ids=[case[0].lstrip("-") for case in _OVERRIDES])
def test_run_flag_overrides_config_file(tmp_path, monkeypatch, flag, value, doc, check):
    reached = []

    def complete(self, request):
        reached.append(self.endpoint)
        return CompletionResponse(text="f1(x) = c*x + c")

    monkeypatch.setenv(API_KEY_ENV, "test-key")
    monkeypatch.setattr("icsr.llm.LiveBackend.complete", complete)
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "replay.json", ["f1(x) = c*x + c"])
    (tmp_path / "line.csv").write_text(
        "x,y\n" + "".join(f"{v},{2 * v + 1}\n" for v in range(9)), encoding="utf-8")
    flags = {"--replay-file": "replay.json", "--ns": "1", "--iterations": "0", "--out": "out"}
    if flag == "--suite":
        command, flags["--seeds"] = "bench", "1"
    else:
        command = "run"
        if flag != "--data":
            flags["--benchmark"] = "nguyen8"
    flags[flag] = value
    argv = [command, "--config", write_json(tmp_path / "c.json", doc)]
    for name, given in flags.items():
        argv += [name, given]
    assert main(argv) == EXIT_OK
    assert check(tmp_path / "out", reached)


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

    for jobs in ("0", "-2"):
        rejected = tmp_path / f"jobs{jobs}"
        code = main(["bench", "--suite", "r", "--seeds", "1,2",
                     "--replay-file", replay, "--jobs", jobs, "--out", str(rejected)])
        assert code == EXIT_CONFIG
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not rejected.exists()


def test_bench_runs_repeated_equations_and_seeds_once(tmp_path, capsys):
    replay = _oracle_replay_file(tmp_path, ["R1", "R2", "R3"])
    out = tmp_path / "bench_out"
    code = main(["bench", "--suite", "R1,r", "--seeds", "1,1",
                 "--replay-file", replay, "--ns", "1", "--iterations", "0",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "3/3 runs ok" in capsys.readouterr().out
    rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[1:3] for row in rows] == [["R1", "1"], ["R2", "1"], ["R3", "1"]]


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


def test_a_cells_stored_config_reruns_its_grid_to_the_same_bytes(tmp_path, capsys):
    # every section set away from its default, some keys by flag, and an
    # integer temperature, which the seed calls log as 1, not 1.0
    replay = write_json(tmp_path / "replay.json", {
        "nguyen1": ["f1(x) = c*x^2 + c", "f1(x) = c*sin(x)\nf2(x) = c*x", "f1(x) = c*x^3 + c*x"],
        "nguyen2": ["f1(x) = c*exp(c*x)", "f1(x) = c*x^2", "f1(x) = c*x^4 + c*x^2 + c"]})
    cfg = write_json(tmp_path / "c.json", {
        "engine": {"functions_per_call": 3, "early_stop_r2": 0.9999999},
        "sampling": {"temperature": 1, "top_p": 0.5, "max_new_tokens": 256},
        "schedule": {"mode": "linear", "start": 1.0, "end": 0.2, "total_iterations": 4},
        "fit": {"restarts": 2, "max_iterations": 50},
        "score": {"lam": 0.1, "max_len": 20, "trim_fraction": 0.1}})
    grid = ["bench", "--suite", "nguyen1,nguyen2", "--seeds", "1,2", "--replay-file", replay,
            "--jobs", "2"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*grid, "--config", cfg, "--ns", "2", "--iterations", "1", "--topk", "3",
                 "--model", "m", "--lambda", "0.2", "--out", str(first)]) == EXIT_OK
    stored = _summary(first / "runs" / "nguyen1" / "seed1")["config"]
    assert stored["engine"]["n_seed_calls"] == 2 and stored["score"]["lam"] == 0.2
    assert stored["schedule"]["end"] == 0.2 and stored["fit"]["max_iterations"] == 50
    assert main([*grid, "--config", write_json(tmp_path / "stored.json", stored),
                 "--out", str(second)]) == EXIT_OK
    files = sorted(p.relative_to(first) for p in first.rglob("*")
                   if p.name in ("summary.json", "runlog.jsonl"))
    assert len(files) == 8
    for name in files:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_bench_replay_missing_equation_entry(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json", {"R1": ["f1(x) = c"]})
    for jobs in ("1", "2"):
        code = main(["bench", "--suite", "r", "--seeds", "1", "--jobs", jobs,
                     "--replay-file", replay, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "no entry for 'R2'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_bad_seeds(tmp_path, capsys):
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c"])
    cfg = write_json(tmp_path / "c.json", {"seeds": [True]})
    out = tmp_path / "out"
    for flags in (["--seeds", "a,b"], ["--seeds=-1"], ["--seeds", "1,-2"],
                  ["--config", cfg]):
        code = main(["bench", "--suite", "r", *flags, "--replay-file", replay,
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "seeds" in capsys.readouterr().err
    assert not out.exists()


def test_bench_empty_seeds_list_in_config_is_a_config_error(tmp_path, capsys):
    # a present-but-empty list is not "absent": it must not fall back to
    # the five default seeds, just as --seeds "," does not
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c"])
    cfg = write_json(tmp_path / "c.json", {"seeds": []})
    out = tmp_path / "out"
    for flags in (["--config", cfg], ["--seeds", ","]):
        code = main(["bench", "--suite", "R1", *flags, "--replay-file", replay,
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "empty seeds list" in capsys.readouterr().err
    assert not out.exists()


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
    expression = summary["best"]["expression"]
    parse(expression, 2)
    assert "sin(x1)" in expression
    assert main(["ood", "--runs", str(out)]) == EXIT_OK


def test_a_line_whose_key_nests_too_deep_is_a_parse_error_and_ood_still_runs(tmp_path):
    # the line itself parses, but its sorted key needs over 100 nested
    # parentheses: fitting it and storing it as the winner left a
    # summary.json that no later command could parse back
    deep = "x" + "/x*x" * 110 + "/x"
    replay = write_json(tmp_path / "replay.json",
                        {"nguyen1": [f"f1(x) = {deep}\nf2(x) = c*x*x"]})
    out = tmp_path / "bench_out"
    assert main(["bench", "--suite", "nguyen1", "--seeds", "1",
                 "--replay-file", replay, "--ns", "1", "--iterations", "0",
                 "--out", str(out)]) == EXIT_OK
    run_dir = out / "runs" / "nguyen1" / "seed1"
    call = json.loads((run_dir / "runlog.jsonl").read_text(encoding="utf-8"))
    first, second = call["outcomes"]
    assert first["status"] == "parse_error"
    assert "nested deeper than 100 levels" in first["detail"]
    assert second["status"] == "scored"
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["best"]["skeleton"] == "c*x*x"
    assert main(["ood", "--runs", str(out)]) == EXIT_OK
    assert (out / "ood.csv").exists()


def _r1_bench_out(tmp_path):
    replay = _oracle_replay_file(tmp_path, ["R1"])
    out = tmp_path / "bench_out"
    assert main(["bench", "--suite", "R1", "--seeds", "1", "--replay-file", replay,
                 "--ns", "1", "--iterations", "0", "--out", str(out)]) == EXIT_OK
    return out


def test_ood_rejects_bad_extensions(tmp_path, capsys):
    out = _r1_bench_out(tmp_path)
    capsys.readouterr()
    for token in ("abc", "-1", "inf"):
        code = main(["ood", "--runs", str(out), "--extensions", f"0.5,{token}"])
        assert code == EXIT_CONFIG
        assert f"bad extension {token!r}" in capsys.readouterr().err
    assert not (out / "ood.csv").exists()


def test_ood_rejects_corrupt_stored_candidates(tmp_path, capsys):
    out = _r1_bench_out(tmp_path)
    path = out / "runs" / "R1" / "seed1" / "summary.json"
    good = json.loads(path.read_text(encoding="utf-8"))

    def with_best(**fields):
        return json.dumps({**good, "best": {**good["best"], **fields}})

    cases = [
        ("{not json", "is not valid JSON"),
        ("[" * 100_000 + "]" * 100_000, "cannot read stored summary"),
        (with_best(skeleton="c*y"), "unknown identifier 'y'"),
        (with_best(coefficients=["a", "b"]), "bad stored candidate"),
        (with_best(skeleton="c*x", coefficients=[10**400]), "too large to convert to float"),
        (with_best(skeleton="c*x+c", coefficients=[1.0]),
         "1 coefficients for 2 placeholders"),
    ]
    capsys.readouterr()
    for text, message in cases:
        path.write_text(text, encoding="utf-8")
        assert main(["ood", "--runs", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err
        assert message in err
    assert not (out / "ood.csv").exists()


def test_report_rejects_malformed_results(tmp_path, capsys):
    results = tmp_path / "results.csv"
    cases = [
        (b"benchmark,equation,r2,complexity,status\nr,R1,1,5,ok\n", "'seed'"),
        (b"benchmark,equation,seed,r2,complexity,status\nr,R1,one,1,5,ok\n", "'one'"),
        (b"benchmark,equation,seed,status,r2,complexity\nzzz,R1,1,ok,1,5\n", "'zzz'"),
        (b"benchmark,equation,seed,status,r2,complexity\nr,R\xff1,1,ok,1,5\n",
         "can't decode byte 0xff"),
    ]
    for text, token in cases:
        results.write_bytes(text)
        assert main(["report", "--runs", str(results), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(results) in err
        assert token in err
    assert not (tmp_path / "report.csv").exists()


def test_ood_missing_runs_dir(tmp_path, capsys):
    assert main(["ood", "--runs", str(tmp_path / "nope")]) == EXIT_CONFIG


def test_report_notes_missing_cells_on_stderr(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("benchmark,equation,seed,r2,complexity,status\n"
                       "r,R1,1,1.0,5,ok\nr,R1,2,,,no_valid_seeds\nr,R2,1,,,backend_error\n",
                       encoding="utf-8")
    assert main(["report", "--runs", str(results), "--out", str(tmp_path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "note: 2 missing cells\n"
    assert captured.out == (tmp_path / "report.csv").read_text(encoding="utf-8")


def test_report_requires_rows(tmp_path, capsys):
    empty = tmp_path / "results.csv"
    empty.write_text("benchmark,equation,seed,r2,complexity,status\n",
                     encoding="utf-8")
    assert main(["report", "--runs", str(empty)]) == EXIT_CONFIG


def test_unusable_output_dir_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    def no_call(*args, **kwargs):
        raise AssertionError("a model call was made")

    runs = _r1_bench_out(tmp_path)
    monkeypatch.setattr("icsr.llm.ReplayBackend.complete", no_call)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = str(blocker / "x")
    replay = str(tmp_path / "replay.json")
    cfg = write_json(tmp_path / "c.json", {"output": {"dir": out}})
    capsys.readouterr()
    for argv in (["run", "--benchmark", "R1", "--replay-file", replay, "--out", out],
                 ["run", "--benchmark", "R1", "--replay-file", replay, "--config", cfg],
                 ["bench", "--suite", "R1", "--seeds", "1", "--replay-file", replay,
                  "--out", out],
                 ["bench", "--suite", "R1", "--seeds", "1,2", "--jobs", "2",
                  "--replay-file", replay, "--config", cfg],
                 ["ood", "--runs", str(runs), "--out", out],
                 ["report", "--runs", str(runs), "--out", out]):
        assert main(argv) == EXIT_CONFIG
        assert out in capsys.readouterr().err


def test_ood_and_report_check_out_before_computing(tmp_path, monkeypatch, capsys):
    def no_call(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    runs = _r1_bench_out(tmp_path)
    monkeypatch.setattr("icsr.bench.ood_rows", no_call)
    monkeypatch.setattr("icsr.bench.summary_csv", no_call)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = str(blocker / "x")
    capsys.readouterr()
    for command in ("ood", "report"):
        assert main([command, "--runs", str(runs), "--out", out]) == EXIT_CONFIG
        assert out in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit paths
# ---------------------------------------------------------------------------

_REPLAY = {"r.json": '["f1(x) = c*x"]'}

# name -> (files written in the working directory, argv, what stderr names)
_CONFIG_ERRORS = {
    "config-root-not-an-object": (
        {"c.json": "[1]"}, ["run", "--benchmark", "nguyen1", "--config", "c.json"],
        "config root must be a JSON object"),
    "section-not-an-object": (
        {"c.json": '{"engine": 3}'}, ["run", "--benchmark", "nguyen1", "--config", "c.json"],
        "config section 'engine' must be an object"),
    "mode-alias": (
        {**_REPLAY, "c.json": '{"engine": {"mode": "random-guessing"}}'},
        ["run", "--benchmark", "nguyen1", "--config", "c.json", "--replay-file", "r.json"],
        "unknown mode 'random-guessing'"),
    "unknown-backend-kind": (
        {"c.json": '{"backend": {"kind": "smoke"}}'},
        ["run", "--benchmark", "nguyen1", "--config", "c.json"],
        "unknown backend kind 'smoke'"),
    "replay-without-file": (
        {}, ["run", "--benchmark", "nguyen1"], "replay backend needs --replay-file"),
    "live-without-endpoint": (
        {}, ["run", "--benchmark", "nguyen1", "--backend", "live"],
        "live backend needs --endpoint"),
    "empty-data-file": (
        {**_REPLAY, "d.csv": ""}, ["run", "--data", "d.csv", "--replay-file", "r.json"],
        "data file is empty"),
    "non-numeric-data-row": (
        {**_REPLAY, "d.csv": "x,y\n1,2\nabc,3\n"},
        ["run", "--data", "d.csv", "--replay-file", "r.json"],
        "bad numeric row in data file: ['abc', '3']"),
    "bench-without-suite": (
        _REPLAY, ["bench", "--replay-file", "r.json"], "--suite is required"),
    "unknown-suite-token": (
        _REPLAY, ["bench", "--suite", "nguyen1,bogus", "--replay-file", "r.json"],
        "unknown benchmark 'bogus'"),
    "empty-extensions": (
        {"b/runs/stray.txt": ""}, ["ood", "--runs", "b", "--extensions", ","],
        "empty extensions list"),
    "no-results-csv": (
        {"b/runs/stray.txt": ""}, ["ood", "--runs", "b"],
        "cannot read results file b/results.csv"),
    "nul-in-output-dir-run": (
        {**_REPLAY, "c.json": '{"output": {"dir": "a\\u0000b"}}'},
        ["run", "--benchmark", "nguyen1", "--replay-file", "r.json", "--config", "c.json"],
        "config section 'output': dir must not contain a NUL byte"),
    "nul-in-output-dir-bench": (
        {**_REPLAY, "c.json": '{"output": {"dir": "a\\u0000b"}}'},
        ["bench", "--suite", "nguyen1", "--seeds", "1", "--replay-file", "r.json",
         "--config", "c.json"],
        "config section 'output': dir must not contain a NUL byte"),
    "nul-in-data-path": (
        {**_REPLAY, "c.json": '{"benchmark": {"data": "d\\u0000.csv"}}'},
        ["run", "--replay-file", "r.json", "--config", "c.json"],
        "config section 'benchmark': data must not contain a NUL byte"),
    "no-stored-candidates": (
        {"b/results.csv": "benchmark,equation,seed,r2,complexity,status\nr,R1,1,,,failed\n"},
        ["ood", "--runs", "b"], "no stored candidates under b"),
}


@pytest.mark.parametrize("files,argv,message", _CONFIG_ERRORS.values(), ids=list(_CONFIG_ERRORS))
def test_config_and_input_errors_exit_2_naming_the_problem(
        tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "bench_out").exists()


def test_a_benchmark_that_cannot_be_sampled_exits_1(tmp_path, monkeypatch, capsys):
    # the ground truth is undefined on all of nguyen1's train range
    spec = replace(get_benchmark("nguyen1"), expression="sqrt(x - 5)")
    monkeypatch.setattr("icsr.bench.get_benchmark", lambda name: spec)
    replay = write_json(tmp_path / "replay.json", ["f1(x) = c*x"])
    code = main(["run", "--benchmark", "nguyen1", "--replay-file", replay,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "error: nguyen1/train: resampling did not converge" in err
    assert "Traceback" not in err


def test_ood_skips_entries_that_hold_no_stored_candidate(tmp_path, capsys):
    # results.csv lists the cells: a directory it does not list is not read
    out = _r1_bench_out(tmp_path)
    assert main(["ood", "--runs", str(out), "--out", str(tmp_path / "clean")]) == EXIT_OK
    runs = out / "runs"
    summary = (runs / "R1" / "seed1" / "summary.json").read_text(encoding="utf-8")
    (runs / "stray.txt").write_text("", encoding="utf-8")
    (runs / "nguyen99" / "seed1").mkdir(parents=True)
    (runs / "nguyen99" / "seed1" / "summary.json").write_text(summary, encoding="utf-8")
    (runs / "R1" / "seed2").mkdir()
    (runs / "R2" / "seed1").mkdir(parents=True)
    write_json(runs / "R2" / "seed1" / "summary.json", {**json.loads(summary), "best": None})
    assert main(["ood", "--runs", str(out), "--out", str(tmp_path / "strays")]) == EXIT_OK
    assert ((tmp_path / "strays" / "ood.csv").read_text(encoding="utf-8")
            == (tmp_path / "clean" / "ood.csv").read_text(encoding="utf-8"))
    # but a listed ok cell without a winner is an error, not a skip
    with open(out / "results.csv", "a", encoding="utf-8") as fh:
        fh.write("r,R2,1,1,5,ok\n")
    capsys.readouterr()
    assert main(["ood", "--runs", str(out), "--out", str(tmp_path / "null")]) == EXIT_CONFIG
    assert f"bad stored candidate in {runs / 'R2' / 'seed1' / 'summary.json'}" in (
        capsys.readouterr().err)
    assert not (tmp_path / "null").exists()


def _nguyen1_grid(tmp_path, out, seeds, reply):
    replay = write_json(tmp_path / "replay.json", {"nguyen1": [reply]})
    return main(["bench", "--suite", "nguyen1", "--seeds", seeds, "--replay-file", replay,
                 "--ns", "1", "--iterations", "0", "--out", str(out)])


def test_ood_after_a_rerun_into_a_used_out_counts_only_the_rerun_cells(tmp_path, capsys):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert _nguyen1_grid(tmp_path, fresh, "1", "f1(x) = x^3 + x^2 + x") == EXIT_OK
    assert _nguyen1_grid(tmp_path, reused, "1,2", "f1(x) = c*x") == EXIT_OK
    assert _nguyen1_grid(tmp_path, reused, "1", "f1(x) = x^3 + x^2 + x") == EXIT_OK
    for out in (fresh, reused):
        assert main(["ood", "--runs", str(out)]) == EXIT_OK
    assert (reused / "ood.csv").read_bytes() == (fresh / "ood.csv").read_bytes()


def test_a_failed_rerun_leaves_no_stored_candidate_for_ood(tmp_path, capsys):
    out = tmp_path / "out"
    assert _nguyen1_grid(tmp_path, out, "1,2", "f1(x) = x^3 + x^2 + x") == EXIT_OK
    assert _nguyen1_grid(tmp_path, out, "1", "no functions here") == EXIT_FAILURE
    assert not (out / "runs" / "nguyen1" / "seed1" / "summary.json").exists()
    # the failed cell says so, and ood reads none of it
    assert "error" in json.loads(
        (out / "runs" / "nguyen1" / "seed1" / "failed.json").read_text(encoding="utf-8"))
    capsys.readouterr()
    assert main(["ood", "--runs", str(out)]) == EXIT_CONFIG
    assert f"no stored candidates under {out}" in capsys.readouterr().err
    assert not (out / "ood.csv").exists()


_HEADER = "benchmark,equation,seed,r2,complexity,status"


@pytest.mark.parametrize("row,message", [
    ("r,R1,1,,5,ok", "an ok row needs its r2 and complexity"),
    ("r,R1,1,1,,ok", "an ok row needs its r2 and complexity"),
    ("r,R1,1,1,5", "the row and the header differ in length"),
    ("r,R1,1,1,5,ok,7", "the row and the header differ in length"),
    ("r,nguyen99,1,1,5,ok", "unknown benchmark 'nguyen99'"),
    ("nguyen,R1,1,1,5,ok", "R1 is not in family 'nguyen'"),
    # results_csv writes a node count, a whole number in [1, MAX_TOKENS]
    ("r,R1,1,1,inf,ok", "invalid literal for int() with base 10: 'inf'"),
    ("r,R1,1,1,2.5,ok", "invalid literal for int() with base 10: '2.5'"),
    ("r,R1,1,1,0,ok", "complexity must be an integer in [1, 500], got 0"),
    (f"r,R1,1,1,{10**400},ok", "complexity must be an integer in [1, 500], got 1000"),
], ids=["no-r2", "no-complexity", "too-few-fields", "too-many-fields",
        "unknown-equation", "equation-outside-family", "infinite-complexity",
        "fractional-complexity", "zero-complexity", "huge-complexity"])
def test_report_and_ood_reject_a_bad_results_row(tmp_path, capsys, row, message):
    runs = tmp_path / "runs"
    runs.mkdir()
    results = runs / "results.csv"
    results.write_text(f"{_HEADER}\n{row}\n", encoding="utf-8")
    for argv in (["report", "--runs", str(results)], ["ood", "--runs", str(runs)]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad row in {results}" in err
        assert message in err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def r1_runs(tmp_path_factory):
    return _r1_bench_out(tmp_path_factory.mktemp("r1"))


_RESULTS_TEXT = st.tuples(
    st.sampled_from([_HEADER, _HEADER, "status,r2,seed,complexity,equation,benchmark", "", "r2"]),
    st.lists(st.one_of(
        st.sampled_from(["r,R1,1,1,5,ok", "r,R1,2,1,5,ok", "r,R1,1,,,failed",
                         "r,r1,1,nan,inf,ok", "ok,1,1,5,R1,r", ""]),
        st.sampled_from(["r,R1,1,,5,ok", "r,R1,1,1,5", "r,R1,1,1,5,ok,", "r,R9,1,1,5,ok",
                         "nguyen,R1,1,1,5,ok", 'r,R1,"1\n",1,5,ok', ","]),
        st.text(max_size=40)), max_size=4),
).map(lambda parts: "\n".join([parts[0], *parts[1]]))


@settings(max_examples=150, deadline=None)
@given(_RESULTS_TEXT)
@example(f"{_HEADER}\nr,R1,1,1,5,ok\nr,R1,1,,5,ok")
@example(f"{_HEADER}\nr,R1,1,1,5\n")
@example(f"{_HEADER}\nr,R1,2,1,5,ok\nr,r1,1,nan,inf,ok")
def test_any_results_csv_text_exits_0_or_2(r1_runs, text):
    (r1_runs / "results.csv").write_text(text, encoding="utf-8")
    out = str(r1_runs / "out")
    assert main(["report", "--runs", str(r1_runs), "--out", out]) in (EXIT_OK, EXIT_CONFIG)
    assert main(["ood", "--runs", str(r1_runs), "--out", out]) in (EXIT_OK, EXIT_CONFIG)


def test_report_refuses_a_cell_that_two_rows_list(tmp_path, capsys):
    # a cell counts once in an aggregate: listed again, in the same input
    # or another, it exits 2 naming the cell and the file that repeats it
    runs = _r1_bench_out(tmp_path)
    replay = str(tmp_path / "replay.json")
    for seeds in ("2,1", "2"):
        assert main(["bench", "--suite", "R1", "--seeds", seeds, "--replay-file", replay,
                     "--ns", "1", "--iterations", "0",
                     "--out", str(tmp_path / seeds)]) == EXIT_OK
    twice = tmp_path / "twice.csv"
    twice.write_text(_HEADER + "\nr,R1,1,1,5,ok\nr,r1,1,,,failed\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    for inputs, repeats in (([runs, runs], runs / "results.csv"),
                            ([runs, tmp_path / "2,1"], tmp_path / "2,1" / "results.csv"),
                            ([twice], twice)):
        assert main(["report", "--runs", *map(str, inputs), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad row in {repeats}: " in err
        assert "R1 seed 1 is listed twice" in err
    assert not out.exists()
    assert main(["report", "--runs", str(runs), str(tmp_path / "2"), "--out", str(out)]) == EXIT_OK
    assert ",1,2,0," in (out / "report.csv").read_text(encoding="utf-8")  # 1 equation, 2 seeds
    (runs / "results.csv").write_bytes(twice.read_bytes())
    assert main(["ood", "--runs", str(runs), "--out", str(out / "ood")]) == EXIT_CONFIG
    assert "R1 seed 1 is listed twice" in capsys.readouterr().err


_DOCUMENTED_EXITS = (EXIT_OK, EXIT_FAILURE, EXIT_CONFIG, EXIT_NO_SEEDS)

_RESPONSES = st.one_of(
    st.sampled_from(["f1(x) = c*x", "f1(x) = c*x^3 + c*sin(c*x)\nf2(x) = x^2 + x",
                     "f1(x) = c*exp(c*x) + 1e999*x", "f1(x1, x2) = c*x1", "no functions here",
                     ""]),
    st.text(max_size=30))
_SCRIPTS = st.one_of(st.lists(_RESPONSES, max_size=3),
                     st.lists(st.one_of(_RESPONSES, _JSON), max_size=3))


def _documented_exit(argv):
    """main(argv), quiet, must return a documented exit code: an exception
    that escapes it fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in _DOCUMENTED_EXITS


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    _SCRIPTS,
    st.dictionaries(st.one_of(st.sampled_from(["nguyen1", "nguyen2", "Nguyen1"]),
                              st.text(max_size=6)),
                    st.one_of(_SCRIPTS, _JSON), max_size=3),
    st.fixed_dictionaries({"nguyen1": _SCRIPTS, "nguyen2": _SCRIPTS}),
    _JSON))
@example(["f1(x) = c*x", 7])
@example({"nguyen1": ["f1(x) = c*x"], "nguyen2": "f1(x) = c*x"})
@example({"nguyen1": ["f1(x) = c*x^3 + c*sin(c*x)", "f1(x) = c*x"], "nguyen2": []})
def test_any_replay_file_exits_with_a_documented_code(fuzz_dir, doc):
    # a list replay file or a keyed one, run and as a grid
    path = fuzz_dir / "replay_fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    flags = ["--replay-file", str(path), "--ns", "1", "--iterations", "1",
             "--out", str(fuzz_dir / "replay_out")]
    _documented_exit(["run", "--benchmark", "nguyen1", *flags])
    _documented_exit(["bench", "--suite", "nguyen1,nguyen2", "--seeds", "1", *flags])


@pytest.fixture(scope="module")
def summary_fuzz_runs(tmp_path_factory):
    return _r1_bench_out(tmp_path_factory.mktemp("summary_fuzz"))


# skeletons with their coefficient counts, some of them undefined or
# overflowing out of domain
_SKELETONS = {"c*x": 1, "c*x + c": 2, "x": 0, "sin(c*x)": 1, "c*x^c": 2, "c*x/(x - c)": 2,
              "exp(c*x)": 1, "log(c*x) + c": 2, "c*y": 1, "c*x1": 1, "x^c^c^c": 3}
_WINNERS = st.one_of(
    st.sampled_from(sorted(_SKELETONS.items())).flatmap(lambda item: st.fixed_dictionaries({
        "skeleton": st.just(item[0]),
        "coefficients": st.lists(st.floats(), min_size=item[1], max_size=item[1])})),
    st.fixed_dictionaries({
        "skeleton": st.one_of(st.sampled_from(sorted(_SKELETONS)), st.text(max_size=12), _JSON),
        "coefficients": st.one_of(st.lists(st.one_of(st.floats(), _PLAUSIBLE, _JSON),
                                           max_size=3), _JSON)}))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.fixed_dictionaries({"best": _WINNERS}),
    st.fixed_dictionaries({"best": _WINNERS}),
    st.fixed_dictionaries({"best": _JSON}),
    _JSON))
@example({"best": {"skeleton": "exp(c*x)", "coefficients": [1e308]}})
@example({"best": {"skeleton": "c*x", "coefficients": [10**400]}})
@example({"best": {"skeleton": "c*x/(x - c)", "coefficients": [float("inf"), float("nan")]}})
@example({"best": {"skeleton": "c*x", "coefficients": [[1.0]]}})
@example({"best": {"skeleton": "c*x", "coefficients": ["1.5"]}})
def test_any_stored_summary_exits_with_a_documented_code(summary_fuzz_runs, doc):
    # results.csv lists R1/seed1 as ok, so ood reads this as its winner
    path = summary_fuzz_runs / "runs" / "R1" / "seed1" / "summary.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _documented_exit(["ood", "--runs", str(summary_fuzz_runs),
                      "--out", str(summary_fuzz_runs / "ood_out")])
