"""Command-line interface: single runs, benchmark suites, OOD curves,
and report aggregation.

Configuration comes from an optional JSON file plus flag overrides;
unknown config keys are rejected loudly.  Exit codes: 0 success, 1
runtime failure, 2 configuration/IO error, 3 no valid seed candidates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from . import bench
from .bench import atomic_write_text, csv_text, write_summary
from .dataset import Dataset
from .engine import MODES, SECTIONS, EngineConfig, NoValidSeedsError, config_from_doc, run
from .expr import variable_names
from .llm import LIVE_SETTINGS, BackendError, LiveBackend, MissingAPIKeyError, ReplayBackend
from .validate import of_type

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NO_SEEDS = 3


class ConfigError(ValueError):
    pass


def _string(obj, key: str):
    of_type(obj, key, str, "a string")
    if "\0" in getattr(obj, key):
        raise ValueError(f"{key} must not contain a NUL byte, got {getattr(obj, key)!r}")


# section -> its config dataclass, whose fields (bar the nested sections)
# are its keys and check themselves when built, or else {key: check}
_SECTIONS = {
    **SECTIONS,
    "backend": {"kind": _string, "replay_file": _string, **LIVE_SETTINGS},
    "benchmark": {"suite": _string, "equation": _string, "data": _string},
    "output": {"dir": _string},
}


def _read(path, what: str, load=json.load):
    """load(file) for an untrusted UTF-8 file, less a leading byte order
    mark; every way that fails is a ConfigError naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError, RecursionError, csv.Error) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path) -> dict:
    doc = _read(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for section, value in doc.items():
        if section == "seeds":
            if not isinstance(value, list):
                raise ConfigError("seeds must be a list of integers")
            _check_seeds(value)
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        checks = _SECTIONS[section]
        if not isinstance(checks, dict):  # the dataclass checks its fields when built
            checks = dict.fromkeys({f.name for f in fields(checks)} - _SECTIONS.keys(),
                                   lambda obj, key: None)
        unknown = set(value) - set(checks)
        if unknown:
            raise ConfigError(
                f"unknown keys in config section {section!r}: {sorted(unknown)}"
            )
        given = SimpleNamespace(**value)
        try:
            for key in value:
                checks[key](given, key)
        except ValueError as exc:
            raise ConfigError(f"config section {section!r}: {exc}") from exc
    return doc


def _config(args) -> dict:
    """The --config file, if any, with each flag that was given written
    over the key its dest names ("section.key")."""
    doc = load_config(args.config) if args.config else {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            doc.setdefault(section, {})[key] = value
    return doc


def _check_seeds(seeds):
    """Every seed must pass the engine's own seed check."""
    try:
        for seed in seeds:
            EngineConfig(seed=seed)
    except ValueError as exc:
        raise ConfigError(f"bad seeds: {exc}") from exc


def build_engine_config(doc: dict) -> EngineConfig:
    """The EngineConfig that a config document (see _config) describes."""
    try:
        return config_from_doc(doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad engine configuration: {exc}") from exc


def _load_replay_data(path):
    """One script (an array of response strings), or an object of
    scripts keyed by equation name; every script is checked here."""
    data = _read(path, "replay file")
    if not isinstance(data, (list, dict)):
        raise ConfigError("replay file must be a JSON array or an object of arrays")
    for name, script in data.items() if isinstance(data, dict) else [(None, data)]:
        if not isinstance(script, list) or not all(isinstance(r, str) for r in script):
            where = "replay file" if name is None else f"replay entry {name!r}"
            raise ConfigError(f"{where} must be an array of strings")
    return data


def make_backend_factory(doc: dict, names=()):
    """Returns factory(spec_or_name, seed) -> backend for each of names.
    A replay file keyed by equation must have an entry for every one of
    them, checked here so a run or grid fails before any call."""
    options = dict(doc.get("backend", {}))
    kind = options.pop("kind", None) or "replay"
    path = options.pop("replay_file", None)
    if kind not in ("live", "replay"):
        raise ConfigError(f"unknown backend kind {kind!r}")

    if kind == "replay":
        if not path:
            raise ConfigError("replay backend needs --replay-file")
        data = _load_replay_data(path)
        missing = [n for n in names if isinstance(data, dict) and n not in data]
        if missing:
            raise ConfigError(f"replay file has no entry for {missing[0]!r}")

        def factory(spec_or_name, seed):
            if isinstance(data, list):
                return ReplayBackend(data)
            return ReplayBackend(data[getattr(spec_or_name, "name", spec_or_name)])

        return factory

    if not options.get("endpoint"):
        raise ConfigError("live backend needs --endpoint")
    try:
        LiveBackend(**options)  # the API key and each setting, --endpoint too, before any call
    except (ValueError, MissingAPIKeyError) as exc:
        raise ConfigError(str(exc)) from exc
    return lambda spec_or_name, seed: LiveBackend(**options)


def _load_csv_dataset(path) -> Dataset:
    rows = _read(path, "data file", lambda fh: list(csv.reader(fh)))
    if not rows:
        raise ConfigError("data file is empty")
    start = 0
    try:
        float(rows[0][0])
    except (ValueError, IndexError):
        start = 1
    values = []
    for row in rows[start:]:
        if not row:
            continue
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise ConfigError(f"bad numeric row in data file: {row}") from exc
    try:
        arr = np.asarray(values, dtype=float)
    except ValueError as exc:
        raise ConfigError("data file rows differ in length") from exc
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ConfigError("data file must have columns x[,x2],y")
    name = os.path.splitext(os.path.basename(path))[0]
    try:
        return Dataset(X=arr[:, :-1], y=arr[:, -1], name=name, split="train")
    except ValueError as exc:
        raise ConfigError(f"bad data file: {exc}") from exc


def _predictions_csv(X, y_true, y_pred) -> str:
    return csv_text(variable_names(X.shape[1]) + ["y_true", "y_pred"],
                    ([*X[i], y_true[i], y_pred[i]] for i in range(X.shape[0])))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    doc = _config(args)
    config = build_engine_config(doc)
    equation = doc.get("benchmark", {}).get("equation")
    data_path = doc.get("benchmark", {}).get("data")
    if (equation is None) == (data_path is None):
        raise ConfigError("exactly one of --benchmark or --data is required")

    if equation is not None:
        try:
            spec = bench.get_benchmark(equation)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        train = bench.sample(spec, "train")
        grid = bench.sample(spec, "test")
    else:
        spec = None
        train = _load_csv_dataset(data_path)
        grid = train

    name = spec.name if spec is not None else train.name
    backend = make_backend_factory(doc, [name])(name, config.seed)

    out_dir = doc.get("output", {}).get("dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "runlog.jsonl")

    try:
        record = run(train, config, backend, log_path)
    except NoValidSeedsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.record is not None:
            write_summary(out_dir, exc.record.summary())
        return EXIT_NO_SEEDS

    summary, pred = bench.score_winner(record, grid, config.score.trim_fraction)
    write_summary(out_dir, summary)
    atomic_write_text(
        os.path.join(out_dir, "predictions.csv"),
        _predictions_csv(grid.X, grid.y, pred),
    )
    print(f"best: {summary['best']['expression']}")
    print(f"train r2: {summary['best']['r2_train']:.6f}  "
          f"err: {summary['best']['error']:.6g}  "
          f"calls: {summary['calls_issued']}")
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad seeds list {text!r}") from exc
    _check_seeds(seeds)
    return seeds


def cmd_bench(args) -> int:
    doc = _config(args)
    config = build_engine_config(doc)
    suite_token = doc.get("benchmark", {}).get("suite")
    if not suite_token:
        raise ConfigError("--suite is required")
    names = []
    for token in suite_token.split(","):
        token = token.strip()
        if token:
            try:
                names.extend(bench.resolve_suite(token))
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
    if args.seeds is not None:
        seeds = _parse_seeds(args.seeds)
    else:
        seeds = doc.get("seeds", [1, 2, 3, 4, 5])
    if not seeds:
        raise ConfigError("empty seeds list")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")

    factory = make_backend_factory(doc, names)
    out_dir = doc.get("output", {}).get("dir") or "bench_out"
    report = bench.run_suite(names, config, seeds, factory,
                             jobs=args.jobs, out_dir=out_dir)
    for cell in report.cells:
        if cell.status != "ok":
            print(f"{cell.equation} seed {cell.seed}: {cell.error}", file=sys.stderr)
    ok = len(report.ok_cells())
    print(f"{ok}/{len(report.cells)} runs ok; results in {out_dir}")
    for row in report.family_rows():
        print(f"{row['benchmark']}: r2 {row['r2_mean']:.4f} +/- {row['r2_sem']:.4f} "
              f"(missing {row['n_missing']})")
    return EXIT_OK if ok == len(report.cells) else EXIT_FAILURE


def _parse_extensions(text: str) -> list[float]:
    extensions = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"bad extension {token!r}: need a finite number >= 0")
        extensions.append(value)
    return extensions


def cmd_ood(args) -> int:
    extensions = _parse_extensions(args.extensions)
    if not extensions:
        raise ConfigError("empty extensions list")
    cells = []
    for cell in _read_results([os.path.join(args.runs, "results.csv")]).ok_cells():
        path = os.path.join(bench.cell_dir(args.runs, cell.equation, cell.seed), "summary.json")
        summary = _read(path, "stored summary")
        try:
            cells.append(bench.stored_winner(cell, summary))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad stored candidate in {path}: {exc}") from exc
    if not cells:
        raise ConfigError(f"no stored candidates under {args.runs}")
    out_dir = args.out or args.runs
    os.makedirs(out_dir, exist_ok=True)
    rows = bench.ood_rows(cells, extensions)
    atomic_write_text(os.path.join(out_dir, "ood.csv"), bench.ood_csv(rows))
    for row in rows:
        print(f"{row['benchmark']} e={row['extension']}: "
              f"clamped r2 {row['mean_r2_clamped']:.4f}, "
              f"neg fraction {row['neg_fraction']:.3f}")
    return EXIT_OK


def _read_results(paths) -> bench.EvalReport:
    """The cells that the results.csv files or bench output dirs at paths list."""
    cells = []
    for path in paths:
        if os.path.isdir(path):
            path = os.path.join(path, "results.csv")
        rows = _read(path, "results file", lambda fh: list(csv.DictReader(fh)))
        try:
            cells += bench.results_cells(rows, cells)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad row in {path}: {exc!r}") from exc
    return bench.EvalReport(cells=cells)


def cmd_report(args) -> int:
    report = _read_results(args.runs)
    if not report.cells:
        raise ConfigError("no result rows found")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    text = bench.summary_csv(report)
    atomic_write_text(os.path.join(out_dir, "report.csv"), text)
    print(text, end="")
    missing = sum(1 for c in report.cells if c.status != "ok")
    if missing:
        print(f"note: {missing} missing cells", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_engine_flags(p: argparse.ArgumentParser):
    """--config, and the flags that override its keys: each one's dest is
    the "section.key" it overrides (see _config)."""
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--backend", dest="backend.kind", choices=["live", "replay"])
    p.add_argument("--endpoint", dest="backend.endpoint",
                   help="base URL of the chat-completions service")
    p.add_argument("--model", dest="engine.model", help="model name sent on the wire")
    p.add_argument("--replay-file", dest="backend.replay_file",
                   help="JSON array of responses, or object keyed by equation")
    p.add_argument("--lambda", dest="score.lam", type=float,
                   help="complexity reward weight")
    p.add_argument("--iterations", dest="engine.max_iterations", type=int,
                   help="max refinement iterations")
    p.add_argument("--ns", dest="engine.n_seed_calls", type=int, help="number of seed calls")
    p.add_argument("--topk", dest="engine.top_k", type=int, help="trajectory size")
    p.add_argument("--mode", dest="engine.mode", choices=MODES)
    p.add_argument("--out", dest="output.dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsr",
        description="Symbolic regression with a chat model in the loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one equation or ad-hoc dataset")
    _add_engine_flags(p_run)
    p_run.add_argument("--benchmark", dest="benchmark.equation",
                       help="equation name, e.g. nguyen8")
    p_run.add_argument("--data", dest="benchmark.data", help="CSV with columns x[,x2],y")
    p_run.add_argument("--seed", dest="engine.seed", type=int, help="run seed")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a benchmark suite grid")
    _add_engine_flags(p_bench)
    p_bench.add_argument("--suite", dest="benchmark.suite",
                         help="family (nguyen/constant/keijzer/r), 'all', "
                              "equation name, or comma list")
    p_bench.add_argument("--seeds", help="comma-separated seed list, default 1-5")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="processes for the grid (forked above 1, at most one per "
                              "equation); each computes one cell at a time and keeps up to "
                              "16 in flight while their live calls wait")
    p_bench.set_defaults(func=cmd_bench)

    p_ood = sub.add_parser("ood", help="evaluate stored candidates out of domain")
    p_ood.add_argument("--runs", required=True, help="bench output directory")
    p_ood.add_argument("--extensions", default="0.25,0.5,0.75,1.0")
    p_ood.add_argument("--out", help="output directory (default: runs dir)")
    p_ood.set_defaults(func=cmd_ood)

    p_rep = sub.add_parser("report", help="aggregate results.csv files")
    p_rep.add_argument("--runs", nargs="+", required=True,
                       help="bench output dirs or results.csv paths")
    p_rep.add_argument("--out", help="output directory")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BackendError, bench.SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
