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

import numpy as np

from . import bench
from .bench import atomic_write_text, csv_text, write_summary
from .dataset import Dataset
from .engine import EngineConfig, NoValidSeedsError, budget_report, run
from .expr import evaluate_batch, num_placeholders, parse, variable_names
from .fit import FitConfig
from .llm import (
    API_KEY_ENV,
    BackendError,
    LiveBackend,
    ReplayBackend,
    SamplingParams,
    TemperatureSchedule,
)
from .score import ScoreConfig

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NO_SEEDS = 3


class ConfigError(ValueError):
    pass


_CONFIG_SECTIONS = {
    "engine": {"n_seed_calls", "max_iterations", "top_k", "functions_per_call",
               "early_stop_r2", "seed", "mode", "model"},
    "sampling": {"temperature", "top_p", "top_k", "num_beams", "max_new_tokens"},
    "schedule": {"mode", "start", "end", "total_iterations"},
    "fit": {"restarts", "max_iterations", "warm_start", "gtol", "xtol", "ftol"},
    "score": {"lam", "max_len", "eps", "trim_fraction"},
    "backend": {"kind", "endpoint", "replay_file", "timeout", "max_attempts",
                "backoff", "include_sampling_extras"},
    "benchmark": {"suite", "equation", "data"},
    "output": {"dir"},
}


# flag -> (config section, key) it overrides
_FLAG_KEYS = {
    "ns": ("engine", "n_seed_calls"),
    "iterations": ("engine", "max_iterations"),
    "topk": ("engine", "top_k"),
    "mode": ("engine", "mode"),
    "model": ("engine", "model"),
    "seed": ("engine", "seed"),
    "lam": ("score", "lam"),
}

def _is_real(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


# live backend option -> (test, what a value must be)
_LIVE_OPTIONS = {
    "timeout": (lambda v: _is_real(v) and v > 0, "a finite number > 0"),
    "max_attempts": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "backoff": (lambda v: _is_real(v) and v >= 0, "a finite number >= 0"),
    "include_sampling_extras": (lambda v: isinstance(v, bool), "true or false"),
}


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path) -> dict:
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for section, value in doc.items():
        if section == "seeds":
            if not isinstance(value, list) or not all(isinstance(s, int) for s in value):
                raise ConfigError("seeds must be a list of integers")
            continue
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(value) - _CONFIG_SECTIONS[section]
        if unknown:
            raise ConfigError(
                f"unknown keys in config section {section!r}: {sorted(unknown)}"
            )
    return doc


def build_engine_config(doc: dict, args) -> EngineConfig:
    """Fold config-file values and flag overrides into an EngineConfig."""
    sections = {name: dict(doc.get(name, {}))
                for name in ("engine", "sampling", "fit", "score")}
    for flag, (section, key) in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            sections[section][key] = getattr(args, flag)
    schedule = doc.get("schedule")

    try:
        return EngineConfig(
            score=ScoreConfig(**sections["score"]),
            fit=FitConfig(**sections["fit"]),
            sampling=SamplingParams(**sections["sampling"]),
            schedule=TemperatureSchedule(**schedule) if schedule else None,
            **sections["engine"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad engine configuration: {exc}") from exc


def _load_replay_data(path):
    """One script (an array of response strings), or an object of
    scripts keyed by equation name; every script is checked here."""
    data = _read_json(path, "replay file")
    if not isinstance(data, (list, dict)):
        raise ConfigError("replay file must be a JSON array or an object of arrays")
    for name, script in data.items() if isinstance(data, dict) else [(None, data)]:
        if not isinstance(script, list) or not all(isinstance(r, str) for r in script):
            where = "replay file" if name is None else f"replay entry {name!r}"
            raise ConfigError(f"{where} must be an array of strings")
    return data


def make_backend_factory(doc: dict, args, names=()):
    """Returns factory(spec_or_name, seed) -> backend.  A replay file
    keyed by equation must have an entry for each of names, checked
    here so a bench grid fails before any cell runs."""
    backend_cfg = dict(doc.get("backend", {}))
    options = {k: backend_cfg[k] for k in _LIVE_OPTIONS if k in backend_cfg}
    for key, value in options.items():
        valid, what = _LIVE_OPTIONS[key]
        if not valid(value):
            raise ConfigError(f"backend {key} must be {what}, got {value!r}")
    kind = getattr(args, "backend", None) or backend_cfg.get("kind") or "replay"
    if kind not in ("live", "replay"):
        raise ConfigError(f"unknown backend kind {kind!r}")

    if kind == "replay":
        path = getattr(args, "replay_file", None) or backend_cfg.get("replay_file")
        if not path:
            raise ConfigError("replay backend needs --replay-file")
        data = _load_replay_data(path)
        missing = [n for n in names if isinstance(data, dict) and n not in data]
        if missing:
            raise ConfigError(f"replay file has no entry for {missing[0]!r}")

        def factory(spec_or_name, seed):
            if isinstance(data, list):
                return ReplayBackend(data)
            name = getattr(spec_or_name, "name", spec_or_name)
            if name not in data:
                raise ConfigError(f"replay file has no entry for {name!r}")
            return ReplayBackend(data[name])

        return factory

    endpoint = getattr(args, "endpoint", None) or backend_cfg.get("endpoint")
    if not endpoint:
        raise ConfigError("live backend needs --endpoint")
    options.update(endpoint=endpoint, api_key=os.environ.get(API_KEY_ENV))
    if not options["api_key"]:
        raise ConfigError(f"live backend needs an API key; set {API_KEY_ENV}")
    return lambda spec_or_name, seed: LiveBackend(**options)


def _load_csv_dataset(path) -> Dataset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}") from exc
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
    doc = load_config(args.config) if args.config else {}
    config = build_engine_config(doc, args)
    bench_sel = doc.get("benchmark", {})
    equation = args.benchmark or bench_sel.get("equation")
    data_path = args.data or bench_sel.get("data")
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

    factory = make_backend_factory(doc, args)
    backend = factory(spec if spec is not None else train.name, config.seed)

    out_dir = args.out or doc.get("output", {}).get("dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "runlog.jsonl")

    try:
        record = run(train, config, backend, log_path)
    except NoValidSeedsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.record is not None:
            write_summary(out_dir, exc.record.summary())
        return EXIT_NO_SEEDS

    summary = record.summary()
    best = record.best
    pred = evaluate_batch(best.skeleton.expr, best.fit.coefficients, grid.X)
    if spec is not None:
        r2, excess = bench.trimmed_r2_with_undefined(
            pred, grid.y, config.score.trim_fraction)
        summary["evaluation"] = {"test_r2_trimmed": r2, "trim_excess": excess}
    write_summary(out_dir, summary)
    atomic_write_text(
        os.path.join(out_dir, "predictions.csv"),
        _predictions_csv(grid.X, grid.y, pred),
    )
    counters = budget_report(record)
    print(f"best: {summary['best']['expression']}")
    print(f"train r2: {summary['best']['r2_train']:.6f}  "
          f"err: {summary['best']['error']:.6g}  "
          f"calls: {counters.calls_issued}")
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad seeds list {text!r}") from exc


def cmd_bench(args) -> int:
    doc = load_config(args.config) if args.config else {}
    config = build_engine_config(doc, args)
    suite_token = args.suite or doc.get("benchmark", {}).get("suite")
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
        seeds = doc.get("seeds") or [1, 2, 3, 4, 5]
    if not seeds:
        raise ConfigError("empty seeds list")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")

    factory = make_backend_factory(doc, args, names)
    out_dir = args.out or doc.get("output", {}).get("dir") or "bench_out"
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


def _cells_from_run_dir(runs_dir) -> list:
    """(spec, (tree, coefficients)) for each winning candidate stored in
    the summary.json files under a bench output directory."""
    cells = []
    root = os.path.join(runs_dir, "runs")
    if not os.path.isdir(root):
        raise ConfigError(f"no runs/ directory under {runs_dir}")
    for equation in sorted(os.listdir(root)):
        eq_dir = os.path.join(root, equation)
        if not os.path.isdir(eq_dir):
            continue
        try:
            spec = bench.get_benchmark(equation)
        except KeyError:
            continue
        for seed_name in sorted(os.listdir(eq_dir)):
            path = os.path.join(eq_dir, seed_name, "summary.json")
            if not os.path.isfile(path):
                continue
            summary = _read_json(path, path)
            try:
                best = summary.get("best")
                if not best:
                    continue
                tree = parse(best["skeleton"], spec.dim)
                coeffs = np.asarray(best["coefficients"], dtype=float)
                if coeffs.shape != (num_placeholders(tree),):
                    raise ValueError(f"{coeffs.size} coefficients for "
                                     f"{num_placeholders(tree)} placeholders")
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad stored candidate in {path}: {exc}") from exc
            cells.append((spec, (tree, coeffs)))
    return cells


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
    cells = _cells_from_run_dir(args.runs)
    if not cells:
        raise ConfigError(f"no stored candidates under {args.runs}")
    rows = bench.ood_rows(cells, extensions)
    out_dir = args.out or args.runs
    atomic_write_text(os.path.join(out_dir, "ood.csv"), bench.ood_csv(rows))
    for row in rows:
        print(f"{row['benchmark']} e={row['extension']}: "
              f"clamped r2 {row['mean_r2_clamped']:.4f}, "
              f"neg fraction {row['neg_fraction']:.3f}")
    return EXIT_OK


def _report_from_results(paths) -> bench.EvalReport:
    cells = []
    for path in paths:
        results = path
        if os.path.isdir(path):
            results = os.path.join(path, "results.csv")
        try:
            with open(results, "r", encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
        except (OSError, ValueError, csv.Error) as exc:
            raise ConfigError(f"cannot read {results}: {exc}") from exc
        for row in rows:
            try:
                if row["benchmark"] not in bench.REFERENCE_COMPLEXITY:
                    raise ValueError(f"unknown family {row['benchmark']!r}")
                cells.append(bench.RunCell(
                    family=row["benchmark"],
                    equation=row["equation"],
                    seed=int(row["seed"]),
                    status=row["status"],
                    r2=float(row["r2"]) if row["r2"] else None,
                    complexity=float(row["complexity"]) if row["complexity"] else None,
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad row in {results}: {exc!r}") from exc
    return bench.EvalReport(cells=cells)


def cmd_report(args) -> int:
    report = _report_from_results(args.runs)
    if not report.cells:
        raise ConfigError("no result rows found")
    text = bench.summary_csv(report)
    out_dir = args.out or "."
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
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--backend", choices=["live", "replay"])
    p.add_argument("--endpoint", help="base URL of the chat-completions service")
    p.add_argument("--model", help="model name sent on the wire")
    p.add_argument("--replay-file", dest="replay_file",
                   help="JSON array of responses, or object keyed by equation")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="complexity reward weight")
    p.add_argument("--iterations", type=int, help="max refinement iterations")
    p.add_argument("--ns", type=int, help="number of seed calls")
    p.add_argument("--topk", type=int, help="trajectory size")
    p.add_argument("--mode", choices=["full", "seed-only", "random"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsr",
        description="Symbolic regression with a chat model in the loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one equation or ad-hoc dataset")
    _add_engine_flags(p_run)
    p_run.add_argument("--benchmark", help="equation name, e.g. nguyen8")
    p_run.add_argument("--data", help="CSV with columns x[,x2],y")
    p_run.add_argument("--seed", type=int, help="run seed")
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a benchmark suite grid")
    _add_engine_flags(p_bench)
    p_bench.add_argument("--suite",
                         help="family (nguyen/constant/keijzer/r), 'all', "
                              "equation name, or comma list")
    p_bench.add_argument("--seeds", help="comma-separated seed list, default 1-5")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the grid (forked, at most one per cell)")
    p_bench.add_argument("--out", help="output directory")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BackendError, bench.SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
