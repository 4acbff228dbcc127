"""Benchmark definitions, dataset sampling, evaluation, and suite runs.

The 35 equations live in data/benchmarks.json with their train/test
sampling rules and declared validity domains.  Train splits are sampled
once per equation from a seed derived from the equation name, so every
method seed sees identical data.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import threading
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

import numpy as np

from . import engine as engine_mod
from .dataset import Dataset
from .engine import Candidate, EngineConfig, NoValidSeedsError, RunRecord
from .expr import Expr, complexity, evaluate_batch, parse
from .llm import BackendError, LiveBackend
from .score import r_squared, r_squared_trimmed

# Reported ground-truth complexity reference, keyed by every family (soft
# check only; see ground_truth_complexity for the two counting conventions).
REFERENCE_COMPLEXITY = {"nguyen": 5.2, "constant": 4.3, "keijzer": 5.0, "r": 8.3}

SUITE_NAMES = tuple(REFERENCE_COMPLEXITY)

_MAX_RESAMPLE_ROUNDS = 1000


class SamplingError(RuntimeError):
    """Could not produce the requested dataset (undefined ground truth)."""


@dataclass(frozen=True)
class SamplerSpec:
    kind: str
    low: tuple
    high: tuple
    num: int

    def __post_init__(self):
        if self.kind not in ("uniform", "equispaced"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.num < 1:
            raise ValueError("num must be >= 1")
        if len(self.low) != len(self.high):
            raise ValueError("low/high dimension mismatch")
        for a, b in zip(self.low, self.high):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError("bounds must be finite with low < high")


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    family: str
    expression: str
    dim: int
    train: SamplerSpec
    test: SamplerSpec
    validity_low: tuple
    validity_high: tuple

    def ground_truth(self) -> Expr:
        return _parse_ground_truth(self.expression, self.dim)


@lru_cache(maxsize=None)
def _parse_ground_truth(expression: str, dim: int) -> Expr:
    return parse(expression, dim)


@lru_cache(maxsize=1)
def load_benchmarks() -> dict:
    """Name -> BenchmarkSpec, in asset order."""
    raw = (resources.files("icsr") / "data" / "benchmarks.json").read_text(encoding="utf-8")
    doc = json.loads(raw)
    out = {}

    def _sampler(row):
        return SamplerSpec(kind=row["kind"], low=tuple(row["low"]),
                           high=tuple(row["high"]), num=row["num"])

    for row in doc["benchmarks"]:
        spec = BenchmarkSpec(
            name=row["name"],
            family=row["family"],
            expression=row["expression"],
            dim=row["dim"],
            train=_sampler(row["train"]),
            test=_sampler(row["test"]),
            validity_low=tuple(row["validity_low"]),
            validity_high=tuple(row["validity_high"]),
        )
        if len(spec.train.low) != spec.dim or len(spec.validity_low) != spec.dim:
            raise ValueError(f"benchmark {spec.name}: dimension mismatch in asset")
        spec.ground_truth()
        out[spec.name] = spec
    return out


def get_benchmark(name: str) -> BenchmarkSpec:
    table = load_benchmarks()
    if name in table:
        return table[name]
    for spec in table.values():
        if spec.name.lower() == name.lower():
            return spec
    raise KeyError(f"unknown benchmark {name!r}")


def resolve_suite(token: str) -> list[str]:
    """Turn a suite token (family name, 'all', or a single equation name)
    into a list of equation names in table order."""
    table = load_benchmarks()
    t = token.lower()
    if t == "all":
        return list(table)
    if t in SUITE_NAMES:
        return [s.name for s in table.values() if s.family == t]
    return [get_benchmark(token).name]


def dataset_seed(name: str, split: str) -> int:
    """Stable sampling seed derived from equation name and split; not
    Python's salted hash, so it survives across processes."""
    return zlib.crc32(f"{name}/{split}".encode()) & 0x7FFFFFFF


def equispaced_grid(low, high, num: int, dim: int) -> np.ndarray:
    """1-D: linspace with both endpoints.  2-D: near-square grid,
    ceil(sqrt(num)) per axis, truncated to num points row-major."""
    if dim == 1:
        return np.linspace(low[0], high[0], num).reshape(-1, 1)
    g = math.ceil(math.sqrt(num))
    axes = [np.linspace(low[i], high[i], g) for i in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.column_stack([m.ravel() for m in mesh])
    return X[:num]


def sample(spec: BenchmarkSpec, split: str) -> Dataset:
    """Draw a benchmark split.  Uniform splits resample any point where
    the ground truth is undefined; equispaced splits must be fully
    defined or the asset's ranges are wrong."""
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")
    sampler = spec.train if split == "train" else spec.test
    gt = spec.ground_truth()
    low = np.asarray(sampler.low)
    high = np.asarray(sampler.high)

    if sampler.kind == "equispaced":
        X = equispaced_grid(sampler.low, sampler.high, sampler.num, spec.dim)
        y = evaluate_batch(gt, np.empty(0), X)
        if np.isnan(y).any():
            raise SamplingError(
                f"{spec.name}/{split}: ground truth undefined on equispaced grid"
            )
    else:
        rng = np.random.default_rng(dataset_seed(spec.name, split))
        X = rng.uniform(low, high, size=(sampler.num, spec.dim))
        y = evaluate_batch(gt, np.empty(0), X)
        rounds = 0
        while np.isnan(y).any():
            rounds += 1
            if rounds > _MAX_RESAMPLE_ROUNDS:
                raise SamplingError(f"{spec.name}/{split}: resampling did not converge")
            bad = np.isnan(y)
            X[bad] = rng.uniform(low, high, size=(int(bad.sum()), spec.dim))
            y = evaluate_batch(gt, np.empty(0), X)
    return Dataset(X=X, y=y, name=spec.name, split=split)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _expr_and_coeffs(candidate):
    if isinstance(candidate, tuple):
        expr, coeffs = candidate
        return expr, np.asarray(coeffs, dtype=float)
    return candidate.skeleton.expr, candidate.fit.coefficients


def trimmed_r2_with_undefined(predictions, targets, trim_fraction: float = 0.05):
    """Trimmed R-squared where undefined (NaN) predictions count as the
    worst errors and are trimmed first.

    Returns (r2, excess): excess is how many undefined predictions did
    not fit in the trim budget; when positive, r2 is computed over the
    defined points only and the caller should treat the excess as logged
    failures."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    k = math.floor(trim_fraction * targets.shape[0])
    nan_mask = np.isnan(predictions)
    n_nan = int(nan_mask.sum())
    if n_nan == 0 or n_nan < k:
        # NaN errors sort last, so the trim drops the undefined points first
        return r_squared_trimmed(predictions, targets, trim_fraction), 0
    if n_nan == nan_mask.size:
        return float("-inf"), n_nan
    return r_squared(predictions[~nan_mask], targets[~nan_mask]), n_nan - k


@dataclass(frozen=True)
class OODPoint:
    extension: float
    raw_r2: float | None
    clamped_r2: float | None
    negative: bool
    n_points: int
    n_undefined_truth: int
    skipped: bool = False


def ood_bounds(spec: BenchmarkSpec, extension: float):
    """Extended evaluation box: each test dimension's half-width h grows
    to (1 + 2e) * h about the same center, then intersects the declared
    validity domain.  Returns None when the intersection is empty."""
    lows, highs = [], []
    for i in range(spec.dim):
        a, b = spec.test.low[i], spec.test.high[i]
        m = (a + b) / 2.0
        h = (b - a) / 2.0
        lo = m - (1.0 + 2.0 * extension) * h
        hi = m + (1.0 + 2.0 * extension) * h
        if spec.validity_low[i] is not None:
            lo = max(lo, spec.validity_low[i])
        if spec.validity_high[i] is not None:
            hi = min(hi, spec.validity_high[i])
        if not lo < hi:
            return None
        lows.append(lo)
        highs.append(hi)
    return lows, highs


def evaluate_ood(candidate, spec: BenchmarkSpec, extensions) -> list[OODPoint]:
    """Raw (untrimmed) R-squared on equispaced grids over extended input
    ranges.  Grid points where the ground truth itself is undefined are
    dropped and counted; a candidate undefined anywhere on the surviving
    grid scores -inf, which the clamp then treats as 0."""
    expr, coeffs = _expr_and_coeffs(candidate)
    gt = spec.ground_truth()
    out = []
    for e in extensions:
        if e < 0:
            raise ValueError("extension must be >= 0")
        bounds = ood_bounds(spec, e)
        if bounds is None:
            out.append(OODPoint(e, None, None, False, 0, 0, skipped=True))
            continue
        lows, highs = bounds
        X = equispaced_grid(lows, highs, spec.test.num, spec.dim)
        y = evaluate_batch(gt, np.empty(0), X)
        defined = ~np.isnan(y)
        n_undef = int((~defined).sum())
        X, y = X[defined], y[defined]
        if y.size < 2:
            out.append(OODPoint(e, None, None, False, 0, n_undef, skipped=True))
            continue
        pred = evaluate_batch(expr, coeffs, X)
        if np.isnan(pred).any():
            raw = float("-inf")
        else:
            raw = r_squared(pred, y)
        clamped = 0.0 if raw < 0 else min(raw, 1.0)
        out.append(OODPoint(
            extension=e,
            raw_r2=raw,
            clamped_r2=clamped,
            negative=raw < 0,
            n_points=int(y.size),
            n_undefined_truth=n_undef,
        ))
    return out


# ---------------------------------------------------------------------------
# Ground-truth complexity bookkeeping
# ---------------------------------------------------------------------------

def operator_complexity(expr: Expr) -> int:
    """Operator-node count: every binary/unary application counts one,
    leaves count zero.  This is the convention that reproduces the
    reference per-family averages; the all-nodes convention used for
    fitness is reported alongside it."""
    if expr.kind in ("bin", "un"):
        return 1 + sum(operator_complexity(a) for a in expr.args)
    return 0


def ground_truth_complexity(family: str) -> dict:
    """Per-family mean ground-truth complexity under both conventions."""
    specs = [s for s in load_benchmarks().values() if s.family == family]
    if not specs:
        raise KeyError(f"unknown family {family!r}")
    nodes = [complexity(s.ground_truth()) for s in specs]
    ops = [operator_complexity(s.ground_truth()) for s in specs]
    return {
        "family": family,
        "mean_nodes": float(np.mean(nodes)),
        "mean_operators": float(np.mean(ops)),
        "reference": REFERENCE_COMPLEXITY[family],
    }


# ---------------------------------------------------------------------------
# Suite runs
# ---------------------------------------------------------------------------

@dataclass
class RunCell:
    family: str
    equation: str
    seed: int
    status: str
    r2: float | None = None
    complexity: int | None = None
    error: str | None = None
    candidate: Candidate | None = None


@dataclass
class EvalReport:
    cells: list

    def ok_cells(self) -> list:
        return [c for c in self.cells if c.status == "ok"]

    @np.errstate(invalid="ignore")  # a mean or spread over -inf and +inf is nan
    def family_rows(self) -> list[dict]:
        """Table-style aggregation: per seed, average trimmed R2 (and
        complexity) over the family's equations; then mean and standard
        error of the mean over seeds."""
        rows = []
        for family, cells in _by_family(self.cells, lambda c: c.family).items():
            seeds = sorted({c.seed for c in cells})
            equations = {c.equation for c in cells}
            per_seed_r2 = []
            per_seed_comp = []
            for s in seeds:
                ok = [c for c in cells if c.seed == s and c.status == "ok"]
                if not ok:
                    continue
                per_seed_r2.append(float(np.mean([c.r2 for c in ok])))
                per_seed_comp.append(float(np.mean([c.complexity for c in ok])))
            missing = sum(1 for c in cells if c.status != "ok")
            gt = ground_truth_complexity(family)
            rows.append({
                "benchmark": family,
                "n_equations": len(equations),
                "n_seeds": len(seeds),
                "n_missing": missing,
                "r2_mean": _mean(per_seed_r2),
                "r2_sem": _sem(per_seed_r2),
                "complexity_mean": _mean(per_seed_comp),
                "complexity_sem": _sem(per_seed_comp),
                "gt_complexity_nodes": gt["mean_nodes"],
                "gt_complexity_operators": gt["mean_operators"],
                "gt_complexity_ref": gt["reference"],
            })
        return rows


def _by_family(items, family_of) -> dict:
    """Family -> its items, families in first-seen order."""
    groups = {}
    for item in items:
        groups.setdefault(family_of(item), []).append(item)
    return groups


def ood_rows(cells, extensions) -> list[dict]:
    """Clamped-mean OOD curve per family over (spec, candidate) pairs."""
    rows = []
    for family, group in _by_family(cells, lambda c: c[0].family).items():
        curves = [evaluate_ood(candidate, spec, extensions) for spec, candidate in group]
        for i, e in enumerate(extensions):
            points = [curve[i] for curve in curves if not curve[i].skipped]
            rows.append({
                "benchmark": family,
                "extension": e,
                "mean_r2_clamped": _mean([p.clamped_r2 for p in points]),
                "neg_fraction": _mean([1.0 if p.negative else 0.0 for p in points]),
                "n_cells": len(points),
                "n_skipped": len(curves) - len(points),
            })
    return rows


def _mean(values) -> float:
    return float(np.mean(values)) if values else float("nan")


def _sem(values) -> float:
    if len(values) < 2:
        return 0.0 if values else float("nan")
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def score_winner(record: RunRecord, grid: Dataset, trim_fraction: float):
    """(summary, predictions) for a finished run: its summary() and its
    winner's predictions on grid.  When grid is a test split the summary
    gains the 'evaluation' block, the winner's trimmed R-squared there
    and how many undefined predictions did not fit in the trim."""
    best = record.best
    pred = evaluate_batch(best.skeleton.expr, best.fit.coefficients, grid.X)
    summary = record.summary()
    if grid.split == "test":
        r2, excess = trimmed_r2_with_undefined(pred, grid.y, trim_fraction)
        summary["evaluation"] = {"test_r2_trimmed": r2, "trim_excess": excess}
    return summary, pred


def cell_dir(out_dir, equation: str, seed: int) -> str:
    """The directory of one grid cell's files under a grid's output
    directory: runs/<equation>/seed<N>."""
    return os.path.join(out_dir, "runs", equation, f"seed{seed}")


def _failed_cell(task, error: str | None) -> RunCell:
    spec, seed = task
    return RunCell(family=spec.family, equation=spec.name, seed=seed, status="failed",
                   error=error)


def _run_one(spec: BenchmarkSpec, train: Dataset, test: Dataset, config: EngineConfig,
             seed: int, backend_factory, out_dir) -> RunCell:
    """One cell.  Under out_dir its cell_dir is cleared first, its run log
    goes there, and its summary.json is written as soon as the cell
    succeeds, so a grid cut short keeps every finished winner.  Any
    Exception, the factory's included, makes it a 'failed' cell, which
    writes its error to failed.json there, if it can, so the directory
    tells a failed cell from an unfinished one."""
    cell = _failed_cell((spec, seed), None)
    directory = None if out_dir is None else cell_dir(out_dir, spec.name, seed)
    try:
        log_path = None
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
            os.makedirs(directory)  # raises if rmtree left anything behind
            log_path = os.path.join(directory, "runlog.jsonl")
        record = engine_mod.run(train, replace(config, seed=seed), backend_factory(spec, seed),
                                log_path)
        summary, _ = score_winner(record, test, config.score.trim_fraction)
        if directory is not None:
            write_summary(directory, summary)
    except (NoValidSeedsError, BackendError) as exc:
        cell.error = str(exc)
    except Exception as exc:  # one broken cell must not abort the grid
        cell.error = f"{type(exc).__name__}: {exc}"
    else:
        cell.status = "ok"
        cell.r2 = summary["evaluation"]["test_r2_trimmed"]
        cell.complexity = record.best.scores.complexity
        cell.candidate = record.best
        return cell
    if directory is not None:
        try:
            atomic_write_text(os.path.join(directory, "failed.json"),
                              json.dumps({"error": cell.error}) + "\n")
        except OSError:  # the directory itself could not be made
            pass
    return cell


# Each forked worker keeps up to this many cells in flight, so that while
# one cell's model call waits another computes.  It bounds each worker's
# threads, and a grid's open requests to jobs x _CELLS_IN_FLIGHT.
_CELLS_IN_FLIGHT = 16


class _SlotFreeBackend:
    """A live backend whose calls give its worker's compute slot up while
    they wait, and take it back before the cell goes on."""

    def __init__(self, backend, slot):
        self.backend = backend
        self.slot = slot

    def complete(self, request):
        self.slot.release()
        try:
            return self.backend.complete(request)
        finally:
            self.slot.acquire()


def _worker(execute, tasks, backend_factory, counter, conn, threads: int):
    """One forked worker's body: threads that each take the compute slot,
    claim the next cell from the shared counter, run it and send it back
    pickled over conn, until no cell is left.  Only a LiveBackend's calls
    give the slot up, so one cell at a time runs engine or fit code (and
    enters the process-wide memos), and a cell on any other backend runs
    from start to end alone."""
    slot = threading.Lock()

    def factory(spec, seed):
        backend = backend_factory(spec, seed)
        return _SlotFreeBackend(backend, slot) if isinstance(backend, LiveBackend) else backend

    def serve():
        while True:
            with slot:
                with counter.get_lock():
                    index = counter.value
                    counter.value += 1
                if index >= len(tasks):
                    return
                try:
                    cell = execute(tasks[index], factory)
                except BaseException as exc:  # SystemExit too: it ends this cell alone
                    cell = _failed_cell(tasks[index], f"{type(exc).__name__}: {exc}")
                try:
                    conn.send((index, cell))
                except Exception as exc:  # the cell could not be pickled
                    conn.send((index, _failed_cell(tasks[index], f"{type(exc).__name__}: {exc}")))

    pool = [threading.Thread(target=serve, daemon=True) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


def _run_forked(execute, tasks, backend_factory, workers: int) -> list:
    """The cells of tasks, in task order, run in `workers` forked
    processes (see _worker).  A cell whose worker ended before sending it
    back fails."""
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    threads = min(math.ceil(len(tasks) / workers), _CELLS_IN_FLIGHT)
    running = {}
    cells = {}
    try:
        for _ in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker,
                               args=(execute, tasks, backend_factory, counter, writer, threads))
            proc.start()
            writer.close()  # so the reader sees EOF once the worker is gone
            running[reader] = proc
        while running:
            for reader in wait(list(running)):
                try:
                    index, cell = reader.recv()
                except (EOFError, OSError):
                    running.pop(reader).join()
                    reader.close()
                else:
                    cells[index] = cell
    finally:  # interrupted: no worker outlives the grid
        for reader, proc in running.items():
            proc.terminate()
            proc.join()
            reader.close()
    lost = "BrokenProcessPool: a worker process ended before returning this cell"
    return [cells.get(i) or _failed_cell(task, lost) for i, task in enumerate(tasks)]


def run_suite(names, config: EngineConfig, seeds, backend_factory,
              jobs: int = 1, out_dir=None) -> EvalReport:
    """Run the (equation x seed) grid and aggregate.

    backend_factory(spec, seed) must return a fresh backend per run.
    Train and test data are sampled once per equation and shared across
    seeds.
    Failed runs become 'failed' cells; aggregation skips them and
    reports the count.  Under out_dir, each cell's cell_dir is cleared
    when the cell starts and holds its own run log and summary.json;
    results.csv, written once the grid ends, is the list of its cells.

    jobs > 1 runs the cells in min(jobs, cells) worker processes forked
    from the caller (the fork start method, so Linux or macOS): the
    factory and anything it closes over are inherited, not pickled, and
    the factory runs in a worker, so state it mutates never reaches the
    caller.  Each worker claims cells one at a time and keeps up to
    _CELLS_IN_FLIGHT of them in flight while their LiveBackend calls
    wait, but runs engine or fit code for one cell at a time.  Each cell
    comes back pickled as it finishes and is put in task order, so every
    report is byte-identical to a serial run.  A cell that raises (even
    SystemExit) or cannot be pickled, or whose worker dies, becomes a
    'failed' cell; cells a dead worker never claimed run in the others."""
    specs = [get_benchmark(n) for n in names]
    trains = {s.name: sample(s, "train") for s in specs}
    tests = {s.name: sample(s, "test") for s in specs}
    tasks = [(spec, seed) for spec in specs for seed in seeds]

    def execute(task, factory=backend_factory):
        spec, seed = task
        return _run_one(spec, trains[spec.name], tests[spec.name], config, seed,
                        factory, out_dir)

    if jobs > 1 and tasks:
        cells = _run_forked(execute, tasks, backend_factory, min(jobs, len(tasks)))
    else:
        cells = [execute(t) for t in tasks]

    report = EvalReport(cells=cells)
    if out_dir is not None:
        atomic_write_text(os.path.join(out_dir, "results.csv"), results_csv(report))
        atomic_write_text(os.path.join(out_dir, "summary.csv"), summary_csv(report))
    return report


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return format(v, ".12g")
    return str(v)


def csv_text(header, rows) -> str:
    """A header and rows of _fmt-formatted values, one line each."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def results_csv(report: EvalReport) -> str:
    return csv_text(["benchmark", "equation", "seed", "r2", "complexity", "status"],
                    ([c.family, c.equation, c.seed, c.r2, c.complexity, c.status]
                     for c in report.cells))


def summary_csv(report: EvalReport) -> str:
    header = ["benchmark", "n_equations", "n_seeds", "n_missing",
              "r2_mean", "r2_sem", "complexity_mean", "complexity_sem",
              "gt_complexity_nodes", "gt_complexity_operators", "gt_complexity_ref"]
    return csv_text(header, ([row[k] for k in header] for row in report.family_rows()))


def ood_csv(rows) -> str:
    header = ["benchmark", "extension", "mean_r2_clamped", "neg_fraction"]
    return csv_text(header, ([row[k] for k in header] for row in rows))


def atomic_write_text(path, text: str):
    """Write-then-rename so partial files never land at the target."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_summary(directory, summary: dict):
    """summary.json for one run, keys sorted so reruns match byte for byte."""
    atomic_write_text(os.path.join(directory, "summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
