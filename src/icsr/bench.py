"""Benchmark definitions, dataset sampling, evaluation, and suite runs.

The 35 equations live in data/benchmarks.json with their train/test
sampling rules and declared validity domains.  Train splits are sampled
once per equation from a seed derived from the equation name, so every
method seed sees identical data.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import math
import os
import shutil
import threading
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from importlib import resources

import numpy as np

from . import engine as engine_mod
from .dataset import Dataset
from .engine import Candidate, EngineConfig, NoValidSeedsError, RunRecord
from .expr import MAX_TOKENS, Expr, complexity, evaluate_batch, lower, parse
from .llm import BackendError, LiveBackend
from .score import r_squared, r_squared_trimmed
from .validate import integer

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
    if sampler.kind == "equispaced":
        X = equispaced_grid(sampler.low, sampler.high, sampler.num, spec.dim)
    else:
        rng = np.random.default_rng(dataset_seed(spec.name, split))
        X = rng.uniform(sampler.low, sampler.high, size=(sampler.num, spec.dim))
    rounds = 0
    while np.isnan(y := evaluate_batch(gt, np.empty(0), X)).any():
        if sampler.kind == "equispaced":
            raise SamplingError(f"{spec.name}/{split}: ground truth undefined on equispaced grid")
        rounds += 1
        if rounds > _MAX_RESAMPLE_ROUNDS:
            raise SamplingError(f"{spec.name}/{split}: resampling did not converge")
        bad = np.isnan(y)
        X[bad] = rng.uniform(sampler.low, sampler.high, size=(int(bad.sum()), spec.dim))
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
    validity domain.  Returns None when the intersection is empty or its
    width is not finite, as no grid spans it."""
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
        if not 0 < hi - lo < math.inf:
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
             seed: int, backend_factory, out_dir, fit_memo: dict) -> RunCell:
    """One cell, whose run reads and fills fit_memo (see engine.run).
    Under out_dir its cell_dir is cleared first, its run log goes there,
    and its summary.json is written as soon as the cell succeeds, so a
    grid cut short keeps every finished winner.  Any Exception, the
    factory's included, or SystemExit makes it a 'failed' cell, which
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
                                log_path, fit_memo)
        summary, _ = score_winner(record, test, config.score.trim_fraction)
        if directory is not None:
            write_summary(directory, summary)
    except (NoValidSeedsError, BackendError) as exc:
        cell.error = str(exc)
    except (Exception, SystemExit) as exc:  # one broken cell must not abort the grid
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


# Each grid process keeps up to this many cells in flight, so that while
# one cell's model call waits another computes.  It bounds each process's
# threads, and a grid's open requests to jobs x _CELLS_IN_FLIGHT.
_CELLS_IN_FLIGHT = 16


class _SlotFreeBackend:
    """A live backend whose calls give their executor's compute slot up
    while they wait, and take it back before the cell goes on."""

    def __init__(self, backend, executor):
        self.backend = backend
        self.executor = executor

    def complete(self, request):
        executor = self.executor
        if not executor.done and len(executor.threads) < _CELLS_IN_FLIGHT - 1:
            executor.threads.append(threading.Thread(target=executor.serve, daemon=True))
            executor.threads[-1].start()
        executor.slot.release()
        try:
            return self.backend.complete(request)
        finally:
            try:
                executor.slot.acquire()
            except KeyboardInterrupt:  # the caller's: raised once the slot is held again
                executor.slot.acquire()
                raise


class _Executor:
    """The cells of one grid process, on threads that take turns at one
    compute slot.  The thread that holds it runs the next queued cell and
    passes it to send(index, cell), first queueing the task indices that
    claim() returns (the next equation's, none once none is left) with
    one fit memo if the queue is empty.  Only a _SlotFreeBackend gives
    the slot up, each time starting one more thread to take it, up to
    _CELLS_IN_FLIGHT threads, so a grid that never waits runs on the
    calling thread alone.  An exception that escapes a cell is sent in
    its place, and then no further cell starts."""

    def __init__(self, execute, backend_factory, claim, send):
        self.execute = execute
        self.backend_factory = backend_factory
        self.claim = claim
        self.send = send
        self.slot = threading.Lock()
        self.queue = collections.deque()  # (task index, its equation's fit memo)
        self.threads = []  # started besides the calling one
        self.done = False  # no further cell starts
        self.interrupted = False  # by an exception that escaped a cell, or the caller's

    def run(self):
        """Serve cells, then wait for the other threads' cells in flight.
        The calling thread's first KeyboardInterrupt outside a cell ends
        the grid as one from a cell does, and a later one ends the wait."""
        try:
            self.serve()
            self.join()
        except KeyboardInterrupt as exc:
            if self.interrupted:
                raise
            self.done = self.interrupted = True
            with self.slot:
                self.send(None, exc)
            self.join()

    def join(self):
        for thread in self.threads:
            thread.join()

    def serve(self):
        while True:
            with self.slot:
                if not (self.queue or self.done):
                    memo = {}
                    self.queue.extend((index, memo) for index in self.claim())
                    self.done = not self.queue  # no equation is left
                if self.done:
                    return
                index, memo = self.queue.popleft()
                try:
                    cell = self.execute(index, memo, self.factory)
                except BaseException as exc:  # what _run_one lets through ends the grid
                    self.done = self.interrupted = True
                    cell = exc
                self.send(index, cell)

    def factory(self, spec, seed):
        backend = self.backend_factory(spec, seed)
        return _SlotFreeBackend(backend, self) if isinstance(backend, LiveBackend) else backend


def _worker(execute, tasks, backend_factory, conn, inherited):
    """One forked grid process: an _Executor that asks the caller for its
    claims over conn and sends its cells back over it.  The caller's pipe
    ends it inherited are closed, so it sees EOF once the caller is gone."""
    for end in inherited:
        end.close()

    def claim():
        conn.send(None)
        return conn.recv()

    def send(index, cell):
        try:
            conn.send((index, cell))
        except Exception as exc:  # the cell could not be pickled
            conn.send((index, _failed_cell(tasks[index], f"{type(exc).__name__}: {exc}")))

    _Executor(execute, backend_factory, claim, send).run()


def _run_forked(execute, tasks, backend_factory, claim, send, workers: int):
    """Runs the executor in `workers` forked processes (see _worker),
    answering their claims with claim() and passing each cell they send
    back to send(index, cell), until one sends an exception in a cell's
    place."""
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    running = {}
    try:
        for _ in range(workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_worker,
                               args=(execute, tasks, backend_factory, child, [*running, conn]))
            proc.start()
            child.close()  # so conn sees EOF once the worker is gone
            running[conn] = proc
        while running:
            for conn in wait(list(running)):
                try:
                    message = conn.recv()
                    if message is None:  # a claim
                        conn.send(claim())
                        continue
                except (EOFError, OSError):
                    running.pop(conn).join()
                    conn.close()
                    continue
                send(*message)
                if isinstance(message[1], BaseException):
                    return
    finally:  # no worker outlives the grid
        for conn, proc in running.items():
            proc.terminate()
            proc.join()
            conn.close()


def run_suite(names, config: EngineConfig, seeds, backend_factory,
              jobs: int = 1, out_dir=None) -> EvalReport:
    """Run the (equation x seed) grid and aggregate.

    Each cell runs once: a repeated equation (compared as get_benchmark
    resolves it) or seed is dropped, keeping the first order.
    backend_factory(spec, seed) must return a fresh backend per run.
    Train and test data are sampled once per equation and shared across
    seeds, and so are fits: an equation's cells share one fit memo (see
    engine.run), dropped after its last cell.
    Failed runs, a SystemExit included, become 'failed' cells;
    aggregation skips them and reports the count.  Under out_dir, each
    cell's cell_dir is cleared when the cell starts and holds its own run
    log and summary.json; results.csv, written once the grid ends, is
    the list of its cells.

    One _Executor runs the cells, claiming a whole equation at a time
    from here: with jobs == 1 in the calling process, else in min(jobs,
    equations) worker processes forked from it (the fork start method,
    so Linux or macOS).  A worker inherits the factory and anything it
    closes over, not pickled, and calls it, so state it mutates never
    reaches the caller.  A worker's cells come back pickled, and cells
    are put in task order, so every report is byte-identical to a jobs
    == 1 run.  A cell that cannot be pickled fails, and so does each cell
    a dead worker claimed and never sent back: the rest of its equation
    too.  An exception that escapes a cell, or the caller's first
    KeyboardInterrupt, ends the grid: no further cell starts, workers are
    stopped, the calling process's other threads finish their cells in
    flight (see _Executor.run), and it is raised with no results.csv."""
    specs = list(dict.fromkeys(map(get_benchmark, names)))
    seeds = list(dict.fromkeys(seeds))
    trains = {s.name: sample(s, "train") for s in specs}
    tests = {s.name: sample(s, "test") for s in specs}
    tasks = [(spec, seed) for spec in specs for seed in seeds]
    # every claim is made here: the task indices of the next equation, () once none is left
    claims = iter([range(e * len(seeds), (e + 1) * len(seeds)) for e in range(len(specs))])
    claim = partial(next, claims, ())

    def execute(index, fit_memo, factory):
        spec, seed = tasks[index]
        return _run_one(spec, trains[spec.name], tests[spec.name], config, seed,
                        factory, out_dir, fit_memo)

    cells = {}  # every cell arrives here, by task index
    if jobs > 1:
        _run_forked(execute, tasks, backend_factory, claim, cells.__setitem__,
                    min(jobs, len(specs)))
    else:
        _Executor(execute, backend_factory, claim, cells.__setitem__).run()
    for cell in cells.values():
        if isinstance(cell, BaseException):
            raise cell
    lost = "BrokenProcessPool: a worker process ended before returning this cell"
    report = EvalReport(cells=[cells.get(i) or _failed_cell(task, lost)
                               for i, task in enumerate(tasks)])
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


def results_cells(rows, listed=()) -> list[RunCell]:
    """The cells that results.csv rows (csv.DictReader's dicts) list after
    the listed ones.  Raises KeyError, TypeError or ValueError on a row
    that results_csv would not have written, or on a cell listed twice.
    The status text stays open: a row whose status is not ok (failed,
    or no_valid_seeds or backend_error, say) lists a missing cell."""
    seen = {(c.equation, c.seed) for c in listed}
    cells = []
    for row in rows:
        if None in row or None in row.values():
            raise ValueError("the row and the header differ in length")
        spec = get_benchmark(row["equation"])
        if spec.family != row["benchmark"]:
            raise ValueError(f"{spec.name} is not in family {row['benchmark']!r}")
        if row["status"] == "ok" and not (row["r2"] and row["complexity"]):
            raise ValueError("an ok row needs its r2 and complexity")
        cell = RunCell(
            family=spec.family,
            equation=spec.name,
            seed=int(row["seed"]),
            status=row["status"],
            r2=float(row["r2"]) if row["r2"] else None,
            complexity=int(row["complexity"]) if row["complexity"] else None,
        )
        if cell.complexity is not None:  # a parsed line has a node per token at most
            integer(cell, "complexity", 1, MAX_TOKENS)
        if (cell.equation, cell.seed) in seen:
            raise ValueError(f"{cell.equation} seed {cell.seed} is listed twice")
        seen.add((cell.equation, cell.seed))
        cells.append(cell)
    return cells


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


def stored_winner(cell: RunCell, summary) -> tuple:
    """(spec, (tree, coefficients)) for an ok cell, from the summary that
    write_summary stored in its cell_dir.  Raises AttributeError, KeyError,
    TypeError, ValueError or OverflowError on one it would not have written."""
    spec = get_benchmark(cell.equation)
    best = summary["best"]
    tree = parse(best["skeleton"], spec.dim)
    coeffs = np.asarray(best["coefficients"], dtype=float)
    m = lower(tree).num_coefficients
    if coeffs.shape != (m,):
        raise ValueError(f"{coeffs.size} coefficients for {m} placeholders")
    return spec, (tree, coeffs)
