"""Offline benchmark for icsr.

Usage (from the repository root):

    python3 perfbench/run.py --workload offline-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run generates the workload's replay scripts from --seed, measures
the program's set-up in fresh interpreters, then repeats whole rounds
(the full equation x seed grid through ``bench.run_suite`` plus OOD
scoring of every winner) until --seconds have passed, and checks every
round's outputs.  With --trace 0 it reports the end-to-end metrics,
with --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the exit code is 1 if any output check
failed and 2 if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import scripts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
OOD_EXTENSION = 1.0


@dataclass(frozen=True)
class Workload:
    kind: str  # script kind, see scripts.py
    equations: tuple  # empty: every equation in the table
    seeds: tuple  # engine seeds; cells are equations x seeds
    jobs: int  # run_suite worker threads
    delay_s: float = 0.0  # stub reply delay; > 0 selects the live backend


# Equations whose oracle fit takes under 10 ms, so every unique skeleton
# of a scrape-dedup cell is cheap and the run is scrape/parse bound.
SCRAPE_EQUATIONS = (
    "nguyen5", "nguyen6", "nguyen8", "nguyen9", "nguyen10", "nguyen11",
    "constant2", "constant4", "constant5", "constant6",
    "keijzer7", "keijzer8", "keijzer10", "keijzer13", "keijzer14",
)
# The eight equations whose offline-grid cells take the least engine
# time, so model waits dominate live-loopback.
LIVE_EQUATIONS = ("nguyen1", "nguyen5", "nguyen6", "nguyen7", "nguyen11",
                  "constant2", "constant5", "keijzer10")

WORKLOADS = {
    "offline-grid": Workload("grid", (), (1, 2), jobs=2),
    "scrape-dedup": Workload("scrape", SCRAPE_EQUATIONS, (1, 2), jobs=1),
    "live-loopback": Workload("grid", LIVE_EQUATIONS, (1, 2), jobs=2, delay_s=0.010),
}

END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("calls_per_cell", "calls"),
    ("recovered_cells", "cells"),
    ("test_r2_mean", "r2"),
    ("ood_r2_mean", "r2"),
    ("complexity_mean", "nodes"),
    ("peak_rss_mb", "MB"),
)


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ms", ".ms_per_fit", ".ms_p50")):
        return "ms"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(("_ratio", ".overlap", "_per_fit")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(names) -> list:
    """Seconds each fresh interpreter took to set the program up."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), ",".join(names)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Stub:
    """The loopback chat-completions server, in its own process."""

    def __init__(self, scripts_path: Path, delay_s: float):
        import requests

        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(scripts_path), repr(delay_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("loopback stub did not start")
        self.base = f"http://127.0.0.1:{port}"
        self.session = requests.Session()
        self.session.trust_env = False

    def stats(self) -> dict:
        resp = self.session.get(f"{self.base}/stats", timeout=30)
        resp.raise_for_status()
        return resp.json()

    def close(self):
        if getattr(self, "session", None) is not None:
            self.session.close()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One workload at one seed: scripts, data, backends and rounds."""

    def __init__(self, name: str, seed: int):
        from icsr import bench

        self.bench = bench
        self.name = name
        self.wl = WORKLOADS[name]
        table = bench.load_benchmarks()
        self.names = list(self.wl.equations) or list(table)
        self.cells = [(n, s) for n in self.names for s in self.wl.seeds]
        self.data = {n: (bench.sample(table[n], "train"), bench.sample(table[n], "test"))
                     for n in self.names}
        if self.wl.kind == "grid":
            calls = scripts.placements(len(self.cells), scripts.rng_for("placements", seed))
            self.scripts = {
                cell: scripts.grid_script(table[cell[0]], call, scripts.rng_for("grid", seed, *cell))
                for cell, call in zip(self.cells, calls)
            }
        else:
            self.scripts = {
                cell: scripts.scrape_script(table[cell[0]], self.data[cell[0]][0],
                                            scripts.rng_for("scrape", seed, *cell))
                for cell in self.cells
            }
        by_cell = {f"{e}/{s}": r for (e, s), r in self.scripts.items()}
        self.digest = scripts.digest(by_cell)
        self.out = OUT / name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.stub = None
        if self.wl.delay_s > 0:
            path = self.out / "scripts.json"
            path.write_text(json.dumps(by_cell))
            self.stub = Stub(path, self.wl.delay_s)

    def close(self):
        if self.stub is not None:
            self.stub.close()

    def _factory(self, round_tag: str):
        """(backend factory, served-count callback, cleanup) for one round."""
        from icsr.llm import LiveBackend, ReplayBackend

        if self.stub is None:
            backends = []

            def replay(spec, seed):
                backend = ReplayBackend(self.scripts[(spec.name, seed)])
                backends.append(backend)
                return backend

            return replay, lambda: sum(b.cursor for b in backends), lambda: None

        import requests

        local = threading.local()
        sessions = []

        def live(spec, seed):
            session = getattr(local, "session", None)
            if session is None:
                session = local.session = requests.Session()
                session.trust_env = False
                sessions.append(session)
            return LiveBackend(f"{self.stub.base}/{round_tag}/{spec.name}/{seed}",
                               api_key="perfbench", timeout=30.0, session=session)

        def close_sessions():
            for s in sessions:
                s.close()

        return live, None, close_sessions

    def round(self, index: int, tracer=None) -> dict:
        """Run and check one round; returns its figures."""
        from icsr.engine import EngineConfig

        bench = self.bench
        out_dir = self.out / "round"
        shutil.rmtree(out_dir, ignore_errors=True)
        round_tag = f"r{index}"
        factory, served, cleanup = self._factory(round_tag)
        span = contextlib.nullcontext
        if tracer is not None:
            tracer.reset()
            tracer.set_cell(None)
            tracer.install()
            factory = tracer.traced_factory(factory)
            span = tracer.span
        try:
            t0 = time.perf_counter()
            with span("bench.run_suite"):
                report = bench.run_suite(self.names, EngineConfig(), self.wl.seeds, factory,
                                         jobs=self.wl.jobs, out_dir=str(out_dir))
            ood = {}
            with span("bench.ood"):
                for c in report.ok_cells():
                    if tracer is not None:
                        tracer.set_cell(f"{c.equation}/{c.seed}")
                    point = bench.evaluate_ood(c.candidate, bench.get_benchmark(c.equation),
                                               [OOD_EXTENSION])[0]
                    ood[(c.equation, c.seed)] = math.nan if point.skipped else point.clamped_r2
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
            cleanup()

        errors, facts = checks.check_round(out_dir, self.cells, self.data, ood)
        if self.stub is not None:
            stats = self.stub.stats()
            errors += checks.check_stub(stats, facts, round_tag)
            n_served = stats["served"].get(round_tag, 0)
        else:
            n_served = served()
        ok = report.ok_cells()
        fig = {
            "wall": wall,
            "errors": errors,
            "failed": len(report.cells) - len(ok),
            "reports": ((out_dir / "results.csv").read_bytes(),
                        (out_dir / "summary.csv").read_bytes()),
            "e2e": {
                "cells_per_s": len(self.cells) / wall,
                "calls_per_cell": statistics.fmean(f.calls for f in facts.values()),
                "recovered_cells": sum(f.recovered for f in facts.values()),
                "test_r2_mean": statistics.fmean(
                    checks.clamp01(math.nan if c.r2 is None else c.r2) for c in report.cells),
                "ood_r2_mean": statistics.fmean(
                    checks.clamp01(ood.get(cell, math.nan)) for cell in self.cells),
                "complexity_mean": statistics.fmean(c.complexity for c in ok) if ok else math.nan,
            },
        }
        if tracer is not None:
            from tracing import layer_metrics

            outcomes = sum((f.outcomes for f in facts.values()), start=Counter())
            runlog_bytes = sum(f.runlog_bytes for f in facts.values())
            layers = layer_metrics(tracer.spans, tracer.counts, outcomes, runlog_bytes, n_served)
            fig["layers"] = layers
        return fig


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    from icsr import bench

    names = list(wl.equations) or list(bench.load_benchmarks())
    setup_times = measure_setup(names)
    b = Bench(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    untraced, traced = [], []
    try:
        start = time.perf_counter()
        index = 0
        while True:
            untraced.append(b.round(index))
            index += 1
            if tracer is not None:
                traced.append(b.round(index, tracer))
                index += 1
            if time.perf_counter() - start >= args.seconds:
                break
        if tracer is not None:
            tracer.write(b.out / "spans.csv")
    finally:
        b.close()

    rounds = untraced + traced
    errors = [e for r in rounds for e in r["errors"]]
    for r in rounds[1:]:
        if r["reports"] != rounds[0]["reports"]:
            errors.append("results.csv/summary.csv differ between rounds"
                          + (" (traced vs untraced)" if tracer is not None else ""))
            break
    for r in rounds[1:]:
        for key in ("calls_per_cell", "recovered_cells", "test_r2_mean", "ood_r2_mean",
                    "complexity_mean"):
            if r["e2e"][key] != rounds[0]["e2e"][key]:
                errors.append(f"{key} differs between rounds")
    attempted = len(b.cells) * len(rounds)
    failed = sum(r["failed"] for r in rounds)

    if tracer is None:
        values = {k: float(statistics.median(r["e2e"][k] for r in untraced))
                  for k in untraced[0]["e2e"]}
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    else:
        layer_names = list(traced[0]["layers"])
        metrics = {k: {"value": statistics.median(r["layers"][k] for r in traced),
                       "unit": layer_unit(k)} for k in layer_names}
        base = statistics.median(r["wall"] for r in untraced)
        with_trace = statistics.median(r["wall"] for r in traced)
        metrics["trace.overhead_pct"] = {"value": 100.0 * (with_trace / base - 1.0), "unit": "%"}

    print(f"workload {args.workload}  seed {args.seed}  scripts sha256:{b.digest}  "
          f"cells/round {len(b.cells)}  rounds {len(untraced)} untraced, {len(traced)} traced")
    print("  round walls (s): " + " ".join(f"{r['wall']:.3f}" for r in rounds))
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  cells attempted {attempted}, failed {failed}")
    for e in errors[:50]:
        print(f"  CHECK FAILED: {e}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so set-up and peak memory
    stay per workload."""
    results = {}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        code = max(code, done.returncode)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": code == 0 and len(ok) == len(results) and all(r["correct"] for r in ok),
        "attempted": sum(r["attempted"] for r in ok),
        "failed": sum(r["failed"] for r in ok),
        "workloads": results,
    }))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "icsr" / "__init__.py").is_file():
        print(f"run.py: the icsr sources are missing ({SRC / 'icsr'})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
