"""Span tracing from outside the program.

The tracer replaces the names that ``icsr`` modules look up at call
time (``icsr.engine.fit``, ``icsr.bench.sample``, ...) with wrappers
that record a span per call: id, parent span, cell, name, start and
end.  Nothing under ``src/`` changes, and uninstalling restores the
original functions.  Spans are kept in memory and written out once, at
the end of the run.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_cell(self, cell):
        self._local.cell = cell

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0):
        t1 = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append((sid, parent, getattr(self._local, "cell", None), name, t0, t1))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    def wrap(self, fn, name, after=None):
        """fn with a span around every call; after(result, args) may add
        counts.  name may be a callable of the call's args."""

        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name(args) if callable(name) else name, t0)
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    # -- program boundaries ---------------------------------------------------

    def install(self):
        """Wrap every boundary the per-layer metrics need."""
        import icsr.bench
        import icsr.engine

        fit_module = sys.modules["icsr.fit"]  # icsr.fit is the function
        counts = self.counts

        def after_fit(result, _args):
            counts["fit.restarts"] += len(result.restart_sses)
            counts["fit.valid"] += bool(result.valid)

        def after_extract(result, _args):
            counts["prompts.extract.lines"] += len(result)

        eng = icsr.engine
        self.patch(eng, "run", "engine.run")
        self.patch(eng, "fit", "fit", after_fit)
        self.patch(eng, "parse", "expr.parse")
        self.patch(eng, "canonicalize", "expr.canonicalize")
        self.patch(eng, "extract_candidates", "prompts.extract", after_extract)
        self.patch(eng, "build_seed_prompt", "prompts.build")
        self.patch(eng, "build_loop_prompt", "prompts.build")
        self.patch(eng, "evaluate_batch", "expr.evaluate_batch.engine")
        for score_fn in ("nmse", "fitness", "r_squared"):
            self.patch(eng, score_fn, "score")
        self.patch(fit_module, "evaluate_batch", "expr.evaluate_batch.fit")
        b = icsr.bench
        self.patch(b, "evaluate_batch", "expr.evaluate_batch.bench")
        self.patch(b, "sample", lambda args: f"bench.sample.{args[1]}")
        self.patch(b, "trimmed_r2_with_undefined", "bench.trim")
        for report_fn in ("atomic_write_text", "results_csv", "summary_csv"):
            self.patch(b, report_fn, "bench.reports")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def traced_factory(self, factory):
        """A backend factory that marks the cell on the calling thread and
        wraps the backend's complete method."""

        def make(spec, seed):
            self.set_cell(f"{spec.name}/{seed}")
            backend = factory(spec, seed)
            backend.complete = self.wrap(backend.complete, "llm.complete")
            return backend

        return make

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,cell,name,start_ns,end_ns\n")
            for s in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in s) + "\n")


def layer_metrics(spans, counts, outcomes, runlog_bytes: int, served: int) -> dict:
    """Per-layer figures of one round, from its spans and counts plus the
    run logs' outcome tally and size and the backend's served count."""
    by_id = {sp[0]: sp for sp in spans}
    child_ns = defaultdict(int)
    for sid, parent, _cell, _name, t0, t1 in spans:
        if parent:
            child_ns[parent] += t1 - t0
    n = Counter()
    total_ns = Counter()
    self_ns = Counter()
    waits = []
    for sid, _parent, _cell, name, t0, t1 in spans:
        n[name] += 1
        total_ns[name] += t1 - t0
        self_ns[name] += t1 - t0 - child_ns[sid]
        if name == "llm.complete":
            waits.append(t1 - t0)

    def s(name):
        return total_ns[name] / 1e9

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def under_sample_or_ood(span):
        parent = by_id.get(span[1])
        return parent is not None and parent[3].startswith(("bench.sample", "bench.ood"))

    test_eval_ns = total_ns["bench.sample.test"] + total_ns["bench.trim"] + sum(
        sp[5] - sp[4] for sp in spans
        if sp[3] == "expr.evaluate_batch.bench" and not under_sample_or_ood(sp))
    fits = n["fit"]
    parsed = sum(outcomes[k] for k in ("scored", "invalid_fit", "duplicate"))
    out = {
        "fit.calls": fits,
        "fit.s": s("fit"),
        "fit.ms_per_fit": per(s("fit"), fits, 1e3),
        "fit.restarts": counts["fit.restarts"],
        "fit.self_s": self_ns["fit"] / 1e9,
        "fit.evals_per_fit": per(n["expr.evaluate_batch.fit"], fits),
        "fit.valid_ratio": per(counts["fit.valid"], fits),
    }
    for caller in ("fit", "engine", "bench"):
        key = f"expr.evaluate_batch.{caller}"
        out[f"{key}.calls"] = n[key]
        out[f"{key}.s"] = s(key)
        out[f"{key}.us_per_call"] = per(s(key), n[key], 1e6)
    for key in ("expr.parse", "expr.canonicalize", "prompts.build", "prompts.extract"):
        out[f"{key}.calls"] = n[key]
        out[f"{key}.s"] = s(key)
    out.update({
        "prompts.extract.lines": counts["prompts.extract.lines"],
        "engine.run.calls": n["engine.run"],
        "engine.run.s": s("engine.run"),
        "engine.self_s": self_ns["engine.run"] / 1e9,
        "engine.candidates": sum(outcomes.values()),
        "engine.duplicates": outcomes["duplicate"],
        "engine.parse_errors": outcomes["parse_error"],
        "engine.runlog_bytes": runlog_bytes,
        "engine.dedup_ratio": per(outcomes["scored"] + outcomes["invalid_fit"], parsed),
        "llm.complete.calls": n["llm.complete"],
        "llm.complete.s": s("llm.complete"),
        "llm.complete.ms_p50": statistics.median(waits) / 1e6 if waits else 0.0,
        "llm.requests_served": served,
        "llm.overlap": per(s("llm.complete"), s("bench.run_suite")),
        "score.s": s("score"),
        "bench.run_suite.s": s("bench.run_suite"),
        "bench.test_eval.s": test_eval_ns / 1e9,
        "bench.ood.s": s("bench.ood"),
        "bench.reports.s": s("bench.reports"),
        "bench.sample.s": s("bench.sample.train") + s("bench.sample.test"),
        "trace.spans": len(spans),
    })
    return out
