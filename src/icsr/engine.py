"""Run orchestration: seed proposals, the refinement loop, and the
random-guessing baseline.

A run is a sequential state machine around one backend.  Every backend
call is logged as one JSON-lines document; candidates are deduplicated
by canonical skeleton so each functional form is fitted exactly once per
run, no matter how often the model re-proposes it.  The front-end work is
memoised per run as well: each literal-free template (a line with 'c' for
its numbers) is parsed and canonicalized once, a line's numbers are bound
only to fit its skeleton, and each prompt's frame is filled once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .expr import (ParseError, canonicalize, complexity, evaluate_batch, parse, render,
                   split_literals)
from .fit import FitConfig, FitResult, fit
from .llm import (
    BackendError,
    CompletionRequest,
    SamplingParams,
    TemperatureSchedule,
)
from .prompts import (
    build_loop_prompt,
    build_random_prompt,
    build_seed_prompt,
    display_points,
    extract_candidates,
)
from .score import ScoreConfig, Scores, fitness, nmse, r_squared
from .validate import integer, of_type, real

MODE_FULL = "full"
MODE_SEED_ONLY = "seed-only"
MODE_RANDOM = "random"
_MODE_ALIASES = {"random-guessing": MODE_RANDOM}


class NoValidSeedsError(RuntimeError):
    """The seed phase (or a whole random-guessing run) produced zero
    valid candidates, so there is nothing to refine or report."""

    def __init__(self, message: str, record: "RunRecord | None" = None):
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class EngineConfig:
    n_seed_calls: int = 10
    max_iterations: int = 50
    top_k: int = 5
    functions_per_call: int = 5
    early_stop_r2: float = 0.99999
    score: ScoreConfig = field(default_factory=ScoreConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    sampling: SamplingParams = field(default_factory=SamplingParams)
    schedule: TemperatureSchedule | None = None
    seed: int = 0
    mode: str = MODE_FULL
    model: str = "default"

    def __post_init__(self):
        for key, low in (("n_seed_calls", 1), ("max_iterations", 0), ("top_k", 1),
                         ("functions_per_call", 1), ("seed", 0)):
            integer(self, key, low)
        real(self, "early_stop_r2")
        of_type(self, "model", str, "a string")
        mode = _MODE_ALIASES.get(self.mode, self.mode)
        if mode not in (MODE_FULL, MODE_SEED_ONLY, MODE_RANDOM):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "mode", mode)


@dataclass(frozen=True)
class Candidate:
    """One scored functional form: the text the model wrote, its
    canonical skeleton, the fitted coefficients, and the scores."""

    raw: str
    skeleton: object
    fit: FitResult
    scores: Scores
    origin: str


@dataclass
class CallRecord:
    phase: str
    index: int
    temperature: float
    prompt: str
    response: str | None = None
    error: str | None = None
    usage: dict = field(default_factory=dict)
    latency: float = 0.0
    outcomes: list = field(default_factory=list)

    def to_doc(self) -> dict:
        """The call's run-log document, its keys in sorted order at every
        level, as the outcomes' are, so it encodes without sort_keys."""
        return {"error": self.error, "index": self.index, "latency": round(self.latency, 6),
                "outcomes": self.outcomes, "phase": self.phase, "prompt": self.prompt,
                "response": self.response, "temperature": self.temperature,
                "usage": _keys_sorted(self.usage) if self.usage else self.usage}


def _keys_sorted(value):
    """value with every dict in it rebuilt in sorted key order."""
    if isinstance(value, dict):
        return {k: _keys_sorted(value[k]) for k in sorted(value)}
    return [_keys_sorted(v) for v in value] if isinstance(value, list) else value


class Trajectory:
    """The k best candidates so far, unique by canonical key, sorted by
    ascending error."""

    def __init__(self, k: int):
        self.k = k
        self.entries: list[Candidate] = []

    def add(self, candidate: Candidate):
        if any(e.skeleton.key == candidate.skeleton.key for e in self.entries):
            return
        self.entries.append(candidate)
        self.entries.sort(key=lambda c: c.scores.error)
        del self.entries[self.k:]

    def view_worst_first(self) -> list[tuple[str, float]]:
        return [(c.skeleton.key, c.scores.error) for c in reversed(self.entries)]


@dataclass(frozen=True)
class BudgetCounters:
    calls_issued: int
    candidates_parsed: int
    unique_skeletons_fitted: int
    nls_restarts: int
    max_calls_allowed: int


@dataclass
class RunRecord:
    """Complete account of one run: every call with its outcomes, the
    winning candidate, and enough config echo to reproduce the run."""

    config: EngineConfig
    dataset: Dataset
    calls: list = field(default_factory=list)
    best: Candidate | None = None
    early_stopped: bool = False

    def summary(self) -> dict:
        counters = budget_report(self)
        best = None
        if self.best is not None:
            c = self.best
            best = {
                "raw": c.raw,
                "skeleton": c.skeleton.key,
                "expression": render(c.skeleton.expr, c.fit.coefficients, self.dataset.dim),
                "coefficients": [float(v) for v in c.fit.coefficients],
                "origin": c.origin,
                "nmse": c.scores.nmse,
                "fitness": c.scores.fitness,
                "error": c.scores.error,
                "r2_train": c.scores.r2_train,
                "complexity": c.scores.complexity,
                "sse": c.fit.sse,
            }
        cfg, data = self.config, self.dataset
        return {
            "mode": cfg.mode,
            "dataset": {"name": data.name, "split": data.split, "n": data.n, "dim": data.dim},
            "config": {
                "n_seed_calls": cfg.n_seed_calls,
                "max_iterations": cfg.max_iterations,
                "top_k": cfg.top_k,
                "functions_per_call": cfg.functions_per_call,
                "early_stop_r2": cfg.early_stop_r2,
                "lam": cfg.score.lam,
                "max_len": cfg.score.max_len,
                "fit_restarts": cfg.fit.restarts,
                "seed": cfg.seed,
                "model": cfg.model,
                "temperature": cfg.sampling.temperature,
                "top_p": cfg.sampling.top_p,
                "top_k_sampling": cfg.sampling.top_k,
                "num_beams": cfg.sampling.num_beams,
                "max_new_tokens": cfg.sampling.max_new_tokens,
            },
            "early_stopped": self.early_stopped,
            "calls_issued": counters.calls_issued,
            "candidates_parsed": counters.candidates_parsed,
            "unique_skeletons_fitted": counters.unique_skeletons_fitted,
            "nls_restarts": counters.nls_restarts,
            "best": best,
        }


class _Run:
    def __init__(self, dataset: Dataset, config: EngineConfig, backend, log):
        self.dataset = dataset
        self.config = config
        self.backend = backend
        self.log = log
        self.rng = np.random.default_rng(config.seed)
        self.cache: dict[str, Candidate | None] = {}
        # raw line -> (complexity, template Skeleton, values), or its
        # ParseError message
        self.lines: dict[str, tuple | str] = {}
        # template -> its entry, or None if it does not parse; see parse_line
        self.templates: dict[str, tuple | str | None] = {}
        self.points = display_points(dataset)
        self.trajectory = Trajectory(config.top_k)
        self.record = RunRecord(config=config, dataset=dataset)

    # -- one backend call -------------------------------------------------

    def call(self, phase: str, index: int, prompt: str, params: SamplingParams) -> CallRecord:
        rec = CallRecord(phase=phase, index=index, temperature=params.temperature, prompt=prompt)
        request = CompletionRequest(model=self.config.model, params=params,
                                    messages=({"role": "user", "content": prompt},))
        try:
            response = self.backend.complete(request)
        except BackendError as exc:
            rec.error = str(exc)
        else:
            rec.response = response.text
            rec.usage = response.usage
            rec.latency = response.latency
            self.process_response(rec)
        self.record.calls.append(rec)
        # flushed per call, so a run that dies still leaves a readable log
        self.log.write(json.dumps(rec.to_doc()) + "\n")
        self.log.flush()
        return rec

    # -- candidate pipeline ------------------------------------------------

    def parse_line(self, raw: str) -> tuple | str:
        """(complexity, template Skeleton, values) for a candidate line, or
        the message of its ParseError (a key that breaks parse's caps is
        one too): once per distinct line, from its template's entry.  The
        line's values are bound to the skeleton only if it is fitted."""
        entry = self.lines.get(raw)
        if entry is None:
            try:
                template, values = split_literals(raw)
                if template not in self.templates:
                    self.templates[template] = self.parse_template(template)
                entry = self.templates[template]
                if entry is None:
                    parse(raw, self.dataset.dim)  # fails as the template did
                elif not isinstance(entry, str):
                    entry = (*entry, values)
            except ParseError as exc:
                entry = str(exc)
            self.lines[raw] = entry
        return entry

    def parse_template(self, template: str) -> tuple | str | None:
        tree = None
        try:
            tree = parse(template, self.dataset.dim)
            return complexity(tree), canonicalize(tree, self.dataset.dim)
        except ParseError as exc:  # past parse: a key over its caps, whatever the literals
            return None if tree is None else str(exc)

    def process_response(self, rec: CallRecord):
        # each outcome's keys in sorted order; see CallRecord.to_doc
        accepted = 0
        for raw in extract_candidates(rec.response):
            if accepted >= self.config.functions_per_call:
                rec.outcomes.append({"raw": raw, "status": "discarded_over_cap"})
                continue
            entry = self.parse_line(raw)
            if isinstance(entry, str):
                rec.outcomes.append({"detail": entry, "raw": raw, "status": "parse_error"})
                continue
            accepted += 1
            comp, skeleton, values = entry
            key = skeleton.key
            if key in self.cache:
                cached = self.cache[key]
                rec.outcomes.append({"complexity": comp,
                                     "err": None if cached is None else cached.scores.error,
                                     "key": key, "raw": raw, "status": "duplicate"})
                continue
            skeleton = replace(skeleton, values=values)
            result = fit(skeleton, self.dataset, self.config.fit, self.rng)
            lm = {"lm_frozen": result.frozen, "lm_iterations": list(result.iterations),
                  "lm_stops": list(result.stops)}
            restarts = len(result.restart_sses)
            nmse_value = math.inf
            if result.valid:
                pred = evaluate_batch(skeleton.expr, result.coefficients, self.dataset.X)
                nmse_value = nmse(pred, self.dataset.y, self.config.score.eps)
            # finite predictions whose squared miss overflows are no fit either
            if not math.isfinite(nmse_value):
                self.cache[key] = None
                rec.outcomes.append({"complexity": comp, "key": key, **lm, "raw": raw,
                                     "restarts": restarts, "status": "invalid_fit"})
                continue
            r, err = fitness(nmse_value, comp, self.config.score)
            scores = Scores(nmse=nmse_value, fitness=r, error=err,
                            r2_train=r_squared(pred, self.dataset.y), complexity=comp)
            candidate = Candidate(raw=raw, skeleton=skeleton, fit=result, scores=scores,
                                  origin=f"{rec.phase}:{rec.index}")
            self.cache[key] = candidate
            self.trajectory.add(candidate)
            if self.record.best is None or err < self.record.best.scores.error:
                self.record.best = candidate
            if scores.r2_train > self.config.early_stop_r2:
                self.record.early_stopped = True
            rec.outcomes.append({"complexity": comp, "err": err, "key": key, **lm,
                                 "r2_train": scores.r2_train, "raw": raw,
                                 "restarts": restarts, "status": "scored"})

    # -- phases --------------------------------------------------------------

    def seed_phase(self):
        prompt = build_seed_prompt(self.points, self.dataset.dim)
        for i in range(self.config.n_seed_calls):
            if self.record.early_stopped:
                break
            self.call("seed", i, prompt, self.config.sampling)

    def loop_phase(self):
        schedule, params = self.config.schedule, self.config.sampling
        for j in range(self.config.max_iterations):
            if self.record.early_stopped:
                break
            # new SamplingParams only where the schedule moves the
            # temperature; by repr, as 1 and 1.0 send different bytes
            t = params.temperature if schedule is None else schedule.temperature_at(j)
            if repr(t) != repr(params.temperature):
                params = replace(params, temperature=t)
            prompt = build_loop_prompt(self.points, self.dataset.dim,
                                       self.trajectory.view_worst_first())
            self.call("loop", j, prompt, params)

    def random_phase(self):
        prompt = build_random_prompt(self.dataset.dim)
        total = self.config.n_seed_calls + self.config.max_iterations
        for i in range(total):
            self.call("random", i, prompt, self.config.sampling)


def run(dataset: Dataset, config: EngineConfig, backend, log_path=None) -> RunRecord:
    """Execute one run in the config's mode.

    Phase 1 issues n_seed_calls completions of the seed prompt; phase 2
    (full mode only) refines for up to max_iterations completions of the
    loop prompt built from the current trajectory.  The run stops issuing
    calls as soon as any candidate's training R-squared exceeds
    early_stop_r2.  Random mode is the baseline instead: the same call
    budget, every call with the context-free random prompt and no
    trajectory feedback.  Raises NoValidSeedsError (with the partial
    record attached) when phase 1, or a whole random run, yields nothing
    fittable.
    """
    with open(log_path or os.devnull, "w", encoding="utf-8") as log:
        state = _Run(dataset, config, backend, log)
        if config.mode == MODE_RANDOM:
            state.random_phase()
        else:
            state.seed_phase()
        if state.record.best is None:
            raise NoValidSeedsError(
                "random guessing produced zero valid candidates"
                if config.mode == MODE_RANDOM else
                f"no valid seed candidates after {config.n_seed_calls} seed calls",
                record=state.record,
            )
        if config.mode == MODE_FULL:
            state.loop_phase()
        return state.record


def budget_report(record: RunRecord) -> BudgetCounters:
    """Tally calls, parsed candidates, unique fits, and optimizer
    restarts; raise RuntimeError if the call budget was overrun."""
    cfg = record.config
    max_calls = cfg.n_seed_calls + cfg.max_iterations
    calls = len(record.calls)
    if calls > max_calls:
        raise RuntimeError(f"{calls} calls exceeds budget {max_calls}")
    parsed = 0
    fitted = 0
    restarts = 0
    for call in record.calls:
        for outcome in call.outcomes:
            if outcome.get("status") in ("scored", "invalid_fit", "duplicate"):
                parsed += 1
            if "restarts" in outcome:
                fitted += 1
                restarts += outcome["restarts"]
    return BudgetCounters(
        calls_issued=calls,
        candidates_parsed=parsed,
        unique_skeletons_fitted=fitted,
        nls_restarts=restarts,
        max_calls_allowed=max_calls,
    )
