"""Run orchestration: seed proposals, the refinement loop, and the
random-guessing baseline.

A run is a sequential state machine around one backend.  Every backend
call is logged as one JSON-lines document; candidates are deduplicated
by canonical skeleton so each functional form is fitted exactly once per
run, no matter how often the model re-proposes it.  The front-end work is
memoised per run as well: each distinct candidate line is parsed and
canonicalized once, warm-start hints are computed only for skeletons that
get fitted, and the prompt's block of training points is formatted once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .expr import ParseError, canonicalize, complexity, evaluate_batch, parse, render
from .fit import FitConfig, FitResult, fit
from .llm import (
    BackendError,
    CompletionRequest,
    SamplingParams,
    TemperatureSchedule,
)
from .prompts import (
    PromptContext,
    build_loop_prompt,
    build_random_prompt,
    build_seed_prompt,
    extract_candidates,
)
from .score import ScoreConfig, Scores, fitness, nmse, r_squared

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
        if self.n_seed_calls < 1:
            raise ValueError("n_seed_calls must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.functions_per_call < 1:
            raise ValueError("functions_per_call must be >= 1")
        mode = _MODE_ALIASES.get(self.mode, self.mode)
        if mode not in (MODE_FULL, MODE_SEED_ONLY, MODE_RANDOM):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "mode", mode)

    def resolved_schedule(self) -> TemperatureSchedule:
        if self.schedule is not None:
            return self.schedule
        t = self.sampling.temperature
        return TemperatureSchedule(
            mode="constant", start=t, end=t,
            total_iterations=max(self.max_iterations, 1),
        )


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
        return {**vars(self), "latency": round(self.latency, 6)}


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

    @property
    def best_error(self) -> float:
        return self.entries[0].scores.error if self.entries else math.inf

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

    mode: str
    config: EngineConfig
    dataset_name: str
    dataset_split: str
    dataset_n: int
    dataset_dim: int
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
                "expression": render(c.skeleton.expr, c.fit.coefficients),
                "coefficients": [float(v) for v in c.fit.coefficients],
                "origin": c.origin,
                "nmse": c.scores.nmse,
                "fitness": c.scores.fitness,
                "error": c.scores.error,
                "r2_train": c.scores.r2_train,
                "complexity": c.scores.complexity,
                "sse": c.fit.sse,
            }
        cfg = self.config
        return {
            "mode": self.mode,
            "dataset": {
                "name": self.dataset_name,
                "split": self.dataset_split,
                "n": self.dataset_n,
                "dim": self.dataset_dim,
            },
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


class RunLog:
    """Streams one JSON document per backend call to a JSON-lines file.
    With no path it swallows everything, which keeps the engine free of
    None checks."""

    def __init__(self, path=None):
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def append(self, doc: dict):
        if self._fh is not None:
            self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _Run:
    def __init__(self, dataset: Dataset, config: EngineConfig, backend, log: RunLog):
        self.dataset = dataset
        self.config = config
        self.backend = backend
        self.log = log
        self.rng = np.random.default_rng(config.seed)
        self.cache: dict[str, Candidate | None] = {}
        # raw line -> (complexity, Skeleton), or its ParseError message
        self.lines: dict[str, tuple | str] = {}
        self.prompt_context = PromptContext.from_dataset(dataset)
        self.trajectory = Trajectory(config.top_k)
        self.best: Candidate | None = None
        self.early_stopped = False
        self.record = RunRecord(
            mode=config.mode,
            config=config,
            dataset_name=dataset.name,
            dataset_split=dataset.split,
            dataset_n=dataset.n,
            dataset_dim=dataset.dim,
        )

    # -- one backend call -------------------------------------------------

    def call(self, phase: str, index: int, prompt: str, temperature: float,
             use_trajectory: bool) -> CallRecord:
        rec = CallRecord(phase=phase, index=index, temperature=temperature, prompt=prompt)
        params = replace(self.config.sampling, temperature=temperature)
        request = CompletionRequest(
            model=self.config.model,
            messages=({"role": "user", "content": prompt},),
            params=params,
        )
        try:
            response = self.backend.complete(request)
        except BackendError as exc:
            rec.error = str(exc)
        else:
            rec.response = response.text
            rec.usage = response.usage
            rec.latency = response.latency
            self.process_response(rec, use_trajectory)
        self.record.calls.append(rec)
        self.log.append(rec.to_doc())
        return rec

    # -- candidate pipeline ------------------------------------------------

    def parse_line(self, raw: str) -> tuple | str:
        """(complexity, Skeleton) for a candidate line, or the message of
        its ParseError; each distinct line is parsed once per run."""
        entry = self.lines.get(raw)
        if entry is None:
            try:
                tree = parse(raw, self.dataset.dim)
            except ParseError as exc:
                entry = str(exc)
            else:
                entry = (complexity(tree), canonicalize(tree, self.dataset.dim))
            self.lines[raw] = entry
        return entry

    def process_response(self, rec: CallRecord, use_trajectory: bool):
        accepted = 0
        for raw in extract_candidates(rec.response):
            if accepted >= self.config.functions_per_call:
                rec.outcomes.append({"raw": raw, "status": "discarded_over_cap"})
                continue
            outcome = {"raw": raw}
            entry = self.parse_line(raw)
            if isinstance(entry, str):
                outcome["status"] = "parse_error"
                outcome["detail"] = entry
                rec.outcomes.append(outcome)
                continue
            accepted += 1
            comp, skeleton = entry
            outcome["key"] = skeleton.key
            outcome["complexity"] = comp
            if skeleton.key in self.cache:
                cached = self.cache[skeleton.key]
                outcome["status"] = "duplicate"
                outcome["err"] = None if cached is None else cached.scores.error
                rec.outcomes.append(outcome)
                continue
            result = fit(skeleton, self.dataset, self.config.fit, self.rng)
            outcome["restarts"] = len(result.restart_sses)
            outcome["lm_iterations"] = list(result.iterations)
            if not result.valid:
                self.cache[skeleton.key] = None
                outcome["status"] = "invalid_fit"
                rec.outcomes.append(outcome)
                continue
            pred = evaluate_batch(skeleton.expr, result.coefficients, self.dataset.X)
            nmse_value = nmse(pred, self.dataset.y, self.config.score.eps)
            r, err = fitness(nmse_value, comp, self.config.score)
            scores = Scores(
                nmse=nmse_value,
                fitness=r,
                error=err,
                r2_train=r_squared(pred, self.dataset.y),
                complexity=comp,
            )
            candidate = Candidate(
                raw=raw,
                skeleton=skeleton,
                fit=result,
                scores=scores,
                origin=f"{rec.phase}:{rec.index}",
            )
            self.cache[skeleton.key] = candidate
            if use_trajectory:
                self.trajectory.add(candidate)
            if self.best is None or err < self.best.scores.error:
                self.best = candidate
            if scores.r2_train > self.config.early_stop_r2:
                self.early_stopped = True
            outcome["status"] = "scored"
            outcome["err"] = err
            outcome["r2_train"] = scores.r2_train
            rec.outcomes.append(outcome)

    # -- phases --------------------------------------------------------------

    def seed_phase(self):
        prompt = build_seed_prompt(self.prompt_context)
        for i in range(self.config.n_seed_calls):
            if self.early_stopped:
                break
            self.call("seed", i, prompt, self.config.sampling.temperature,
                      use_trajectory=True)

    def loop_phase(self):
        schedule = self.config.resolved_schedule()
        for j in range(self.config.max_iterations):
            if self.early_stopped:
                break
            ctx = replace(self.prompt_context,
                          trajectory=tuple(self.trajectory.view_worst_first()))
            prompt = build_loop_prompt(ctx)
            self.call("loop", j, prompt, schedule.temperature_at(j),
                      use_trajectory=True)

    def random_phase(self):
        prompt = build_random_prompt(self.dataset.dim)
        total = self.config.n_seed_calls + self.config.max_iterations
        for i in range(total):
            self.call("random", i, prompt, self.config.sampling.temperature,
                      use_trajectory=False)

    def finish(self) -> RunRecord:
        self.record.best = self.best
        self.record.early_stopped = self.early_stopped
        return self.record


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
    with RunLog(log_path) as log:
        state = _Run(dataset, config, backend, log)
        if config.mode == MODE_RANDOM:
            state.random_phase()
        else:
            state.seed_phase()
        if state.best is None:
            raise NoValidSeedsError(
                "random guessing produced zero valid candidates"
                if config.mode == MODE_RANDOM else
                f"no valid seed candidates after {config.n_seed_calls} seed calls",
                record=state.finish(),
            )
        if config.mode == MODE_FULL:
            state.loop_phase()
        return state.finish()


def run_random_guessing(dataset: Dataset, config: EngineConfig, backend,
                        log_path=None) -> RunRecord:
    """run() in random mode, whatever mode config names."""
    return run(dataset, replace(config, mode=MODE_RANDOM), backend, log_path)


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
