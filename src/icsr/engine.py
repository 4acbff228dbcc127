"""Run orchestration: seed proposals, the refinement loop, and the
random-guessing baseline.

A run is a sequential state machine around one backend.  Each call's run-log
line is flushed as the call ends and equals json.dumps of its document, built
from texts the run encodes once (RunLog); a loop prompt is rebuilt only when
the trajectory moves.  Candidates are deduplicated by canonical skeleton so
each form is fitted at most once per run, however often the model re-proposes
it.  An LM fit draws its restart starts from the skeleton (fit.fit_rng) and an
affine fit draws none, so no fit reads the run's seed and runs on the same
data can share fits (run's fit_memo).  The front end is memoised per process,
within bounds: each line and each literal-free template (a line with 'c' for
its numbers) is parsed and canonicalized once, a line's numbers are bound only
to fit its skeleton, and each prompt's frame is filled once.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _ascii

from .dataset import Dataset
# evaluate_batch is unused here but kept: perfbench's tracer patches icsr.engine.evaluate_batch
from .expr import (ParseError, canonicalize, complexity, evaluate_batch, parse, render,
                   split_literals)
from .fit import FitConfig, FitResult, fit, fit_memo_key
from .llm import (
    BackendError,
    CompletionRequest,
    SamplingParams,
    TemperatureSchedule,
)
from .prompts import (
    MAX_CANDIDATES_PER_RESPONSE,
    build_loop_prompt,
    build_random_prompt,
    build_seed_prompt,
    display_points,
    extract_candidates,
)
from .score import ScoreConfig, Scores, fitness, nmse, r_squared
from .validate import integer, of_type, real

# A phase's calls, capped far above any real budget, so no run is endless.
_MAX_CALLS = 10_000
MODES = ("full", "seed-only", "random")
MODE_FULL, MODE_SEED_ONLY, MODE_RANDOM = MODES


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
        for key, low, high in (("n_seed_calls", 1, _MAX_CALLS), ("max_iterations", 0, _MAX_CALLS),
                               ("top_k", 1, None), ("functions_per_call", 1, None),
                               ("seed", 0, None)):
            integer(self, key, low, high)
        if self.functions_per_call > MAX_CANDIDATES_PER_RESPONSE:
            # the scraper keeps no more lines than that from one reply
            raise ValueError(f"functions_per_call must be at most {MAX_CANDIDATES_PER_RESPONSE},"
                             f" got {self.functions_per_call!r}")
        real(self, "early_stop_r2")
        of_type(self, "model", str, "a string")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


# config document section -> class; "engine" holds EngineConfig's own fields
SECTIONS = {"engine": EngineConfig, "score": ScoreConfig, "fit": FitConfig,
            "sampling": SamplingParams, "schedule": TemperatureSchedule}


def config_from_doc(doc: dict) -> EngineConfig:
    """The EngineConfig that a config document describes, its sections built
    in SECTIONS' order; one left out or empty keeps its default."""
    nested = {name: cls(**doc[name]) for name, cls in SECTIONS.items()
              if name != "engine" and doc.get(name)}
    return EngineConfig(**nested, **doc.get("engine", {}))


def config_doc(config: EngineConfig) -> dict:
    """The config document that config_from_doc reads back as config."""
    engine = asdict(config)
    doc = {name: engine.pop(name) for name in SECTIONS if name != "engine"}
    if doc["schedule"] is None:  # as a document leaves it out
        del doc["schedule"]
    return {"engine": engine, **doc}


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


class RunLog(dict):
    """A run's log lines, each json.dumps of a call's document with sorted keys.
    As a dict it keeps the JSON of each text and nonzero float it wrote, since
    prompts, keys, details and errors recur in a run; it dies with the run."""

    def __missing__(self, value) -> str:
        self[value] = literal = _ascii(value) if type(value) is str else json.dumps(value)
        return literal

    def number(self, value) -> str:
        if type(value) is float and value:  # nonzero: -0.0 would find 0.0's entry
            return self[value]
        return repr(value) if type(value) in (int, float) else json.dumps(value)

    def line(self, rec: CallRecord) -> str:
        outcomes = ", ".join(map(self.outcome, rec.outcomes))
        error = "null" if rec.error is None else _ascii(rec.error)
        response = "null" if rec.response is None else _ascii(rec.response)
        usage = json.dumps(rec.usage, sort_keys=True) if rec.usage else "{}"
        return (f'{{"error": {error}, "index": {self.number(rec.index)}, "latency": '
                f'{self.number(round(rec.latency, 6))}, "outcomes": [{outcomes}],'
                f' "phase": {self[rec.phase]}, "prompt": {self[rec.prompt]},'
                f' "response": {response}, "temperature": {self.number(rec.temperature)},'
                f' "usage": {usage}}}\n')

    def outcome(self, o: dict) -> str:
        status, raw, number = o["status"], _ascii(o["raw"]), self.number
        if status == "discarded_over_cap":
            return f'{{"raw": {raw}, "status": "discarded_over_cap"}}'
        if status == "parse_error":
            return f'{{"detail": {self[o["detail"]]}, "raw": {raw}, "status": "parse_error"}}'
        err = "" if status == "invalid_fit" else f' "err": {number(o["err"])},'
        head = f'{{"complexity": {number(o["complexity"])},{err} "key": {self[o["key"]]},'
        if status == "duplicate":
            return f'{head} "raw": {raw}, "status": "duplicate"}}'
        r2 = f' "r2_train": {number(o["r2_train"])},' if status == "scored" else ""
        return (f'{head} "lm_frozen": {number(o["lm_frozen"])}, "lm_iterations": '
                f'{json.dumps(o["lm_iterations"])}, "lm_stops": {json.dumps(o["lm_stops"])},{r2}'
                f' "raw": {raw}, "restarts": {number(o["restarts"])}, "status": {self[status]}}}')


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
    winning candidate, and the config that reproduces the run."""

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
        data = self.dataset
        return {
            "dataset": {"name": data.name, "split": data.split, "n": data.n, "dim": data.dim},
            "config": config_doc(self.config),
            "early_stopped": self.early_stopped,
            "calls_issued": counters.calls_issued,
            "candidates_parsed": counters.candidates_parsed,
            "unique_skeletons_fitted": counters.unique_skeletons_fitted,
            "nls_restarts": counters.nls_restarts,
            "best": best,
        }


# enough entries for a perfbench round's distinct lines and templates; model
# output is untrusted, so neither keeps a text over MEMO_TEXT characters
_MEMO_LINES, _MEMO_TEMPLATES = 8192, 1024
MEMO_TEXT = 256


def _memoised(memo, text: str, dim: int):
    return (memo if len(text) <= MEMO_TEXT else memo.__wrapped__)(text, dim)


@lru_cache(maxsize=_MEMO_LINES)
def parse_line(raw: str, dim: int) -> tuple | str:
    """(complexity, template Skeleton, values) for a candidate line from
    its template's entry, or the message of its ParseError (a key that
    breaks parse's caps is one too).  The values are bound only to fit."""
    try:
        template, values = split_literals(raw)
        entry = _memoised(parse_template, template, dim)
        if entry is None:
            parse(raw, dim)  # fails as the template did
        return entry if isinstance(entry, str) else (*entry, values)
    except ParseError as exc:
        return str(exc)


@lru_cache(maxsize=_MEMO_TEMPLATES)
def parse_template(template: str, dim: int) -> tuple | str | None:
    tree = None
    try:
        tree = parse(template, dim)
        return complexity(tree), canonicalize(tree, dim)
    except ParseError as exc:  # past parse: a key over its caps, whatever the literals
        return None if tree is None else str(exc)


class _Run:
    def __init__(self, dataset: Dataset, config: EngineConfig, backend, log, fits: dict):
        self.dataset = dataset
        self.config = config
        self.backend = backend
        self.log = log
        self.runlog = RunLog()
        self.fits = fits
        self.cache: dict[str, Candidate | None] = {}
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
        if self.log is not None:  # flushed per call: a run that dies leaves a readable log
            self.log.write(self.runlog.line(rec))
            self.log.flush()
        return rec

    # -- candidate pipeline ------------------------------------------------

    def process_response(self, rec: CallRecord):
        accepted = 0
        for raw in extract_candidates(rec.response):
            if accepted >= self.config.functions_per_call:
                rec.outcomes.append({"raw": raw, "status": "discarded_over_cap"})
                continue
            entry = _memoised(parse_line, raw, self.dataset.dim)
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
            fit_key = fit_memo_key(skeleton)
            if fit_key not in self.fits:
                self.fits[fit_key] = fit(skeleton, self.dataset, self.config.fit)
            result = self.fits[fit_key]
            lm = {"lm_frozen": result.frozen, "lm_iterations": list(result.iterations),
                  "lm_stops": list(result.stops)}
            restarts = len(result.restart_sses)
            nmse_value = math.inf
            if result.valid:
                nmse_value = nmse(result.predictions, self.dataset.y)
            # finite predictions whose squared miss overflows are no fit either
            if not math.isfinite(nmse_value):
                self.cache[key] = None
                rec.outcomes.append({"complexity": comp, "key": key, **lm, "raw": raw,
                                     "restarts": restarts, "status": "invalid_fit"})
                continue
            r, err = fitness(nmse_value, comp, self.config.score)
            scores = Scores(nmse=nmse_value, fitness=r, error=err, complexity=comp,
                            r2_train=r_squared(result.predictions, self.dataset.y))
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
        view = None
        for j in range(self.config.max_iterations):
            if self.record.early_stopped:
                break
            # new SamplingParams only where the schedule moves the
            # temperature; by repr, as 1 and 1.0 send different bytes
            t = params.temperature if schedule is None else schedule.temperature_at(j)
            if repr(t) != repr(params.temperature):
                params = replace(params, temperature=t)
            latest = self.trajectory.view_worst_first()
            if latest != view:
                view, prompt = latest, build_loop_prompt(self.points, self.dataset.dim, latest)
            self.call("loop", j, prompt, params)

    def random_phase(self):
        prompt = build_random_prompt(self.dataset.dim)
        total = self.config.n_seed_calls + self.config.max_iterations
        for i in range(total):
            self.call("random", i, prompt, self.config.sampling)


def run(dataset: Dataset, config: EngineConfig, backend, log_path=None,
        fit_memo: dict | None = None) -> RunRecord:
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

    fit_memo, a dict from fit_memo_key to FitResult, is read and filled
    by the run, and a hit logs what the fit would; share one only between
    runs on the same dataset and FitConfig.  Nothing here draws from
    config.seed: the summary only echoes it.
    """
    with open(log_path, "w", encoding="utf-8") if log_path else nullcontext() as log:
        state = _Run(dataset, config, backend, log, {} if fit_memo is None else fit_memo)
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
    parsed = fitted = restarts = 0
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
