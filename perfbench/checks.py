"""Output checks for one benchmark round.

Every check recomputes something with the benchmark's own code or tests
a property the method must have; none compares against stored output.
The checks read the files a suite run leaves behind (``results.csv`` and
``runs/<equation>/seed<N>/{summary.json,runlog.jsonl}``), so a planted
fault in any of them shows.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import evaluator
from stub import prompt_digest

EARLY_STOP_R2 = 0.99999
RECOVERED_TEST_R2 = 0.9999
MAX_CALLS = 60
FUNCTIONS_PER_CALL = 5
R2_TOLERANCE = 1e-9
ACCEPTED = ("scored", "invalid_fit", "duplicate")


@dataclass
class CellFacts:
    """What the checks measured for one cell."""

    calls: int = 0
    train_r2: float = math.nan
    test_r2: float = math.nan
    recovered: bool = False
    complexity: int = 0
    prompts: list = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    runlog_bytes: int = 0


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= R2_TOLERANCE * max(1.0, abs(a), abs(b))


def read_results(out_dir) -> dict:
    with open(os.path.join(out_dir, "results.csv"), newline="", encoding="utf-8") as fh:
        return {(row["equation"], int(row["seed"])): row for row in csv.DictReader(fh)}


def check_cell(out_dir, equation: str, seed: int, row, train, test, ood_r2):
    """Check one cell; returns (errors, CellFacts)."""
    where = f"{equation}/seed{seed}"
    facts = CellFacts()
    if row is None:
        return [f"{where}: missing from results.csv"], facts
    if row["status"] != "ok":
        return [f"{where}: status {row['status']!r}"], facts
    errors = []
    cell_dir = os.path.join(out_dir, "runs", equation, f"seed{seed}")
    with open(os.path.join(cell_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    log_path = os.path.join(cell_dir, "runlog.jsonl")
    facts.runlog_bytes = os.path.getsize(log_path)
    with open(log_path, encoding="utf-8") as fh:
        calls = [json.loads(line) for line in fh]
    facts.calls = len(calls)
    facts.prompts = [prompt_digest(c["prompt"]) for c in calls]
    best = summary.get("best")
    if best is None:
        return [f"{where}: summary has no winner"], facts
    facts.complexity = best["complexity"]

    if not 1 <= len(calls) <= MAX_CALLS:
        errors.append(f"{where}: {len(calls)} calls, budget is {MAX_CALLS}")
    if summary["calls_issued"] != len(calls):
        errors.append(f"{where}: summary counts {summary['calls_issued']} calls, "
                      f"run log holds {len(calls)}")

    fitted = Counter()
    scored_errs = []
    first_hit = None
    for i, call in enumerate(calls):
        accepted = 0
        for o in call["outcomes"]:
            facts.outcomes[o["status"]] += 1
            accepted += o["status"] in ACCEPTED
            if o["status"] in ("scored", "invalid_fit"):
                fitted[o["key"]] += 1
            if o["status"] == "scored":
                scored_errs.append((o["err"], o["key"]))
                if first_hit is None and o["r2_train"] > EARLY_STOP_R2:
                    first_hit = i
        if accepted > FUNCTIONS_PER_CALL:
            errors.append(f"{where}: call {i} accepted {accepted} candidates")
    refits = [k for k, n in fitted.items() if n > 1]
    if refits:
        errors.append(f"{where}: keys fitted more than once: {refits}")
    if first_hit is not None and first_hit != len(calls) - 1:
        errors.append(f"{where}: {len(calls) - 1 - first_hit} calls after the early-stop call")
    if not scored_errs:
        errors.append(f"{where}: no scored outcome in the run log")
    else:
        least = min(scored_errs)
        if best["error"] != least[0] or best["skeleton"] != least[1]:
            errors.append(f"{where}: winner {best['skeleton']!r} (err {best['error']}) is not "
                          f"the least-error outcome {least[1]!r} (err {least[0]})")

    try:
        text = evaluator.substitute(best["skeleton"], best["coefficients"])
        facts.train_r2 = evaluator.r2(evaluator.evaluate(text, train.X), train.y)
        facts.test_r2 = evaluator.trimmed_r2(evaluator.evaluate(text, test.X), test.y)
    except (ValueError, SyntaxError) as exc:
        errors.append(f"{where}: winner does not evaluate: {exc}")
        return errors, facts
    if not _close(facts.train_r2, best["r2_train"]):
        errors.append(f"{where}: train R2 recomputes to {facts.train_r2!r}, "
                      f"summary says {best['r2_train']!r}")
    if not _close(facts.test_r2, float(row["r2"])):
        errors.append(f"{where}: trimmed test R2 recomputes to {facts.test_r2!r}, "
                      f"results.csv says {row['r2']}")
    facts.recovered = facts.train_r2 > EARLY_STOP_R2 and facts.test_r2 >= RECOVERED_TEST_R2
    if facts.recovered and not ood_r2 >= 1.0 - R2_TOLERANCE:
        errors.append(f"{where}: recovered but clamped OOD R2 is {ood_r2!r}")
    return errors, facts


def check_round(out_dir, cells, data, ood) -> tuple:
    """Check every (equation, seed) cell of a round.

    data maps equation -> (train, test) datasets; ood maps (equation,
    seed) -> clamped OOD R^2 at extension 1.0.  Returns (errors, facts)
    with facts keyed like ood."""
    rows = read_results(out_dir)
    errors = []
    if len(rows) != len(cells):
        errors.append(f"results.csv has {len(rows)} rows for {len(cells)} cells")
    facts = {}
    for equation, seed in cells:
        train, test = data[equation]
        errs, facts[(equation, seed)] = check_cell(
            out_dir, equation, seed, rows.get((equation, seed)), train, test,
            ood.get((equation, seed), math.nan))
        errors += errs
    return errors, facts


def check_stub(stats: dict, facts: dict, round_tag: str) -> list:
    """Every call reached the stub, and each request carried the prompt
    the engine logged for that call, in order."""
    errors = []
    total = sum(f.calls for f in facts.values())
    served = stats["served"].get(round_tag, 0)
    if served != total:
        errors.append(f"stub served {served} requests, cells issued {total} calls")
    for (equation, seed), f in facts.items():
        got = stats["prompts"].get(f"{round_tag}/{equation}/{seed}", [])
        if got != f.prompts:
            errors.append(f"{equation}/seed{seed}: stub saw {len(got)} prompts that do not "
                          f"match the {len(f.prompts)} the engine logged")
    return errors


def clamp01(v: float) -> float:
    """Clamp to [0, 1]; an undefined value counts as 0."""
    return 0.0 if math.isnan(v) else min(max(v, 0.0), 1.0)
