"""Planted-fault tests for the benchmark's output checks and generator.

Run from the repository root with:

    python3 -m pytest -q perfbench/check_faults.py

Each test corrupts one output file of a small clean suite run (or the
loopback stub's statistics) the way a broken program would, and asserts
that the checks catch it.  The file name keeps these tests out of the
repository's default test collection.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import scripts  # noqa: E402
from icsr import bench  # noqa: E402
from icsr.engine import EngineConfig  # noqa: E402
from icsr.llm import ReplayBackend  # noqa: E402

WORK = HERE.parent / ".perfbench_out" / "check_faults"
NAMES = ("nguyen1", "nguyen9", "keijzer7")
SEEDS = (1,)


@pytest.fixture(scope="module")
def clean():
    table = bench.load_benchmarks()
    cells = [(n, s) for n in NAMES for s in SEEDS]
    calls = scripts.placements(len(cells), scripts.rng_for("placements", 0))
    script = {cell: scripts.grid_script(table[cell[0]], call, scripts.rng_for("grid", 0, *cell))
              for cell, call in zip(cells, calls)}
    out = WORK / "clean"
    shutil.rmtree(WORK, ignore_errors=True)
    report = bench.run_suite(NAMES, EngineConfig(), SEEDS,
                             lambda spec, seed: ReplayBackend(script[(spec.name, seed)]),
                             out_dir=str(out))
    ood = {(c.equation, c.seed): bench.evaluate_ood(
        c.candidate, bench.get_benchmark(c.equation), [1.0])[0].clamped_r2
        for c in report.ok_cells()}
    data = {n: (bench.sample(table[n], "train"), bench.sample(table[n], "test")) for n in NAMES}
    yield out, cells, data, ood
    shutil.rmtree(WORK, ignore_errors=True)


class Planted:
    """A private copy of the clean run to corrupt."""

    def __init__(self, clean, name):
        out, self.cells, self.data, ood = clean
        self.ood = dict(ood)
        self.out = WORK / name
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copytree(out, self.out)
        _, self.facts = checks.check_round(out, self.cells, self.data, self.ood)

    def errors(self) -> list:
        return checks.check_round(self.out, self.cells, self.data, self.ood)[0]

    def recovered_cell(self):
        return next(cell for cell, f in self.facts.items() if f.recovered)

    def cell_dir(self, cell) -> Path:
        return self.out / "runs" / cell[0] / f"seed{cell[1]}"

    def edit_summary(self, cell, change):
        path = self.cell_dir(cell) / "summary.json"
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))

    def edit_runlog(self, cell, change):
        path = self.cell_dir(cell) / "runlog.jsonl"
        calls = [json.loads(line) for line in path.read_text().splitlines()]
        change(calls)
        path.write_text("".join(json.dumps(c) + "\n" for c in calls))

    def edit_results(self, cell, field, value):
        path = self.out / "results.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if (row["equation"], int(row["seed"])) == cell:
                row[field] = value
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            w.writeheader()
            w.writerows(rows)


@pytest.fixture
def planted(clean, request):
    return Planted(clean, request.node.name)


def _has(errors, text):
    return any(text in e for e in errors)


def test_clean_run_passes(planted):
    assert planted.errors() == []
    assert any(f.recovered for f in planted.facts.values())


def test_perturbed_winner_coefficient(planted):
    cell = planted.recovered_cell()

    def perturb(doc):
        doc["best"]["coefficients"][0] *= 1.01

    planted.edit_summary(cell, perturb)
    assert _has(planted.errors(), "train R2 recomputes")


def test_dropped_winner_outcome(planted):
    cell = planted.recovered_cell()

    def drop(calls):
        for call in calls:
            call["outcomes"] = [o for o in call["outcomes"] if o.get("status") != "scored"
                                or o["r2_train"] <= checks.EARLY_STOP_R2]

    planted.edit_runlog(cell, drop)
    assert _has(planted.errors(), "is not the least-error outcome")


def test_call_after_early_stop(planted):
    planted.edit_runlog(planted.recovered_cell(), lambda calls: calls.append(dict(calls[-1])))
    assert _has(planted.errors(), "after the early-stop call")


def test_skeleton_fitted_twice(planted):
    def refit(calls):
        for call in calls:
            for o in call["outcomes"]:
                if o["status"] == "duplicate" and o["err"] is not None:
                    o.update(status="scored", restarts=5, r2_train=0.0)
                    return

    planted.edit_runlog(planted.recovered_cell(), refit)
    assert _has(planted.errors(), "fitted more than once")


def test_more_than_five_accepted(planted):
    def flood(calls):
        dup = {"raw": "x", "key": "x", "status": "duplicate", "err": None}
        calls[0]["outcomes"] += [dict(dup) for _ in range(checks.FUNCTIONS_PER_CALL)]

    planted.edit_runlog(planted.recovered_cell(), flood)
    assert _has(planted.errors(), "accepted")


def test_wrong_test_r2_in_results(planted):
    planted.edit_results(planted.recovered_cell(), "r2", "0.5")
    assert _has(planted.errors(), "trimmed test R2 recomputes")


def test_failed_cell(planted):
    planted.edit_results(planted.cells[0], "status", "failed")
    assert _has(planted.errors(), "status 'failed'")


def test_recovered_cell_with_bad_ood(planted):
    planted.ood[planted.recovered_cell()] = 0.5
    assert _has(planted.errors(), "clamped OOD R2")


def test_stub_missed_or_altered_prompts(planted):
    round_tag = "r0"
    prompts = {f"{round_tag}/{e}/{s}": list(f.prompts) for (e, s), f in planted.facts.items()}
    total = sum(len(p) for p in prompts.values())
    good = {"served": {round_tag: total}, "prompts": prompts}
    assert checks.check_stub(good, planted.facts, round_tag) == []
    short = {"served": {round_tag: total - 1}, "prompts": prompts}
    assert _has(checks.check_stub(short, planted.facts, round_tag), "stub served")
    altered = json.loads(json.dumps(good))
    first = next(iter(altered["prompts"]))
    altered["prompts"][first][0] = "0" * 16
    assert _has(checks.check_stub(altered, planted.facts, round_tag), "do not match")


def test_scripts_follow_the_seed():
    spec = bench.get_benchmark("nguyen5")
    a = scripts.grid_script(spec, 40, scripts.rng_for("grid", 1, "nguyen5", 1))
    b = scripts.grid_script(spec, 40, scripts.rng_for("grid", 1, "nguyen5", 1))
    c = scripts.grid_script(spec, 40, scripts.rng_for("grid", 2, "nguyen5", 1))
    assert a == b and a != c
    assert len(a) == scripts.N_CALLS
    assert spec.expression in a[39] and not any(spec.expression in r for r in a[:39])


def test_scrape_forms_are_linear_in_their_coefficients():
    for name in ("nguyen5", "nguyen9", "keijzer7"):
        spec = bench.get_benchmark(name)
        train = bench.sample(spec, "train")
        for seed in range(5):
            for form in scripts.linear_forms(spec, train, scripts.rng_for("scrape", seed, name)):
                assert not any(ch.isdigit() for ch in " ".join(form).replace("x1", "")
                               .replace("x2", ""))
