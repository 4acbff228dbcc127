import json
import os
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import icsr.engine
from icsr.dataset import Dataset
from icsr.engine import (
    MODE_FULL,
    MODE_RANDOM,
    MODE_SEED_ONLY,
    BudgetCounters,
    CallRecord,
    EngineConfig,
    NoValidSeedsError,
    RunRecord,
    Trajectory,
    budget_report,
    run,
)
from icsr.expr import ParseError, Skeleton, canonicalize, complexity, parse
from icsr.fit import fit
from icsr.llm import (BackendError, LiveBackend, ReplayBackend, SamplingParams,
                       TemperatureSchedule)
from test_llm import FakeSession, _ok


def parabola(n=20):
    x = np.linspace(0.5, 2.0, n)
    return Dataset(x.reshape(-1, 1), x**2, name="parabola")


def config(**kwargs):
    kwargs.setdefault("n_seed_calls", 2)
    kwargs.setdefault("max_iterations", 3)
    return EngineConfig(**kwargs)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(n_seed_calls=0)
    with pytest.raises(ValueError):
        EngineConfig(top_k=0)
    with pytest.raises(ValueError):
        EngineConfig(mode="annealing")
    # counts are non-bool ints, early_stop_r2 a finite number, model a string
    for key, bad in (("n_seed_calls", 2.5), ("max_iterations", -1), ("top_k", True),
                     ("functions_per_call", "5"), ("seed", -1), ("seed", "abc"),
                     ("early_stop_r2", "x"), ("early_stop_r2", float("nan")),
                     ("model", 5), ("model", None)):
        with pytest.raises(ValueError, match=key):
            EngineConfig(**{key: bad})
    edge = EngineConfig(n_seed_calls=np.int64(1), max_iterations=0, seed=0, early_stop_r2=2)
    assert (edge.n_seed_calls, edge.max_iterations, edge.early_stop_r2) == (1, 0, 2)


def test_config_mode_alias():
    assert EngineConfig(mode="random-guessing").mode == MODE_RANDOM


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------

def _stub(key, error):
    return SimpleNamespace(
        skeleton=SimpleNamespace(key=key),
        scores=SimpleNamespace(error=error),
    )


def test_trajectory_keeps_k_best_sorted():
    t = Trajectory(3)
    for key, err in [("a", 0.9), ("b", 0.5), ("c", 0.7), ("d", 0.6), ("e", 0.8)]:
        t.add(_stub(key, err))
    assert [e.skeleton.key for e in t.entries] == ["b", "d", "c"]
    assert t.entries[0].scores.error == 0.5
    assert t.view_worst_first() == [("c", 0.7), ("d", 0.6), ("b", 0.5)]


def test_trajectory_ignores_repeated_keys():
    t = Trajectory(3)
    t.add(_stub("a", 0.9))
    t.add(_stub("a", 0.1))
    assert len(t.entries) == 1
    assert t.entries[0].scores.error == 0.9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcdefgh"),
                          st.floats(0.01, 10.0)), max_size=60),
       st.integers(1, 6))
def test_property_trajectory_invariants(steps, k):
    t = Trajectory(k)
    for key, err in steps:
        t.add(_stub(key, err))
        assert len(t.entries) <= k
        view = t.view_worst_first()
        errs = [e for _, e in view]
        assert errs == sorted(errs, reverse=True)
        keys = [kk for kk, _ in view]
        assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# Seed phase and early stop
# ---------------------------------------------------------------------------

def test_early_stop_in_seed_phase_halts_all_calls():
    backend = ReplayBackend(["f1(x) = x^2", "f1(x) = c", "f1(x) = c*x"])
    record = run(parabola(), config(n_seed_calls=3), backend)
    assert record.early_stopped
    assert len(record.calls) == 1
    assert backend.remaining == 2
    assert record.best.skeleton.key == "x^c"
    assert record.best.scores.r2_train > 0.99999


def test_early_stop_still_scores_rest_of_response():
    backend = ReplayBackend(["f1(x) = x^2\nf2(x) = c*x"])
    record = run(parabola(), config(n_seed_calls=2), backend)
    assert record.early_stopped
    statuses = [o["status"] for o in record.calls[0].outcomes]
    assert statuses == ["scored", "scored"]
    assert len(record.calls) == 1


def test_no_valid_seeds_raises_with_record():
    backend = ReplayBackend(["gibberish", "f1(x) = log(x) + c"])
    # log is undefined on half the domain, so the only parse is an invalid fit
    x = np.linspace(-2, -0.5, 15)
    ds = Dataset(x.reshape(-1, 1), x**2)
    with pytest.raises(NoValidSeedsError) as exc_info:
        run(ds, config(n_seed_calls=2), backend)
    record = exc_info.value.record
    assert record is not None
    assert len(record.calls) == 2
    assert record.best is None


def test_seed_prompt_identical_across_seed_calls():
    backend = ReplayBackend(["f1(x) = c", "f1(x) = c*x"])
    record = run(parabola(), config(n_seed_calls=2, max_iterations=0), backend)
    assert record.calls[0].prompt == record.calls[1].prompt
    assert {c.phase for c in record.calls} == {"seed"}


# ---------------------------------------------------------------------------
# Loop phase
# ---------------------------------------------------------------------------

def test_loop_improves_on_seed_and_stops():
    backend = ReplayBackend(["f1(x) = c", "f1(x) = x^2"])
    record = run(parabola(), config(n_seed_calls=1, max_iterations=5), backend)
    assert [c.phase for c in record.calls] == ["seed", "loop"]
    assert record.early_stopped
    assert record.best.origin == "loop:0"
    # the loop prompt carried the seed candidate and its error
    assert "Function: c, Error:" in record.calls[1].prompt


def test_loop_trajectory_worst_first_in_prompt():
    backend = ReplayBackend([
        "f1(x) = c",
        "f1(x) = c*x",
        "f1(x) = c*x + c",
    ])
    record = run(parabola(), config(n_seed_calls=1, max_iterations=2), backend)
    prompt = record.calls[2].prompt
    c_pos = prompt.index("Function: c,")
    cx_pos = prompt.index("Function: c*x,")
    assert c_pos < cx_pos  # constant fits worse, listed first


@pytest.mark.parametrize("schedule, loop_temps", [
    (TemperatureSchedule(mode="linear", start=1.0, end=0.4, total_iterations=4),
     [1.0, 0.8, 0.6, 0.4]),
    # no schedule: every loop call keeps the base sampling temperature
    (None, [0.7] * 4),
], ids=["linear", "none"])
def test_loop_respects_temperature_schedule(schedule, loop_temps):
    backend = ReplayBackend(["f1(x) = c"] + ["f1(x) = c"] * 4)
    record = run(
        parabola(),
        config(n_seed_calls=1, max_iterations=4, schedule=schedule,
               sampling=SamplingParams(temperature=0.7)),
        backend,
    )
    temps = [c.temperature for c in record.calls]
    assert temps[0] == 0.7  # seed phase uses the base sampling temperature
    np.testing.assert_allclose(temps[1:], loop_temps)


def test_seed_only_mode_skips_loop():
    backend = ReplayBackend(["f1(x) = c", "f1(x) = c*x"])
    record = run(
        parabola(),
        config(n_seed_calls=2, max_iterations=5, mode=MODE_SEED_ONLY),
        backend,
    )
    assert {c.phase for c in record.calls} == {"seed"}
    assert len(record.calls) == 2
    assert not record.early_stopped


# ---------------------------------------------------------------------------
# Dedup and caps
# ---------------------------------------------------------------------------

def test_duplicate_skeletons_fit_once():
    backend = ReplayBackend([
        "f1(x) = c*x\nf2(x) = x*c",          # same canonical key
        "f1(x) = 2.5*x",                      # still the same skeleton
    ])
    record = run(parabola(), config(n_seed_calls=2, max_iterations=0), backend)
    outcomes = [o for c in record.calls for o in c.outcomes]
    statuses = [o["status"] for o in outcomes]
    assert statuses == ["scored", "duplicate", "duplicate"]
    counters = budget_report(record)
    assert counters.unique_skeletons_fitted == 1
    assert counters.candidates_parsed == 3


def test_over_cap_candidates_are_discarded():
    lines = "\n".join(f"f{i}(x) = c*x^{i}" for i in range(1, 11))
    backend = ReplayBackend([lines])
    record = run(parabola(), config(n_seed_calls=1, max_iterations=0), backend)
    outcomes = record.calls[0].outcomes
    # extraction caps at 8, acceptance at 5
    assert len(outcomes) == 8
    statuses = [o["status"] for o in outcomes]
    assert statuses.count("discarded_over_cap") == 3
    assert all(s == "discarded_over_cap" for s in statuses[5:])


def test_parse_errors_do_not_consume_the_acceptance_cap():
    response = "\n".join([
        "f1(x) = c*",          # broken
        "f2(x) = c*x",
        "f3(x) = q(x)",        # unknown symbol
        "f4(x) = c + x",
    ])
    backend = ReplayBackend([response])
    record = run(parabola(), config(n_seed_calls=1, max_iterations=0,
                                    functions_per_call=2), backend)
    statuses = [o["status"] for o in record.calls[0].outcomes]
    assert statuses == ["parse_error", "scored", "parse_error", "scored"]


def test_a_fit_whose_training_nmse_overflows_is_invalid(tmp_path):
    # the fitted predictions are finite, but their squared miss overflows
    x = np.linspace(-1.0, 2.0, 12)
    ds = Dataset(x.reshape(-1, 1), x**2 + x, name="overflow")
    overflowing = "c*exp(x*x*x*x*x*x*x*x + x*x*x*x*x*x*x)"
    log_path = tmp_path / "runlog.jsonl"
    record = run(ds, config(n_seed_calls=1, max_iterations=0), ReplayBackend(
        [f"f1(x) = {overflowing}\nf2(x) = {overflowing.replace('c', '2')}\nf3(x) = c*x"]),
        log_path=log_path)
    first, again, linear = record.calls[0].outcomes
    assert first["status"] == "invalid_fit" and "err" not in first
    assert (again["status"], again["err"]) == ("duplicate", None)
    assert linear["status"] == "scored"
    assert record.best.skeleton.key == "c*x"
    json.loads(log_path.read_text(encoding="utf-8"), parse_constant=pytest.fail)
    with pytest.raises(NoValidSeedsError):
        run(ds, config(n_seed_calls=1, max_iterations=0),
            ReplayBackend([f"f1(x) = {overflowing}"]))


# Eight lines: a valid line twice in a row, a parse error twice, a second
# skeleton, the first line again, a third skeleton, and one line past the
# five-per-call acceptance cap.
REPEATING_REPLY = "\n".join([
    "f1(x) = c*x + c", "f2(x) = c*x + c", "f3(x) = c*(", "f4(x) = c*(",
    "f5(x) = 2.5*x", "f6(x) = c*x + c", "f7(x) = exp(x)", "f8(x) = sin(x)",
])
OVERSIZED_LINE = "+".join(["x*c"] * 600)


def _bound(entry):
    """A line entry's skeleton with the line's values bound, as it is fitted."""
    _, skeleton, values = entry
    return replace(skeleton, values=values)


def test_each_distinct_template_is_parsed_and_canonicalized_once_per_run(monkeypatch):
    parsed, canonicalized, entries = [], [], {}
    real_parse, real_canonicalize = icsr.engine.parse, icsr.engine.canonicalize
    real_parse_line = icsr.engine._Run.parse_line

    def counting_parse(text, dim):
        parsed.append(text)
        return real_parse(text, dim)

    def counting_canonicalize(tree, dim):
        canonicalized.append(tree)
        return real_canonicalize(tree, dim)

    def recording_parse_line(state, raw):
        entries[raw] = real_parse_line(state, raw)
        return entries[raw]

    monkeypatch.setattr(icsr.engine, "parse", counting_parse)
    monkeypatch.setattr(icsr.engine, "canonicalize", counting_canonicalize)
    monkeypatch.setattr(icsr.engine._Run, "parse_line", recording_parse_line)
    reply = REPEATING_REPLY.replace("f7(x) = exp(x)", f"f7(x) = {OVERSIZED_LINE}")
    # 2.5*x, 0.5*x and c*x differ only in their literals: one template
    script = [reply, "f1(x) = x\nf2(x) = c*(\nf3(x) = 0.5*x", reply,
              "f1(x) = x\nf2(x) = c*x + c\nf3(x) = c*x"]
    record = run(parabola(), config(n_seed_calls=2, max_iterations=2), ReplayBackend(script))
    assert [c.phase for c in record.calls] == ["seed", "seed", "loop", "loop"]
    # a template that does not parse leaves the message to its line, as
    # the message may quote a literal
    assert sorted(parsed) == sorted([
        "c * x + c", "c * (", "c*(", "c * x", " + ".join(["x * c"] * 600), OVERSIZED_LINE,
        "sin ( x )", "x",
    ])
    assert len(canonicalized) == 4
    assert entries["2.5*x"][1].key == entries["0.5*x"][1].key == entries["c*x"][1].key
    # one template skeleton; each line's numbers are bound only to fit it
    assert entries["2.5*x"][1] is entries["0.5*x"][1] is entries["c*x"][1]
    assert [_bound(entries[raw]).hints for raw in ("2.5*x", "0.5*x", "c*x")] == [
        (2.5,), (0.5,), (None,)]
    outcomes = [o for c in record.calls for o in c.outcomes]
    oversized = [o for o in outcomes if o["raw"] == OVERSIZED_LINE]
    assert len(oversized) == 2
    assert oversized[0] == oversized[1]
    assert oversized[0]["status"] == "parse_error"
    assert "tokens" in oversized[0]["detail"]


@pytest.mark.parametrize("mode, schedule", [
    (MODE_SEED_ONLY, None),
    (MODE_FULL, TemperatureSchedule(mode="linear", start=0.9, end=0.3, total_iterations=3)),
], ids=["seed-only", "linear"])
def test_a_run_builds_what_it_sends_and_binds_what_it_fits_once(monkeypatch, mode, schedule):
    built, bound = [], []
    real_post_init, real_init = SamplingParams.__post_init__, Skeleton.__init__
    real_canonicalize = icsr.engine.canonicalize

    def counting_post_init(params):
        built.append(params.temperature)
        real_post_init(params)

    def counting_init(skeleton, **fields):
        bound.append(fields["key"])
        real_init(skeleton, **fields)

    def canonicalize_uncounted(tree, dim):
        skeleton = real_canonicalize(tree, dim)
        assert bound.pop() == skeleton.key  # a template's skeleton, not a copy
        return skeleton

    monkeypatch.setattr(SamplingParams, "__post_init__", counting_post_init)
    monkeypatch.setattr(Skeleton, "__init__", counting_init)
    monkeypatch.setattr(icsr.engine, "canonicalize", canonicalize_uncounted)
    script = [REPEATING_REPLY, "f1(x) = 2*x\nf2(x) = c*x + 1", REPEATING_REPLY,
              "f1(x) = 2*sin(x)\nf2(x) = 3*x + 4", REPEATING_REPLY]
    cfg = config(n_seed_calls=2, max_iterations=3, mode=mode, schedule=schedule,
                 sampling=SamplingParams(temperature=0.9))
    built.clear()
    record = run(parabola(), cfg, ReplayBackend(script))
    sent = [c.temperature for c in record.calls]
    assert len(sent) == (2 if mode == MODE_SEED_ONLY else 5)
    # one SamplingParams per distinct temperature; the config's own serves
    # its temperature
    assert sorted(built) == sorted(set(sent) - {0.9})
    # a copy with a line's numbers bound, once per key that is fitted
    fitted = [o["key"] for c in record.calls for o in c.outcomes if "restarts" in o]
    assert bound == fitted
    assert len(fitted) == (3 if mode == MODE_SEED_ONLY else 4)


def test_repeated_lines_log_the_outcomes_of_first_sight():
    record = run(parabola(), config(n_seed_calls=1, max_iterations=1),
                 ReplayBackend([REPEATING_REPLY] * 2))
    logged = [
        (o["status"], o.get("detail", o.get("key")), o.get("complexity"), o.get("err"))
        for c in record.calls for o in c.outcomes
    ]
    # the outcomes an engine logs when it parses and canonicalizes every
    # line afresh
    scored_1 = ("scored", "c + c*x", 5, 0.966427569548764)
    scored_2 = ("scored", "c*x", 3, 1.0077167295903737)
    scored_3 = ("scored", "exp(x)", 2, 1.8758842105306197)
    broken = ("parse_error", "unexpected token None", None, None)
    over_cap = ("discarded_over_cap", None, None, None)

    def dup(outcome):
        return ("duplicate",) + outcome[1:]

    assert logged == [
        scored_1, dup(scored_1), broken, broken, scored_2, dup(scored_1), scored_3, over_cap,
        dup(scored_1), dup(scored_1), broken, broken, dup(scored_2), dup(scored_1),
        dup(scored_3), over_cap,
    ]


# ---------------------------------------------------------------------------
# Failure tolerance
# ---------------------------------------------------------------------------

class FlakyBackend:
    def __init__(self, responses, fail_on):
        self.inner = ReplayBackend(responses)
        self.fail_on = set(fail_on)
        self.count = 0

    def complete(self, request):
        self.count += 1
        if self.count in self.fail_on:
            raise BackendError("synthetic failure")
        return self.inner.complete(request)


def test_backend_failure_is_recorded_and_run_continues():
    backend = FlakyBackend(["f1(x) = c", "f1(x) = c*x"], fail_on={2})
    record = run(parabola(), config(n_seed_calls=3, max_iterations=0), backend)
    assert len(record.calls) == 3
    assert record.calls[1].error == "synthetic failure"
    assert record.calls[1].response is None
    assert record.calls[1].outcomes == []
    assert record.best is not None


def test_replay_exhaustion_mid_run_degrades_gracefully():
    backend = ReplayBackend(["f1(x) = c"])
    record = run(parabola(), config(n_seed_calls=2, max_iterations=2), backend)
    assert len(record.calls) == 4
    assert record.calls[0].error is None
    assert all(c.error is not None for c in record.calls[1:])
    assert record.best.skeleton.key == "c"


# ---------------------------------------------------------------------------
# Random-guessing baseline
# ---------------------------------------------------------------------------

def test_random_mode_uses_full_budget_without_feedback():
    responses = ["f1(x) = x^2"] + ["f1(x) = c"] * 4
    backend = ReplayBackend(responses)
    record = run(
        parabola(), config(n_seed_calls=2, max_iterations=3, mode=MODE_RANDOM), backend
    )
    # perfect first answer, yet all five calls are spent: no early stop here
    assert len(record.calls) == 5
    assert {c.phase for c in record.calls} == {"random"}
    assert record.best.skeleton.key == "x^c"
    prompts = {c.prompt for c in record.calls}
    assert len(prompts) == 1
    assert "Generate five random functions" in record.calls[0].prompt


def test_run_delegates_random_mode():
    backend = ReplayBackend(["f1(x) = c"] * 5)
    record = run(
        parabola(), config(n_seed_calls=2, max_iterations=3, mode="random-guessing"),
        backend,
    )
    assert record.summary()["mode"] == MODE_RANDOM
    assert len(record.calls) == 5


def test_random_mode_all_invalid_raises():
    backend = ReplayBackend(["nonsense"] * 3)
    with pytest.raises(NoValidSeedsError):
        run(parabola(), config(n_seed_calls=1, max_iterations=2, mode=MODE_RANDOM), backend)


# ---------------------------------------------------------------------------
# Fuzzed responses
# ---------------------------------------------------------------------------

_LEAF = st.sampled_from(["x", "x1", "x2", "c", "0", "-0.0", "2.5", "1e308", "1e-308", "7."])
_FUNCTION = st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "erf", "sinh",
                             "tanh"])
# well-formed right-hand sides, and token soup that mostly is not
_RHS = st.one_of(
    st.recursive(_LEAF, lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("{}({})".format, _FUNCTION, inner),
        st.builds("-{}".format, inner),
    ), max_leaves=10),
    st.lists(st.one_of(_LEAF, _FUNCTION, st.sampled_from(
        ["+", "-", "*", "/", "^", "**", "(", ")", " ", ",", "=", "`", "y", ".5e3"])),
        max_size=24).map("".join),
)
_CANDIDATE_LINE = st.builds(
    "{}f{}({}) = {}".format,
    st.sampled_from(["", "- ", "* ", "3. ", "`", "Function: "]),
    st.sampled_from(["", "1", "12"]),
    st.sampled_from(["x", "x1, x2"]),
    _RHS,
)
_RESPONSE = st.lists(st.one_of(_CANDIDATE_LINE, st.text(max_size=30)), max_size=10).map("\n".join)
OUTCOME_STATUSES = {"scored", "invalid_fit", "duplicate", "parse_error", "discarded_over_cap"}

# forms with a "{}" per literal slot, well-formed or not; filling the
# slots in different ways gives lines of one literal-free template
_SLOT = st.sampled_from(["x", "x1", "x2", "{}", "{}", "{}"])
_FORM = st.one_of(
    st.recursive(_SLOT, lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from(["+", "-", "*", "/", "^", "**"]),
                  inner),
        st.builds("{}({})".format, _FUNCTION, inner),
        st.builds("-{}".format, inner),
    ), max_leaves=8),
    st.lists(st.one_of(_SLOT, _FUNCTION, st.sampled_from(
        ["+", "-", "*", "^", "(", ")", " ", "y"])), max_size=12).map("".join),
)
SLOT_VALUES = ["1e308", "1e999", "0", "-0.0", "c", "2.5", "7.", ".5e3", "1e-308"]
# values for up to 12 slots, more than a form has
_FILLINGS = st.lists(st.lists(st.sampled_from(SLOT_VALUES), min_size=12, max_size=12),
                     min_size=1, max_size=5)
_TEMPLATE_REPLY = st.builds(
    lambda form, fillings: "".join(f"f{i}(x) = {form.format(*values)}\n"
                                   for i, values in enumerate(fillings, 1)),
    _FORM, _FILLINGS)


def _literal_tree_entry(raw, dim):
    try:
        tree = parse(raw, dim)
        return complexity(tree), canonicalize(tree, dim)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_FORM, st.sampled_from([1, 2]), _FILLINGS)
# tokens the template must keep apart: "* *" is not "**"
@example("x* *{}", 1, [["2.5"] * 12])
def test_property_template_path_matches_the_literal_tree(form, dim, fillings):
    x = np.linspace(0.5, 2.0, 4)
    state = icsr.engine._Run(Dataset(np.column_stack([x, x])[:, :dim], x), config(), None, None)
    # every special value at every slot, then mixes: most are template hits
    lines = [form.format(*[v] * 12) for v in SLOT_VALUES] + [form.format(*f) for f in fillings]
    for raw in lines:
        got, want = state.parse_line(raw), _literal_tree_entry(raw, dim)
        if isinstance(want, str):
            assert got == want
            continue
        assert (got[0], got[1].key) == (want[0], want[1].key)
        assert [h if h is None else h.hex() for h in _bound(got).hints] == \
            [h if h is None else h.hex() for h in want[1].hints]


def _reject_constant(name):
    raise ValueError(f"run log holds {name}, which is not JSON")


@settings(max_examples=80, deadline=None)
@given(st.lists(_RESPONSE, min_size=2, max_size=2), st.sampled_from([1, 2]), _TEMPLATE_REPLY)
# coefficients that overflow inside the fitter, and predictions that are
# finite but overflow once squared, unfitted and scored
@example(["f1(x) = (1e308^(x+c))", ""], 1, "")
@example(["f1(x) = exp(x*x*x*x*x*x*x*x + x*x*x*x*x*x*x)",
          "f1(x) = c*exp(x*x*x*x*x*x*x*x + x*x*x*x*x*x*x)"], 1, "")
# an LM step whose actual gain dwarfs the predicted one
@example(["f(x) = x", "f(x) = \nf(x) = ((x-(x^7.))^(x^7.))"], 1, "")
# template hits whose literals overflow, vanish or are c
@example(["", ""], 1, "f1(x) = 1e999*x*x\nf2(x) = 2.5*x*x\nf3(x) = c*x*x\nf4(x) = 1e308*x*x\n"
                      "f5(x) = -0.0*x*x")
def test_fuzzed_responses_end_in_documented_outcomes(responses, dim, template_reply):
    x = np.linspace(-1.0, 2.0, 12)  # log and sqrt are undefined on part of it
    X = np.column_stack([x, x[::-1]])[:, :dim]
    ds = Dataset(X, x**2 + X[:, -1], name="fuzz")
    script = [template_reply + responses[0], responses[1]]
    with tempfile.TemporaryDirectory() as tmp:
        log_path = os.path.join(tmp, "runlog.jsonl")
        try:
            record = run(ds, config(n_seed_calls=1, max_iterations=1), ReplayBackend(script),
                         log_path)
        except NoValidSeedsError as exc:
            record = exc.record
        with open(log_path, encoding="utf-8") as fh:
            logged = [json.loads(line, parse_constant=_reject_constant) for line in fh]
    outcomes = [o for c in record.calls for o in c.outcomes]
    assert [o for doc in logged for o in doc["outcomes"]] == outcomes
    assert {o["status"] for o in outcomes} <= OUTCOME_STATUSES
    assert budget_report(record).calls_issued == len(record.calls) <= 2
    json.dumps(record.summary())


# ---------------------------------------------------------------------------
# Budget accounting
# ---------------------------------------------------------------------------

def test_budget_report_counters():
    backend = ReplayBackend([
        "f1(x) = c*x\nf2(x) = c*x",   # scored + duplicate
        "f1(x) = ???",                 # nothing extracted
        "f1(x) = c*sin(x)",
        "f1(x) = c*x + c",
        "f1(x) = sin(c)*",             # parse error
    ])
    record = run(parabola(), config(n_seed_calls=2, max_iterations=3), backend)
    counters = budget_report(record)
    assert isinstance(counters, BudgetCounters)
    assert counters.calls_issued == 5
    assert counters.max_calls_allowed == 5
    assert counters.candidates_parsed == 4   # scored, duplicate, and two more fits
    assert counters.unique_skeletons_fitted == 3
    # every fitted skeleton had slots, so each consumed the full restart budget
    assert counters.nls_restarts == 3 * record.config.fit.restarts


def test_budget_never_exceeds_call_allowance():
    backend = ReplayBackend(["f1(x) = c"] * 10)
    record = run(parabola(), config(n_seed_calls=2, max_iterations=3), backend)
    counters = budget_report(record)
    assert counters.calls_issued <= counters.max_calls_allowed == 5
    assert backend.remaining == 5


def test_budget_report_raises_on_over_budget_record():
    # an explicit check, not an assert, so python -O keeps enforcing it
    cfg = config(n_seed_calls=1, max_iterations=1)
    record = RunRecord(config=cfg, dataset=parabola(),
                       calls=[CallRecord("seed", i, 1.0, "p") for i in range(3)])
    with pytest.raises(RuntimeError, match="3 calls exceeds budget 2"):
        budget_report(record)


def test_fitted_outcomes_log_lm_iterations(tmp_path):
    log_path = tmp_path / "runlog.jsonl"
    backend = ReplayBackend(["f1(x) = c*x^c\nf2(x) = x*x\nf3(x) = c*x^c"])
    record = run(parabola(), config(n_seed_calls=1, max_iterations=0), backend,
                 log_path=log_path)
    fitted, no_slots, duplicate = json.loads(log_path.read_text(encoding="utf-8"))["outcomes"]
    # the first fit of a run draws its starts from a fresh seed-0 generator
    alone = fit(canonicalize(parse("c*x^c", 1), 1), parabola(), record.config.fit,
                np.random.default_rng(record.config.seed))
    assert fitted["lm_iterations"] == list(alone.iterations)
    assert fitted["lm_stops"] == list(alone.stops)
    assert fitted["lm_frozen"] == alone.frozen
    assert len(alone.iterations) == len(alone.stops) == fitted["restarts"] == 5
    assert no_slots["lm_iterations"] == no_slots["lm_stops"] == []
    assert no_slots["lm_frozen"] == 0
    assert not {"lm_iterations", "lm_stops", "lm_frozen"} & set(duplicate)
    assert "lm_" not in json.dumps(record.summary())


# ---------------------------------------------------------------------------
# Records, logs, determinism
# ---------------------------------------------------------------------------

def test_run_log_one_json_document_per_call(tmp_path):
    log_path = tmp_path / "runlog.jsonl"
    backend = ReplayBackend(["f1(x) = c", "f1(x) = x^2"])
    record = run(parabola(), config(n_seed_calls=1, max_iterations=2), backend,
                 log_path=log_path)
    lines = log_path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == len(record.calls) == 2
    for line in lines:
        doc = json.loads(line)
        assert set(doc) == {
            "phase", "index", "temperature", "prompt", "response",
            "error", "usage", "latency", "outcomes",
        }
    assert json.loads(lines[1])["phase"] == "loop"


def _assert_lines_are_their_sorted_encoding(log_path, calls):
    lines = log_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == calls
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)
    return [json.loads(line) for line in lines]


# a live server's usage can nest, with its keys in any order
NESTED_USAGE = {"total_tokens": 3, "prompt_tokens_details": {"cached_tokens": 0, "audio_tokens": 0},
                "per_choice": [{"tokens": 1, "index": 0}], "completion_tokens": 2}


def test_run_log_lines_have_their_keys_sorted_at_every_level(tmp_path):
    # every outcome status, and two calls the exhausted script fails
    reply = REPEATING_REPLY.replace("f8(x) = sin(x)", "f8(x) = c*log(-x)")
    script = [reply, "f1(x) = c*log(-x)\nf2(x) = x + c", reply]
    replayed = tmp_path / "replayed.jsonl"
    run(parabola(), config(n_seed_calls=2, max_iterations=3), ReplayBackend(script), replayed)
    docs = _assert_lines_are_their_sorted_encoding(replayed, 5)
    statuses = {o["status"] for doc in docs for o in doc["outcomes"]}
    assert statuses == OUTCOME_STATUSES
    assert [doc["error"] is None for doc in docs] == [True, True, True, False, False]

    session = FakeSession([_ok(text, usage=NESTED_USAGE) for text in script])
    backend = LiveBackend("http://host/v1", api_key="k", session=session, sleep=lambda _: None)
    live = tmp_path / "live.jsonl"
    run(parabola(), config(n_seed_calls=2, max_iterations=1), backend, live)
    docs = _assert_lines_are_their_sorted_encoding(live, 3)
    assert [doc["usage"] for doc in docs] == [NESTED_USAGE] * 3


def test_summary_shape_and_best_fields():
    backend = ReplayBackend(["f1(x) = 2.5*x"])
    record = run(parabola(), config(n_seed_calls=1, max_iterations=0), backend)
    doc = record.summary()
    assert doc["mode"] == MODE_FULL
    assert doc["dataset"]["name"] == "parabola"
    assert doc["config"]["n_seed_calls"] == 1
    assert doc["best"]["skeleton"] == "c*x"
    assert doc["best"]["origin"] == "seed:0"
    assert isinstance(doc["best"]["coefficients"][0], float)
    assert "*x" in doc["best"]["expression"]


def test_identical_runs_produce_identical_summaries():
    script = [
        "f1(x) = c*x\nf2(x) = c*sin(x)",
        "f1(x) = c*x^c",
        "f1(x) = c*x + c",
        "f1(x) = c/(c + x)",
        "f1(x) = c*exp(c*x)",
    ]
    cfg = config(n_seed_calls=2, max_iterations=3, seed=123)
    a = run(parabola(), cfg, ReplayBackend(script)).summary()
    b = run(parabola(), cfg, ReplayBackend(script)).summary()
    assert a == b
