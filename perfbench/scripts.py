"""Seeded replay-script generator.

A script is the list of 60 model responses one cell (equation x engine
seed) is served: 10 seed calls plus 50 loop calls, the engine's default
budget.  Everything here is deterministic in its inputs and uses
``random.Random`` seeded with strings, whose streams are stable across
Python versions.  Nothing here calls into ``icsr`` except through the
benchmark specs and train splits it is handed, so a change to the
program never changes the scripts.

Two script kinds:

* ``grid`` (offline-grid, live-loopback): plain ``fN(x) = ...`` lines.
  Each equation has a fixed set of wrong skeletons: one near miss of
  the ground truth, some generic nonlinear forms and one form that is
  undefined on the train range.  The set and the order in which the
  skeletons first appear depend on the equation only, because one wrong
  nonlinear form costs 3-600 ms to fit and a seed-dependent set would
  swamp the timing with the luck of the draw.  The workload seed decides
  the rest: how many lines each response holds, which earlier skeletons
  come back as duplicates (literal-varied or reordered), and at which
  late call the verbatim ground truth (the oracle line) appears.
* ``scrape`` (scrape-dedup): verbose responses with prose, numbering,
  bullets and backticks, 8 extractable candidate lines and more, parse
  errors and over-cap lines.  The unique skeletons are cheap, linear-in-
  coefficient forms drawn by the seed and screened with the benchmark's
  own least squares so they can never beat the oracle, which appears in
  the last call only.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

import numpy as np

import evaluator

N_SEED_CALLS = 10
N_CALLS = 60
FUNCTIONS_PER_CALL = 5
EXTRACT_LIMIT = 8
ORACLE_FIRST_CALL = 25

# Generic nonlinear wrong forms.  Terms are joined by " + " so that
# reordering them never changes the canonical skeleton.  2-D forms use
# x2, so no skeleton renders with only x1.
GRID_FORMS_1D = (
    ("c*sin(c*x)", "c"),
    ("c*cos(c*x + c)",),
    ("c*exp(c*x)", "c"),
    ("c*tanh(c*x)", "c*x"),
    ("c*x^c", "c"),
    ("c*log(abs(x) + c)",),
    ("c/(c + x*x)",),
    ("c*x*exp(c*x)",),
    ("c*exp(-c*x*x)", "c"),
    ("c*sinh(c*x)",),
    ("c*cos(c*x)*x",),
    ("c*sqrt(abs(x) + c)",),
)
GRID_FORMS_2D = (
    ("c*exp(c*x1)", "c*x2*x2"),
    ("c/(c + x1*x1 + x2*x2)",),
    ("c*tanh(c*x1 + c*x2)",),
    ("c*cos(c*x1 + c*x2)",),
    ("c*x1*exp(c*x2)",),
    ("c*sin(x1 + x2)", "c*x1*x2"),
    ("c*exp(-c*x2*x2)", "c*x1"),
)
GENERIC_PER_EQUATION = 1
# Pool forms that contain an equation's ground truth as a special case:
# fitting every (equation, form) pair once showed these reach train
# R^2 > 0.9999, so they would end the cell before the oracle call.
SPECIAL_CASES = {
    "nguyen8": ("c*x^c + c", "c*sqrt(abs(x) + c)"),
    "constant5": ("c*x^c + c", "c*sqrt(abs(x) + c)"),
    "constant6": ("c*x^c + c",),
    "keijzer7": ("c*x^c + c", "c*log(abs(x) + c)"),
    "keijzer8": ("c*x^c + c", "c*sqrt(abs(x) + c)"),
    "keijzer9": ("c*x^c + c",),
    "keijzer14": ("c/(c + x1*x1 + x2*x2)",),
}

# Linear-in-coefficient bases for scrape-dedup: no literals, so every
# slot is a plain multiplier.
LINEAR_BASES_1D = (
    "x", "x*x", "x*x*x", "sin(x)", "cos(x)", "exp(x)", "exp(-x)",
    "x*sin(x)", "x*cos(x)", "sqrt(abs(x))", "tanh(x)", "abs(x)", "x*exp(x)",
)
LINEAR_BASES_2D = (
    "x1", "x2", "x1*x2", "x1*x1", "x2*x2", "sin(x1)", "sin(x2)",
    "cos(x1)", "cos(x2)", "exp(x2)", "x1*x2*x2", "x1*cos(x2)",
)
SCRAPE_UNIQUE = 3
# A wrong form whose NMSE is at least this large has fitness below
# 1/(1 + 0.06) + 0.05 < 1, so it can never beat the oracle (NMSE ~ 0).
SCRAPE_MIN_NMSE = 0.06
MAX_BASIS = 1.0e3

# Candidate right-hand sides that the extractor takes but the parser
# rejects: unbalanced parentheses, unknown names, stray characters.
PARSE_ERRORS_1D = (
    "c*sin(x", "c*x + y", "c*ln(x) + c", "c*x^^2", "c*x²", "2c*x + c",
    "c*|x| + c", "c*sqrt[x]", "c*x = c", "c*x + c*z", "c·x + c", "(c*x + c",
)
PARSE_ERRORS_2D = (
    "c*sin(x1", "c*x1 + c*x3", "c*ln(x1) + x2", "c*x1^^2 + x2", "c*x1²",
    "c*|x2| + x1", "c*x1 = c*x2", "c*x1*y", "(c*x1 + c*x2", "c·x1 + x2",
)
INTROS = (
    "Here are five new functions that should fit the points better:",
    "Sure! Based on the data, these candidates look promising:",
    "Looking at the curvature of the data, I propose the following functions.",
    "Below are my suggestions, each using c for the coefficients:",
)
OUTROS = (
    "Each of these captures a different trend in the data.",
    "Note: the coefficients will be optimized, so only the shape matters.",
    "I tried to keep the expressions diverse.",
    "Let me know if you need more functions!",
)
DECORATIONS = ("{n}. {f}", "{n}) {f}", "- {f}", "* {f}", "`{f}`", "{n}. `{f}`",
               "* Function: {f}", "{f},")

_SWAP_FUNCTIONS = {"sin": "cos", "cos": "sin", "sqrt": "log", "log": "sqrt", "exp": "cosh"}


def rng_for(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def signature(n: int, dim: int) -> str:
    args = "x" if dim == 1 else "x1, x2"
    return f"f{n}({args}) = "


def _split_top(text: str, ops: str) -> list:
    """Split at top-level (depth 0) occurrences of the single-character
    operators in ops; the operator is kept at the front of each piece."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in ops and i > 0 and text[i - 1] == " ":
            pieces.append(text[start:i].strip())
            start = i
    pieces.append(text[start:].strip())
    return pieces


def near_miss(expression: str, dim: int) -> str:
    """A partly right form: a ground-truth term dropped, a function
    swapped, a denominator dropped, or the variables swapped.  2-D near
    misses keep x2 (see GRID_FORMS_2D)."""
    terms = _split_top(expression, "+-")
    if len(terms) > 1:
        for drop in (len(terms) - 1, 0):
            kept = [t for i, t in enumerate(terms) if i != drop]
            text = " ".join(kept).lstrip("+ ").strip()
            if text.startswith("- "):
                text = "-" + text[2:]
            if dim == 1 or "x2" in text:
                return text
    m = re.search(r"\b(sin|cos|sqrt|log|exp)\(", expression)
    if m:
        return expression[:m.start()] + _SWAP_FUNCTIONS[m.group(1)] + expression[m.end() - 1:]
    depth = 0
    for i, ch in enumerate(expression):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "/" and depth == 0:
            return expression[:i]
    if dim == 2:
        return expression.replace("x1", "X").replace("x2", "x1").replace("X", "x2")
    return f"exp({expression})"


def invalid_form(spec) -> str:
    """A form undefined on part of every train set, so its fit is invalid."""
    v = "x" if spec.dim == 1 else "x1"
    tail = "c" if spec.dim == 1 else "c*x2"
    if spec.train.low[0] < 0:
        return f"c*log({v}) + {tail}"
    return f"c*sqrt(-{v}) + {tail}"


def grid_forms(spec) -> list:
    """The fixed wrong skeletons of an equation, in first-appearance order.
    Each is a tuple of terms joined by ' + '."""
    rng = rng_for("forms", spec.name)
    excluded = SPECIAL_CASES.get(spec.name, ())
    pool = [f for f in (GRID_FORMS_1D if spec.dim == 1 else GRID_FORMS_2D)
            if " + ".join(f) not in excluded]
    forms = [(near_miss(spec.expression, spec.dim),)]
    forms += rng.sample(pool, GENERIC_PER_EQUATION)
    forms.append((invalid_form(spec),))
    rng.shuffle(forms)
    return forms


def _number(rng: random.Random) -> str:
    return f"{rng.uniform(0.1, 4.0):.{rng.choice((1, 2, 3))}f}"


def variant(form: tuple, rng: random.Random) -> str:
    """A duplicate of a form: literal values in place of some ``c``, and
    ``+`` terms reordered.  Both keep the canonical skeleton."""
    terms = list(form)
    if len(terms) > 1 and rng.random() < 0.5:
        rng.shuffle(terms)
    text = " + ".join(terms)
    if rng.random() < 0.6:
        text = re.sub(r"\bc\b", lambda _m: _number(rng) if rng.random() < 0.7 else "c", text)
    return text


def placements(n_cells: int, rng: random.Random) -> list:
    """Oracle call per cell: an even spread over [ORACLE_FIRST_CALL,
    N_CALLS] dealt to cells by the seed, so the mean calls per cell is
    the same for every seed."""
    if n_cells == 1:
        calls = [N_CALLS]
    else:
        span = N_CALLS - ORACLE_FIRST_CALL
        calls = [ORACLE_FIRST_CALL + round(span * k / (n_cells - 1)) for k in range(n_cells)]
    rng.shuffle(calls)
    return calls


def grid_script(spec, oracle_call: int, rng: random.Random) -> list:
    forms = grid_forms(spec)
    first_call = [0] + sorted(rng.randrange(N_SEED_CALLS) for _ in forms[1:])
    responses = []
    introduced = []
    for call in range(N_CALLS):
        n_lines = rng.randint(3, FUNCTIONS_PER_CALL)
        lines = []
        new = [f for f, k in zip(forms, first_call) if k == call]
        for form in new:
            lines.append(" + ".join(form))
            introduced.append(form)
        while len(lines) < n_lines and introduced:
            lines.append(variant(rng.choice(introduced), rng))
        if call + 1 == oracle_call:
            lines.insert(rng.randrange(min(len(lines) + 1, FUNCTIONS_PER_CALL)), spec.expression)
            del lines[FUNCTIONS_PER_CALL:]
        responses.append("\n".join(signature(i + 1, spec.dim) + t for i, t in enumerate(lines)))
    return responses


def linear_forms(spec, train, rng: random.Random) -> list:
    """SCRAPE_UNIQUE linear-in-coefficient forms, each fitted by least
    squares here and kept only if its NMSE is at least SCRAPE_MIN_NMSE."""
    y = train.y
    # Bases far off the data's scale (exp(x) on x up to 100) are skipped.
    bases = [b for b in (LINEAR_BASES_1D if spec.dim == 1 else LINEAR_BASES_2D)
             if np.nanmax(np.abs(evaluator.evaluate(b, train.X))) <= MAX_BASIS]
    forms = []
    seen = set()
    for _ in range(1000):
        if len(forms) == SCRAPE_UNIQUE:
            return forms
        chosen = tuple(sorted(rng.sample(bases, rng.choice((1, 2)))))
        with_const = rng.random() < 0.5
        if (chosen, with_const) in seen:
            continue
        seen.add((chosen, with_const))
        if spec.dim == 2 and not any("x2" in b for b in chosen):
            continue
        columns = [evaluator.evaluate(b, train.X) for b in chosen]
        if with_const:
            columns.append(np.ones_like(y))
        A = np.column_stack(columns)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        nmse = float(np.sum((y - A @ coef) ** 2) / (np.sum(y ** 2) + 1e-9))
        if nmse >= SCRAPE_MIN_NMSE:
            forms.append(tuple(f"c*{b}" for b in chosen) + (("c",) if with_const else ()))
    raise ValueError(f"{spec.name}: too few linear forms pass the NMSE screen")


def _scrape_variant(form: tuple, rng: random.Random) -> str:
    text = variant(form, rng)
    if rng.random() < 0.3:
        # c*B written as B*c: a reordered product, same skeleton.
        text = " + ".join(
            f"{t[2:]}*{t[:1]}" if t.startswith("c*") else t for t in text.split(" + ")
        )
    return text


def scrape_script(spec, train, rng: random.Random) -> list:
    forms = linear_forms(spec, train, rng)
    errors = PARSE_ERRORS_1D if spec.dim == 1 else PARSE_ERRORS_2D
    responses = []
    for call in range(N_CALLS):
        valid = [" + ".join(f) for f in forms] if call == 0 else []
        while len(valid) < FUNCTIONS_PER_CALL + 1:
            valid.append(_scrape_variant(rng.choice(forms), rng))
        if call == N_CALLS - 1:
            valid.insert(rng.randrange(FUNCTIONS_PER_CALL), spec.expression)
            del valid[FUNCTIONS_PER_CALL + 1:]
        # 6 valid + 2 parse errors fill the extraction limit; the 6th
        # valid line is over the per-call cap, and what follows is past
        # the limit and never extracted.
        bad = rng.sample(errors, 2)
        slots = sorted(rng.sample(range(1, EXTRACT_LIMIT), 2))
        rhs = list(valid)
        for s, b in zip(slots, bad):
            rhs.insert(s, b)
        rhs += [_scrape_variant(rng.choice(forms), rng) for _ in range(rng.randint(1, 2))]
        lines = [rng.choice(INTROS), ""]
        if rng.random() < 0.3:
            lines.append("```")
        for n, text in enumerate(rhs, start=1):
            deco = rng.choice(DECORATIONS)
            lines.append(deco.format(n=n, f=signature(n, spec.dim) + text))
        if lines[2] == "```":
            lines.append("```")
        lines += ["", rng.choice(OUTROS)]
        responses.append("\n".join(lines))
    return responses


def digest(scripts: dict) -> str:
    blob = json.dumps(scripts, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
