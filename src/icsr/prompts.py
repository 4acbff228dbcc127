"""Prompt construction and response scraping.

The three prompt templates live as text assets next to this module and
are instantiated by plain string substitution.  The templates are written
for one variable named x; for two-variable problems a few hard-coded
phrases are minimally rewritten (variable list, indicator examples,
coordinate wording) and everything else is left untouched.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

import numpy as np

from .expr import variable_names

MAX_PROMPT_POINTS = 40
MAX_CANDIDATES_PER_RESPONSE = 8


def variables_list(dimensionality: int) -> str:
    return "[" + ", ".join(variable_names(dimensionality)) + "]"


def select_display_points(X: np.ndarray, y: np.ndarray):
    """Pick the points shown to the model: sort by the first coordinate,
    then thin with a uniform stride when there are more than
    MAX_PROMPT_POINTS."""
    order = np.argsort(X[:, 0], kind="stable")
    Xs, ys = X[order], y[order]
    n = Xs.shape[0]
    if n > MAX_PROMPT_POINTS:
        idx = (np.arange(MAX_PROMPT_POINTS) * n) // MAX_PROMPT_POINTS
        Xs, ys = Xs[idx], ys[idx]
    return Xs, ys


def format_points(X: np.ndarray, y: np.ndarray) -> str:
    """Render points as '(x, y)' or '(x1, x2, y)' tuples, 4 decimal
    places, comma-separated, five tuples per line."""
    rows = ["(" + ", ".join(f"{v:.4f}" for v in (*xs, yv)) + ")" for xs, yv in zip(X, y)]
    return "\n".join(", ".join(rows[i:i + 5]) for i in range(0, len(rows), 5))


def display_points(dataset) -> str:
    """The block of training points every seed and loop prompt shows; a
    run formats it once."""
    return format_points(*select_display_points(dataset.X, dataset.y))


@lru_cache(maxsize=16)
def _frame(name: str, dim: int, points: str = "") -> str:
    """The named template for dim variables: its 1-D phrases rewritten
    (each template holds only some of them), then every slot filled but
    {previous_trajectory}.  A run's loop prompts share one frame: neither
    the points nor a canonical key can hold a brace."""
    text = (resources.files("icsr") / "templates" / f"{name}.txt").read_text(encoding="utf-8")
    if dim > 1:
        args = ", ".join(variable_names(dim))
        for one_d, many in (
            ("- An independent variable symbol: x.", f"- Independent variable symbols: {args}."),
            ("(x, y) coordinates", f"({args}, y) coordinates"),
            ('"f1(x) = ", "f2(x) = "...', f'"f1({args}) = ", "f2({args}) = "...'),
        ):
            text = text.replace(one_d, many)
    for slot, value in (("points", points), ("num_variables", str(dim)),
                        ("variables_list", variables_list(dim))):
        text = text.replace("{" + slot + "}", value)
    return text


def build_seed_prompt(points: str, dim: int) -> str:
    return _frame("seed", dim, points)


def format_trajectory(entries) -> str:
    """One line per previous attempt: Function: <skeleton>, Error: <err>.

    Entries arrive worst-first; errors print at 6 significant digits."""
    lines = [f"Function: {text}, Error: {err:.6g}" for text, err in entries]
    return "\n".join(lines)


def build_loop_prompt(points: str, dim: int, trajectory) -> str:
    """The loop prompt for a trajectory of (skeleton, error) pairs, worst
    error first."""
    if not trajectory:
        raise ValueError("loop prompt needs a non-empty trajectory")
    errs = [err for _, err in trajectory]
    if any(errs[i] < errs[i + 1] for i in range(len(errs) - 1)):
        raise ValueError("trajectory must be ordered worst (highest error) first")
    return _frame("loop", dim, points).replace("{previous_trajectory}",
                                               format_trajectory(trajectory))


def build_random_prompt(num_variables: int) -> str:
    return _frame("random", num_variables)


# Candidate lines look like "f1(x) = <rhs>", possibly wrapped in list
# bullets, numbering, backticks, or a "Function:" prefix.  The digit is
# optional so the random baseline's bare "f(x) = ..." also matches.  The
# rhs runs to the end of the line; extract_candidates trims its tail.
_CANDIDATE_RE = re.compile(
    r"^\s*(?:[-*>•]\s*|\d+[.)]\s*)?`?\s*(?:Function\s*:\s*)?"
    r"f\d*\s*\([^)]*\)\s*=\s*(?P<rhs>.+)",
    re.IGNORECASE,
)


def extract_candidates(response_text: str) -> list[str]:
    """Scrape candidate right-hand sides from a model response, in
    response order, at most MAX_CANDIDATES_PER_RESPONSE of them.  No
    parsing happens here; syntax errors surface downstream."""
    out = []
    for line in response_text.splitlines():
        m = _CANDIDATE_RE.match(line)
        if m:
            # less its trailing whitespace and one closing backtick
            rhs = m.group("rhs").rstrip().removesuffix("`").strip().rstrip("`").strip()
            rhs = rhs.rstrip(",;")
            if rhs:
                out.append(rhs)
                if len(out) >= MAX_CANDIDATES_PER_RESPONSE:
                    break
    return out
