import re
from importlib import resources

import numpy as np
import pytest

from icsr.dataset import Dataset
from icsr.prompts import (
    MAX_CANDIDATES_PER_RESPONSE,
    MAX_PROMPT_POINTS,
    build_loop_prompt,
    build_random_prompt,
    build_seed_prompt,
    display_points,
    extract_candidates,
    format_points,
    format_trajectory,
    select_display_points,
    variables_list,
)

# Golden copies of the three instruction templates.  The texts are part of
# the method, so any drift in the packaged assets is an error, down to
# punctuation and blank lines.

SEED_TEMPLATE = """I want you to act as a mathematical function generator.
Given a set of points below, you are to come up with 5 potential functions that would fit the points. Don't worry too much about accuracy: your task is to generate a set of functions that are as diverse as possible, so that they can serve as starting points for further optimization.

To generate the functions, you will start from a set of basic operators and expressions, and combine them into something more complex.

Your options are:

- An independent variable symbol: x.

- A coefficient symbol: c (there is no need to write a number - write this generic coefficient instead).

- Basic operators: +, -, *, /, ^, sqrt, exp, log, abs

- Trigonometric expressions: sin, cos, tan, sinh, cosh, tanh


Make sure there are no numbers in the functions, use the coefficient token 'c' instead.
Analyze the points carefully: if there are any negative points in the input, sqrt and log can not be used unless the input is combined with abs.

The functions should all begin with the indicators "f1(x) = ", "f2(x) = "...
Your task is to combine an arbitrary number of these basic blocks to create a complex expression. Don't be afraid to be creative and experiment! The functions should be as complex as possible, combining many different operations. Variety is key!

Points: {points}

Functions:
"""

LOOP_TEMPLATE = """I want you to act as a mathematical function generator.
You are given a set of points with (x, y) coordinates below:

{points}

Below are some previous functions and the error they make on the points above. The errors are arranged in order of their fit values, with the highest values coming first, and lower is better.

Your task is to give me a list of five new potential functions that are different from all the ones reported below, and have a lower error value than all of the functions below. Only output the new functions and nothing else.

Remember that the functions you generate should always have at most {num_variables} variables {variables_list}.

The functions should have parametric form, using 'c' in place of any constant or coefficient. The coefficients will be optimized to fit the data. Make absolutely sure that the functions you generate are completely different from the ones already given to you.

The functions should all begin with the indicators "f1(x) = ", "f2(x) = "...

Remember that you can combine the simple building blocks (operations, constants, variables) in any way you want to generate more complex functions. Don't be afraid to experiment!

{previous_trajectory}
"""

RANDOM_TEMPLATE = """Generate five random functions of the form Function: f(x). The functions you generate should always have at most {num_variables} variables {variables_list}.
Only output the functions and nothing else.
"""


@pytest.mark.parametrize("name,expected", [
    ("seed", SEED_TEMPLATE),
    ("loop", LOOP_TEMPLATE),
    ("random", RANDOM_TEMPLATE),
])
def test_template_assets_match_golden_copies(name, expected):
    text = (resources.files("icsr") / "templates" / f"{name}.txt").read_text(
        encoding="utf-8"
    )
    assert text == expected


def _points(n=20, dim=1, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (n, dim))
    return display_points(Dataset(X, X[:, 0] ** 2))


# ---------------------------------------------------------------------------
# Point display
# ---------------------------------------------------------------------------

def test_select_display_points_caps_at_forty():
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    y = np.zeros(100)
    xs, ys = select_display_points(X, y)
    assert xs.shape == (40, 1)
    assert ys.shape == (40,)
    assert MAX_PROMPT_POINTS == 40


def test_select_display_points_keeps_small_sets_sorted():
    X = np.array([[3.0], [1.0], [2.0]])
    y = np.array([30.0, 10.0, 20.0])
    xs, ys = select_display_points(X, y)
    assert xs[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert ys.tolist() == [10.0, 20.0, 30.0]


def test_select_display_points_stride_is_deterministic_and_monotone():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (257, 1))
    y = rng.uniform(-1, 1, 257)
    xs1, _ = select_display_points(X, y)
    xs2, _ = select_display_points(X, y)
    np.testing.assert_array_equal(xs1, xs2)
    assert np.all(np.diff(xs1[:, 0]) >= 0)
    # endpoints of the sorted sample are included
    assert xs1[0, 0] == X[:, 0].min()


def test_format_points_four_decimals_five_per_line():
    X = np.linspace(0, 1.1, 12).reshape(-1, 1)
    y = np.linspace(0, 11, 12)
    block = format_points(X, y)
    lines = block.split("\n")
    assert len(lines) == 3
    assert lines[0].count("(") == 5
    assert lines[2].count("(") == 2
    assert "(0.0000, 0.0000)" in lines[0]
    assert "(1.1000, 11.0000)" in lines[2]
    # every number carries exactly 4 decimals
    for num in re.findall(r"-?\d+\.(\d+)", block):
        assert len(num) == 4


def test_format_points_two_dimensional_triples():
    X = np.array([[0.5, 1.5], [0.25, -0.75]])
    y = np.array([2.0, 3.0])
    block = format_points(X, y)
    assert "(0.5000, 1.5000, 2.0000)" in block
    assert "(0.2500, -0.7500, 3.0000)" in block


def test_variables_list_rendering():
    assert variables_list(1) == "[x]"
    assert variables_list(2) == "[x1, x2]"


# ---------------------------------------------------------------------------
# Seed prompt
# ---------------------------------------------------------------------------

def test_seed_prompt_instantiates_template():
    prompt = build_seed_prompt(_points(n=20), 1)
    assert "{points}" not in prompt
    assert prompt.count("(") >= 20
    assert "- Basic operators: +, -, *, /, ^, sqrt, exp, log, abs" in prompt
    assert '"f1(x) = ", "f2(x) = "...' in prompt
    assert prompt.startswith("I want you to act as a mathematical function generator.")


def test_seed_prompt_displays_at_most_forty_points():
    prompt = build_seed_prompt(_points(n=100), 1)
    tuples = re.findall(r"\(-?\d+\.\d{4}, -?\d+\.\d{4}\)", prompt)
    assert len(tuples) == 40


def test_seed_prompt_two_variable_adaptation():
    prompt = build_seed_prompt(_points(n=10, dim=2), 2)
    assert "- Independent variable symbols: x1, x2." in prompt
    assert "- An independent variable symbol: x." not in prompt
    assert '"f1(x1, x2) = ", "f2(x1, x2) = "...' in prompt
    triples = re.findall(r"\(-?\d+\.\d{4}, -?\d+\.\d{4}, -?\d+\.\d{4}\)", prompt)
    assert len(triples) == 10


# ---------------------------------------------------------------------------
# Loop prompt
# ---------------------------------------------------------------------------

def test_trajectory_block_worst_first():
    traj = [("c*x + c", 0.99), ("c*sin(x)", 0.98), ("c*x^c", 0.95)]
    block = format_trajectory(traj)
    lines = block.split("\n")
    assert lines[0] == "Function: c*x + c, Error: 0.99"
    assert lines[1] == "Function: c*sin(x), Error: 0.98"
    assert lines[2] == "Function: c*x^c, Error: 0.95"


def test_trajectory_error_six_significant_digits():
    block = format_trajectory([("c*x", 0.98193825517)])
    assert "Error: 0.981938" in block


def test_loop_prompt_instantiates_all_placeholders():
    traj = [("c*x + c", 0.99), ("c*sin(x)", 0.98)]
    prompt = build_loop_prompt(_points(n=15), 1, traj)
    for placeholder in ("{points}", "{num_variables}", "{variables_list}",
                        "{previous_trajectory}"):
        assert placeholder not in prompt
    assert "at most 1 variables [x]" in prompt
    assert "Function: c*x + c, Error: 0.99" in prompt
    assert prompt.index("c*x + c") < prompt.index("c*sin(x)")


def test_loop_prompt_requires_trajectory():
    with pytest.raises(ValueError):
        build_loop_prompt(_points(n=10), 1, [])


def test_loop_prompt_rejects_misordered_trajectory():
    traj = [("c*x", 0.5), ("c*sin(x)", 0.9)]
    with pytest.raises(ValueError):
        build_loop_prompt(_points(n=10), 1, traj)


def test_loop_prompt_two_variable_adaptation():
    traj = [("c*x1 + c*x2", 0.7)]
    prompt = build_loop_prompt(_points(n=10, dim=2), 2, traj)
    assert "at most 2 variables [x1, x2]" in prompt
    assert "(x1, x2, y) coordinates" in prompt


# ---------------------------------------------------------------------------
# Random prompt
# ---------------------------------------------------------------------------

def test_random_prompt_one_variable():
    prompt = build_random_prompt(1)
    assert "at most 1 variables [x]" in prompt
    assert "Only output the functions and nothing else." in prompt
    assert not re.search(r"\d+\.\d{4}", prompt)


def test_random_prompt_two_variables():
    assert "at most 2 variables [x1, x2]" in build_random_prompt(2)


# ---------------------------------------------------------------------------
# Candidate extraction
# ---------------------------------------------------------------------------

def test_extract_plain_indicators():
    text = "f1(x) = c*x\nf2(x) = c*sin(x)"
    assert extract_candidates(text) == ["c*x", "c*sin(x)"]


def test_extract_tolerates_bullets_and_prose():
    text = "Here are functions:\n- f1(x) = c+x\n* f2(x) = c*x^c\n3. f3(x) = exp(c*x)"
    assert extract_candidates(text) == ["c+x", "c*x^c", "exp(c*x)"]


def test_extract_tolerates_function_prefix_and_backticks():
    text = "Function: f1(x) = c*tanh(x)\n`f2(x) = c/x`"
    assert extract_candidates(text) == ["c*tanh(x)", "c/x"]


def test_extract_unnumbered_indicator():
    assert extract_candidates("f(x) = c*x + c") == ["c*x + c"]


def test_extract_two_variable_indicators():
    text = "f1(x1, x2) = c*x1*x2\nf2(x1,x2) = c*(x1 + x2)"
    assert extract_candidates(text) == ["c*x1*x2", "c*(x1 + x2)"]


def test_extract_ignores_prose_without_indicators():
    assert extract_candidates("No functions here, sorry.") == []
    assert extract_candidates("") == []


def test_extract_caps_per_response():
    text = "\n".join(f"f{i}(x) = c*x^{i}" for i in range(1, 20))
    got = extract_candidates(text)
    assert len(got) == MAX_CANDIDATES_PER_RESPONSE == 8
    assert got[0] == "c*x^1"
    assert got[-1] == "c*x^8"


def test_extract_strips_trailing_punctuation():
    text = "f1(x) = c*x,\nf2(x) = c*sin(x);"
    assert extract_candidates(text) == ["c*x", "c*sin(x)"]


def test_extract_is_pure_and_order_preserving():
    text = "f1(x) = c*x\nf2(x) = c - x\nf3(x) = x^c"
    first = extract_candidates(text)
    second = extract_candidates(text)
    assert first == second == ["c*x", "c - x", "x^c"]
    rewrapped = "\n".join(f"f{i+1}(x) = {rhs}" for i, rhs in enumerate(first))
    assert extract_candidates(rewrapped) == first
