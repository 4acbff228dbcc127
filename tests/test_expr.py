import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

import icsr.engine
import icsr.expr
from icsr.expr import (
    BINARY_OPS,
    MAX_TOKENS,
    UNARY_OPS,
    ParseError,
    bin_,
    canonicalize,
    coef,
    complexity,
    evaluate_batch,
    lit,
    lower,
    parse,
    render,
    un_,
    var,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_placeholder_and_nodes():
    tree = parse("c*sin(x) + c", 1)
    assert complexity(tree) == 6
    assert lower(tree).num_coefficients == 2


def test_parse_polynomial_node_count():
    assert complexity(parse("x^3 + x^2 + x", 1)) == 9


def test_parse_power_right_associative():
    tree = parse("x^x^x", 1)
    assert tree.op == "^"
    assert tree.args[1].op == "^"
    grouped = parse("(x^x)^x", 1)
    assert grouped.args[0].op == "^"


def test_parse_double_star_alias():
    assert render(parse("x**2", 1)) == render(parse("x^2", 1))


def test_parse_unary_minus_precedence():
    # -x^2 is -(x^2), not (-x)^2
    tree = parse("-x^2", 1)
    assert tree.kind == "un" and tree.op == "neg"
    assert tree.args[0].op == "^"


def test_parse_two_variables():
    tree = parse("x1*x2 + sin((x1 - 1)*(x2 - 1))", 2)
    assert complexity(tree) == 12
    with pytest.raises(ParseError):
        parse("x2 + c", 1)


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ParseError):
        parse("foo(x)", 1)
    with pytest.raises(ParseError):
        parse("y + 1", 1)


def test_parse_rejects_malformed():
    for bad in ["", "x +", "sin(x", "c c", "x..2", "(x))", "*x"]:
        with pytest.raises(ParseError):
            parse(bad, 1)


def test_parse_caps_nesting_depth():
    # 200 nested parentheses fit in one model reply; they must come back
    # as a ParseError, not a RecursionError
    for deep in ["(" * 200 + "x" + ")" * 200,
                 "sin(" * 200 + "x" + ")" * 200,
                 "-" * 2000 + "x",
                 "x^" * 1000 + "x"]:
        with pytest.raises(ParseError, match="nested"):
            parse(deep, 1)
    assert complexity(parse("(" * 40 + "x" + ")" * 40, 1)) == 1
    assert complexity(parse("sin(" * 40 + "x" + ")" * 40, 1)) == 41


def test_parse_caps_token_count():
    # 600 summed terms fit in one reply, and their tree is deep enough to
    # overflow the interpreter stack in canonicalize
    for long in ["+".join(["x*c"] * 600), "+".join(["c"] * (MAX_TOKENS // 2 + 1))]:
        with pytest.raises(ParseError, match=f"more than {MAX_TOKENS} tokens"):
            parse(long, 1)


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
@pytest.mark.parametrize("term", ["c", "x"])
def test_lines_at_the_token_cap_canonicalize(op, term):
    # the deepest trees the cap admits: one level per binary operator
    terms = (MAX_TOKENS + 1) // 2
    assert MAX_TOKENS - 1 <= 2 * terms - 1 <= MAX_TOKENS
    line = op.join([term] * terms)
    sk = canonicalize(parse(line, 1), 1)
    assert len(sk.hints) == sk.num_slots
    render(sk.expr, [1.0] * sk.num_slots)
    evaluate_batch(sk.expr, np.ones(sk.num_slots), np.ones((2, 1)))


def test_parse_scientific_literals():
    tree = parse("1e-3*x + 2.5E2", 1)
    vals = evaluate_batch(tree, [], np.array([[1.0]]))
    assert vals[0] == pytest.approx(0.001 + 250.0)


# The tokenizer as a loop that matches one token at a time, which the
# one-scan tokenizer and splitter replaced.
_PER_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<pow>\*\*|\^)
  | (?P<op>[+\-*/])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<ws>\s+)
""", re.VERBOSE)


def _per_token_tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _PER_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        if m.lastgroup != "ws":
            tokens.append(("op", "^") if m.lastgroup == "pow" else (m.lastgroup, m.group()))
        pos = m.end()
    return tokens


def _per_token_split(text):
    tokens = _per_token_tokenize(text)
    values = tuple(float(v) if k == "num" else math.nan
                   for k, v in tokens if k == "num" or v == "c")
    return " ".join("c" if k == "num" else v for k, v in tokens), values


def _outcome(f, text):
    try:
        return f(text)
    except ParseError as exc:
        return "ParseError: " + str(exc)


_SPLIT_PIECES = st.sampled_from([
    "0", "7", "42", ".", "e", "E", "e-", "E+", "**", "* *", "^", "*", "/", "+", "-", "(", ")",
    "c", "x", "x1", "x_2", "sin", "cOs", "_k", "c2", "xe5",
    " ", "\t", "\u00a0", "\u2003", "\u3000", "\x1c",
    "1e", ".5", "5.", "1e999", "x.", "ln(", "$", ",", "=", "\u00e9", "\u00b2", "\u0663",
])


@settings(max_examples=500, deadline=None)
@given(st.lists(_SPLIT_PIECES, max_size=16).map("".join))
def test_property_one_scan_splits_as_the_per_token_loop(text):
    def split(f):
        got = _outcome(f, text)
        return got if isinstance(got, str) else (got[0], [v.hex() for v in got[1]])

    assert split(icsr.expr.split_literals) == split(_per_token_split)
    assert _outcome(icsr.expr._tokenize, text) == _outcome(_per_token_tokenize, text)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_undefined_points_are_nan():
    out = evaluate_batch(parse("log(x)", 1), [], np.array([[1.0], [0.0], [-2.0]]))
    assert out[0] == 0.0
    assert math.isnan(out[1]) and math.isnan(out[2])


def test_evaluate_division_by_zero():
    out = evaluate_batch(parse("1/x", 1), [], np.array([[0.0], [2.0]]))
    assert math.isnan(out[0])
    assert out[1] == 0.5


def test_evaluate_nan_does_not_launder_through_power():
    out = evaluate_batch(parse("log(x)^0", 1), [], np.array([[-1.0]]))
    assert math.isnan(out[0])


def test_evaluate_overflow_is_undefined():
    out = evaluate_batch(parse("exp(x)", 1), [], np.array([[1000.0]]))
    assert math.isnan(out[0])


def test_evaluate_negative_base_fractional_power():
    out = evaluate_batch(parse("x^c", 1), [0.5], np.array([[-1.0], [4.0]]))
    assert math.isnan(out[0])
    assert out[1] == pytest.approx(2.0)


def test_evaluate_erf():
    from scipy.special import erf
    out = evaluate_batch(parse("erf(x)", 1), [], np.array([[0.3], [-1.2]]))
    assert out[0] == pytest.approx(erf(0.3))
    assert out[1] == pytest.approx(erf(-1.2))


def test_the_package_root_loads_no_submodule_and_not_numpy(fresh_python):
    out = fresh_python("import icsr\n"
                       "print([m for m in sys.modules if m == 'numpy' or m.startswith('icsr.')])\n")
    assert out == "[]\n"


def test_import_loads_neither_scipy_nor_requests_until_erf(fresh_python):
    # a fresh interpreter: this module imports scipy.special itself
    out = fresh_python(
        "import icsr, icsr.cli\n"
        "print(heavy())\n"
        "from icsr.expr import evaluate_batch, parse\n"
        "evaluate_batch(parse('c*sin(x) + c', 1), [1.0, 2.0], [[0.5]])\n"
        "print(heavy())\n"
        "evaluate_batch(parse('erf(x)', 1), [], [[0.5]])\n"
        "print(heavy())\n"
    )
    assert out.splitlines() == ["[]", "[]", "['scipy']"]


def test_evaluate_coefficients_and_variables():
    tree = parse("c*x1 + c*x2", 2)
    out = evaluate_batch(tree, [2.0, 3.0], np.array([[1.0, 1.0], [0.5, 2.0]]))
    assert out[0] == pytest.approx(5.0)
    assert out[1] == pytest.approx(7.0)


def test_evaluate_scalar_helper():
    assert evaluate_batch(parse("x + c", 1), [1.5], [[2.0]])[0] == pytest.approx(3.5)


def test_evaluate_checks_coefficient_arity():
    with pytest.raises(ValueError):
        evaluate_batch(parse("c*x + c", 1), [1.0], np.array([[1.0]]))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "x*(x + 1)/2",
    "(x + 1)^3/(x^2 - x + 1)",
    "x - (x - x)",
    "x/(x*x)",
    "-(x + x)",
    "-x^2",
    "(-x)^2",
    "x^(-c)",
    "c*x^c",
    "x^x^x",
    "(x^x)^x",
    "sin(x + x^2)",
    "8/(2 + x1^2 + x2^2)",
])
def test_render_round_trip_is_stable(text):
    dim = 2 if "x1" in text or "x2" in text else 1
    tree = parse(text, dim)
    rendered = render(tree, dimensionality=dim)
    again = parse(rendered, dim)
    assert render(again, dimensionality=dim) == rendered
    # and the two trees agree numerically
    pts = np.linspace(0.3, 1.7, 7).reshape(-1, 1)
    if dim == 2:
        pts = np.column_stack([pts[:, 0], pts[:, 0] + 0.25])
    m = lower(tree).num_coefficients
    coeffs = np.linspace(0.5, 1.5, m) if m else []
    a = evaluate_batch(tree, coeffs, pts)
    b = evaluate_batch(again, coeffs, pts)
    np.testing.assert_allclose(a, b, rtol=1e-12, equal_nan=True)


def test_render_substitutes_coefficients():
    tree = parse("c*x + c", 1)
    assert render(tree, [1.5, -2.0]) == "1.5*x + -2"
    assert render(tree, [0.3, 0.25]) == "0.3*x + 0.25"


def test_evaluate_batch_coefficient_matrix_shapes():
    tree = parse("c*x + c", 1)
    X = np.array([[1.0], [2.0], [3.0]])
    assert evaluate_batch(tree, [2.0, 1.0], X).shape == (3,)
    out = evaluate_batch(tree, [[2.0, 1.0], [0.0, 5.0]], X)
    assert out.shape == (2, 3)
    np.testing.assert_array_equal(out, [[3.0, 5.0, 7.0], [5.0, 5.0, 5.0]])
    assert evaluate_batch(tree, [[2.0, 1.0]], X).shape == (1, 3)
    with pytest.raises(ValueError):
        evaluate_batch(tree, [[1.0], [2.0]], X)


def test_render_negative_coefficient_reparses_to_same_value():
    tree = parse("c*x", 1)
    assert render(tree, [-2.0]) == "-2*x"
    reparsed = parse(render(tree, [-2.0]), 1)
    out = evaluate_batch(reparsed, [], np.array([[3.0]]))
    assert out[0] == pytest.approx(-6.0)


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b", [
    ("c + c*x", "c*x + c"),
    ("2.5*x", "c*x"),
    ("c*c*x", "c*x"),
    ("-c", "c"),
    ("sqrt(c)", "c"),
    ("c^c", "c"),
    ("(c + c)*x", "c*x"),
    ("x*c", "c*x"),
    ("sin(x)*c + cos(x)*c", "c*cos(x) + c*sin(x)"),
    ("1.7*exp(0.3*x)", "c*exp(c*x)"),
])
def test_canonical_keys_identify_equivalent_forms(a, b):
    assert canonicalize(parse(a, 1)).key == canonicalize(parse(b, 1)).key


@pytest.mark.parametrize("a,b", [
    ("c - c*x", "c + c*x"),
    ("c/x", "c*x"),
    ("x^c", "c^x"),
    ("sin(x)", "cos(x)"),
])
def test_canonical_keys_separate_distinct_forms(a, b):
    assert canonicalize(parse(a, 1)).key != canonicalize(parse(b, 1)).key


def test_canonicalize_literal_hints_preserved():
    sk = canonicalize(parse("2.5*x + 1.25", 1))
    assert sk.key == "c + c*x"
    assert sk.hints == (1.25, 2.5)


def test_canonicalize_computes_hints_on_first_read(monkeypatch):
    calls = []
    real = icsr.expr.evaluate_batch

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(icsr.expr, "evaluate_batch", counting)
    sk = canonicalize(parse("2.5*x + 1.25 + (c + 3)*sin(x)", 1))
    assert sk.key == "c + c*sin(x) + c*x"
    assert calls == []
    assert sk.hints == (1.25, None, 2.5)
    assert len(calls) == 1  # (c + 3)'s: a bare placeholder's value is read directly
    assert sk.hints == (1.25, None, 2.5)
    assert len(calls) == 1


def test_canonicalize_folds_constant_arithmetic_into_hint():
    sk = canonicalize(parse("(2 + 3)*x", 1))
    assert sk.key == "c*x"
    assert sk.hints == (5.0,)


def test_canonicalize_mixed_literal_and_placeholder_has_no_hint():
    sk = canonicalize(parse("(c + 3)*x", 1))
    assert sk.key == "c*x"
    assert sk.hints == (None,)


def test_canonicalize_slot_count():
    sk = canonicalize(parse("c*sin(c*x) + c", 1))
    assert sk.num_slots == 3
    assert sk.key == "c + c*sin(c*x)"


def test_canonicalize_key_uses_the_dataset_variable_names():
    # a 2-D skeleton that only uses x1 must still say x1, or the key no
    # longer parses at the dataset's dimensionality
    sk = canonicalize(parse("c*sin(x1) + c", 2), 2)
    assert sk.key == "c + c*sin(x1)"
    assert canonicalize(parse(sk.key, 2), 2).key == sk.key
    assert canonicalize(parse("c*sin(x) + c", 1), 1).key == "c + c*sin(x)"


def test_hints_track_reordering():
    # original: c0*x + c1 -> canonical: c + c*x with slot0 from c1, slot1 from c0
    sk = canonicalize(parse("c*x + c", 1))
    assert len(sk.values) == 2 and all(map(math.isnan, sk.values))
    assert replace(sk, values=(3.0, 4.0)).hints == (4.0, 3.0)


def test_hints_of_merged_slots():
    sk = canonicalize(parse("c*c*x", 1))
    assert replace(sk, values=(3.0, 4.0)).hints == (12.0,)
    assert replace(sk, values=(3.0, math.nan)).hints == (None,)


def test_canonicalize_skeleton_key_reparses_to_same_key():
    for text in ["c*x + c", "sin(c*x)*c", "c/(c + x^c)", "c*x1 + c*x2^c"]:
        dim = 2 if "x1" in text or "x2" in text else 1
        sk = canonicalize(parse(text, dim), dim)
        again = canonicalize(parse(sk.key, dim), dim)
        assert again.key == sk.key


def test_a_key_over_the_memo_text_bound_is_parsed_but_not_kept():
    short = canonicalize(parse("x*c", 1), 1)
    tree = parse("c*" + "*".join(["x"] * 130), 1)
    long = canonicalize(tree, 1)
    assert len(long.key) > icsr.engine.MEMO_TEXT
    assert long.expr == parse(long.key, 1)
    assert canonicalize(tree, 1) == long
    assert canonicalize(parse("c*x", 1), 1) == short


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_PLANTED_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_planted(n):
    assert n < 10
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # under the repo's filterwarnings = error, a warning raised while
    # hypothesis reports a failure must not end the session instead
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "test_planted.py").write_text(_PLANTED_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path), "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed" in proc.stdout


def _exprs():
    leaves = st.one_of(
        st.just(var(0)),
        st.just(coef(0)),
        st.floats(min_value=0.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False).map(lit),
    )

    def extend(children):
        unary = st.builds(un_, st.sampled_from(UNARY_OPS), children)
        binary = st.builds(bin_, st.sampled_from(BINARY_OPS), children, children)
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(_exprs(), st.integers(0, 2**32 - 1))
def test_property_render_parse_round_trip(tree, seed):
    normalized = parse(render(tree), 1)
    rendered = render(normalized)
    assert render(parse(rendered, 1)) == rendered
    rng = np.random.default_rng(seed)
    m = lower(normalized).num_coefficients
    coeffs = rng.uniform(-3, 3, m)
    X = rng.uniform(-2, 2, (6, 1))
    a = evaluate_batch(normalized, coeffs, X)
    b = evaluate_batch(parse(rendered, 1), coeffs, X)
    np.testing.assert_allclose(a, b, rtol=1e-12, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(_exprs(), st.integers(0, 2**32 - 1))
def test_property_evaluate_total(tree, seed):
    rng = np.random.default_rng(seed)
    m = lower(tree).num_coefficients
    # leave indices untouched: evaluate only needs enough coefficients
    coeffs = rng.uniform(-5, 5, m + 1)
    X = rng.uniform(-5, 5, (8, 1))
    out = evaluate_batch(tree, coeffs, X)
    assert out.shape == (8,)
    assert np.all(np.isfinite(out) | np.isnan(out))


@settings(max_examples=300, deadline=None)
@given(_exprs(), st.data())
def test_property_a_hint_is_its_origin_evaluated(tree, data):
    # bare placeholders take the fast path, compound origins evaluate_batch;
    # every float may be a value, NaN and the infinities included
    sk = canonicalize(parse(render(tree), 1))
    values = tuple(data.draw(st.lists(st.floats(), min_size=len(sk.values),
                                      max_size=len(sk.values))))
    hints = replace(sk, values=values).hints
    for origin, hint in zip(sk.origins, hints):
        value = float(evaluate_batch(origin, values, np.zeros((1, 1)))[0])
        assert (None if not math.isfinite(value) else value.hex()) == (
            None if hint is None else hint.hex()), origin.kind


@settings(max_examples=200, deadline=None)
@given(_exprs(), st.integers(0, 2**32 - 1))
def test_property_canonicalization_preserves_semantics(tree, seed):
    normalized = parse(render(tree), 1)
    sk = canonicalize(normalized)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-3, 3, lower(normalized).num_coefficients)
    mapped = [math.nan if h is None else h for h in replace(sk, values=tuple(coeffs)).hints]
    X = rng.uniform(-2, 2, (8, 1))
    a = evaluate_batch(normalized, coeffs, X)
    b = evaluate_batch(sk.expr, mapped, X)
    # compare where both sides are defined and of moderate size; reordering a
    # sum or product legitimately perturbs the last bits, which blows up under
    # catastrophic cancellation of astronomically large intermediates
    both = np.isfinite(a) & np.isfinite(b) & (np.abs(a) < 1e12)
    if both.sum() >= 2:
        np.testing.assert_allclose(a[both], b[both], rtol=1e-6, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(_exprs(), st.sampled_from([1, 2]))
def test_property_skeleton_tree_is_its_key_parsed_back(tree, dim):
    sk = canonicalize(tree, dim)
    assert render(sk.expr, None, dim) == sk.key
    assert canonicalize(sk.expr, dim).key == sk.key
    assert lower(sk.expr).num_coefficients == sk.num_slots


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_property_canonical_order_ignores_variable_names(tree):
    # operands sort by their text under the key's own names; x and x1 must
    # give the same order
    one_d = canonicalize(tree, 1).key
    assert canonicalize(tree, 2).key == re.sub(r"\bx\b", "x1", one_d)


@settings(max_examples=100, deadline=None)
@given(_exprs())
def test_property_complexity_counts_every_node(tree):
    def count(e):
        return 1 + sum(count(a) for a in e.args)
    assert complexity(tree) == count(tree)


def _multi_coef_exprs():
    leaves = st.one_of(
        st.sampled_from([var(0), var(1), coef(0), coef(1), coef(2)]),
        st.floats(min_value=-4.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False).map(lit),
    )

    def extend(children):
        unary = st.builds(un_, st.sampled_from(UNARY_OPS), children)
        binary = st.builds(bin_, st.sampled_from(BINARY_OPS), children, children)
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=12)


_SPECIAL_ROWS = np.array([
    [np.nan, 1.0, 2.0],
    [0.0, np.nan, np.nan],
    [np.inf, -np.inf, 0.0],
    [1000.0, -1000.0, 0.0],
])


def _assert_rows_match_single_calls(tree, C, X):
    batch = evaluate_batch(tree, C, X)
    single = np.stack([evaluate_batch(tree, row, X) for row in C])
    assert batch.shape == single.shape == (C.shape[0], X.shape[0])
    assert batch.tobytes() == single.tobytes()


@settings(max_examples=300, deadline=None)
@given(_multi_coef_exprs(), st.integers(1, 40), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_property_batch_rows_equal_single_vectors_bit_for_bit(tree, n, k, seed):
    rng = np.random.default_rng(seed)
    C = np.vstack([rng.uniform(-5, 5, (k, 3)), _SPECIAL_ROWS])
    X = rng.uniform(-5, 5, (n, 2))
    _assert_rows_match_single_calls(tree, C, X)


@pytest.mark.parametrize("text", ["c^x", "x^c", "1/exp(c*x)", "c/x", "(x - c)^0"])
def test_batch_rows_keep_nan_from_laundering(text):
    # nan^0 and 1/inf stay NaN in every row, exactly as in a lone call
    tree = parse(text, 1)
    X = np.array([[0.0], [1.0], [-2.0], [1000.0], [np.nan]])
    C = np.array([[0.0], [np.nan], [np.inf], [800.0], [-3.5]])
    _assert_rows_match_single_calls(tree, C, X)
    assert np.isnan(evaluate_batch(tree, C, X)[1]).all()


# ---------------------------------------------------------------------------
# Lowered plans against the recursive tree walker they replaced
# ---------------------------------------------------------------------------

_REFERENCE_UNARY = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "erf": scipy.special.erf, "neg": np.negative,
}
_REFERENCE_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply,
                     "/": np.divide, "^": np.power}


def _reference_sanitize(values, *children):
    bad = ~np.isfinite(values)
    for child in children:
        bad |= np.isnan(child)
    return np.where(bad, np.nan, values) if bad.any() else values


def _reference_evaluate(expr, coefficients, X):
    """The walker evaluate_batch used before plans: every intermediate is
    a fresh C-contiguous (k, n) array, and every node's result is NaN
    wherever it is not finite or any input is NaN."""
    X = np.asarray(X, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    rows = np.atleast_2d(coefficients)
    k, n = rows.shape[0], X.shape[0]

    def rec(e):
        if e.kind == "lit":
            return np.full((k, n), e.value, dtype=float)
        if e.kind == "coef":
            return np.repeat(rows[:, e.index:e.index + 1], n, axis=1)
        if e.kind == "var":
            return np.tile(X[:, e.index], (k, 1))
        args = [rec(a) for a in e.args]
        table = _REFERENCE_UNARY if e.kind == "un" else _REFERENCE_BINARY
        return _reference_sanitize(np.asarray(table[e.op](*args), dtype=float), *args)

    with np.errstate(all="ignore"):
        result = _reference_sanitize(rec(expr))
    return result if coefficients.ndim == 2 else result[0]


def _assert_plan_matches_reference(tree, C, X):
    expected = _reference_evaluate(tree, C, X)
    for form in (tree, lower(tree)):
        got = evaluate_batch(form, C, X)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        # the tangent pass computes its values by the same ops
        values, partials = evaluate_batch(form, C, X, jacobian=True)
        assert values.tobytes() == expected.tobytes()
        assert partials.shape == expected.shape[:-1] + (np.shape(C)[-1], expected.shape[-1])


_ERF_X = np.array([[0.0], [0.3], [-1.2], [5.5], [1e-300], [1e301], [-1e308],
                   [np.inf], [-np.inf], [np.nan]])
_ERF_C = np.array([[1.0, 2.0, -0.5], [-3.0, 1e-3, 7.0], [0.5, 1e300, np.inf]])


def test_erf_is_scipy_erf_bit_for_bit():
    # erf loads scipy.special on first use; it must still be scipy's own
    # ufunc applied to the same contiguous (k, n) input
    got = evaluate_batch(lower(parse("erf(x)", 1)), _ERF_C, _ERF_X)
    expected = scipy.special.erf(np.tile(_ERF_X[:, 0], (len(_ERF_C), 1)))
    assert got.tobytes() == expected.tobytes()
    tree = parse("c*erf(c*x + c)", 1)
    _assert_plan_matches_reference(tree, _ERF_C, _ERF_X)
    assert np.isfinite(evaluate_batch(tree, _ERF_C, _ERF_X)).sum() > len(_ERF_X)


def _special_exprs():
    leaves = st.one_of(
        st.sampled_from([var(0), var(1), coef(0), coef(1), coef(2),
                         lit(float("1e999")), lit(0.0), lit(2.0), lit(-1.0)]),
        st.floats(min_value=-4.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False).map(lit),
    )

    def extend(children):
        unary = st.builds(un_, st.sampled_from(UNARY_OPS), children)
        binary = st.builds(bin_, st.sampled_from(BINARY_OPS), children, children)
        power = st.builds(lambda a, b: bin_("^", a, b), children, children)
        return st.one_of(unary, binary, power)

    return st.recursive(leaves, extend, max_leaves=12)


_SPECIAL_X = np.array([[np.nan, 1.0], [0.0, np.nan], [-2.0, 0.5], [1000.0, -1000.0]])


@settings(max_examples=400, deadline=None)
@given(_special_exprs(), st.integers(1, 30), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_property_plan_matches_reference_walker_bit_for_bit(tree, n, k, seed):
    rng = np.random.default_rng(seed)
    C = np.vstack([rng.uniform(-5, 5, (k, 3)), _SPECIAL_ROWS])
    X = np.vstack([rng.uniform(-5, 5, (n, 2)), _SPECIAL_X])
    _assert_plan_matches_reference(tree, C, X)
    _assert_plan_matches_reference(tree, C[0], X)
    _assert_plan_matches_reference(tree, C, X[:1])


@settings(max_examples=400, deadline=None)
@given(_special_exprs(), st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(un_("exp", un_("log", var(0))), 1, 1, 0)  # exp(log(0)) is exp(-inf), 0
@example(un_("tanh", un_("log", var(0))), 1, 1, 0)
@example(un_("erf", un_("log", var(0))), 1, 1, 0)
def test_property_a_finite_step_after_every_op_changes_nothing_defined(tree, n, k, seed):
    # only the ops in _LAUNDERS get their op inputs made NaN wherever not
    # finite; doing it for every op gives the same values everywhere and
    # the same partials wherever the value is defined
    rng = np.random.default_rng(seed)
    C = np.vstack([rng.uniform(-5, 5, (k, 3)), _SPECIAL_ROWS])
    X = np.vstack([rng.uniform(-5, 5, (n, 2)), _SPECIAL_X])
    values, partials = evaluate_batch(tree, C, X, jacobian=True)
    with mock.patch.object(icsr.expr, "_LAUNDERS", frozenset(BINARY_OPS + UNARY_OPS)):
        every_values, every_partials = evaluate_batch(tree, C, X, jacobian=True)
    assert values.tobytes() == every_values.tobytes()
    undefined = ~np.isfinite(values)[:, None, :]
    assert (np.where(undefined, 0.0, partials).tobytes()
            == np.where(undefined, 0.0, every_partials).tobytes())


# every canonical key the benchmark's offline-grid workload fits (seeds 1
# and 29), the trees the fitter evaluates most
_OFFLINE_GRID_KEYS = [
    "(c + (x^c - c*x^c))/(c + x^c)", "(c + x)*x", "(c + x)*x/c", "(c + x)^c",
    "(c + x)^c/(c + (x^c - x))", "(x^c + x^c)/(c + x + x^c + x^c + x^c)", "c",
    "c + (x^c - c*x^c)", "c + c*exp(c*x)", "c + c*log(x)", "c + c*sin(c*x)",
    "c + c*sqrt(-x)", "c + c*x^c", "c*cos(c + c*x)", "c*cos(c*x)*x", "c*cos(c*x1 + c*x2)",
    "c*cos(x1)*cos(x2)", "c*cos(x2)*sin(x1)", "c*exp(c*x)*x", "c*exp(c*x1) + c*x2*x2",
    "c*exp(c*x2)*x1", "c*log(abs(x) + c)", "c*log(x1) + c*x2", "c*sin(c*x)*x",
    "c*sin(c*x1) + cos(x2)", "c*sin(x1 + x2) + c*x1*x2", "c*sinh(c*x)",
    "c*sqrt(-x1) + c*x2", "c*sqrt(abs(x) + c)", "c*tanh(c*x) + c*x", "c*tanh(c*x1 + c*x2)",
    "c*x + c*x^c + c*x^c", "c*x1^x2", "c*x2^c + (x1^c - x1^c)",
    "c*x2^c + (x1^c - x1^c) - x2", "c*x2^x1", "c*x^c + c*x^c", "c/(c + x*x)",
    "c/(c + x1*x1 + x2*x2)", "c/(c + x1^c + x2^c)", "cos(c*x1)*cos(c*x2)",
    "cos(c*x2)*sin(c*x1)", "cos(x)*(cos(x)*sin(x)^c - c)*cosh(-x)*sin(x)*x^c",
    "cos(x)*(cos(x)*sin(x)^c - c)*exp(-x)*sin(x)*x^c", "cos(x)*sin(x^c)",
    "cos(x)*sin(x^c) - c", "cos(x2)", "exp(x^c)", "log(c + x)",
    "log(c + x) + log(c + x^c)", "log(c*x)", "log(sqrt(c + x^c) + x)", "log(x)",
    "sin((x1 - c)*(x2 - c)) + x1*x2", "sin(x + x^c) + sin(x)", "sin(x)",
    "sin(x1) + sin(x2^c)", "sin(x2^c)", "sqrt(c*x)", "sqrt(sqrt(c + x^c) + x)", "sqrt(x)",
    "x + x^c + x^c", "x + x^c + x^c + x^c", "x + x^c + x^c + x^c + x^c",
    "x + x^c + x^c + x^c + x^c + x^c", "x1*x2", "x1^c - x1^c + x2^c/c",
    "x1^c - x1^c + x2^c/c - x2", "x1^c/c + x2^c/c - x2", "x1^c/c + x2^c/c - x2 - x1",
    "x1^x2", "x2^x1", "x^c", "x^c + x^c", "x^c + x^c + x^c", "x^c + x^c + x^c + x^c",
    "x^c + x^c + x^c + x^c + x^c",
]


@pytest.mark.parametrize("key", _OFFLINE_GRID_KEYS)
def test_plan_matches_reference_walker_on_offline_grid_keys(key):
    dim = 2 if re.search(r"x\d", key) else 1
    sk = canonicalize(parse(key, dim), dim)
    assert sk.key == key
    rng = np.random.default_rng(len(key))
    m = max(sk.num_slots, 1)
    special = np.array([[np.nan] * m, [np.inf] * m, [-np.inf] * m, [0.0] * m, [800.0] * m,
                        [-3.5] * m])
    C = np.vstack([rng.uniform(-3, 3, (7, m)), special])[:, :sk.num_slots]
    X = np.vstack([rng.uniform(-4, 4, (40, dim)), np.full((1, dim), np.nan),
                   np.zeros((1, dim))])
    _assert_plan_matches_reference(sk.expr, C, X)
    _assert_plan_matches_reference(sk.expr, C[0], X)


def test_lower_reports_what_the_tree_reads():
    plan = lower(parse("c*x2 + sin(c)", 2))
    assert (plan.num_coefficients, plan.dimensionality) == (2, 2)
    with pytest.raises(ValueError, match="coefficient 1"):
        evaluate_batch(plan, [1.0], np.ones((3, 2)))
    with pytest.raises(ValueError, match="variable 1"):
        evaluate_batch(plan, [1.0, 2.0], np.ones((3, 1)))


def test_evaluate_batch_never_returns_a_view_of_its_inputs():
    C = np.array([[1.5], [2.5]])
    X = np.array([[3.0]])
    for text in ("c", "x"):
        out = evaluate_batch(parse(text, 1), C, X)
        assert not np.shares_memory(out, C) and not np.shares_memory(out, X)


# ---------------------------------------------------------------------------
# Exact Jacobians against central differences
# ---------------------------------------------------------------------------

# every unary function, + - * /, and ^ with a literal, a coefficient and a
# computed exponent; at x in [0.5, 2] and coefficients in [0.3, 0.7] each
# stays away from its domain's edges
_JACOBIAN_CASES = [
    "c*sqrt(c*x + c)", "c*exp(c*x) - c", "log(c*x + c)*c", "abs(c*x - 4)/c",
    "sin(c*x)*cos(c*x + c)", "tan(c*x) + c", "sinh(c*x)/cosh(c*x + c)",
    "tanh(c*x - c)*erf(c*x)", "-(c*x) + -c", "(c*x + c)^2.5", "c*x^c",
    "(c + x)^(c*x)", "c^x + x/c", "c/(x + c) - (c - x)*c", "c*x1*sin(c*x2) + c",
]


@pytest.mark.parametrize("text", _JACOBIAN_CASES)
def test_jacobian_matches_central_differences(text):
    dim = 2 if "x1" in text else 1
    plan = lower(parse(text, dim))
    m = plan.num_coefficients
    rng = np.random.default_rng(len(text))
    C = rng.uniform(0.3, 0.7, (4, m))
    X = rng.uniform(0.5, 2.0, (30, dim))
    values, partials = evaluate_batch(plan, C, X, jacobian=True)
    assert values.tobytes() == evaluate_batch(plan, C, X).tobytes()
    assert partials.shape == (4, m, 30)
    for j in range(m):
        up, down = C.copy(), C.copy()
        up[:, j] += 1e-6
        down[:, j] -= 1e-6
        step = (up[:, j] - down[:, j])[:, None]
        central = (evaluate_batch(plan, up, X) - evaluate_batch(plan, down, X)) / step
        np.testing.assert_allclose(partials[:, j], central, rtol=1e-6, atol=1e-9)
    one_row = evaluate_batch(plan, C[1], X, jacobian=True)
    assert one_row[0].tobytes() == values[1].tobytes()
    assert one_row[1].tobytes() == partials[1].tobytes()


def test_jacobian_sums_the_partials_of_a_repeated_coefficient():
    # parse numbers every c apart; a tree built by hand can read one twice
    tree = bin_("+", bin_("*", coef(0), coef(0)), bin_("*", coef(1), bin_("^", var(0), coef(0))))
    X = np.array([[0.5], [2.0]])
    _, partials = evaluate_batch(tree, [1.5, 3.0, 7.0], X, jacobian=True)
    x = X[:, 0]
    np.testing.assert_allclose(partials[0], 2 * 1.5 + 3.0 * x**1.5 * np.log(x), rtol=1e-13)
    np.testing.assert_allclose(partials[1], x**1.5, rtol=1e-13)
    assert not partials[2].any()  # a coefficient the tree does not read


def test_jacobian_keeps_a_non_finite_partial_in_its_own_column():
    # d/dc of x^c is x^c*log(x), NaN for x < 0 even at an integer c, and
    # 0*NaN must not carry it into the other coefficients' columns
    plan = lower(parse("c*x^c + c*x", 1))
    X = np.array([[-2.0], [-0.5], [1.5]])
    values, partials = evaluate_batch(plan, [1.3, 2.0, 0.7], X, jacobian=True)
    assert np.isfinite(values).all()
    assert np.isnan(partials[1, :2]).all() and np.isfinite(partials[1, 2])
    assert np.isfinite(partials[[0, 2]]).all()
    np.testing.assert_array_equal(partials[0], X[:, 0] ** 2)
    np.testing.assert_array_equal(partials[2], X[:, 0])


def test_jacobian_keeps_an_overflowing_divisor_partial_in_its_own_column():
    # d/dc2 of c1/c2 is -(c1/c2)/c2, -inf at these values though c1/c2 is
    # 1e300, and 0*inf must not carry it into the other columns
    X = np.array([[0.5], [2.0]])
    values, partials = evaluate_batch(parse("c*x + c/c", 1), [1.0, 1e200, 1e-100],
                                      X, jacobian=True)
    assert np.isfinite(values).all()
    np.testing.assert_array_equal(partials[0], X[:, 0])
    np.testing.assert_array_equal(partials[1], [1e100, 1e100])
    np.testing.assert_array_equal(partials[2], [-np.inf, -np.inf])


@pytest.mark.parametrize("text", ["x^c", "sqrt(c*x)", "(c*x)^0.5", "x^(c*x)",
                                  "1e290/(c*x + 1e-10)"])
def test_jacobian_is_zero_where_the_coefficient_does_not_move_the_value(text):
    # at x = 0 each is constant in c (0^c is 0 for c > 0, sqrt(c*0) is 0,
    # 1e290/(c*0 + 1e-10) is 1e300), so its partial is 0, not 0*log(0) or
    # 0*inf
    X = np.array([[0.0], [2.0]])
    values, partials = evaluate_batch(parse(text, 1), [1.5], X, jacobian=True)
    assert np.isfinite(values).all()
    assert partials[0, 0] == 0.0
    assert np.isfinite(partials[0, 1]) and partials[0, 1] != 0.0


def _relabel(tree, perm):
    """tree with coefficient i read as coefficient perm[i]."""
    if tree.kind == "coef":
        return coef(perm[tree.index])
    return replace(tree, args=tuple(_relabel(a, perm) for a in tree.args))


def _coefficients_read(tree):
    if tree.kind == "coef":
        return {tree.index}
    return set().union(*(_coefficients_read(a) for a in tree.args))


# four columns: the trees read coefficients 0..2 at most, never 3
_SPECIAL_ROWS_4 = np.hstack([_SPECIAL_ROWS, [[0.5], [np.nan], [np.inf], [-2.0]]])


@settings(max_examples=300, deadline=None)
@given(_multi_coef_exprs(), st.permutations([0, 1, 2]), st.integers(1, 12),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_property_jacobian_columns_follow_their_coefficients(tree, perm, n, k, seed):
    rng = np.random.default_rng(seed)
    C = np.vstack([rng.uniform(-5, 5, (k, 4)), _SPECIAL_ROWS_4])
    X = rng.uniform(-5, 5, (n, 2))
    values, partials = evaluate_batch(tree, C, X, jacobian=True)
    # a coefficient the tree does not read has partial exactly 0 wherever
    # the value is defined; of either sign, as 0 times a negative factor
    # is -0.0
    defined = np.isfinite(values)
    for j in set(range(4)) - _coefficients_read(tree):
        assert (partials[:, j][defined] == 0.0).all()
    # relabelling the coefficients permutes the columns, bit for bit
    C2 = C.copy()
    C2[:, list(perm)] = C[:, :3]
    values2, partials2 = evaluate_batch(_relabel(tree, perm), C2, X, jacobian=True)
    assert values2.tobytes() == values.tobytes()
    assert partials2[:, list(perm)].tobytes() == partials[:, :3].tobytes()
    assert partials2[:, 3].tobytes() == partials[:, 3].tobytes()


# ---------------------------------------------------------------------------
# Affine plans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,affine", [
    ("c*(c + x)", False), ("c*exp(c*x)", False), ("x/c", False), ("x^c", False),
    ("c/x", True), ("(c + x)*x", True), ("-c*x", True), ("c + c*sin(x)*x", True),
])
def test_a_plan_is_affine_in_all_its_coefficients_at_once(text, affine):
    # c*(c + x) is affine in each coefficient alone, but not in both
    assert lower(parse(text, 1)).affine is affine


@st.composite
def _affine_leaning_exprs(draw):
    """Chains of + - * / and neg over coefficients, variables, literals and
    coefficient-free functions, some undefined at negative inputs, each
    step joining the tree so far with a new leaf: most are affine."""
    leaves = st.one_of(
        st.sampled_from([coef(0), coef(1), coef(2)]),
        st.sampled_from([var(0), var(1), un_("log", var(1)), un_("sqrt", var(0)),
                         bin_("/", lit(1.0), var(0))]),
        st.floats(min_value=-4.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False).map(lit),
    )
    tree = draw(leaves)
    for op in draw(st.lists(st.sampled_from(["+", "-", "*", "/", "neg"]), min_size=1,
                            max_size=8)):
        if op == "neg":
            tree = un_(op, tree)
        else:
            tree = bin_(op, *draw(st.permutations([tree, draw(leaves)])))
    return tree


def _magnitude_tree(tree):
    """An affine tree with - read as +, neg dropped and every
    coefficient-free subtree under abs: at |c| it bounds the size of every
    intermediate of tree at c, and so the rounding of its value."""
    if tree.kind == "coef":
        return tree
    if not _coefficients_read(tree):
        return un_("abs", tree)
    if tree.op == "neg":
        return _magnitude_tree(tree.args[0])
    a, b = (_magnitude_tree(t) for t in tree.args)
    return bin_("+" if tree.op == "-" else tree.op, a, b)


def _coefficient_subtrees(tree):
    """tree and each of its subtrees that reads a coefficient."""
    if not _coefficients_read(tree):
        return []
    return [tree, *(s for a in tree.args for s in _coefficient_subtrees(a))]


@settings(max_examples=300, deadline=None)
@given(_affine_leaning_exprs(), st.integers(1, 12), st.integers(0, 2**32 - 1))
# a division by a literal 0 leaves inf and nan in the partials
@example(tree=bin_("/", bin_("+", coef(0), coef(1)), lit(0.0)), n=1, seed=0)
# at x1 < 0 the batch's partials and the basis's are NaN of opposite signs
@example(tree=bin_("*", un_("neg", bin_("*", coef(0), un_("log", var(1)))), un_("log", var(1))),
         n=2, seed=1)
# (c + x1)/2.2e-309 overflows unless c is near -x1: the value can be
# finite where the partial is inf and the reference inf - inf
@example(tree=bin_("+", bin_("+", bin_("+", bin_("/", bin_("+", coef(0), var(0)),
                                                   lit(2.225073858507203e-309)),
                                         coef(0)), coef(0)), coef(0)),
         n=3, seed=3)
# c0/2^-1023 is finite for |c0| < 2, but its bound, 5*|c0|/2^-1023, overflows above 2/5
@example(tree=bin_("/", bin_("-", bin_("-", bin_("+", bin_("+", coef(0), coef(0)), coef(0)),
                                       coef(0)), coef(0)), lit(1.1125369292536007e-308)),
         n=1, seed=0)
# c0*5e-324 underflows to a multiple of 5e-324: its rounding is absolute
@example(tree=bin_("/", bin_("*", coef(0), lit(5e-324)), var(0)), n=3, seed=3)
def test_property_an_affine_plan_is_its_value_at_0_plus_its_partials(tree, n, seed):
    plan = lower(tree)
    if not plan.affine:
        return
    rng = np.random.default_rng(seed)
    C = rng.uniform(-5, 5, (2, 3))
    X = rng.uniform(-5, 5, (n, 2))
    offset, basis = evaluate_batch(plan, np.zeros(3), X, jacobian=True)
    values, partials = evaluate_batch(plan, C, X, jacobian=True)
    # the partials do not depend on the coefficients, bit for bit, but for
    # the sign of a NaN: IEEE 754 leaves it open, and numpy's loops take it
    # from one operand or the other by the batch's shape
    bits = [np.where(np.isnan(p), np.nan, p).tobytes() for p in (*partials, basis)]
    assert bits[0] == bits[1] == bits[2]
    # where both are finite (the fitter's lstsq leaves out a point whose
    # value at 0 or partial is not), the value is the affine form within
    # relative rounding, as long as the bound on every intermediate that
    # reads a coefficient is 0 or a normal float: one that underflows
    # rounds absolutely, and one that overflows (NaN here) bounds nothing
    with np.errstate(all="ignore"):
        reference = offset + C @ basis
    tiny = np.finfo(float).tiny
    normal = np.all([(b == 0) | (b >= tiny) for b in (
        evaluate_batch(_magnitude_tree(s), np.abs(C), X) for s in _coefficient_subtrees(tree))],
        axis=0)
    kept = np.isfinite(values) & np.isfinite(reference) & normal
    miss = np.abs(values - reference)
    bound = evaluate_batch(_magnitude_tree(tree), np.abs(C), X)
    assert (miss[kept] <= 1e-9 * bound[kept]).all()
