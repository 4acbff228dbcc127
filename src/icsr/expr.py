"""Expression trees for symbolic regression candidates.

An expression is an immutable tree over variables ``x1..xd``, coefficient
placeholders ``c``, and numeric literals.  This module owns the four
operations everything else builds on: parsing model output into trees,
evaluating trees on batches of points, measuring structural complexity,
and canonicalizing trees into fit-ready skeletons.

Evaluation runs a tree lowered to a flat post-order plan (lower); a
caller that evaluates one tree many times, like the fitter, lowers it
once.  The same pass can carry exact partials in every coefficient
(forward-mode differentiation): the fitter's Jacobian.  A coefficient a
value does not read has partial exactly 0 in it, and a non-finite partial
never spreads to another coefficient's column; partials at undefined
points mean nothing.  Undefined values (log of a negative, division by
zero, overflow) are represented as NaN.  Evaluation never raises on
numeric grounds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

BINARY_OPS = ("+", "-", "*", "/", "^")
UNARY_OPS = (
    "sqrt", "exp", "log", "abs",
    "sin", "cos", "tan",
    "sinh", "cosh", "tanh",
    "erf", "neg",
)
_FUNCTIONS = frozenset(op for op in UNARY_OPS if op != "neg")


class ParseError(ValueError):
    """Raised when candidate text is not a well-formed expression."""


@dataclass(frozen=True)
class Expr:
    """A node in an expression tree.

    kind is one of 'bin', 'un', 'var', 'coef', 'lit'.  Binary and unary
    nodes carry an op name and children in ``args``; variables and
    coefficient placeholders carry an integer ``index``; literals carry
    a float ``value``.
    """

    kind: str
    op: Optional[str] = None
    index: Optional[int] = None
    value: Optional[float] = None
    args: tuple = ()

    def __post_init__(self):
        if self.kind == "bin":
            if self.op not in BINARY_OPS or len(self.args) != 2:
                raise ValueError(f"bad binary node: {self.op!r}")
        elif self.kind == "un":
            if self.op not in UNARY_OPS or len(self.args) != 1:
                raise ValueError(f"bad unary node: {self.op!r}")
        elif self.kind in ("var", "coef"):
            if self.index is None or self.index < 0:
                raise ValueError(f"{self.kind} node needs a non-negative index")
        elif self.kind == "lit":
            if self.value is None:
                raise ValueError("literal node needs a value")
        else:
            raise ValueError(f"unknown node kind: {self.kind!r}")


def bin_(op: str, left: Expr, right: Expr) -> Expr:
    return Expr("bin", op=op, args=(left, right))


def un_(op: str, child: Expr) -> Expr:
    return Expr("un", op=op, args=(child,))


def var(index: int) -> Expr:
    return Expr("var", index=index)


def coef(index: int) -> Expr:
    return Expr("coef", index=index)


def lit(value: float) -> Expr:
    return Expr("lit", value=float(value))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# Every token in one scan: a number, '**' or '^', any other token, and
# whitespace, which no group keeps.  A character no token starts with is
# a stray of its own, so the scan never skips one.
_TOKEN_RE = re.compile(
    r"""
    ((?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (\*\*|\^)
  | ([A-Za-z_][A-Za-z_0-9]*|[+\-*/()])
  | \s+
  | (.)
""",
    re.VERBOSE,
)
_KINDS = {"+": "op", "-": "op", "*": "op", "/": "op", "(": "lparen", ")": "rparen"}


def _unexpected(text: str) -> ParseError:
    """The error for text's first stray character, at its position."""
    m = next(m for m in _TOKEN_RE.finditer(text) if m.group(4))
    return ParseError(f"unexpected character {m.group()!r} at {m.start()}")


def _tokenize(text: str) -> list[tuple[str, str]]:
    found = _TOKEN_RE.findall(text)
    if any(stray for *_, stray in found):
        raise _unexpected(text)
    return [("num", num) if num else ("op", "^") if power else (_KINDS.get(word, "ident"), word)
            for num, power, word, _ in found if num or power or word]


def split_literals(text: str) -> tuple[str, tuple]:
    """text's template, its tokens joined by spaces with every number
    written as 'c', which parses where text does; and the template's
    placeholder values: each number text wrote, and NaN for each 'c'."""
    parts, values = [], []
    for num, power, word, stray in _TOKEN_RE.findall(text):
        if num:
            parts.append("c")
            values.append(float(num))
        elif word:
            parts.append(word)
            if word == "c":
                values.append(math.nan)
        elif power:
            parts.append("^")
        elif stray:
            raise _unexpected(text)
    return " ".join(parts), tuple(values)


def _variable_table(dimensionality: int) -> dict[str, int]:
    table = {f"x{sep}{i + 1}": i for i in range(dimensionality) for sep in ("", "_")}
    return dict(table, x=0) if dimensionality == 1 else table


# Every nesting level (parentheses, a function call, a sign, an exponent)
# recurses through _Parser.unary; capping it keeps hostile model output a
# ParseError instead of a RecursionError.
MAX_DEPTH = 100

# The parser loops over +-*/ chains, but each operator adds a level to the
# tree, and the walks after it (canonicalize, render, evaluation, warm-start
# hints) recurse once or twice per level.  A line of at most MAX_TOKENS
# tokens keeps every walk well under the default recursion limit of 1000
# frames; longer lines are a ParseError too.
MAX_TOKENS = 500


class _Parser:
    """Recursive descent over the usual precedence ladder.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('-'|'+') unary | power
    power  := atom ('^' unary)?        # right-associative
    atom   := NUM | 'c' | variable | func '(' expr ')' | '(' expr ')'
    """

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.variables = variables
        self.i = 0
        self.placeholders = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.advance()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, got {tok[1]!r}")
        return tok

    def parse(self) -> Expr:
        node = self.expr()
        kind, value = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input at {value!r}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = bin_(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = bin_(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        kind, value = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels")
        if kind == "op" and value in ("-", "+"):
            self.advance()
            node = self.unary()
            if value == "-":
                node = un_("neg", node)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.advance()
            return bin_("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, value = self.advance()
        if kind == "num":
            return lit(float(value))
        if kind == "lparen":
            node = self.expr()
            self.expect("rparen")
            return node
        if kind == "ident":
            if value == "c":
                node = coef(self.placeholders)
                self.placeholders += 1
                return node
            if value in self.variables:
                return var(self.variables[value])
            if value.lower() in _FUNCTIONS:
                self.expect("lparen")
                inner = self.expr()
                self.expect("rparen")
                return un_(value.lower(), inner)
            raise ParseError(f"unknown identifier {value!r}")
        raise ParseError(f"unexpected token {value!r}")


def parse(text: str, dimensionality: int = 1) -> Expr:
    """Parse expression text into a tree.

    Accepts variables x (or x1) for 1-D and x1, x2 for 2-D, the literal
    'c' as a coefficient placeholder (indexed left to right), numeric
    literals, and the supported operators and functions.  '**' is an
    alias for '^'.  Raises ParseError on anything else, including lines
    nested deeper than MAX_DEPTH or longer than MAX_TOKENS tokens.
    """
    if dimensionality < 1:
        raise ValueError("dimensionality must be >= 1")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    tree = _Parser(tokens, _variable_table(dimensionality)).parse()
    # checked after parsing, so a line that is also malformed or nested
    # too deep reports that first
    if len(tokens) > MAX_TOKENS:
        raise ParseError(f"expression has more than {MAX_TOKENS} tokens")
    return tree


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _erf(v):
    from scipy.special import erf  # a third of a second to import: only on use
    return erf(v)


_UNARY_FUNCS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "erf": _erf,
    "neg": np.negative,
}

_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


class Plan(NamedTuple):
    """A tree lowered to post-order steps; see lower."""

    steps: tuple
    num_coefficients: int
    dimensionality: int


def lower(expr: Expr) -> Plan:
    """Flatten expr, once, into the post-order steps evaluate_batch runs.

    Leaves that feed + - * / broadcast: a (k, 1) coefficient column, an
    (n,) variable column or a scalar literal, since IEEE basic arithmetic
    is correctly rounded in any loop.  A "dense" step copies the inputs
    of unary functions and ^, and the result, out to a fresh C-contiguous
    (k, n) array: numpy's SIMD transcendental loops run only on
    contiguous data and can differ from the strided loop in the last bit.
    """
    steps = []
    used = {"coef": 0, "var": 0}

    def walk(e: Expr) -> int:
        """Appends e's steps; returns 1 if its value varies over the
        coefficient rows, plus 2 if over the points (3: dense)."""
        if e.kind == "lit":
            steps.append(("lit", e.value))
            return 0
        if e.kind in used:
            used[e.kind] = max(used[e.kind], e.index + 1)
            steps.append((e.kind, e.index))
            return 1 if e.kind == "coef" else 2
        if e.op in _ARITHMETIC:
            shape = walk(e.args[0]) | walk(e.args[1])
            steps.append(("arith", _ARITHMETIC[e.op]))
            return shape
        for a in e.args:
            if walk(a) != 3:
                steps.append(("dense", None))
        steps.append(("^", None) if e.op == "^" else ("un", _UNARY_FUNCS[e.op]))
        return 3

    if walk(expr) != 3:
        steps.append(("dense", None))
    return Plan(tuple(steps), used["coef"], used["var"])


def _finite(values):
    finite = np.isfinite(values)
    return values if finite.all() else np.where(finite, values, np.nan)


def _chain(t, factor):
    """t * factor, but 0 wherever t is: where a coefficient does not move a
    function's input it does not move its output, even at a point where
    the derivative is infinite (sqrt(c*x) at x = 0)."""
    out = t * factor
    np.copyto(out, 0.0, where=t == 0.0)
    return out


# Each op's tangent from its input's tangent t, its input u and its value
# v; a binary op has one per operand, from that operand's t, a, b and v.
# A factor that can be non-finite where the value is defined goes through
# _chain, so it stays in the columns of the coefficients that move its
# input; the fitter treats those as frozen there.
_TANGENTS = {
    np.sqrt: lambda t, u, v: _chain(t, 0.5 / v),
    np.exp: lambda t, u, v: t * v,
    np.log: lambda t, u, v: t / u,
    np.abs: lambda t, u, v: t * np.sign(u),
    np.sin: lambda t, u, v: t * np.cos(u),
    np.cos: lambda t, u, v: t * -np.sin(u),
    np.tan: lambda t, u, v: t * (1.0 + v * v),
    np.sinh: lambda t, u, v: t * np.cosh(u),
    np.cosh: lambda t, u, v: t * np.sinh(u),
    np.tanh: lambda t, u, v: t * (1.0 - v * v),
    _erf: lambda t, u, v: t * ((2.0 / math.sqrt(math.pi)) * np.exp(-u * u)),
    np.negative: lambda t, u, v: -t,
    np.add: (lambda t, a, b, v: t, lambda t, a, b, v: t),
    np.subtract: (lambda t, a, b, v: t, lambda t, a, b, v: -t),
    np.multiply: (lambda t, a, b, v: t * b, lambda t, a, b, v: t * a),
    # d(a/b) = da/b - (a/b) db/b; a/b/b can overflow where a/b is finite
    np.divide: (lambda t, a, b, v: t / b, lambda t, a, b, v: _chain(t, -v / b)),
    # a^b is flat in b where it is 0 (0^b for b > 0), though log(0) is -inf
    "^": (lambda t, a, b, v: _chain(t, b * np.power(a, b - 1.0)),
          lambda t, a, b, v: _chain(t, np.where(v == 0.0, 0.0, v * np.log(a)))),
}


def _binary_tangent(op, a, b, v, ta, tb):
    """The sum of one term per operand whose tangent is not None."""
    da, db = _TANGENTS[op]
    if ta is None or tb is None:
        return db(tb, a, b, v) if ta is None else da(ta, a, b, v)
    return da(ta, a, b, v) + db(tb, a, b, v)


def _run(steps, rows: np.ndarray, X: np.ndarray, jacobian: bool = False):
    """The plan's value at every row and point, and its tangent (None
    unless jacobian).  The values are the same ops either way.  A tangent
    is None (the value reads no coefficient) or its partials in all m
    coefficients, broadcastable to (m, k, n); coefficient j's is units[j]."""
    k, n = rows.shape[0], X.shape[0]
    units = np.eye(rows.shape[1])[:, :, None, None] if jacobian else None
    stack = []
    push, pop = stack.append, stack.pop
    for kind, arg in steps:
        if kind == "arith":
            (b, tb), (a, ta) = pop(), pop()
            v = _finite(arg(a, b))
            push((v, None if ta is tb is None else _binary_tangent(arg, a, b, v, ta, tb)))
        elif kind == "coef":
            push((rows[:, arg:arg + 1], None if units is None else units[arg]))
        elif kind == "var":
            push((X[:, arg], None))
        elif kind == "dense":
            a, ta = pop()
            push((np.full((k, n), a), ta))
        elif kind == "un":
            u, tu = pop()
            v = _finite(arg(u))
            push((v, None if tu is None else _TANGENTS[arg](tu, u, v)))
        elif kind == "lit":
            push((arg, None))
        else:
            # nan^0 and 1^nan are 1: ^ is the one op that launders NaN,
            # so it alone checks its inputs
            (b, tb), (a, ta) = pop(), pop()
            out = np.power(a, b)
            bad = ~np.isfinite(out) | np.isnan(a) | np.isnan(b)
            v = np.where(bad, np.nan, out) if bad.any() else out
            push((v, None if ta is tb is None else _binary_tangent("^", a, b, v, ta, tb)))
    # a leaf root (an inf literal, say) is the one result not yet sanitized
    v, t = pop()
    return _finite(v), t


def evaluate_batch(expr, coefficients, X, jacobian: bool = False):
    """Evaluate expr, an Expr or a Plan from lower, at every row of X.

    X has shape (n, d).  A coefficient vector of shape (m,) gives a result
    of shape (n,); a matrix of shape (k, m) gives (k, n), row i being
    exactly what row i of the matrix gives on its own.  Points where the
    expression is undefined (or any intermediate is non-finite) come back
    as NaN.  NaN never launders back into a finite value: nan^0 is NaN
    here, not 1.

    With jacobian=True the result is a pair: the same values, bit for bit,
    and their exact partials in each coefficient, of shape (m, n) or
    (k, m, n), carried forward through every step of the plan.  A
    coefficient the value does not read has partial exactly 0.  A partial
    may be non-finite where the value is defined (sqrt at 0), but never
    spreads to another coefficient's column.  At undefined points a
    partial means nothing.
    """
    plan = expr if isinstance(expr, Plan) else lower(expr)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must have shape (n, d)")
    coefficients = np.asarray(coefficients, dtype=float)
    rows = np.atleast_2d(coefficients)
    if plan.num_coefficients > rows.shape[1]:
        raise ValueError(f"expression uses coefficient {plan.num_coefficients - 1} "
                         f"but only {rows.shape[1]} were supplied")
    if plan.dimensionality > X.shape[1]:
        raise ValueError(f"expression uses variable {plan.dimensionality - 1} "
                         f"but points are {X.shape[1]}-dimensional")
    with np.errstate(all="ignore"):
        values, tangent = _run(plan.steps, rows, X, jacobian)
    if not jacobian:
        return values if coefficients.ndim == 2 else values[0]
    partials = np.zeros((rows.shape[0], rows.shape[1], X.shape[0]))
    if tangent is not None:
        partials[:] = tangent.swapaxes(0, 1)
    return (values, partials) if coefficients.ndim == 2 else (values[0], partials[0])


def complexity(expr: Expr) -> int:
    """Number of nodes in the tree as parsed; every node counts one."""
    return 1 + sum(complexity(a) for a in expr.args)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 5


def _format_number(value: float) -> str:
    return f"{value:.6g}"


def _join_unary(op: str, child: tuple[str, int]) -> tuple[str, int]:
    """Text and precedence of op applied to a rendered child."""
    s, p = child
    if op == "neg":
        if p < _NEG_PREC:
            s = f"({s})"
        return f"-{s}", _NEG_PREC
    return f"{op}({s})", _ATOM_PREC


def _join(op: str, left: tuple[str, int], right: tuple[str, int]) -> tuple[str, int]:
    """Text and precedence of a binary op over two rendered operands."""
    (ls, lprec), (rs, rprec) = left, right
    lp = _PREC[op]
    if op == "^":
        if lprec <= lp:
            ls = f"({ls})"
        if rprec < lp:
            rs = f"({rs})"
    else:
        if lprec < lp:
            ls = f"({ls})"
        if rprec <= lp:
            rs = f"({rs})"
    if op in ("+", "-"):
        return f"{ls} {op} {rs}", lp
    return f"{ls}{op}{rs}", lp


def _render(e: Expr, coefficients, var_names) -> tuple[str, int]:
    if e.kind == "lit":
        return _format_number(e.value), _ATOM_PREC
    if e.kind == "var":
        return var_names[e.index], _ATOM_PREC
    if e.kind == "coef":
        if coefficients is None:
            return "c", _ATOM_PREC
        v = float(coefficients[e.index])
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            return f"-{_format_number(-v)}", _NEG_PREC
        return _format_number(v), _ATOM_PREC
    if e.kind == "un":
        return _join_unary(e.op, _render(e.args[0], coefficients, var_names))
    return _join(e.op, _render(e.args[0], coefficients, var_names),
                 _render(e.args[1], coefficients, var_names))


def variable_names(dimensionality: int) -> list[str]:
    """The names render writes: x in 1-D, x1..xd otherwise."""
    if dimensionality == 1:
        return ["x"]
    return [f"x{i + 1}" for i in range(dimensionality)]


def render(expr: Expr, coefficients=None, dimensionality: int = 1) -> str:
    """Render a tree back to text, naming variables as parse does at the
    given dimensionality.

    With coefficients=None placeholders print as 'c'; otherwise the
    numeric values are substituted at 6 significant digits.  The output
    re-parses to a structurally identical tree (modulo literal rounding
    when values are substituted).
    """
    text, _ = _render(expr, coefficients, variable_names(dimensionality))
    return text


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Skeleton:
    """A canonicalized expression ready for coefficient fitting.

    key is the rendered canonical form and doubles as the dedup identity;
    expr is the key parsed back, so its placeholders are numbered left to
    right in the key's text.  origins keeps, per slot, an expression over
    the canonicalized tree's placeholders and literals describing how that
    slot was assembled, which makes the whole transformation auditable;
    values gives each of those placeholders a number, NaN for a 'c'.
    """

    expr: Expr
    key: str
    origins: tuple
    values: tuple

    @property
    def num_slots(self) -> int:
        return len(self.origins)

    @cached_property
    def hints(self) -> tuple:
        """One warm-start value (or None) per slot: its origin evaluated at
        values, so a slot that reads a 'c' has none, as NaN never launders
        away.  Computed on first read, so only fitted skeletons pay."""
        empty = np.zeros((1, 1))
        hints = [float(evaluate_batch(o, self.values, empty)[0]) for o in self.origins]
        return tuple(h if math.isfinite(h) else None for h in hints)


class _Node(NamedTuple):
    """One rewritten subtree; see _Canonicalizer."""

    text: tuple
    slots: tuple
    op: Optional[str] = None
    operands: Optional[list] = None


_SLOT_TEXT = ("c", _ATOM_PREC)


class _Canonicalizer:
    """Rewrites a parsed tree into the text of its canonical skeleton.

    Three rewrites run bottom-up: literals become placeholders, operator
    applications whose inputs are all placeholders collapse into a single
    placeholder, and +/* operand chains are flattened, sorted by rendered
    form, and joined left-associatively with at most one placeholder
    operand.  Placeholder provenance is threaded through as origin trees
    so nothing about the rewrite is opaque.

    Each rewrite returns a _Node: its (text, precedence) under the key's
    variable names, built once from its children's; the ids of the
    origins its placeholders stand for, in text order; and for a +/*
    chain its op and sorted operands, which an enclosing chain of the same
    op takes over without rendering anything again.
    """

    def __init__(self, var_names):
        self.var_names = var_names
        self.origins: list[Expr] = []
        self.placeholders = 0

    def fresh(self, origin: Expr) -> _Node:
        self.origins.append(origin)
        return _Node(_SLOT_TEXT, (len(self.origins) - 1,))

    def rewrite(self, e: Expr) -> _Node:
        if e.kind == "coef":
            self.placeholders = max(self.placeholders, e.index + 1)
        if e.kind in ("lit", "coef"):
            return self.fresh(e)
        if e.kind == "var":
            return _Node((self.var_names[e.index], _ATOM_PREC), ())
        if e.kind == "un":
            child = self.rewrite(e.args[0])
            if child.text == _SLOT_TEXT:
                return self.fresh(un_(e.op, self.origins[child.slots[0]]))
            return _Node(_join_unary(e.op, child.text), child.slots)
        left = self.rewrite(e.args[0])
        right = self.rewrite(e.args[1])
        if e.op in ("+", "*"):
            return self._rebuild_chain(e.op, left, right)
        if left.text == right.text == _SLOT_TEXT:
            return self.fresh(bin_(e.op, self.origins[left.slots[0]],
                                   self.origins[right.slots[0]]))
        return _Node(_join(e.op, left.text, right.text), left.slots + right.slots)

    def _rebuild_chain(self, op: str, left: _Node, right: _Node) -> _Node:
        operands = [o for node in (left, right)
                    for o in (node.operands if node.op == op else [node])]
        slots = [o for o in operands if o.text == _SLOT_TEXT]
        rest = [o for o in operands if o.text != _SLOT_TEXT]
        if len(slots) > 1:
            origin = self.origins[slots[0].slots[0]]
            for s in slots[1:]:
                origin = bin_(op, origin, self.origins[s.slots[0]])
            slots = [self.fresh(origin)]
        operands = rest + slots
        if len(operands) == 1:
            return operands[0]
        operands.sort(key=lambda o: o.text[0])
        text, ids = operands[0].text, operands[0].slots
        for o in operands[1:]:
            text, ids = _join(op, text, o.text), ids + o.slots
        return _Node(text, ids, op, operands)


# Templates that differ only in operand order share a key, and so do the
# runs of a grid, so a process parses a key once while it is memoised here.
_parse_key = lru_cache(maxsize=1024)(parse)


def canonicalize(expr: Expr, dimensionality: int = 1) -> Skeleton:
    """Collapse an expression to its canonical skeleton.

    Two candidate strings that differ only in literal values, redundant
    constant arithmetic, or the order of +/* operands share a canonical
    key.  The key names variables as parse does at the given
    dimensionality, and the skeleton's tree is that key parsed back, so a
    key that breaks parse's nesting or token cap raises ParseError.  Its
    values are NaN, so its hints come from expr's literals alone.
    Complexity is *not* measured here; it belongs to the tree as parsed.
    """
    c = _Canonicalizer(variable_names(dimensionality))
    (key, _), slots, *_ = c.rewrite(expr)
    return Skeleton(
        expr=_parse_key(key, dimensionality),
        key=key,
        origins=tuple(c.origins[i] for i in slots),
        values=(math.nan,) * c.placeholders,
    )
