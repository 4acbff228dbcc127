"""Expression trees for symbolic regression candidates.

An expression is an immutable tree over variables ``x1..xd``, coefficient
placeholders ``c``, and numeric literals.  This module owns the four
operations everything else builds on: parsing model output into trees,
evaluating trees on batches of points, measuring structural complexity,
and canonicalizing trees into fit-ready skeletons.

Evaluation runs a tree lowered to a flat post-order plan (lower); a
caller that evaluates one tree many times, like the fitter, lowers it
once.  Undefined values (log of a negative, division by zero, overflow)
are represented as NaN.  Evaluation never raises on numeric grounds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import erf as _erf

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

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


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

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<pow>\*\*|\^)
  | (?P<op>[+\-*/])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}", pos)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "pow":
                kind, value = "op", "^"
            tokens.append((kind, value, pos))
        pos = m.end()
    return tokens


def _variable_table(dimensionality: int) -> dict[str, int]:
    if dimensionality == 1:
        return {"x": 0, "x1": 0, "x_1": 0}
    table = {}
    for i in range(dimensionality):
        table[f"x{i + 1}"] = i
        table[f"x_{i + 1}"] = i
    return table


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
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, -1)

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.advance()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, got {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input at {value!r}", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = bin_(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = bin_(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        kind, value, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
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
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return bin_("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
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
            raise ParseError(f"unknown identifier {value!r}", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


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
        raise ParseError(f"expression has more than {MAX_TOKENS} tokens",
                         tokens[MAX_TOKENS][2])
    return tree


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

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


def _run(steps, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    stack = []
    push, pop = stack.append, stack.pop
    for kind, arg in steps:
        if kind == "arith":
            b = pop()
            push(_finite(arg(pop(), b)))
        elif kind == "coef":
            push(rows[:, arg:arg + 1])
        elif kind == "var":
            push(X[:, arg])
        elif kind == "dense":
            push(np.full((rows.shape[0], X.shape[0]), pop()))
        elif kind == "un":
            push(_finite(arg(pop())))
        elif kind == "lit":
            push(arg)
        else:
            # nan^0 and 1^nan are 1: ^ is the one op that launders NaN,
            # so it alone checks its inputs
            b, a = pop(), pop()
            out = np.power(a, b)
            bad = ~np.isfinite(out) | np.isnan(a) | np.isnan(b)
            push(np.where(bad, np.nan, out) if bad.any() else out)
    # a leaf root (an inf literal, say) is the one result not yet sanitized
    return _finite(pop())


def evaluate_batch(expr, coefficients, X) -> np.ndarray:
    """Evaluate expr, an Expr or a Plan from lower, at every row of X.

    X has shape (n, d).  A coefficient vector of shape (m,) gives a result
    of shape (n,); a matrix of shape (k, m) gives (k, n), row i being
    exactly what row i of the matrix gives on its own.  Points where the
    expression is undefined (or any intermediate is non-finite) come back
    as NaN.  NaN never launders back into a finite value: nan^0 is NaN
    here, not 1.
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
        result = _run(plan.steps, rows, X)
    return result if coefficients.ndim == 2 else result[0]


def complexity(expr: Expr) -> int:
    """Number of nodes in the tree as parsed; every node counts one."""
    return 1 + sum(complexity(a) for a in expr.args)


def num_placeholders(expr: Expr) -> int:
    if expr.kind == "coef":
        return 1
    return sum(num_placeholders(a) for a in expr.args)


def variables_used(expr: Expr) -> set[int]:
    if expr.kind == "var":
        return {expr.index}
    out: set[int] = set()
    for a in expr.args:
        out |= variables_used(a)
    return out


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


def _var_names(expr: Expr, dimensionality: Optional[int]) -> list[str]:
    """variable_names, with d inferred from the variables used when omitted."""
    if dimensionality is None:
        used = variables_used(expr)
        dimensionality = max(used) + 1 if used else 1
    return variable_names(dimensionality)


def render(expr: Expr, coefficients=None, dimensionality: Optional[int] = None) -> str:
    """Render a tree back to text.

    With coefficients=None placeholders print as 'c'; otherwise the
    numeric values are substituted at 6 significant digits.  The output
    re-parses to a structurally identical tree (modulo literal rounding
    when values are substituted).
    """
    text, _ = _render(expr, coefficients, _var_names(expr, dimensionality))
    return text


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Skeleton:
    """A canonicalized expression ready for coefficient fitting.

    expr holds the canonical tree whose placeholders are numbered left to
    right.  key is the rendered canonical form and doubles as the dedup
    identity.  origins keeps, per slot, an expression over the original
    parse's placeholders and literals describing how that slot was
    assembled, which makes the whole transformation auditable.
    """

    expr: Expr
    key: str
    num_slots: int
    origins: tuple

    @cached_property
    def hints(self) -> tuple:
        """One warm-start value (or None) per slot, recovered from the
        literals the candidate text supplied.  Computed on first read, so
        only skeletons that get fitted pay for it."""
        empty = np.zeros((1, 1))
        hints = []
        for origin in self.origins:
            if num_placeholders(origin):
                hints.append(None)
            else:
                value = float(evaluate_batch(origin, np.empty(0), empty)[0])
                hints.append(value if math.isfinite(value) else None)
        return tuple(hints)

    def map_coefficients(self, original_values) -> np.ndarray:
        """Translate coefficients for the pre-canonical tree into this
        skeleton's slots by evaluating each slot's origin expression."""
        original_values = np.asarray(original_values, dtype=float)
        empty = np.zeros((1, 1))
        out = np.empty(self.num_slots)
        for j, origin in enumerate(self.origins):
            out[j] = evaluate_batch(origin, original_values, empty)[0]
        return out


class _Node(NamedTuple):
    """One rewritten subtree; see _Canonicalizer."""

    tree: Expr
    text: tuple
    operands: Optional[list]


class _Canonicalizer:
    """Rewrites a parsed tree into its canonical skeleton form.

    Three rewrites run bottom-up: literals become placeholders, operator
    applications whose inputs are all placeholders collapse into a single
    placeholder, and +/* operand chains are flattened, sorted by rendered
    form, and rebuilt left-associatively with at most one placeholder
    operand.  Placeholder provenance is threaded through as origin trees
    so nothing about the rewrite is opaque.

    Each rewrite returns a _Node: the tree, its (text, precedence) under
    the key's variable names, built once from its children's, and for a
    +/* chain its sorted operands, which an enclosing chain of the same op
    takes over without rendering anything again.
    """

    def __init__(self, var_names):
        self.var_names = var_names
        self.origins: list[Expr] = []

    def fresh(self, origin: Expr) -> _Node:
        self.origins.append(origin)
        return _Node(coef(len(self.origins) - 1), ("c", _ATOM_PREC), None)

    def rewrite(self, e: Expr) -> _Node:
        if e.kind in ("lit", "coef"):
            return self.fresh(e)
        if e.kind == "var":
            return _Node(e, (self.var_names[e.index], _ATOM_PREC), None)
        if e.kind == "un":
            child = self.rewrite(e.args[0])
            if child.tree.kind == "coef":
                return self.fresh(un_(e.op, self.origins[child.tree.index]))
            return _Node(un_(e.op, child.tree), _join_unary(e.op, child.text), None)
        left = self.rewrite(e.args[0])
        right = self.rewrite(e.args[1])
        if e.op in ("+", "*"):
            return self._rebuild_chain(e.op, left, right)
        if left.tree.kind == "coef" and right.tree.kind == "coef":
            return self.fresh(bin_(e.op, self.origins[left.tree.index],
                                   self.origins[right.tree.index]))
        return _Node(bin_(e.op, left.tree, right.tree),
                     _join(e.op, left.text, right.text), None)

    def _rebuild_chain(self, op: str, left: _Node, right: _Node) -> _Node:
        operands = [o for node in (left, right)
                    for o in (node.operands if node.tree.op == op else [node])]
        slots = [o for o in operands if o.tree.kind == "coef"]
        rest = [o for o in operands if o.tree.kind != "coef"]
        if len(slots) > 1:
            origin = self.origins[slots[0].tree.index]
            for s in slots[1:]:
                origin = bin_(op, origin, self.origins[s.tree.index])
            slots = [self.fresh(origin)]
        operands = rest + slots
        if len(operands) == 1:
            return operands[0]
        operands.sort(key=lambda o: o.text[0])
        tree, text = operands[0].tree, operands[0].text
        for o in operands[1:]:
            tree, text = bin_(op, tree, o.tree), _join(op, text, o.text)
        return _Node(tree, text, operands)


def _renumber(e: Expr, mapping: dict) -> Expr:
    if e.kind == "coef":
        if e.index not in mapping:
            mapping[e.index] = len(mapping)
        return coef(mapping[e.index])
    if e.args:
        return Expr(e.kind, op=e.op, index=e.index, value=e.value,
                    args=tuple(_renumber(a, mapping) for a in e.args))
    return e


def canonicalize(expr: Expr, dimensionality: Optional[int] = None) -> Skeleton:
    """Collapse an expression to its canonical skeleton.

    Two candidate strings that differ only in literal values, redundant
    constant arithmetic, or the order of +/* operands share a canonical
    key.  The key names variables as parse does at the given
    dimensionality (inferred from the variables used when omitted), so it
    parses back.  Complexity is *not* measured here; it belongs to the
    tree as parsed.
    """
    c = _Canonicalizer(_var_names(expr, dimensionality))
    tree, (key, _), _ = c.rewrite(expr)
    mapping: dict[int, int] = {}
    tree = _renumber(tree, mapping)
    order = sorted(mapping, key=mapping.get)
    origins = tuple(c.origins[old] for old in order)
    return Skeleton(
        expr=tree,
        key=key,
        num_slots=len(origins),
        origins=origins,
    )
