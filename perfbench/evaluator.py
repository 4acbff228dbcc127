"""The benchmark's own expression evaluator and R-squared.

It shares no code with ``icsr``: a skeleton key (as written in
``summary.json``) plus its coefficient vector is turned into a numpy
expression by text substitution and evaluated with Python's ``eval`` in
a namespace that holds only numpy functions and the input columns.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.special import erf

_FUNCTIONS = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh, "erf": erf,
}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUMBER = re.compile(r"(?<![A-Za-z_0-9.])(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_ALLOWED_CHARS = re.compile(r"^[A-Za-z_0-9.+\-*/^() ]*$")


def variable_names(dim: int) -> tuple:
    return ("x",) if dim == 1 else tuple(f"x{i + 1}" for i in range(dim))


def substitute(key: str, coefficients) -> str:
    """Put coefficient values into the key's ``c`` slots, left to right."""
    values = [float(v) for v in coefficients]
    slots = re.findall(r"\bc\b", key)
    if len(slots) != len(values):
        raise ValueError(f"key {key!r} has {len(slots)} slots, got {len(values)} values")
    it = iter(values)
    return re.sub(r"\bc\b", lambda _m: f"({next(it)!r})", key)


def evaluate(text: str, X: np.ndarray) -> np.ndarray:
    """Evaluate expression text (``^`` is power) at the rows of X.
    Non-finite results come back as NaN."""
    if not _ALLOWED_CHARS.match(text):
        raise ValueError(f"unexpected character in {text!r}")
    X = np.asarray(X, dtype=float)
    names = variable_names(X.shape[1])
    env = dict(_FUNCTIONS)
    env.update({n: X[:, i] for i, n in enumerate(names)})
    for ident in _IDENT.findall(_NUMBER.sub(" ", text)):
        if ident not in env:
            raise ValueError(f"unknown name {ident!r} in {text!r}")
    with np.errstate(all="ignore"):
        out = eval(text.replace("^", "**"), {"__builtins__": {}}, env)  # noqa: S307
        out = np.broadcast_to(np.asarray(out, dtype=float), (X.shape[0],)).copy()
    out[~np.isfinite(out)] = np.nan
    return out


def r2(pred: np.ndarray, y: np.ndarray) -> float:
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else -math.inf
    return 1.0 - ss_res / ss_tot


def trimmed_r2(pred: np.ndarray, y: np.ndarray, fraction: float = 0.05) -> float:
    """R-squared after dropping the floor(fraction * n) worst points;
    undefined predictions count as the worst.  -inf if any undefined
    prediction survives the trim."""
    n = y.shape[0]
    err = (y - pred) ** 2
    err[np.isnan(err)] = np.inf
    keep = np.argsort(err, kind="stable")[: n - math.floor(fraction * n)]
    if np.isnan(pred[keep]).any():
        return -math.inf
    return r2(pred[keep], y[keep])
