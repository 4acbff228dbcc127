"""Type and range checks for config values and config dataclass fields.

Config files are untrusted JSON, so a field is checked for its type as
well as its range: a bool is not a count, 2.5 is not a count, and a
string or NaN is not a number.  Each check raises ValueError naming the
field and the value."""

from __future__ import annotations

import numbers
import sys


def integer(obj, key: str, low: int, high: int | None = None):
    """obj.key must be a non-bool integer >= low, and <= high if given."""
    value = getattr(obj, key)
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low
            or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{key} must be an integer {bound}, got {value!r}")


def real(obj, key: str, ok=lambda v: True, what: str = "a finite number"):
    """obj.key must be a finite non-bool real number for which ok holds.
    An integer too large for a float is not finite."""
    value = getattr(obj, key)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max or not ok(value)):
        raise ValueError(f"{key} must be {what}, got {value!r}")


def of_type(obj, key: str, kind: type, what: str):
    """obj.key must be an instance of kind."""
    value = getattr(obj, key)
    if not isinstance(value, kind):
        raise ValueError(f"{key} must be {what}, got {value!r}")
