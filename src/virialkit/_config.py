"""Typed readers for config values: the one place that decides what a
well-formed JSON config value is.  A reader returns the value or raises
ValueError("<key path>: expected <what>, got <value>" or "<key path>: missing").
Numbers are JSON ints, finite floats or "p/q" strings, never booleans.
"""

import json
import sys
from fractions import Fraction

# The largest species index a config or a flag may name: `virial invert
# --degree 2` over this many species takes 0.23 s (2-core Xeon, Python 3.11);
# at degree 3 the CLI's series-plan caps (cli.MAX_SERIES_INDICES) refuse it.
S_MAX = 64
# e^x is a finite float for x <= EXP_MAX
EXP_MAX = 709
_FLOAT_MAX = Fraction(sys.float_info.max)


def to_fraction(value) -> Fraction:
    """Exact rational: floats by their shortest decimal string, strings as
    "p/q" or a plain decimal, where U+2212 reads as "-"."""
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        if "e" in value.lower():  # an exponent may ask for a huge power of ten
            raise ValueError(f"not a p/q or plain decimal string: {value!r}")
        return Fraction(value.replace("−", "-"))
    return Fraction(value)


def _fail(path: str, what: str, value):
    raise ValueError(f"{path}: expected {what}, got {json.dumps(value, default=repr)}")


def config_int(value, path: str, low: int | None = None, high: int | None = None,
               what: str = "an integer") -> int:
    """A JSON integer in low..high; a bound left None is open."""
    if type(value) is int and (low is None or low <= value) and (high is None or value <= high):
        return value
    _fail(path, what if low is None else f"{what} in {low}..{'' if high is None else high}", value)


def config_species(value, path: str, key: bool = False) -> int:
    """A species index in 1..S_MAX; with `key`, the text of a JSON object key."""
    if key and value.isascii() and value.isdigit() and len(value) < 20:
        value = int(value)
    return config_int(value, path, 1, S_MAX, "a species index")


def config_number(value, path: str, what: str = "a number", ok=lambda q: True) -> Fraction:
    """An exact rational for which `ok` holds; `what` names that range."""
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            q = to_fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(path, what, value)
        if abs(q) <= _FLOAT_MAX and ok(q):
            return q
    _fail(path, what, value)


def config_mapping(value, path: str, nonempty: bool = False) -> dict:
    if not isinstance(value, dict) or (nonempty and not value):
        _fail(path, "a non-empty JSON object" if nonempty else "a JSON object", value)
    return value


def config_field(doc: dict, key: str, at: str = "") -> tuple:
    """(doc[key], its key path) of the JSON object at key path `at`."""
    path = f"{at}.{key}" if at else key
    if key not in doc:
        raise ValueError(f"{path}: missing")
    return doc[key], path


def config_list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        _fail(path, "a list" if length is None else f"a list of {length}", value)
    return value
