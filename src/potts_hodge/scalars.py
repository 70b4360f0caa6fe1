"""Scalar handling for the two arithmetic modes.

Exact mode computes over arbitrary-precision rationals: gmpy2.mpq when
gmpy2 is installed, fractions.Fraction otherwise.  Rationals are the
interface type only.  The evaluators and the exact signature clear the
denominators of their inputs once (clear_denominators) and run on Python
ints, so the hot paths do not depend on the rational backend.  Float mode
is an opt-in diagnostic mode: it accepts finite floats, and the evaluators
convert them exactly, compute exactly and round each result once.  Mixing
a float into an exact computation is rejected rather than silently
coerced, so results in exact mode are bit-reproducible.
"""
from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .errors import InvalidParametersError, ParseError

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _mpq = None

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


def rat(numerator, denominator=1):
    """Exact rational from integers, Fractions, another rational, or a finite
    float (converted exactly, to the binary fraction it stores)."""
    backend = Fraction if _mpq is None else _mpq
    if denominator == 1:
        return backend(numerator)
    return backend(numerator, denominator)


#: multiplicative identity in exact mode
RAT_ONE = rat(1)


def clear_denominators(values):
    """(ints, den) for exact rationals: den is the least common multiple of
    their denominators and ints[i] = den * values[i], each a Python int."""
    den = math.lcm(*(int(x.denominator) for x in values))
    return [int(x.numerator) * (den // int(x.denominator)) for x in values], den


_EXACT_TYPES = (int, Fraction) if _mpq is None else (int, Fraction, type(_mpq()))


def is_exact_scalar(value):
    """True for ints and exact rationals, False for floats and everything else."""
    if type(value) in _EXACT_TYPES:  # bool is a subclass, not one of these
        return True
    if isinstance(value, (bool, float)):
        return False
    return isinstance(value, numbers.Rational)


def ensure_mode(mode):
    if mode not in MODES:
        raise InvalidParametersError(f"unknown arithmetic mode {mode!r}; expected one of {MODES}")
    return mode


def coerce_scalar(value, mode):
    """Bring one number into the requested mode.

    Exact mode accepts ints and rationals only; floats raise, because a float
    smuggled into a rational pipeline would silently poison exactness.
    Float mode accepts anything float() takes, except nan and +-inf.
    """
    if mode == EXACT:
        if not is_exact_scalar(value):
            raise InvalidParametersError(
                f"exact mode requires rational inputs, got {value!r} of type {type(value).__name__}"
            )
        return rat(value)
    if mode == FLOAT:
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParametersError(f"cannot convert {value!r} to float") from exc
        if not math.isfinite(x):
            raise InvalidParametersError(f"float mode requires finite inputs, got {value!r}")
        return x
    ensure_mode(mode)


def coerce_vector(values, mode):
    return tuple(coerce_scalar(v, mode) for v in values)


def parse_rational(text):
    """Parse a command-line rational literal: "5", "-3", or "num/den".

    Decimal-point floats are deliberately rejected; exact interfaces only
    accept exact input.
    """
    s = str(text).strip()
    try:
        if "/" in s:
            num_s, den_s = s.split("/", 1)
            num, den = int(num_s), int(den_s)
            if den == 0:
                raise ParseError(f"zero denominator in rational literal {text!r}")
            return rat(num, den)
        return rat(int(s))
    except ValueError as exc:
        raise ParseError(f"not a rational literal: {text!r} (expected 'num' or 'num/den')") from exc


def scalar_to_json(value):
    """JSON form of one scalar: {"num": "...", "den": "..."} exact, bare double float."""
    if is_exact_scalar(value):
        r = rat(value)
        return {"num": str(int(r.numerator)), "den": str(int(r.denominator))}
    if isinstance(value, float):
        return value
    raise InvalidParametersError(f"cannot serialize scalar {value!r}")


def scalar_from_json(obj):
    """Inverse of scalar_to_json; bare JSON numbers deserialize as floats."""
    if isinstance(obj, dict):
        try:
            return rat(int(obj["num"]), int(obj["den"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"malformed exact scalar {obj!r}") from exc
    if isinstance(obj, bool):
        raise ParseError(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return float(obj)
    if isinstance(obj, float):
        return obj
    raise ParseError(f"not a scalar: {obj!r}")


def vector_to_json(values):
    return [scalar_to_json(v) for v in values]


def vector_from_json(objs):
    return tuple(scalar_from_json(o) for o in objs)
