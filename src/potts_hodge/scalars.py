"""Exact scalars, and the float format of the command line.

The library computes over exact rationals only.  Inputs are ints or
rationals, and results are fractions.Fraction; as_rational is the one
coercion, and it rejects floats rather than coercing them silently, so
every result is bit-reproducible.  Rationals are the interface type only:
the evaluators and the exact signature clear the denominators of their
inputs once (clear_denominators) and run on Python ints.

Float mode is a format of the command line.  from_float converts a finite
double exactly to a rational, the library evaluates exactly, and to_float
rounds each result once.
"""
from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .errors import InvalidParametersError, ParseError

EXACT = "exact"
FLOAT = "float"


def rat(numerator, denominator=1):
    """Exact rational from integers, Fractions, another rational, or a finite
    float (converted exactly, to the binary fraction it stores)."""
    if denominator == 1:
        return Fraction(numerator)
    return Fraction(numerator, denominator)


#: multiplicative identity
RAT_ONE = rat(1)


def clear_denominators(values):
    """(ints, den) for exact rationals: den is the least common multiple of
    their denominators and ints[i] = den * values[i], each a Python int."""
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def is_exact_scalar(value):
    """True for ints and exact rationals, False for floats and everything else."""
    if type(value) in (int, Fraction):  # bool is a subclass, not one of these
        return True
    if isinstance(value, (bool, float)):
        return False
    return isinstance(value, numbers.Rational)


def as_rational(value):
    """An int or exact rational as a Fraction; a Fraction comes back as is.

    Floats raise: a float smuggled into a rational pipeline would silently
    poison exactness.  Float inputs go through from_float instead.
    """
    if type(value) is Fraction:
        return value
    if not is_exact_scalar(value):
        raise InvalidParametersError(
            f"exact mode requires rational inputs, got {value!r} of type {type(value).__name__}"
        )
    return Fraction(value)


def as_rationals(values):
    return tuple(map(as_rational, values))


def from_float(value):
    """The exact rational value of a finite double (anything float() takes,
    rounded to a double first); nan and +-inf are rejected."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParametersError(f"cannot convert {value!r} to float") from exc
    if not math.isfinite(x):
        raise InvalidParametersError(f"float mode requires finite inputs, got {value!r}")
    return Fraction(x)


def to_float(value):
    """An exact result rounded once to a double, to +-inf outside the
    double range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        return {"num": str(int(value.numerator)), "den": str(int(value.denominator))}
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
