"""Exact scalars, and the float format of the command line.

The library computes over exact rationals only.  An integer input is an
int, never a bool (is_int), and an exact scalar an int or a Fraction
(is_exact_scalar).  Exact inputs are validated as they are given:
exact_scalar and exact_values refuse a float, a bool and anything else
rather than coercing them silently, so every result is bit-reproducible,
and they keep an int an int.  rat is the one conversion to a Fraction,
and it also refuses a zero denominator.  Rationals are the interface type
only: the evaluators and the exact signature clear the denominators of
their inputs once (clear_denominators) and run on ints, and JSON is built
from the numerator and denominator of a value, which an int has as well.
Inside a shared_wire block (a campaign runs in one) scalar_to_json
returns one shared dict per distinct exact value, whose strings are
shared too, so the records that hold it are read-only data; outside one
it returns a fresh dict.

Float mode is a format of the command line.  from_float converts a finite
double exactly to a rational, the library evaluates exactly, and to_float
rounds each result once.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import InvalidParametersError, ParseError

EXACT = "exact"
FLOAT = "float"


def is_int(value):
    """The one integer rule: True for an int, False for a bool (an int
    subclass) and for everything that is not an int."""
    return isinstance(value, int) and not isinstance(value, bool)


EXACT_TYPES = frozenset((int, Fraction))  # bool is a subclass, not one of these


def is_exact_scalar(value):
    """True for an int or a Fraction, False for a bool, a float and
    everything else."""
    return type(value) in EXACT_TYPES


def _refused(value):
    return InvalidParametersError(
        f"exact mode requires rational inputs, got {value!r} of type {type(value).__name__}")


def exact_scalar(value):
    """value as it is, an int or a Fraction; anything else raises
    InvalidParametersError."""
    if type(value) in EXACT_TYPES:
        return value
    raise _refused(value)


def exact_values(values):
    """values as a tuple of ints and Fractions, each as it is; anything
    else raises InvalidParametersError.  The types are tested in one pass."""
    out = tuple(values)
    if not EXACT_TYPES.issuperset(map(type, out)):
        raise _refused(next(x for x in out if type(x) not in EXACT_TYPES))
    return out


def rat(numerator, denominator=None):
    """numerator / denominator (or numerator alone) as a Fraction, for ints
    and Fractions.  A float, a bool or a zero denominator raises
    InvalidParametersError; float inputs go through from_float."""
    if denominator is None:
        return Fraction(exact_scalar(numerator))
    exact_scalar(numerator)
    if exact_scalar(denominator) == 0:
        raise InvalidParametersError(f"zero denominator in {numerator}/{denominator}")
    return Fraction(numerator, denominator)


def clear_denominators(values):
    """(ints, den) for exact rationals: den is the least common multiple of
    their denominators and ints[i] = den * values[i], each a Python int."""
    if {int}.issuperset(map(type, values)):
        return list(values), 1
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


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


# the table of the innermost shared_wire block: (numerator, denominator)
# -> the one JSON dict of that value, and int -> its one str; None outside
# every block
_wire = ContextVar("wire", default=None)


@contextmanager
def shared_wire():
    """A block within which scalar_to_json returns one shared dict per
    distinct exact value, built on its first call, and one shared str per
    distinct numerator or denominator.  Equal values encode to equal
    bytes, so sharing changes no report, only its memory; the dicts are
    read-only data.  The table lives as long as the block, and a process
    forked inside it fills its own copy.  A table of its own, not
    sys.intern: inserting into the interpreter's interned-string table
    raised a campaign's peak RSS."""
    token = _wire.set({})
    try:
        yield
    finally:
        _wire.reset(token)


def scalar_to_json(value):
    """JSON form of one scalar: {"num": "...", "den": "..."} exact, bare
    double float.  An exact value's dict is fresh, or the shared one inside
    a shared_wire block, whose equal numerators and denominators share one
    str."""
    if type(value) is int:
        key = value, 1
    elif type(value) is Fraction:
        key = value.numerator, value.denominator
    elif isinstance(value, float):
        return value
    else:
        raise InvalidParametersError(f"cannot serialize scalar {value!r}")
    table = _wire.get()
    if table is None:
        return {"num": str(key[0]), "den": str(key[1])}
    obj = table.get(key)
    if obj is None:
        # the table also maps each int to one str of it, so equal numerators
        # and denominators of different values share one string
        num, den = key
        obj = table[key] = {"num": table.get(num) or table.setdefault(num, str(num)),
                            "den": table.get(den) or table.setdefault(den, str(den))}
    return obj


def scalar_from_json(obj):
    """The exact scalar of a {"num": "...", "den": "..."} object of two
    integer strings.  Anything else, a bare JSON number or bool included,
    is a ParseError: a stored check records its inputs exactly."""
    if not (isinstance(obj, dict) and type(obj.get("num")) is str and type(obj.get("den")) is str):
        raise ParseError(f"not an exact scalar: {obj!r}")
    try:
        return rat(int(obj["num"]), int(obj["den"]))
    except (ValueError, InvalidParametersError) as exc:
        raise ParseError(f"malformed exact scalar {obj!r}") from exc


def vector_to_json(values):
    return [scalar_to_json(v) for v in values]


def vector_from_json(objs):
    """The exact scalars of a list of {"num", "den"} objects; anything but
    a list is a ParseError."""
    if not isinstance(objs, (list, tuple)):
        raise ParseError(f"not a list of exact scalars: {objs!r}")
    return tuple(scalar_from_json(o) for o in objs)
