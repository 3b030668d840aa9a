"""Parsing and rendering of exact rationals on the wire.

The accepted text grammar is deliberately narrower than what Fraction's
own constructor takes: an optional sign, an integer, and optionally a
slash with a positive integer denominator. Decimal points and exponents
are rejected so that every value a file can carry is exactly
representable.
"""

from __future__ import annotations

import decimal
import re
import sys
from fractions import Fraction

from .errors import InvalidModelError, InvalidScenarioError, ScenarioParseError

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# significant digits of the rounded decimal shown next to an exact value
_DECIMAL_DIGITS = 6


def parse_rational(text: str, *, what: str = "value") -> Fraction:
    """Parse "<int>" or "<int>/<positive int>" into a Fraction.

    Non-canonical forms reduce ("2/4" -> 1/2). `what` names the field in
    error messages. An integer longer than Python's int-string limit is
    a parse error too.
    """
    if not isinstance(text, str):
        raise ScenarioParseError(
            f"{what}: expected a rational as a string, got {type(text).__name__}"
        )
    # fullmatch, not match with "$": "$" also matches before a final "\n"
    if not _RATIONAL_RE.fullmatch(text):
        raise ScenarioParseError(
            f"{what}: {text!r} is not of the form '<int>' or '<int>/<posint>'"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScenarioParseError(f"{what}: {text!r} has a zero denominator") from None
    except ValueError as exc:
        raise ScenarioParseError(f"{what}: {exc}") from None


def coerce_fraction(value, what: str = "value") -> Fraction:
    """Accept a Fraction or an int; reject everything else.

    Floats are rejected on purpose. Coercing one would launder rounding
    error into arithmetic that is advertised as exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InvalidModelError(
        f"{what} must be a Fraction or int, got {type(value).__name__}"
    )


def format_rational(value: Fraction) -> str:
    """Canonical text form: lowest terms, '/' omitted for integers.

    Takes a Fraction or an int. A numerator or denominator longer than
    Python's int-string limit raises InvalidScenarioError, as such an
    integer does on parsing.
    """
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """format_rational of num/den, given in lowest terms with den > 0.

    Callers that keep a rational as a pair of ints print it here without
    building a Fraction.
    """
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError as exc:
        raise InvalidScenarioError(f"exact value too long to print: {exc}") from None


def describe(value, render=str) -> str:
    """render(value) for an error message; never raises ValueError.

    An integer past Python's int-string limit, inside a Fraction or any
    other value, makes str and repr raise ValueError. A rational is then
    shown by its rounded decimal; anything else by its type name.
    """
    try:
        return render(value)
    except ValueError:
        if isinstance(value, (Fraction, int)):
            return f"{decimal_str(Fraction(value))} (exact form too long to print)"
        return f"<{type(value).__name__} too long to print>"


def decimal_str(value: Fraction) -> str:
    """Rounded decimal rendering for display next to the exact form.

    A nonzero value outside the range of normal floats is rounded from
    the Fraction itself, in the same style: 10**400 renders as "1e+400"
    and 10**-400 as "1e-400", where a float would overflow, underflow to
    0 or keep too few digits.
    """
    try:
        as_float = float(value)
    except OverflowError:
        as_float = None
    if as_float is not None and (abs(as_float) >= sys.float_info.min or not value):
        return f"{as_float:.{_DECIMAL_DIGITS}g}"
    context = decimal.Context(prec=_DECIMAL_DIGITS)
    rounded = context.divide(
        decimal.Decimal(value.numerator), decimal.Decimal(value.denominator)
    )
    return f"{rounded.normalize(context):.{_DECIMAL_DIGITS}g}"
