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
from fractions import Fraction

from .errors import InvalidModelError, ScenarioParseError

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


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
    if not _RATIONAL_RE.match(text):
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
    """Canonical text form: lowest terms, '/' omitted for integers."""
    return str(Fraction(value))


def decimal_str(value: Fraction, digits: int = 6) -> str:
    """Rounded decimal rendering for display next to the exact form.

    A value beyond the float range is rounded from the Fraction itself,
    in the same style (10**400 renders as "1e+400").
    """
    try:
        return f"{float(value):.{digits}g}"
    except OverflowError:
        context = decimal.Context(prec=digits)
        rounded = context.divide(
            decimal.Decimal(value.numerator), decimal.Decimal(value.denominator)
        )
        return f"{rounded.normalize(context):.{digits}g}"
