"""The exact distribution behind the joint over (bias, decision, box).

core.build_joint is the only builder of a FiniteDist, and conditioning
that joint gives P(box full | own decision). So the class keeps only
len, weight, prob, condition and mean, and from_weights, its one public
constructor: the benchmark's tracer looks up from_weights and condition
by name and counts the joint's atoms with len.

Inside, a distribution is one positive int numerator per outcome over
one shared int denominator, which the numerators sum to. Summing mass
and conditioning are plain int arithmetic, with no gcd per step; a
Fraction is built only where a value leaves: weight, prob and mean.
Weights and mean values pass through rational.coerce_fraction, which
refuses floats, so everything downstream stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Iterable

from .errors import (
    EmptyDistributionError,
    NegativeWeightError,
    ZeroProbabilityEventError,
    ZeroTotalWeightError,
)
from .rational import coerce_fraction, describe


def _check_numerators(num: dict, den: int) -> None:
    """The checks on a distribution: some outcome, each weight num[x] / den
    positive, and the weights summing to 1."""
    if not num:
        raise EmptyDistributionError("distribution has no atoms")
    if min(num.values()) <= 0:
        outcome, n = next((x, n) for x, n in num.items() if n <= 0)
        raise NegativeWeightError(
            f"atom weight for {describe(outcome, repr)} must be positive, "
            f"got {describe(Fraction(n, den))}"
        )
    total = sum(num.values())
    if total != den:
        raise ZeroTotalWeightError(
            f"atom weights sum to {describe(Fraction(total, den))}, not 1"
        )


def _merged_numerators(
    pairs: Iterable[tuple[Hashable, Fraction | int]],
) -> tuple[dict, int]:
    """Raw nonnegative weights as int numerators, merged by outcome.

    Returns (numerators, total): outcome x has normalized weight
    numerators[x] / total. Zero-weight outcomes are dropped. Raises as
    FiniteDist.from_weights does.
    """
    checked = []
    for outcome, raw in pairs:
        w = coerce_fraction(raw, "weight")
        if w.numerator < 0:
            raise NegativeWeightError(
                f"weight {describe(w)} for outcome "
                f"{describe(outcome, repr)} is negative"
            )
        checked.append((outcome, w))
    if not checked:
        raise EmptyDistributionError("no atoms given")
    scale = lcm(*(w.denominator for _, w in checked))
    merged: dict = {}
    for outcome, w in checked:
        merged[outcome] = merged.get(outcome, 0) + w.numerator * (
            scale // w.denominator
        )
    total = sum(merged.values())
    if total == 0:
        raise ZeroTotalWeightError("weights sum to zero")
    if 0 in merged.values():
        merged = {x: n for x, n in merged.items() if n}
    return merged, total


class FiniteDist:
    """Exact finite distribution: outcome x has weight num[x] / den.

    Build it with from_weights. The constructor itself checks nothing:
    its caller passes positive int numerators that sum to den.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int) -> None:
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _from_numerators(cls, num: dict, den: int) -> FiniteDist:
        """Package-internal: the distribution num[x] / den, for int
        numerators, checked to be positive and to sum to den."""
        _check_numerators(num, den)
        return cls(num, den)

    @classmethod
    def from_weights(cls, pairs: Iterable[tuple[Hashable, Fraction | int]]) -> FiniteDist:
        """Normalize raw nonnegative weights into a distribution.

        Duplicate outcomes merge, zero-weight outcomes drop, and the
        result is scaled to total mass 1. Raises EmptyDistributionError,
        NegativeWeightError, ZeroTotalWeightError, or InvalidModelError
        for a weight that is not a Fraction or an int.
        """
        merged, total = _merged_numerators(pairs)
        # dividing every weight by the total mass is a change of denominator
        return cls(merged, total)

    def __setattr__(self, name, *value):
        # *value: del passes no value, so one function serves both
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self._num)

    def weight(self, outcome: Hashable) -> Fraction:
        """Mass of a single outcome; 0 when absent from the support."""
        return Fraction(self._num.get(outcome, 0), self._den)

    def prob(self, event: Callable[[Hashable], bool]) -> Fraction:
        return Fraction(sum(n for x, n in self._num.items() if event(x)), self._den)

    def condition(self, event: Callable[[Hashable], bool]) -> FiniteDist:
        """Exact conditional distribution given the event.

        Raises ZeroProbabilityEventError when the event has mass zero;
        the conditional does not exist and there is no fallback value.
        """
        kept = {x: n for x, n in self._num.items() if event(x)}
        if not kept:
            raise ZeroProbabilityEventError(
                "cannot condition on an event of probability zero"
            )
        return FiniteDist(kept, sum(kept.values()))

    def mean(self, f: Callable[[Hashable], Fraction | int]) -> Fraction:
        # one product per distinct value, not one per atom
        by_value: dict[Fraction, int] = {}
        for x, n in self._num.items():
            v = coerce_fraction(f(x), "mean value")
            by_value[v] = by_value.get(v, 0) + n
        return sum((v * n for v, n in by_value.items()), Fraction(0)) / self._den
