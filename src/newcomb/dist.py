"""Finite probability distributions with exact rational weights.

A FiniteDist is an immutable map from hashable outcomes to Fraction
weights that sum to exactly 1. Weights and mean values pass through
rational.coerce_fraction, which refuses floats, so conditioning,
marginals and means downstream stay exact.

Inside, a distribution is one positive int numerator per outcome over
one shared int denominator, and the numerators sum to the denominator.
Summing mass, conditioning (keep the matching numerators; their sum is
the new denominator) and pushforward are plain int arithmetic, with no
gcd and no Fraction per step. A Fraction is built only where a value
leaves the object: prob, weight, mean and atoms. The public API is that
of a map from outcomes to Fraction weights; the numerators are not part
of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Generic, Hashable, Iterable, Iterator, TypeVar

from .errors import (
    EmptyDistributionError,
    InvalidModelError,
    NegativeWeightError,
    ZeroProbabilityEventError,
    ZeroTotalWeightError,
)
from .rational import coerce_fraction, describe

T = TypeVar("T", bound=Hashable)
U = TypeVar("U", bound=Hashable)


def _check_numerators(num: dict, den: int) -> None:
    """The checks on atoms: some outcome, each weight num[x] / den
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
    pairs: Iterable[tuple[T, Fraction | int]],
) -> tuple[dict[T, int], int]:
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
    merged: dict[T, int] = {}
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


class FiniteDist(Generic[T]):
    """Exact finite distribution. Build with from_weights, or from atoms
    whose weights already sum to 1.

    atoms holds (outcome, weight) pairs with strictly positive Fraction
    weights summing to 1, one pair per outcome, in first-occurrence
    order of the input. Equality ignores order: two distributions are
    equal when they assign the same weight to the same outcomes.
    """

    __slots__ = ("_num", "_den", "_atoms")

    def __init__(self, atoms: Iterable[tuple[T, Fraction | int]]) -> None:
        atoms = tuple(atoms)
        weights = [coerce_fraction(w, "atom weight") for _, w in atoms]
        den = lcm(*(w.denominator for w in weights))
        num = {
            outcome: w.numerator * (den // w.denominator)
            for (outcome, _), w in zip(atoms, weights)
        }
        if len(num) != len(atoms):
            raise InvalidModelError(
                "duplicate outcomes in atoms; use from_weights to merge"
            )
        _check_numerators(num, den)
        self._set(num, den, tuple(zip(num, weights)))

    def _set(self, num: dict, den: int, atoms) -> None:
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_atoms", atoms)

    @classmethod
    def _exact(cls, num: dict[T, int], den: int) -> "FiniteDist[T]":
        # positive numerators summing to den, by construction of the caller
        dist = object.__new__(cls)
        dist._set(num, den, None)
        return dist

    @classmethod
    def _from_numerators(cls, num: dict[T, int], den: int) -> "FiniteDist[T]":
        """Package-internal: the distribution num[x] / den, for int
        numerators, checked as atoms are."""
        _check_numerators(num, den)
        return cls._exact(num, den)

    @classmethod
    def from_weights(cls, pairs: Iterable[tuple[T, Fraction | int]]) -> "FiniteDist[T]":
        """Normalize raw nonnegative weights into a distribution.

        Duplicate outcomes merge, zero-weight outcomes drop, and the
        result is scaled to total mass 1. Raises EmptyDistributionError,
        NegativeWeightError, ZeroTotalWeightError, or InvalidModelError
        for a weight that is not a Fraction or an int.
        """
        merged, total = _merged_numerators(pairs)
        # dividing every weight by the total mass is a change of denominator
        return cls._exact(merged, total)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # pickle and copy rebuild through the checked constructor
        return (type(self), (self.atoms,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(atoms={self.atoms!r})"

    @property
    def atoms(self) -> tuple[tuple[T, Fraction], ...]:
        if self._atoms is None:
            den = self._den
            atoms = tuple((x, Fraction(n, den)) for x, n in self._num.items())
            object.__setattr__(self, "_atoms", atoms)
        return self._atoms

    def __iter__(self) -> Iterator[tuple[T, Fraction]]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteDist):
            return NotImplemented
        mine, theirs = self._num, other._num
        if mine.keys() != theirs.keys():
            return False
        a, b = self._den, other._den
        return all(n * b == theirs[x] * a for x, n in mine.items())

    def __hash__(self) -> int:
        # the lowest common denominator is unique, so equal distributions
        # hash equally whatever denominator each one carries
        g = gcd(self._den, *self._num.values())
        return hash(
            (self._den // g, frozenset((x, n // g) for x, n in self._num.items()))
        )

    @property
    def support(self) -> tuple[T, ...]:
        return tuple(self._num)

    def weight(self, outcome: T) -> Fraction:
        """Mass of a single outcome; 0 when absent from the support."""
        return Fraction(self._num.get(outcome, 0), self._den)

    def prob(self, event: Callable[[T], bool]) -> Fraction:
        return Fraction(sum(n for x, n in self._num.items() if event(x)), self._den)

    def condition(self, event: Callable[[T], bool]) -> "FiniteDist[T]":
        """Exact conditional distribution given the event.

        Raises ZeroProbabilityEventError when the event has mass zero;
        the conditional does not exist and there is no fallback value.
        """
        kept = {x: n for x, n in self._num.items() if event(x)}
        if not kept:
            raise ZeroProbabilityEventError(
                "cannot condition on an event of probability zero"
            )
        return FiniteDist._exact(kept, sum(kept.values()))

    def map(self, f: Callable[[T], U]) -> "FiniteDist[U]":
        """Pushforward along f, merging outcomes with equal images."""
        merged: dict[U, int] = {}
        for x, n in self._num.items():
            y = f(x)
            merged[y] = merged.get(y, 0) + n
        return FiniteDist._exact(merged, self._den)

    def mean(self, f: Callable[[T], Fraction | int]) -> Fraction:
        # one product per distinct value, not one per atom
        by_value: dict[Fraction, int] = {}
        for x, n in self._num.items():
            v = coerce_fraction(f(x), "mean value")
            by_value[v] = by_value.get(v, 0) + n
        return sum((v * n for v, n in by_value.items()), Fraction(0)) / self._den
