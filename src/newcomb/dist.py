"""Finite probability distributions with exact rational weights.

A FiniteDist is an immutable map from hashable outcomes to Fraction
weights that sum to exactly 1. Weights and mean values pass through
rational.coerce_fraction, which refuses floats, so conditioning,
marginals and means downstream stay in exact Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


@dataclass(frozen=True, eq=False)
class FiniteDist(Generic[T]):
    """Exact finite distribution. Build with from_weights, or from atoms
    whose weights already sum to 1.

    atoms holds (outcome, weight) pairs with strictly positive weights
    summing to 1, one pair per outcome, in first-occurrence order of the
    input. Equality ignores order: two distributions are equal when they
    assign the same weight to the same outcomes.
    """

    atoms: tuple[tuple[T, Fraction], ...]
    _index: dict[T, Fraction] = field(init=False, repr=False, compare=False)

    @classmethod
    def from_weights(cls, pairs: Iterable[tuple[T, Fraction | int]]) -> "FiniteDist[T]":
        """Normalize raw nonnegative weights into a distribution.

        Duplicate outcomes merge, zero-weight outcomes drop, and the
        result is scaled to total mass 1. Raises EmptyDistributionError,
        NegativeWeightError, ZeroTotalWeightError, or InvalidModelError
        for a weight that is not a Fraction or an int.
        """
        merged: dict[T, Fraction] = {}
        saw_any = False
        for outcome, raw in pairs:
            saw_any = True
            w = coerce_fraction(raw, "weight")
            if w < 0:
                raise NegativeWeightError(
                    f"weight {describe(w)} for outcome "
                    f"{describe(outcome, repr)} is negative"
                )
            merged[outcome] = merged.get(outcome, Fraction(0)) + w
        if not saw_any:
            raise EmptyDistributionError("no atoms given")
        total = sum(merged.values(), Fraction(0))
        if total == 0:
            raise ZeroTotalWeightError("weights sum to zero")
        atoms = tuple(
            (outcome, w / total) for outcome, w in merged.items() if w != 0
        )
        return cls(atoms=atoms)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise EmptyDistributionError("distribution has no atoms")
        total = Fraction(0)
        for outcome, w in self.atoms:
            coerce_fraction(w, "atom weight")
            if w <= 0:
                raise NegativeWeightError(
                    f"atom weight for {describe(outcome, repr)} must be positive, "
                    f"got {describe(w)}"
                )
            total += w
        if total != 1:
            raise ZeroTotalWeightError(f"atom weights sum to {describe(total)}, not 1")
        index = dict(self.atoms)
        if len(index) != len(self.atoms):
            raise InvalidModelError(
                "duplicate outcomes in atoms; use from_weights to merge"
            )
        object.__setattr__(self, "_index", index)

    def __iter__(self) -> Iterator[tuple[T, Fraction]]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteDist):
            return NotImplemented
        return self._index == other._index

    def __hash__(self) -> int:
        return hash(frozenset(self._index.items()))

    @property
    def support(self) -> tuple[T, ...]:
        return tuple(outcome for outcome, _ in self.atoms)

    def weight(self, outcome: T) -> Fraction:
        """Mass of a single outcome; 0 when absent from the support."""
        return self._index.get(outcome, Fraction(0))

    def prob(self, event: Callable[[T], bool]) -> Fraction:
        return sum((w for x, w in self.atoms if event(x)), Fraction(0))

    def condition(self, event: Callable[[T], bool]) -> "FiniteDist[T]":
        """Exact conditional distribution given the event.

        Raises ZeroProbabilityEventError when the event has mass zero;
        the conditional does not exist and there is no fallback value.
        """
        mass = self.prob(event)
        if mass == 0:
            raise ZeroProbabilityEventError(
                "cannot condition on an event of probability zero"
            )
        atoms = tuple((x, w / mass) for x, w in self.atoms if event(x))
        return FiniteDist(atoms=atoms)

    def map(self, f: Callable[[T], U]) -> "FiniteDist[U]":
        """Pushforward along f, merging outcomes with equal images."""
        merged: dict[U, Fraction] = {}
        for x, w in self.atoms:
            y = f(x)
            merged[y] = merged.get(y, Fraction(0)) + w
        return FiniteDist(atoms=tuple(merged.items()))

    def mean(self, f: Callable[[T], Fraction | int]) -> Fraction:
        return sum(
            (w * coerce_fraction(f(x), "mean value") for x, w in self.atoms),
            Fraction(0),
        )
