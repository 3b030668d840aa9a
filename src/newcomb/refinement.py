"""Refining and coarsening knowledge about the predictor.

A finer prior over omega is one whose support points can be grouped into
blocks so that replacing each block with its mean recovers the coarser
prior. Coarsening preserves the prior mean p but discards variance, and
the discarded amount is exactly the weighted within-block variance:

    fine variance = coarse variance + expected conditional variance

Since the one-box/two-box threshold grows with the prior variance,
learning more about the predictor (refining) can only raise the set of
reward ratios at which one-boxing wins.

The delta-omniscience check asks how close a prior is to treating the
predictor as all-knowing: no mass strictly between delta and 1 - delta.
Such a prior forces sigma squared >= (1-delta)^2 (p-delta) - p^2, which
approaches the maximum possible variance p(1 - p) as delta -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import PredictionModel
from .errors import DeltaOutOfRangeError, InvalidPartitionError
from .rational import coerce_fraction, describe


@dataclass(frozen=True)
class RefinementModel:
    """A fine prior plus a partition of its support into blocks.

    blocks holds 0-based indices into fine.support; together the blocks
    must cover every index exactly once and none may be empty.
    """

    fine: PredictionModel
    blocks: tuple[tuple[int, ...], ...]

    # blocks are stored canonically: each block ascending, blocks ordered
    # by first index, so equal partitions compare equal however written
    def __post_init__(self) -> None:
        if not isinstance(self.fine, PredictionModel):
            raise InvalidPartitionError(
                f"fine must be a PredictionModel, got {type(self.fine).__name__}"
            )
        cleaned = []
        for block in self.blocks:
            try:
                entries = tuple(block)
            except TypeError:
                raise InvalidPartitionError(
                    "blocks must be sequences of support indices"
                ) from None
            for i in entries:
                if not isinstance(i, int) or isinstance(i, bool):
                    raise InvalidPartitionError(
                        f"index {i!r} is not an integer"
                    )
            cleaned.append(tuple(sorted(entries)))
        cleaned.sort(key=lambda block: block[:1])
        blocks = tuple(cleaned)
        object.__setattr__(self, "blocks", blocks)
        n = len(self.fine.support)
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise InvalidPartitionError("a partition block is empty")
            for i in block:
                if not 0 <= i < n:
                    raise InvalidPartitionError(
                        f"index {i} outside the support range 0..{n - 1}"
                    )
                if i in seen:
                    raise InvalidPartitionError(
                        f"index {i} appears in more than one block"
                    )
                seen.add(i)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise InvalidPartitionError(
                f"indices {missing} are not covered by any block"
            )


@dataclass(frozen=True)
class VarianceDecomposition:
    """The three sides of the variance identity, computed independently."""

    fine_variance: Fraction
    coarse_variance: Fraction
    expected_conditional_variance: Fraction


@dataclass(frozen=True)
class OmniscienceReport:
    delta: Fraction
    is_omniscient: bool
    variance_lower_bound: Fraction
    actual_variance: Fraction


def coarsen(model: RefinementModel) -> PredictionModel:
    """Collapse each block to its mean omega, keeping the block's mass.

    Blocks whose means coincide merge into a single support point.
    """
    support = model.fine.support
    pairs = []
    for block in model.blocks:
        mass = sum((support[i][1] for i in block), Fraction(0))
        first = sum((support[i][1] * support[i][0] for i in block), Fraction(0))
        pairs.append((first / mass, mass))
    return PredictionModel.from_weights(pairs)


def variance_decomposition(model: RefinementModel) -> VarianceDecomposition:
    """Compute all three variances directly, none derived from the others.

    The identity fine = coarse + expected conditional (law of total
    variance) is a consequence of the construction, not an assumption of
    this function, so tests can use the returned triple to check it.
    """
    support = model.fine.support
    expected_cond = Fraction(0)
    for block in model.blocks:
        mass = first = second = Fraction(0)
        for i in block:
            omega, q = support[i]
            mass += q
            first += q * omega
            second += q * omega * omega
        # block mass times the block's variance, second/mass - (first/mass)**2
        expected_cond += second - first * first / mass
    return VarianceDecomposition(
        fine_variance=model.fine.variance,
        coarse_variance=coarsen(model).variance,
        expected_conditional_variance=expected_cond,
    )


def check_delta_omniscience(model: PredictionModel, delta) -> OmniscienceReport:
    """Test whether the prior puts no mass strictly inside (delta, 1-delta).

    Support points exactly at delta or 1 - delta still count as
    omniscient; the excluded region is open. Requires
    0 <= delta < min(p, 1 - p), so in particular the prior must be
    imperfect. When the prior is omniscient, its variance is at least
    the reported lower bound (1-delta)^2 (p-delta) - p^2, which exceeds
    p(1-p) - 3*delta and therefore tends to the two-point maximum as
    delta shrinks.
    """
    delta = coerce_fraction(delta, "delta")
    p = model.p
    limit = min(p, 1 - p)
    if not 0 <= delta < limit:
        raise DeltaOutOfRangeError(
            "delta must satisfy 0 <= delta < min(p, 1 - p) = "
            f"{describe(limit)}, got {describe(delta)}"
        )
    omniscient = all(
        not (delta < omega < 1 - delta) for omega, _ in model.support
    )
    bound = (1 - delta) ** 2 * (p - delta) - p * p
    return OmniscienceReport(
        delta=delta,
        is_omniscient=omniscient,
        variance_lower_bound=bound,
        actual_variance=model.variance,
    )
