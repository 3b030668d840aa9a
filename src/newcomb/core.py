"""Exact analysis of the two-box game with a coin-flipping predictor.

The predictor studies the subject and settles on a bias omega, then
fills the opaque box with probability omega. The subject's own choice to
take only the opaque box is, by the predictor's calibration, a flip of
the same coin, independent of the filling flip given omega. The subject
holds a finite prior over omega; everything downstream (posteriors,
counterfactual expectations, the preference threshold) is computed in
exact rational arithmetic from that prior.

Closed forms and joint-distribution conditioning are both provided so
each can be checked against the other; neither is derived from the
other at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple

from .dist import FiniteDist, _merged_numerators
from .errors import (
    InvalidModelError,
    PerfectKnowledgeError,
    UnknownOmegaValueError,
)
from .rational import coerce_fraction, describe


class Decision(Enum):
    """The subject's move: take only the opaque box, or both boxes."""

    ONE_BOX = "onebox"
    TWO_BOX = "twobox"


class PreferenceLabel(Enum):
    ONE_BOX = "onebox"
    TWO_BOX = "twobox"
    INDIFFERENT = "indifferent"

    @classmethod
    def compare(cls, onebox: Fraction, twobox: Fraction) -> PreferenceLabel:
        """The label for the expected rewards of one- and two-boxing."""
        if onebox > twobox:
            return cls.ONE_BOX
        if twobox > onebox:
            return cls.TWO_BOX
        return cls.INDIFFERENT


class JointAtom(NamedTuple):
    """One cell of the joint distribution.

    d indexes the prior support (which bias the predictor settled on),
    decision is the subject's move, box_full says whether the opaque box
    holds the large reward.
    """

    d: int
    decision: Decision
    box_full: bool


@dataclass(frozen=True)
class PredictionModel:
    """Finite prior over the predictor's bias omega.

    support holds (omega, weight) pairs with distinct omega in [0, 1],
    strictly positive weights summing to exactly 1. It is stored sorted
    by omega, so equal priors compare equal regardless of input order.
    """

    support: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for entry in self.support:
            try:
                omega, weight = entry
            except (TypeError, ValueError):
                raise InvalidModelError(
                    f"support entry {describe(entry, repr)} is not an "
                    "(omega, weight) pair"
                ) from None
            cleaned.append(
                (coerce_fraction(omega, "omega"), coerce_fraction(weight, "weight"))
            )
        if not cleaned:
            raise InvalidModelError("support is empty")
        # over the lcms D_w of the weight denominators and D_o of the omega
        # denominators, every weight q and every omega a is an int
        d_w = lcm(*(q.denominator for _, q in cleaned))
        d_o = lcm(*(omega.denominator for omega, _ in cleaned))
        qs = [q.numerator * (d_w // q.denominator) for _, q in cleaned]
        omegas = [omega.numerator * (d_o // omega.denominator) for omega, _ in cleaned]
        order = sorted(range(len(cleaned)), key=omegas.__getitem__)
        previous = None
        for i in order:
            omega, weight = cleaned[i]
            if not 0 <= omegas[i] <= d_o:
                raise InvalidModelError(f"omega {describe(omega)} lies outside [0, 1]")
            # sorted, so a repeated omega follows its first occurrence
            if omegas[i] == previous:
                raise InvalidModelError(
                    f"omega {describe(omega)} appears twice; use from_weights to merge"
                )
            previous = omegas[i]
            if qs[i] <= 0:
                raise InvalidModelError(
                    f"weight {describe(weight)} for omega {describe(omega)} "
                    "must be positive"
                )
        if sum(qs) != d_w:
            raise InvalidModelError(
                f"weights sum to {describe(Fraction(sum(qs), d_w))}, not 1"
            )
        first = sum(q * a for q, a in zip(qs, omegas))
        second = sum(q * a * a for q, a in zip(qs, omegas))
        object.__setattr__(self, "support", tuple(cleaned[i] for i in order))
        # the moments are computed once, here; as plain attributes rather
        # than fields they stay out of equality, hashing and repr
        object.__setattr__(self, "_p", Fraction(first, d_w * d_o))
        object.__setattr__(self, "_second_moment", Fraction(second, d_w * d_o * d_o))
        object.__setattr__(
            self,
            "_variance",
            Fraction(second * d_w - first * first, (d_w * d_o) ** 2),
        )

    @classmethod
    def from_weights(
        cls, pairs: Iterable[tuple[Fraction, Fraction | int]]
    ) -> "PredictionModel":
        """Build from raw nonnegative weights.

        Duplicate omega values merge and weights normalize to total 1.
        Empty, negative and zero-total input raise
        EmptyDistributionError, NegativeWeightError and
        ZeroTotalWeightError; a weight that is not a Fraction or an int
        raises InvalidModelError.
        """
        merged, total = _merged_numerators(
            (coerce_fraction(omega, "omega"), weight) for omega, weight in pairs
        )
        return cls(
            support=tuple((omega, Fraction(n, total)) for omega, n in merged.items())
        )

    @property
    def p(self) -> Fraction:
        """Prior mean of omega: the marginal accuracy of the predictor."""
        return self._p

    @property
    def second_moment(self) -> Fraction:
        return self._second_moment

    @property
    def variance(self) -> Fraction:
        return self._variance

    @property
    def is_imperfect(self) -> bool:
        """True when 0 < p < 1, so both decisions have positive mass."""
        p = self.p
        return 0 < p.numerator < p.denominator

    def require_imperfect(self) -> None:
        if not self.is_imperfect:
            raise PerfectKnowledgeError(
                f"prior mean is {describe(self.p)}; conditioning on one of the two "
                "decisions would condition on a zero-probability event"
            )


@dataclass(frozen=True)
class NewcombScenario:
    """A prior over omega plus the two rewards.

    small_reward sits in the transparent box, large_reward is what the
    predictor may put in the opaque one. Both must be positive.
    """

    prediction: PredictionModel
    small_reward: Fraction
    large_reward: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.prediction, PredictionModel):
            raise InvalidModelError(
                f"prediction must be a PredictionModel, got "
                f"{type(self.prediction).__name__}"
            )
        object.__setattr__(
            self, "small_reward", coerce_fraction(self.small_reward, "small_reward")
        )
        object.__setattr__(
            self, "large_reward", coerce_fraction(self.large_reward, "large_reward")
        )
        if self.small_reward <= 0:
            raise InvalidModelError(
                f"small_reward must be positive, got {describe(self.small_reward)}"
            )
        if self.large_reward <= 0:
            raise InvalidModelError(
                f"large_reward must be positive, got {describe(self.large_reward)}"
            )


@dataclass(frozen=True)
class ScenarioSummary:
    """Exact headline quantities of a scenario.

    prior_box_full is recomputed from the joint distribution rather than
    copied from p, so their equality is a checkable fact. threshold is
    the reward ratio r/R at which the preference flips. authority holds
    authority_table's pairs, from the same joint, as a hashable tuple.
    """

    p: Fraction
    sigma2: Fraction
    prior_box_full: Fraction
    threshold: Fraction
    authority: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class Preference:
    """Outcome of comparing the two counterfactual expectations."""

    label: PreferenceLabel
    expected_onebox: Fraction
    expected_twobox: Fraction


def build_joint(scenario: NewcombScenario) -> FiniteDist:
    """Joint distribution over (d, decision, box_full).

    Given d, the decision flip and the filling flip are independent,
    each coming up "one-box" / "full" with probability omega_d. Each
    atom's weight is the exact product q_d * p_decision * p_box. Over
    D = D_w * D_o**2 (the lcms of the weight and of the omega
    denominators) every such product is an int, and the joint holds
    those ints without normalizing them; FiniteDist checks that they
    sum to D. Zero-weight atoms are pruned. The support is read afresh
    on every call, and the prior's moments are never used.
    """
    support = scenario.prediction.support
    d_w = lcm(*(q.denominator for _, q in support))
    d_o = lcm(*(omega.denominator for omega, _ in support))
    num = {}
    for d, (omega, q) in enumerate(support):
        a, den = omega.numerator, omega.denominator
        b = den - a
        # q_d over D, to be scaled by the small ints of omega and 1 - omega:
        # one large product per support point, not one per atom
        share = q.numerator * (d_w // q.denominator) * (d_o // den) ** 2
        for decision, p_dec in ((Decision.ONE_BOX, a), (Decision.TWO_BOX, b)):
            for box_full, p_box in ((False, b), (True, a)):
                w = p_dec * p_box * share
                if w:
                    num[JointAtom(d, decision, box_full)] = w
    return FiniteDist._from_numerators(num, d_w * d_o * d_o)


def scenario_summary(scenario: NewcombScenario) -> ScenarioSummary:
    """p, sigma squared, the threshold, prior P(full) and the authority pairs.

    Requires an imperfect prior (0 < p < 1) since the threshold divides
    by p(1 - p).
    """
    model = scenario.prediction
    model.require_imperfect()
    p = model.p
    sigma2 = model.variance
    joint = build_joint(scenario)
    return ScenarioSummary(
        p=p,
        sigma2=sigma2,
        prior_box_full=joint.prob(lambda a: a.box_full),
        threshold=sigma2 / (p * (1 - p)),
        authority=_authority_pairs(scenario, joint),
    )


def posterior_box_full(scenario: NewcombScenario, decision: Decision) -> Fraction:
    """P(box full | the subject's own decision), in closed form.

    One-boxing raises it to p + sigma2/p, two-boxing lowers it to
    p - sigma2/(1 - p): the subject's choice is evidence about omega.
    """
    model = scenario.prediction
    model.require_imperfect()
    p = model.p
    sigma2 = model.variance
    if decision is Decision.ONE_BOX:
        return p + sigma2 / p
    return p - sigma2 / (1 - p)


def posterior_box_full_via_joint(scenario: NewcombScenario) -> dict[Decision, Fraction]:
    """Both posteriors, by conditioning one enumerated joint instead."""
    joint = build_joint(scenario)
    given = {d: joint.condition(lambda a: a.decision is d) for d in Decision}
    return {d: g.prob(lambda a: a.box_full) for d, g in given.items()}


def _payout(scenario: NewcombScenario, atom: JointAtom) -> Fraction:
    amount = scenario.large_reward if atom.box_full else Fraction(0)
    if atom.decision is Decision.TWO_BOX:
        amount += scenario.small_reward
    return amount


def expected_reward(scenario: NewcombScenario, decision: Decision) -> Fraction:
    """Counterfactual expected payout of the decision, in closed form."""
    full = posterior_box_full(scenario, decision)
    if decision is Decision.ONE_BOX:
        return scenario.large_reward * full
    return scenario.large_reward * full + scenario.small_reward


def expected_reward_via_joint(scenario: NewcombScenario) -> dict[Decision, Fraction]:
    """Both expectations, as mean payouts of one conditioned joint."""
    joint = build_joint(scenario)
    given = {d: joint.condition(lambda a: a.decision is d) for d in Decision}
    return {d: g.mean(lambda a: _payout(scenario, a)) for d, g in given.items()}


def preferred_decision(scenario: NewcombScenario) -> Preference:
    """Compare the two counterfactual expectations exactly.

    Equal expectations yield INDIFFERENT rather than an arbitrary pick.
    """
    one = expected_reward(scenario, Decision.ONE_BOX)
    two = expected_reward(scenario, Decision.TWO_BOX)
    label = PreferenceLabel.compare(one, two)
    return Preference(label=label, expected_onebox=one, expected_twobox=two)


def _authority_pairs(
    scenario: NewcombScenario, joint: FiniteDist
) -> tuple[tuple[Fraction, Fraction], ...]:
    """(omega_d, P(one-box | omega = omega_d)) for each d, in support order.

    One pass over the joint sums each d's mass and one-box mass.
    """
    support = scenario.prediction.support
    mass = [0] * len(support)
    onebox = [0] * len(support)
    # the joint's int numerators, all over one denominator
    for atom, w in joint._num.items():
        mass[atom.d] += w
        if atom.decision is Decision.ONE_BOX:
            onebox[atom.d] += w
    # every support weight is positive, so every mass[d] is too
    return tuple(
        (omega, Fraction(onebox[d], mass[d])) for d, (omega, _) in enumerate(support)
    )


def authority_table(scenario: NewcombScenario) -> dict[Fraction, Fraction]:
    """P(one-box | omega = omega_d) for every support point, from the joint.

    Keys are the support's omegas in order, and each value equals its
    key: within a support point, the decision frequency is the
    predictor's coin. Unlike scenario_summary, it accepts p = 0 or 1.
    """
    return dict(_authority_pairs(scenario, build_joint(scenario)))


def authority_check(scenario: NewcombScenario, omega_value) -> Fraction:
    """P(one-box | omega = omega_value): one entry of authority_table.

    Raises UnknownOmegaValueError for values outside the support, since
    that conditioning event has probability zero.
    """
    value = coerce_fraction(omega_value, "omega_value")
    table = authority_table(scenario)
    if value not in table:
        raise UnknownOmegaValueError(
            f"omega {describe(value)} is not in the prior support"
        )
    return table[value]
