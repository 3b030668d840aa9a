"""The n-box game a counterfactual reasoner cannot win.

A pigeonhole argument: whatever beliefs the subject holds over which of
n boxes pays out, some box gets probability at most 1/n. An adversary
who knows the beliefs puts the whole reward in the first such box. The
subject, whose own choice is distributed by those same beliefs, then
picks a worthless box with probability at least 1 - 1/n, even though
the counterfactually optimal choice (take the rewarded box) is obvious
to anyone who can see the rewards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    InvalidModelError,
    NotADistributionError,
    PerfectKnowledgeError,
)
from .rational import coerce_fraction, describe


def validate_beliefs(beliefs: Iterable) -> tuple[Fraction, ...]:
    """Coerce and check a belief vector.

    Needs at least two entries, no negatives, an exact sum of 1, and no
    entry equal to 0 or 1: a zero or one entry means the subject already
    knows something for certain, and the game is about ignorance.
    Negative entries and bad sums raise NotADistributionError before the
    certainty check runs.
    """
    checked = tuple(
        coerce_fraction(pi, f"beliefs[{i}]") for i, pi in enumerate(beliefs)
    )
    if len(checked) < 2:
        raise InvalidModelError("the game needs at least two boxes")
    if any(pi < 0 for pi in checked):
        raise NotADistributionError("belief entries must not be negative")
    total = sum(checked, Fraction(0))
    if total != 1:
        raise NotADistributionError(f"beliefs sum to {describe(total)}, not 1")
    if any(pi == 0 or pi == 1 for pi in checked):
        raise PerfectKnowledgeError(
            "a belief of exactly 0 or 1 means certainty about a box"
        )
    return checked


@dataclass(frozen=True)
class NBoxGame:
    """Beliefs, the adversary's chosen box, and the reward vector.

    target_index is 0-based internally; user-facing output numbers boxes
    from 1.
    """

    beliefs: tuple[Fraction, ...]
    target_index: int
    rewards: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        beliefs = validate_beliefs(self.beliefs)
        object.__setattr__(self, "beliefs", beliefs)
        n = len(beliefs)
        if not isinstance(self.target_index, int) or isinstance(
            self.target_index, bool
        ):
            raise InvalidModelError("target_index must be an integer")
        if not 0 <= self.target_index < n:
            raise InvalidModelError(
                f"target_index {self.target_index} outside 0..{n - 1}"
            )
        rewards = tuple(
            coerce_fraction(x, f"rewards[{i}]") for i, x in enumerate(self.rewards)
        )
        object.__setattr__(self, "rewards", rewards)
        if len(rewards) != n:
            raise InvalidModelError(
                f"{len(rewards)} rewards for {n} boxes"
            )
        if any(x < 0 for x in rewards):
            raise InvalidModelError("rewards must not be negative")

    @property
    def n(self) -> int:
        return len(self.beliefs)


def build_adversarial_game(beliefs: Iterable) -> NBoxGame:
    """Set up the game against the given beliefs.

    The target is the first box whose belief is at most 1/n (one always
    exists: if every entry exceeded 1/n the sum would exceed 1). That
    box gets reward 1; every other box gets 0.
    """
    checked = validate_beliefs(beliefs)
    n = len(checked)
    bound = Fraction(1, n)
    for target, pi in enumerate(checked):
        if pi <= bound:
            break
    else:
        raise AssertionError("unreachable: some belief must be <= 1/n")
    rewards = tuple(
        Fraction(1) if i == target else Fraction(0) for i in range(n)
    )
    return NBoxGame(beliefs=checked, target_index=target, rewards=rewards)


def bad_decision_probability(game: NBoxGame) -> Fraction:
    """Chance the subject picks a box other than the adversary's target.

    The subject's pick follows their own beliefs, so this is
    1 - beliefs[target]; for the adversarial construction it is at
    least 1 - 1/n.
    """
    return 1 - game.beliefs[game.target_index]


def choice_payout(game: NBoxGame, index: int) -> Fraction:
    """Payout of picking a box. Deterministic: rewards are laid out
    before the choice, so this is the counterfactual value of the
    choice itself."""
    if not 0 <= index < game.n:
        raise InvalidModelError(f"box index {index} outside 0..{game.n - 1}")
    return game.rewards[index]


def optimal_choice(game: NBoxGame) -> int:
    """The unique box with the highest payout, 0-based.

    For the adversarial game this is exactly the target box. Raises
    when the maximum is not unique, since then no single choice is
    'the' optimal one.
    """
    best = max(game.rewards)
    winners = [i for i, x in enumerate(game.rewards) if x == best]
    if len(winners) != 1:
        raise InvalidModelError(
            f"no unique best box: {len(winners)} boxes pay {describe(best)}"
        )
    return winners[0]
