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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import InvalidModelError, NotADistributionError, PerfectKnowledgeError
from .rational import coerce_fraction, describe


@dataclass(frozen=True)
class NBoxGame:
    """The game the adversary builds against a belief vector.

    Only the beliefs are given. Construction checks them and derives
    the rest once: target_index is the first box whose belief is at
    most 1/n (one always exists: if every entry exceeded 1/n the sum
    would exceed 1), and rewards holds 1 for that box and 0 for every
    other. target_index is 0-based; user-facing output numbers boxes
    from 1.
    """

    beliefs: tuple[Fraction, ...]
    target_index: int = field(init=False)
    rewards: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self) -> None:
        # at least two entries, no negatives, an exact sum of 1, then no
        # 0 or 1: such an entry is certainty, and the game is about
        # ignorance
        beliefs = tuple(
            coerce_fraction(pi, f"beliefs[{i}]")
            for i, pi in enumerate(self.beliefs)
        )
        n = len(beliefs)
        if n < 2:
            raise InvalidModelError("the game needs at least two boxes")
        if any(pi < 0 for pi in beliefs):
            raise NotADistributionError("belief entries must not be negative")
        total = sum(beliefs, Fraction(0))
        if total != 1:
            raise NotADistributionError(f"beliefs sum to {describe(total)}, not 1")
        if any(pi == 0 or pi == 1 for pi in beliefs):
            raise PerfectKnowledgeError(
                "a belief of exactly 0 or 1 means certainty about a box"
            )
        bound = Fraction(1, n)
        target = next(i for i, pi in enumerate(beliefs) if pi <= bound)
        rewards = tuple(Fraction(1 if i == target else 0) for i in range(n))
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "target_index", target)
        object.__setattr__(self, "rewards", rewards)

    @property
    def n(self) -> int:
        return len(self.beliefs)


def build_adversarial_game(beliefs: Iterable) -> NBoxGame:
    """Set up the game against the given beliefs; see NBoxGame."""
    return NBoxGame(tuple(beliefs))


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
    if not isinstance(index, int) or isinstance(index, bool):
        raise InvalidModelError(
            f"box index {describe(index, repr)} is not an integer"
        )
    if not 0 <= index < game.n:
        raise InvalidModelError(
            f"box index {describe(index)} outside 0..{game.n - 1}"
        )
    return game.rewards[index]


def optimal_choice(game: NBoxGame) -> int:
    """The box with the highest payout, 0-based.

    The rewards are one-hot, so the maximum is unique and this is
    exactly the target box.
    """
    return game.rewards.index(max(game.rewards))
