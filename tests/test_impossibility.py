from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given

import oracle
from newcomb import (
    NBoxGame,
    bad_decision_probability,
    build_adversarial_game,
    choice_payout,
    impossibility,
    optimal_choice,
)
from newcomb.errors import (
    InvalidModelError,
    NotADistributionError,
    PerfectKnowledgeError,
)
from newcomb.rational import coerce_fraction
from strategies import belief_vectors

F = Fraction

# 1/(3...3) + 1/(7...7): each term prints, but the sum's reduced
# denominator has about 6000 digits, past Python's int-string limit
LONG_SUM_TERMS = (F(1, int("3" * 3000)), F(1, int("7" * 3001)))


class TestBuild:
    def test_first_small_enough_belief_is_targeted(self):
        game = build_adversarial_game((F(1, 2), F(3, 10), F(1, 5)))
        assert game.target_index == 1
        assert game.rewards == (F(0), F(1), F(0))
        assert bad_decision_probability(game) == F(7, 10)

    def test_uniform_beliefs_target_the_first_box(self):
        game = build_adversarial_game(tuple(F(1, 4) for _ in range(4)))
        assert game.target_index == 0
        assert bad_decision_probability(game) == F(3, 4)

    def test_target_can_be_the_last_box(self):
        game = build_adversarial_game((F(2, 5), F(7, 20), F(1, 4)))
        assert game.target_index == 2
        assert bad_decision_probability(game) == F(3, 4)

    def test_sum_must_be_exactly_one(self):
        with pytest.raises(NotADistributionError):
            build_adversarial_game((F(1, 2), F(1, 3)))

    def test_sum_too_long_to_print_still_raises_the_model_error(self):
        with pytest.raises(NotADistributionError, match="too long to print"):
            build_adversarial_game(LONG_SUM_TERMS)

    def test_negative_entries_rejected_before_certainty_check(self):
        with pytest.raises(NotADistributionError):
            build_adversarial_game((F(3, 2), F(-1, 2)))

    def test_certainty_rejected(self):
        with pytest.raises(PerfectKnowledgeError):
            build_adversarial_game((F(0), F(1, 2), F(1, 2)))
        with pytest.raises(PerfectKnowledgeError):
            build_adversarial_game((F(1), F(0)))

    def test_needs_at_least_two_boxes(self):
        with pytest.raises(InvalidModelError):
            build_adversarial_game((F(1),))

    def test_floats_rejected(self):
        with pytest.raises(InvalidModelError):
            build_adversarial_game((0.5, 0.5))


class TestGameObject:
    def test_direct_construction_validates(self):
        game = NBoxGame((F(1, 2), F(3, 10), F(1, 5)))
        assert game == build_adversarial_game([F(1, 2), F(3, 10), F(1, 5)])
        assert (game.target_index, game.rewards) == (1, (F(0), F(1), F(0)))
        with pytest.raises(NotADistributionError, match="sum to 5/6"):
            NBoxGame((F(1, 2), F(1, 3)))

    def test_only_the_beliefs_are_an_input(self):
        assert [f.name for f in fields(NBoxGame) if f.init] == ["beliefs"]
        with pytest.raises(TypeError):
            NBoxGame((F(1, 2), F(1, 2)), target_index=1)

    def test_each_belief_is_coerced_once(self, monkeypatch):
        calls = []

        def counting(value, what):
            calls.append(what)
            return coerce_fraction(value, what)

        monkeypatch.setattr(impossibility, "coerce_fraction", counting)
        build_adversarial_game((F(1, 2), F(3, 10), F(1, 5)))
        assert calls == ["beliefs[0]", "beliefs[1]", "beliefs[2]"]

    def test_payout_is_the_reward_of_the_chosen_box(self):
        game = build_adversarial_game((F(1, 2), F(3, 10), F(1, 5)))
        assert choice_payout(game, 1) == 1
        assert choice_payout(game, 0) == 0
        with pytest.raises(InvalidModelError):
            choice_payout(game, 3)
        # too many digits for str(); the message must still render
        with pytest.raises(InvalidModelError, match="too long to print"):
            choice_payout(game, 10**5000)

    @pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
    def test_payout_refuses_an_index_that_is_not_an_int(self, index):
        game = build_adversarial_game((F(1, 2), F(3, 10), F(1, 5)))
        with pytest.raises(InvalidModelError, match="is not an integer"):
            choice_payout(game, index)


class TestPigeonhole:
    @given(belief_vectors())
    def test_target_exists_is_minimal_and_bounds_hold(self, beliefs):
        """Some box gets at most 1/n, and picking anything else is likely."""
        n = len(beliefs)
        game = build_adversarial_game(beliefs)
        target = game.target_index
        assert target == oracle.adversarial_target(beliefs)
        assert beliefs[target] <= F(1, n)
        assert all(pi > F(1, n) for pi in beliefs[:target])
        bad = bad_decision_probability(game)
        assert bad == 1 - beliefs[target]
        assert bad >= 1 - F(1, n)

    @given(belief_vectors())
    def test_seeing_the_rewards_would_make_the_choice_trivial(self, beliefs):
        """The optimal pick is the target, yet the subject rarely takes it."""
        game = build_adversarial_game(beliefs)
        best = optimal_choice(game)
        assert best == game.target_index
        assert choice_payout(game, best) == 1
        others = [i for i in range(game.n) if i != best]
        assert all(choice_payout(game, i) == 0 for i in others)
