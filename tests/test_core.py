from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings

import oracle
from newcomb import (
    Decision,
    JointAtom,
    NewcombScenario,
    PredictionModel,
    PreferenceLabel,
    authority_check,
    authority_table,
    build_joint,
    expected_reward,
    expected_reward_via_joint,
    posterior_box_full,
    posterior_box_full_via_joint,
    preferred_decision,
    scenario_summary,
)
from newcomb.dist import FiniteDist
from newcomb.errors import (
    EmptyDistributionError,
    InvalidModelError,
    NegativeWeightError,
    PerfectKnowledgeError,
    UnknownOmegaValueError,
    ZeroProbabilityEventError,
    ZeroTotalWeightError,
)
from strategies import many_prime_priors, prediction_models, scenarios

F = Fraction
HALF = F(1, 2)


class TestPredictionModel:
    def test_moments(self, symmetric_tenths):
        model = symmetric_tenths.prediction
        assert model.p == HALF
        assert model.second_moment == F(41, 100)
        assert model.variance == F(4, 25)
        assert model.is_imperfect

    def test_support_is_sorted(self):
        model = PredictionModel(((F(9, 10), HALF), (F(1, 10), HALF)))
        assert model.support == ((F(1, 10), HALF), (F(9, 10), HALF))

    def test_input_order_does_not_matter(self):
        """The stored moments stay out of equality, hashing and repr."""
        pairs = [(F(1, 10), F(1, 5)), (F(1, 2), F(1, 2)), (F(9, 10), F(3, 10))]
        forward = PredictionModel(tuple(pairs))
        backward = PredictionModel(tuple(reversed(pairs)))
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert repr(forward) == repr(backward)
        assert repr(forward).count("Fraction(") == 2 * len(pairs)

    def test_from_weights_merges_and_normalizes(self):
        model = PredictionModel.from_weights(
            [(HALF, 1), (F(1, 4), 2), (HALF, 1)]
        )
        assert model.support == ((F(1, 4), HALF), (HALF, HALF))

    @pytest.mark.parametrize(
        "support",
        [
            (),
            ((F(3, 2), F(1)),),
            ((F(-1, 10), F(1)),),
            ((HALF, F(1, 2)),),
            ((HALF, F(0)), (F(1, 4), F(1))),
            ((HALF, F(-1)), (F(1, 4), F(2))),
            ((HALF, F(1, 2)), (HALF, F(1, 2))),
        ],
    )
    def test_invalid_supports(self, support):
        with pytest.raises(InvalidModelError):
            PredictionModel(support)

    def test_floats_rejected(self):
        with pytest.raises(InvalidModelError):
            PredictionModel(((0.5, F(1)),))

    @pytest.mark.parametrize(
        "bad", [0.9, "9/10", True, Decimal("0.9")], ids=lambda v: type(v).__name__
    )
    def test_from_weights_refuses_inexact_weights(self, bad):
        with pytest.raises(InvalidModelError, match="Fraction or int"):
            PredictionModel.from_weights([(F(1, 10), F(1, 10)), (F(9, 10), bad)])

    @pytest.mark.parametrize(
        "pairs, exc",
        [
            ([], EmptyDistributionError),
            ([(HALF, F(-1)), (F(1, 4), F(2))], NegativeWeightError),
            ([(HALF, 0), (F(1, 4), F(0))], ZeroTotalWeightError),
        ],
    )
    def test_from_weights_keeps_its_error_classes(self, pairs, exc):
        with pytest.raises(exc):
            PredictionModel.from_weights(pairs)

    def test_from_weights_builds_no_distribution(self, monkeypatch):
        """Merging and normalizing happen in one pass, with no FiniteDist
        built and thrown away."""
        honest = FiniteDist.__dict__["from_weights"].__func__
        calls = []

        def counting(cls, pairs):
            calls.append(cls)
            return honest(cls, pairs)

        monkeypatch.setattr(FiniteDist, "from_weights", classmethod(counting))
        model = PredictionModel.from_weights([(HALF, 1), (F(1, 4), 2), (HALF, 1)])
        assert model.support == ((F(1, 4), HALF), (HALF, HALF))
        assert calls == []

    def test_perfect_knowledge_boundaries(self):
        assert not PredictionModel(((F(0), F(1)),)).is_imperfect
        assert not PredictionModel(((F(1), F(1)),)).is_imperfect
        assert PredictionModel(((F(0), HALF), (F(1), HALF))).is_imperfect

    @given(prediction_models(require_imperfect=False))
    def test_moments_match_enumeration(self, model):
        """p and sigma squared agree with first-principles sums."""
        assert model.p == oracle.prior_mean(model.support)
        assert model.variance == oracle.prior_variance(model.support)
        assert 0 <= model.variance <= model.p * (1 - model.p)

    @given(many_prime_priors())
    @settings(max_examples=40)
    def test_many_prime_denominators(self, model):
        """Moments, joint, posteriors and authority stay exact when the
        common denominator is a product of many distinct primes."""
        support = model.support
        assert model.p == oracle.prior_mean(support)
        assert model.second_moment == sum(q * w * w for w, q in support)
        assert model.variance == oracle.prior_variance(support)
        scenario = NewcombScenario(model, F(3), F(7))
        joint = build_joint(scenario)
        expected = oracle.enumerate_joint(support)
        assert len(joint) == len(expected)
        for (d, dec, box), weight in expected.items():
            atom = JointAtom(
                d, Decision.ONE_BOX if dec else Decision.TWO_BOX, bool(box)
            )
            assert joint.weight(atom) == weight
        routed = posterior_box_full_via_joint(scenario)
        for decision, flag in ((Decision.ONE_BOX, 1), (Decision.TWO_BOX, 0)):
            closed = posterior_box_full(scenario, decision)
            assert closed == routed[decision]
            assert closed == oracle.posterior_full(support, flag)
        assert list(authority_table(scenario).items()) == [(w, w) for w, _ in support]


class TestScenario:
    def test_rewards_validated(self, symmetric_tenths):
        model = symmetric_tenths.prediction
        with pytest.raises(InvalidModelError):
            NewcombScenario(model, F(0), F(10))
        with pytest.raises(InvalidModelError):
            NewcombScenario(model, F(1), F(-10))
        with pytest.raises(InvalidModelError):
            NewcombScenario("not a model", F(1), F(10))

    def test_zero_large_reward_is_refused(self, symmetric_tenths):
        # R = 0 would reach r / R in the threshold comparison
        with pytest.raises(InvalidModelError, match="large_reward"):
            NewcombScenario(symmetric_tenths.prediction, F(1), F(0))


class TestJoint:
    def test_matches_enumeration_exactly(self, symmetric_tenths):
        joint = build_joint(symmetric_tenths)
        expected = oracle.enumerate_joint(symmetric_tenths.prediction.support)
        assert len(joint) == len(expected)
        for (d, dec, box), weight in expected.items():
            atom = JointAtom(
                d, Decision.ONE_BOX if dec else Decision.TWO_BOX, bool(box)
            )
            assert joint.weight(atom) == weight

    def test_named_atom(self, symmetric_tenths):
        joint = build_joint(symmetric_tenths)
        assert joint.weight(JointAtom(0, Decision.ONE_BOX, True)) == F(1, 200)

    def test_prunes_impossible_atoms(self):
        model = PredictionModel(((F(0), HALF), (F(1), HALF)))
        scenario = NewcombScenario(model, F(1), F(2))
        joint = build_joint(scenario)
        # omega 0 never one-boxes or fills; omega 1 always does both
        assert len(joint) == 2
        assert joint.weight(JointAtom(0, Decision.TWO_BOX, False)) == HALF
        assert joint.weight(JointAtom(1, Decision.ONE_BOX, True)) == HALF

    def test_prior_off_unit_mass_is_refused_not_rescaled(self):
        model = PredictionModel(((F(1, 10), HALF), (F(9, 10), HALF)))
        # a prior corrupted after validation: its weights now sum to 3/2
        object.__setattr__(model, "support", ((F(1, 10), HALF), (F(9, 10), F(1))))
        with pytest.raises(ZeroTotalWeightError, match="3/2"):
            build_joint(NewcombScenario(model, F(1), F(2)))

    @given(scenarios(require_imperfect=False))
    @settings(max_examples=60)
    def test_random_joints_match_enumeration(self, scenario):
        """The joint builder agrees with brute-force enumeration."""
        joint = build_joint(scenario)
        expected = oracle.enumerate_joint(scenario.prediction.support)
        assert len(joint) == len(expected)
        for (d, dec, box), weight in expected.items():
            atom = JointAtom(
                d, Decision.ONE_BOX if dec else Decision.TWO_BOX, bool(box)
            )
            assert joint.weight(atom) == weight


class TestSummary:
    def test_worked_values(self, symmetric_tenths):
        summary = scenario_summary(symmetric_tenths)
        assert summary.p == HALF
        assert summary.sigma2 == F(4, 25)
        assert summary.prior_box_full == HALF
        assert summary.threshold == F(16, 25)

    def test_prior_fill_probability_equals_p(self, quarters_tie):
        summary = scenario_summary(quarters_tie)
        assert summary.prior_box_full == summary.p == HALF

    def test_refuses_perfect_knowledge(self):
        model = PredictionModel(((F(1), F(1)),))
        scenario = NewcombScenario(model, F(1), F(2))
        with pytest.raises(PerfectKnowledgeError):
            scenario_summary(scenario)

    @given(scenarios())
    @settings(max_examples=60)
    def test_prior_fill_always_equals_p(self, scenario):
        """The box is full with probability p before any conditioning."""
        summary = scenario_summary(scenario)
        assert summary.prior_box_full == scenario.prediction.p

    @given(scenarios())
    @settings(max_examples=60)
    def test_authority_matches_the_table(self, scenario):
        """The summary's authority pairs are authority_table's, in order."""
        summary = scenario_summary(scenario)
        assert summary.authority == tuple(authority_table(scenario).items())
        assert hash(summary) == hash(scenario_summary(scenario))


class TestPosteriors:
    def test_worked_values(self, symmetric_tenths):
        one = posterior_box_full(symmetric_tenths, Decision.ONE_BOX)
        two = posterior_box_full(symmetric_tenths, Decision.TWO_BOX)
        assert one == F(41, 50)
        assert two == F(9, 50)

    def test_point_mass_leaves_posterior_at_p(self, point_half):
        assert posterior_box_full(point_half, Decision.ONE_BOX) == HALF
        assert posterior_box_full(point_half, Decision.TWO_BOX) == HALF

    def test_refuses_perfect_knowledge(self):
        model = PredictionModel(((F(0), F(1)),))
        scenario = NewcombScenario(model, F(1), F(2))
        with pytest.raises(PerfectKnowledgeError):
            posterior_box_full(scenario, Decision.ONE_BOX)
        with pytest.raises(ZeroProbabilityEventError):
            posterior_box_full_via_joint(scenario)

    @given(scenarios())
    @settings(max_examples=80)
    def test_three_routes_agree(self, scenario):
        """Closed form, joint conditioning, and the oracle all coincide."""
        support = scenario.prediction.support
        routes = posterior_box_full_via_joint(scenario)
        assert list(routes) == list(Decision)
        for decision, flag in ((Decision.ONE_BOX, 1), (Decision.TWO_BOX, 0)):
            closed = posterior_box_full(scenario, decision)
            routed = routes[decision]
            brute = oracle.posterior_full(support, flag)
            assert closed == routed == brute
            assert 0 <= closed <= 1

    @given(scenarios())
    @settings(max_examples=80)
    def test_decision_moves_posterior_the_right_way(self, scenario):
        """One-boxing is evidence for a full box, two-boxing against."""
        p = scenario.prediction.p
        up = posterior_box_full(scenario, Decision.ONE_BOX)
        down = posterior_box_full(scenario, Decision.TWO_BOX)
        if scenario.prediction.variance > 0:
            assert down < p < up
        else:
            assert down == p == up


class TestExpectedRewards:
    def test_worked_values(self, symmetric_tenths):
        assert expected_reward(symmetric_tenths, Decision.ONE_BOX) == 820000
        assert expected_reward(symmetric_tenths, Decision.TWO_BOX) == 181000

    @given(scenarios())
    @settings(max_examples=80)
    def test_routes_agree_with_oracle(self, scenario):
        support = scenario.prediction.support
        small, large = scenario.small_reward, scenario.large_reward
        routes = expected_reward_via_joint(scenario)
        assert list(routes) == list(Decision)
        for decision, flag in ((Decision.ONE_BOX, 1), (Decision.TWO_BOX, 0)):
            closed = expected_reward(scenario, decision)
            routed = routes[decision]
            brute = oracle.expected_reward(support, flag, small, large)
            assert closed == routed == brute


class TestPreference:
    def test_worked_labels(self, symmetric_tenths, point_half, quarters_tie):
        assert (
            preferred_decision(symmetric_tenths).label is PreferenceLabel.ONE_BOX
        )
        point = preferred_decision(point_half)
        assert point.label is PreferenceLabel.TWO_BOX
        assert point.expected_onebox == 500000
        assert point.expected_twobox == 501000
        tie = preferred_decision(quarters_tie)
        assert tie.label is PreferenceLabel.INDIFFERENT
        assert tie.expected_onebox == tie.expected_twobox == F(5, 2)

    @given(scenarios())
    @settings(max_examples=80)
    def test_matches_oracle_and_threshold(self, scenario):
        """The expectation comparison equals the variance-threshold test."""
        pref = preferred_decision(scenario)
        assert pref.label.value == oracle.preferred(
            scenario.prediction.support,
            scenario.small_reward,
            scenario.large_reward,
        )
        threshold = scenario_summary(scenario).threshold
        ratio = scenario.small_reward / scenario.large_reward
        if ratio < threshold:
            assert pref.label is PreferenceLabel.ONE_BOX
        elif ratio == threshold:
            assert pref.label is PreferenceLabel.INDIFFERENT
        else:
            assert pref.label is PreferenceLabel.TWO_BOX

    @given(scenarios())
    @settings(max_examples=40)
    def test_scale_invariance(self, scenario):
        """Scaling both rewards never changes the preferred decision."""
        label = preferred_decision(scenario).label
        scaled = NewcombScenario(
            prediction=scenario.prediction,
            small_reward=scenario.small_reward * F(7, 3),
            large_reward=scenario.large_reward * F(7, 3),
        )
        assert preferred_decision(scaled).label is label


class TestAuthority:
    def test_each_support_point(self, symmetric_tenths):
        assert authority_check(symmetric_tenths, F(1, 10)) == F(1, 10)
        assert authority_check(symmetric_tenths, F(9, 10)) == F(9, 10)

    def test_unknown_value_is_a_zero_probability_event(self, symmetric_tenths):
        with pytest.raises(UnknownOmegaValueError):
            authority_check(symmetric_tenths, F(1, 3))
        with pytest.raises(ZeroProbabilityEventError):
            authority_check(symmetric_tenths, F(1, 3))

    def test_works_at_certainty_points(self):
        model = PredictionModel(((F(0), HALF), (F(1), HALF)))
        scenario = NewcombScenario(model, F(1), F(2))
        assert authority_check(scenario, F(0)) == 0
        assert authority_check(scenario, F(1)) == 1
        # omega 0 has no one-box atoms and omega 1 no two-box atoms
        assert list(authority_table(scenario).items()) == [(F(0), 0), (F(1), 1)]

    @given(scenarios(require_imperfect=False))
    @settings(max_examples=60)
    def test_conditioning_on_omega_returns_omega(self, scenario):
        """Within a support point the decision frequency is omega itself."""
        support = scenario.prediction.support
        table = authority_table(scenario)
        assert list(table) == [omega for omega, _ in support]
        for omega, _ in support:
            assert authority_check(scenario, omega) == omega
            assert oracle.authority(support, omega) == omega
            assert table[omega] == omega
