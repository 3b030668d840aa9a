import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest

from newcomb import CheckResult, all_ok, run_all
from newcomb import core, impossibility, montecarlo, refinement
from newcomb.core import Decision, JointAtom, PreferenceLabel
from newcomb.dist import FiniteDist
from newcomb.verify import (
    _check_authority,
    _check_distribution_laws,
    _check_expected_rewards,
    _check_impossibility,
    _check_omniscience,
    _check_posterior_routes,
    _check_preference_threshold,
    _check_refinement,
    _check_simulation,
    builtin_scenarios,
    random_beliefs,
    random_prediction_model,
    random_refinement,
)

F = Fraction


@pytest.fixture
def joint_builds(monkeypatch):
    """The scenarios passed to core.build_joint, one per call."""
    honest = core.build_joint
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return honest(scenario)

    monkeypatch.setattr(core, "build_joint", counting)
    return calls


def _flipped_two_box_coin(honest):
    def build_joint(scenario):
        joint = honest(scenario)
        n = len(scenario.prediction.support)
        cells = [JointAtom(*c) for c in product(range(n), Decision, (False, True))]
        return FiniteDist.from_weights(
            (
                a._replace(box_full=not a.box_full)
                if a.decision is Decision.TWO_BOX
                else a,
                joint.weight(a),
            )
            for a in cells
        )

    return build_joint


def _unpruned_zero_atom(honest):
    # the honest joint plus one cell past the support, held at weight 0
    def build_joint(scenario):
        joint = honest(scenario)
        extra = JointAtom(len(scenario.prediction.support), Decision.ONE_BOX, True)
        return FiniteDist({**joint._num, extra: 0}, joint._den)

    return build_joint


def _nudged_posterior(honest):
    return lambda scenario, decision: honest(scenario, decision) + F(1, 10**9)


def _one_box_plus_r(honest):
    def expected_reward(scenario, decision):
        bonus = scenario.small_reward if decision is Decision.ONE_BOX else 0
        return honest(scenario, decision) + bonus

    return expected_reward


def _tie_labelled_onebox(honest):
    def preferred_decision(scenario):
        pref = honest(scenario)
        if pref.label is PreferenceLabel.INDIFFERENT:
            return dataclasses.replace(pref, label=PreferenceLabel.ONE_BOX)
        return pref

    return preferred_decision


def _halved_last_entry(honest):
    def authority_table(scenario):
        table = honest(scenario)
        last = list(table)[-1]
        table[last] = table[last] / 2
        return table

    return authority_table


def _shifted_variances(honest):
    # the same offset on the fine and the coarse variance keeps the
    # decomposition's own sum exact; only recomputing them shows it
    def variance_decomposition(model):
        parts = honest(model)
        eps = F(1, 10**9)
        return dataclasses.replace(
            parts,
            fine_variance=parts.fine_variance + eps,
            coarse_variance=parts.coarse_variance + eps,
        )

    return variance_decomposition


def _always_omniscient(honest):
    return lambda model, delta: dataclasses.replace(
        honest(model, delta), is_omniscient=True
    )


def _raised_bound(honest):
    # the paper's bound is loose for delta > 0, so only an exact
    # comparison sees it raised
    def check_delta_omniscience(model, delta):
        report = honest(model, delta)
        raised = report.variance_lower_bound + F(1, 10**6)
        return dataclasses.replace(report, variance_lower_bound=raised)

    return check_delta_omniscience


def _always_box_one(honest):
    return lambda game: 0


def _strict_target_search(honest):
    # "< 1/n" where the search needs "<= 1/n", falling back to box 0:
    # only an entry of exactly 1/n ahead of a smaller one tells them apart
    def build_adversarial_game(beliefs):
        game = honest(beliefs)
        bound = F(1, game.n)
        target = next((i for i, pi in enumerate(game.beliefs) if pi < bound), 0)
        rewards = tuple(F(1 if i == target else 0) for i in range(game.n))
        object.__setattr__(game, "target_index", target)
        object.__setattr__(game, "rewards", rewards)
        return game

    return build_adversarial_game


# one hand-written mutant per row, each caught by its own randomised check
MUTANTS = [
    pytest.param(_check_distribution_laws, core, "build_joint",
                 _flipped_two_box_coin, 200, id="distribution-laws"),
    pytest.param(_check_distribution_laws, core, "build_joint",
                 _unpruned_zero_atom, 200, id="distribution-laws-pruning"),
    pytest.param(_check_posterior_routes, core, "posterior_box_full",
                 _nudged_posterior, 200, id="posterior-routes"),
    pytest.param(_check_expected_rewards, core, "expected_reward",
                 _one_box_plus_r, 200, id="expected-rewards"),
    pytest.param(_check_preference_threshold, core, "preferred_decision",
                 _tie_labelled_onebox, 200, id="preference-threshold"),
    pytest.param(_check_authority, core, "authority_table",
                 _halved_last_entry, 200, id="authority"),
    pytest.param(_check_refinement, refinement, "variance_decomposition",
                 _shifted_variances, 200, id="refinement"),
    pytest.param(_check_omniscience, refinement, "check_delta_omniscience",
                 _always_omniscient, 200, id="omniscience-verdict"),
    pytest.param(_check_omniscience, refinement, "check_delta_omniscience",
                 _raised_bound, 200, id="omniscience-bound"),
    pytest.param(_check_impossibility, impossibility, "optimal_choice",
                 _always_box_one, 20, id="impossibility"),
    # 10 trials, as verify --models 1 runs
    pytest.param(_check_impossibility, impossibility, "build_adversarial_game",
                 _strict_target_search, 10, id="impossibility-boundary"),
]


class TestBattery:
    def test_everything_passes(self):
        results = run_all(models=60)
        failed = [r for r in results if not r.ok]
        assert all_ok(results), failed
        assert len(results) == 10

    def test_no_trials_is_refused(self):
        for models in (0, -3):
            with pytest.raises(ValueError, match="models"):
                run_all(models=models)

    def test_results_carry_their_trial_counts(self):
        results = run_all(models=5)
        assert [(r.name, r.trials) for r in results] == [
            ("worked-examples", 1),
            ("distribution-laws", 5),
            ("posterior-routes", 5),
            ("expected-rewards", 5),
            ("preference-threshold", 5),
            ("authority", 2),
            ("refinement", 5),
            ("omniscience", 5),
            ("impossibility", 10),
            ("simulation", 1),
        ]

    def test_zero_trial_pass_cannot_be_built(self):
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trial"):
                CheckResult(name="empty", ok=True, detail="", trials=trials)
            assert not CheckResult("empty", False, "", trials).ok

    def test_deterministic_given_seed(self):
        assert run_all(seed=5, models=30) == run_all(seed=5, models=30)

    def test_broken_posterior_is_caught(self, monkeypatch):
        honest = core.posterior_box_full

        def skewed(scenario, decision):
            return honest(scenario, decision) + F(1, 1000)

        monkeypatch.setattr(core, "posterior_box_full", skewed)
        results = run_all(models=30)
        assert not all_ok(results)
        bad = {r.name for r in results if not r.ok}
        assert "posterior-routes" in bad or "worked-examples" in bad

    def test_broken_game_builder_is_caught(self, monkeypatch):
        honest = impossibility.build_adversarial_game

        def last_instead_of_first(beliefs):
            game = honest(beliefs)
            n = game.n
            # the worked examples' 3- and 4-box games stay honest, so
            # the randomised check has to catch this on its own
            if n < 5:
                return game
            worst = max(
                range(n), key=lambda i: (game.beliefs[i] <= F(1, n), i)
            )
            rewards = tuple(
                F(1) if i == worst else F(0) for i in range(n)
            )
            object.__setattr__(game, "target_index", worst)
            object.__setattr__(game, "rewards", rewards)
            return game

        monkeypatch.setattr(
            impossibility, "build_adversarial_game", last_instead_of_first
        )
        results = run_all(models=30)
        failed = [r for r in results if not r.ok]
        assert [r.name for r in failed] == ["impossibility"]
        assert failed[0].detail.startswith("AssertionError")

    def test_failures_do_not_raise(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("deliberately broken")

        monkeypatch.setattr(core, "build_joint", broken)
        results = run_all(models=10)
        assert not all_ok(results)
        assert any("deliberately broken" in r.detail for r in results)

    def test_authority_builds_one_joint_per_model(self, joint_builds):
        trials = 25
        detail = _check_authority(random.Random(4), trials)
        assert len(joint_builds) == trials
        # the models have several support points each, so one joint per
        # point would show as more calls than trials
        assert int(detail.split()[0]) > trials

    @pytest.mark.parametrize(
        "check", [_check_posterior_routes, _check_expected_rewards]
    )
    def test_routes_build_one_joint_per_model(self, check, joint_builds):
        trials = 25
        check(random.Random(4), trials)
        # one joint answers both decisions
        assert len(joint_builds) == trials

    def test_simulation_check_samples_a_one_point_prior(self, monkeypatch):
        # the box coin reads the decision coin's row, on the one-point
        # path only: symmetric-tenths cannot see it, point-half must
        honest = montecarlo.count_cells_numpy

        def box_follows_decision(u, cum, omega, counts, *, guide):
            if len(cum) == 1:
                u = u.copy()
                u[2] = u[1]
            honest(u, cum, omega, counts, guide=guide)

        monkeypatch.setattr(montecarlo, "count_cells_numpy", box_follows_decision)
        with pytest.raises(AssertionError, match="^point-half: estimates off"):
            _check_simulation()

    @pytest.mark.parametrize("check, module, name, mutant, trials", MUTANTS)
    def test_mutant_is_caught(self, check, module, name, mutant, trials, monkeypatch):
        # the check itself must catch it, called directly: the worked
        # examples do not run here
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
        with pytest.raises(AssertionError):
            check(random.Random(1), trials)


class TestGenerators:
    def test_prediction_models_are_valid(self):
        rng = random.Random(0)
        for _ in range(200):
            model = random_prediction_model(rng)
            total = sum((q for _, q in model.support), F(0))
            assert total == 1
            assert all(0 <= omega <= 1 for omega, _ in model.support)
            assert model.is_imperfect
            omegas = [omega for omega, _ in model.support]
            assert omegas == sorted(omegas)
            assert len(set(omegas)) == len(omegas)

    def test_refinements_are_valid(self):
        rng = random.Random(1)
        for _ in range(200):
            rm = random_refinement(rng)
            covered = sorted(i for block in rm.blocks for i in block)
            assert covered == list(range(len(rm.fine.support)))

    def test_beliefs_are_valid(self):
        rng = random.Random(2)
        for _ in range(200):
            beliefs = random_beliefs(rng)
            assert len(beliefs) >= 2
            assert sum(beliefs) == 1
            assert all(0 < pi < 1 for pi in beliefs)


class TestBuiltins:
    def test_scenarios_are_well_formed(self):
        scenarios = builtin_scenarios()
        assert set(scenarios) == {
            "symmetric-tenths",
            "point-half",
            "quarters-tie",
        }
        for scenario in scenarios.values():
            assert scenario.small_reward > 0
            assert scenario.large_reward > 0
