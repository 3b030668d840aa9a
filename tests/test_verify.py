import dataclasses
import random
from fractions import Fraction

import pytest

from newcomb import all_ok, run_all
from newcomb import core, impossibility, refinement
from newcomb.verify import (
    _check_authority,
    _check_expected_rewards,
    _check_posterior_routes,
    _check_refinement,
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
            worst = max(
                range(n), key=lambda i: (game.beliefs[i] <= F(1, n), i)
            )
            rewards = tuple(
                F(1) if i == worst else F(0) for i in range(n)
            )
            return impossibility.NBoxGame(
                beliefs=game.beliefs, target_index=worst, rewards=rewards
            )

        monkeypatch.setattr(
            impossibility, "build_adversarial_game", last_instead_of_first
        )
        results = run_all(models=30)
        assert not all_ok(results)

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

    def test_wrong_authority_entry_is_caught(self, monkeypatch):
        honest = core.authority_table

        def off_by_one_entry(scenario):
            table = honest(scenario)
            last = list(table)[-1]
            table[last] = table[last] / 2
            return table

        monkeypatch.setattr(core, "authority_table", off_by_one_entry)
        with pytest.raises(AssertionError):
            _check_authority(random.Random(4), 5)

    def test_shifted_variances_are_caught(self, monkeypatch):
        # the same offset on the fine and the coarse variance keeps the
        # decomposition's own sum exact; only recomputing them shows it
        honest = refinement.variance_decomposition

        def shifted(model):
            parts = honest(model)
            eps = F(1, 10**9)
            return dataclasses.replace(
                parts,
                fine_variance=parts.fine_variance + eps,
                coarse_variance=parts.coarse_variance + eps,
            )

        monkeypatch.setattr(refinement, "variance_decomposition", shifted)
        with pytest.raises(AssertionError):
            _check_refinement(random.Random(1), 200)


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
