"""End-to-end acceptance battery.

Eight numbered criteria cover the exact engine (closed forms against
enumeration), the preference threshold, the worked example, the
adversarial game bound, the variance decomposition, the omniscience
limit, Monte Carlo agreement, and the command line contract. Each test
prints one PASS or FAIL line outside pytest's capture so the battery
reads as a checklist in any run log.

Every criterion except the Monte Carlo one asserts exact rational
equality. The Monte Carlo criterion allows one outlier seed in twenty
per scenario at a four-standard-error gate.
"""

import csv
import json
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracle
from newcomb import cli, core, impossibility, montecarlo, refinement, verify
from newcomb.core import Decision, NewcombScenario, PredictionModel, PreferenceLabel
from newcomb.scenario_io import load_scenario, save_scenario

F = Fraction


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(number, slug):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                verdict = "PASS" if ok else "FAIL"
                print(
                    f"[acceptance] criterion {number} ({slug}): {verdict}",
                    flush=True,
                )

    return run


def _s1():
    return NewcombScenario(
        prediction=PredictionModel(((F(1, 10), F(1, 2)), (F(9, 10), F(1, 2)))),
        small_reward=F(1000),
        large_reward=F(1000000),
    )


def _s2():
    return NewcombScenario(
        prediction=PredictionModel(((F(1, 2), F(1)),)),
        small_reward=F(1000),
        large_reward=F(1000000),
    )


def test_criterion_1_exact_identities(criterion, rng):
    with criterion(1, "exact-identities"):
        for _ in range(1000):
            model = verify.random_prediction_model(rng, max_support=8)
            support = model.support
            p = model.p
            sigma2 = model.variance

            assert p == oracle.prior_mean(support)
            assert sigma2 == oracle.prior_variance(support)

            scenario = NewcombScenario(
                prediction=model, small_reward=F(1), large_reward=F(2)
            )
            joint = core.build_joint(scenario)
            assert joint.prob(lambda a: a.box_full) == p
            assert joint.prob(
                lambda a: a.decision is Decision.ONE_BOX
            ) == p

            up = core.posterior_box_full(scenario, Decision.ONE_BOX)
            down = core.posterior_box_full(scenario, Decision.TWO_BOX)
            assert up == p + sigma2 / p
            assert down == p - sigma2 / (1 - p)
            routed = core.posterior_box_full_via_joint(scenario)
            assert up == routed[Decision.ONE_BOX]
            assert down == routed[Decision.TWO_BOX]
            assert up == oracle.posterior_full(support, 1)
            assert down == oracle.posterior_full(support, 0)


def test_criterion_2_threshold_equivalence(criterion, rng):
    fixed = [
        F(1, 1000),
        F(1, 100),
        F(1, 10),
        F(1, 4),
        F(1, 2),
        F(3, 4),
        F(1),
        F(3, 2),
        F(5),
    ]
    ties = 0
    with criterion(2, "threshold-equivalence"):
        for _ in range(1000):
            model = verify.random_prediction_model(rng, max_support=8)
            p = model.p
            threshold = model.variance / (p * (1 - p))
            ratios = list(fixed)
            if threshold > 0:
                ratios.append(threshold)
                ties += 1
            else:
                ratios.append(F(7))
            for ratio in ratios:
                scenario = NewcombScenario(
                    prediction=model,
                    small_reward=ratio,
                    large_reward=F(1),
                )
                label = core.preferred_decision(scenario).label.value
                if ratio < threshold:
                    by_threshold = "onebox"
                elif ratio == threshold:
                    by_threshold = "indifferent"
                else:
                    by_threshold = "twobox"
                assert label == by_threshold, (model.support, ratio)
                assert label == oracle.preferred(model.support, ratio, F(1))
        assert ties > 900


def test_criterion_3_worked_example(criterion):
    with criterion(3, "worked-example"):
        scenario = _s1()
        support = scenario.prediction.support
        summary = core.scenario_summary(scenario)
        assert (
            summary.p,
            summary.sigma2,
            summary.prior_box_full,
            summary.threshold,
        ) == (F(1, 2), F(4, 25), F(1, 2), F(16, 25))

        up = core.posterior_box_full(scenario, Decision.ONE_BOX)
        down = core.posterior_box_full(scenario, Decision.TWO_BOX)
        assert up == F(41, 50) == oracle.posterior_full(support, 1)
        assert down == F(9, 50) == oracle.posterior_full(support, 0)

        one = core.expected_reward(scenario, Decision.ONE_BOX)
        two = core.expected_reward(scenario, Decision.TWO_BOX)
        assert one == 820000 == oracle.expected_reward(
            support, 1, F(1000), F(1000000)
        )
        assert two == 181000 == oracle.expected_reward(
            support, 0, F(1000), F(1000000)
        )

        pref = core.preferred_decision(scenario)
        assert pref.label is PreferenceLabel.ONE_BOX
        assert oracle.preferred(support, F(1000), F(1000000)) == "onebox"
        assert oracle.prior_mean(support) == F(1, 2)
        assert oracle.prior_variance(support) == F(4, 25)


def test_criterion_4_adversarial_bound(criterion, rng):
    with criterion(4, "adversarial-bound"):
        for _ in range(1000):
            beliefs = verify.random_beliefs(rng)
            n = len(beliefs)
            game = impossibility.build_adversarial_game(beliefs)
            assert game.target_index == oracle.adversarial_target(beliefs)
            assert beliefs[game.target_index] <= F(1, n)
            bad = impossibility.bad_decision_probability(game)
            assert bad == 1 - beliefs[game.target_index]
            assert bad >= 1 - F(1, n)
            assert impossibility.optimal_choice(game) == game.target_index
        for n in range(2, 11):
            uniform = tuple(F(1, n) for _ in range(n))
            game = impossibility.build_adversarial_game(uniform)
            assert impossibility.bad_decision_probability(game) == 1 - F(1, n)


def test_criterion_5_variance_decomposition(criterion, rng):
    with criterion(5, "variance-decomposition"):
        for _ in range(500):
            rm = verify.random_refinement(rng)
            support = rm.fine.support
            parts = refinement.variance_decomposition(rm)
            assert (
                parts.fine_variance
                == parts.coarse_variance + parts.expected_conditional_variance
            )
            assert parts.coarse_variance <= parts.fine_variance
            coarse = refinement.coarsen(rm)
            assert coarse.p == rm.fine.p
            merged = oracle.coarsen_support(support, rm.blocks)
            assert parts.coarse_variance == oracle.prior_variance(merged)
            assert parts.expected_conditional_variance == (
                oracle.expected_conditional_variance(support, rm.blocks)
            )


def test_criterion_6_omniscience_limit(criterion, rng):
    with criterion(6, "omniscience-limit"):
        for _ in range(200):
            delta = F(rng.randint(1, 99), 200)
            a = F(rng.randint(1, 19), 20)
            model = PredictionModel(((delta, a), (1 - delta, 1 - a)))
            report = refinement.check_delta_omniscience(model, delta)
            assert report.is_omniscient
            bound = oracle.omniscience_bound(model.support, delta)
            assert report.variance_lower_bound == bound
            assert model.variance >= bound
            assert oracle.is_delta_omniscient(model.support, delta)

        half = F(1, 2)
        for k in range(2, 11):
            delta = F(1, 2**k)
            pair = PredictionModel(((delta, half), (1 - delta, half)))
            scenario = NewcombScenario(
                prediction=pair, small_reward=F(1, 1000), large_reward=F(1)
            )
            pref = core.preferred_decision(scenario)
            assert pref.label is PreferenceLabel.ONE_BOX, delta


def test_criterion_7_monte_carlo(criterion):
    with criterion(7, "monte-carlo"):
        for scenario in (_s1(), _s2()):
            clean = 0
            for seed in range(20):
                report = montecarlo.simulate(
                    scenario, samples=1_000_000, seed=seed
                )
                again = montecarlo.simulate(
                    scenario, samples=1_000_000, seed=seed
                )
                assert report == again, f"seed {seed} not reproducible"
                rows = montecarlo.compare_to_exact(report, scenario)
                if not any(row.flagged for row in rows):
                    clean += 1
            assert clean >= 19, f"{clean}/20 seeds within 4 standard errors"


def test_criterion_8_cli_contract(criterion, tmp_path, monkeypatch, capsys):
    with criterion(8, "cli-contract"):
        source = tmp_path / "scenario.json"
        source.write_text(
            json.dumps(
                {
                    "prediction": [
                        {"omega": "9/10", "weight": "1/4"},
                        {"omega": "1/10", "weight": "1/4"},
                        {"omega": "7/10", "weight": "1/4"},
                        {"omega": "3/10", "weight": "1/4"},
                    ],
                    "rewards": {"r": "1000", "R": "1000000"},
                    "partition": [[1, 3], [2, 4]],
                }
            )
        )
        first = load_scenario(source)
        emitted = tmp_path / "emitted.json"
        save_scenario(emitted, first.scenario, first.refinement)
        second = load_scenario(emitted)
        assert second.scenario == first.scenario
        assert second.refinement == first.refinement

        grid = tmp_path / "grid.csv"
        code = cli.main(
            [
                "sweep",
                "--p",
                "1/3,1/2,3/5",
                "--spread",
                "0,1/5",
                "--ratio",
                "1/100,1/2,1",
                "--output",
                str(grid),
            ]
        )
        assert code == cli.EXIT_OK
        with open(grid, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        for row in rows:
            p = F(row["p"])
            sigma2 = F(row["sigma2"])
            threshold = F(row["threshold"])
            ratio = F(row["r_over_R"])
            assert threshold == sigma2 / (p * (1 - p))
            if ratio < threshold:
                expect = "onebox"
            elif ratio == threshold:
                expect = "indifferent"
            else:
                expect = "twobox"
            assert row["preference"] == expect
            one, two = F(row["e_onebox"]), F(row["e_twobox"])
            ordered = {
                "onebox": one > two,
                "twobox": two > one,
                "indifferent": one == two,
            }
            assert ordered[row["preference"]]

        assert cli.main(["verify", "--models", "25"]) == cli.EXIT_OK

        honest = core.posterior_box_full

        def skewed(scenario, decision):
            value = honest(scenario, decision)
            if decision is Decision.ONE_BOX:
                return value + F(1, 10**9)
            return value

        monkeypatch.setattr(core, "posterior_box_full", skewed)
        assert cli.main(["verify", "--models", "10"]) == cli.EXIT_VERIFY
