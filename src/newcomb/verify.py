"""Self-verification battery.

Each check recomputes facts the engine promises by an independent route
and compares exactly: closed forms against conditioning of the
enumerated joint, decompositions against their parts, threshold
comparisons against expectation comparisons, simulated frequencies
against exact probabilities. Engine calls go through module attributes
(core.posterior_box_full, not a from-import), so replacing a function
with a broken one really is caught. Checks fail through _expect, not
assert, so python -O cannot strip them.

The random generators in this module are also what the test suite uses
to produce arbitrary valid models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from . import core, impossibility, montecarlo, refinement
from .core import Decision, NewcombScenario, PredictionModel, PreferenceLabel
from .refinement import RefinementModel


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict and the number of trials behind it.

    A fixed check counts one trial. A pass needs at least one trial, so
    a check that ran none cannot report ok.
    """

    name: str
    ok: bool
    detail: str
    trials: int

    def __post_init__(self) -> None:
        if self.ok and self.trials < 1:
            raise ValueError(f"{self.name}: a pass needs a trial, got {self.trials}")


def _expect(ok: bool, *detail: object) -> None:
    """An assert that python -O cannot strip; detail is its message."""
    if not ok:
        raise AssertionError(*detail)


def random_prediction_model(
    rng: random.Random, max_support: int = 6, require_imperfect: bool = True
) -> PredictionModel:
    """A valid random prior: distinct omegas in [0, 1], weights sum to 1.

    Each omega has a denominator of at most 16.
    """
    while True:
        k = rng.randint(1, max_support)
        omegas: set[Fraction] = set()
        while len(omegas) < k:
            den = rng.randint(1, 16)
            omegas.add(Fraction(rng.randint(0, den), den))
        pairs = [(omega, Fraction(rng.randint(1, 20))) for omega in sorted(omegas)]
        model = PredictionModel.from_weights(pairs)
        if not require_imperfect or model.is_imperfect:
            return model


def random_scenario(
    rng: random.Random, require_imperfect: bool = True
) -> NewcombScenario:
    model = random_prediction_model(rng, require_imperfect=require_imperfect)
    return NewcombScenario(
        prediction=model,
        small_reward=Fraction(rng.randint(1, 1000), rng.randint(1, 10)),
        large_reward=Fraction(rng.randint(1, 1000), rng.randint(1, 10)),
    )


def random_refinement(rng: random.Random) -> RefinementModel:
    model = random_prediction_model(rng, max_support=8, require_imperfect=False)
    n = len(model.support)
    order = list(range(n))
    rng.shuffle(order)
    n_blocks = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), n_blocks - 1)) if n_blocks > 1 else []
    blocks = []
    prev = 0
    for cut in cuts + [n]:
        blocks.append(tuple(order[prev:cut]))
        prev = cut
    return RefinementModel(fine=model, blocks=tuple(blocks))


def random_beliefs(rng: random.Random) -> tuple[Fraction, ...]:
    """A belief vector over 2 to 10 boxes: entries in (0, 1) summing to 1."""
    n = rng.randint(2, 10)
    raw = [rng.randint(1, 30) for _ in range(n)]
    total = sum(raw)
    return tuple(Fraction(x, total) for x in raw)


def builtin_scenarios() -> dict[str, NewcombScenario]:
    """Small scenarios with hand-checkable exact values."""
    half = Fraction(1, 2)
    return {
        "symmetric-tenths": NewcombScenario(
            prediction=PredictionModel(
                ((Fraction(1, 10), half), (Fraction(9, 10), half))
            ),
            small_reward=Fraction(1000),
            large_reward=Fraction(1000000),
        ),
        "point-half": NewcombScenario(
            prediction=PredictionModel(((half, Fraction(1)),)),
            small_reward=Fraction(1000),
            large_reward=Fraction(1000000),
        ),
        "quarters-tie": NewcombScenario(
            prediction=PredictionModel(
                ((Fraction(1, 4), half), (Fraction(3, 4), half))
            ),
            small_reward=Fraction(1),
            large_reward=Fraction(4),
        ),
    }


def _check_worked_examples() -> str:
    scenarios = builtin_scenarios()
    half = Fraction(1, 2)

    sym = scenarios["symmetric-tenths"]
    summary = core.scenario_summary(sym)
    _expect(summary.p == half, summary)
    _expect(summary.sigma2 == Fraction(4, 25), summary)
    _expect(summary.prior_box_full == half, summary)
    _expect(summary.threshold == Fraction(16, 25), summary)
    _expect(core.posterior_box_full(sym, Decision.ONE_BOX) == Fraction(41, 50))
    _expect(core.posterior_box_full(sym, Decision.TWO_BOX) == Fraction(9, 50))
    _expect(core.expected_reward(sym, Decision.ONE_BOX) == 820000)
    _expect(core.expected_reward(sym, Decision.TWO_BOX) == 181000)
    _expect(core.preferred_decision(sym).label is PreferenceLabel.ONE_BOX)
    _expect(core.authority_check(sym, Fraction(1, 10)) == Fraction(1, 10))
    _expect(core.authority_check(sym, Fraction(9, 10)) == Fraction(9, 10))
    joint = core.build_joint(sym)
    atom = core.JointAtom(0, Decision.ONE_BOX, True)
    _expect(joint.weight(atom) == Fraction(1, 200), joint.weight(atom))

    point = scenarios["point-half"]
    _expect(core.posterior_box_full(point, Decision.ONE_BOX) == half)
    _expect(core.posterior_box_full(point, Decision.TWO_BOX) == half)
    _expect(core.expected_reward(point, Decision.ONE_BOX) == 500000)
    _expect(core.expected_reward(point, Decision.TWO_BOX) == 501000)
    _expect(core.preferred_decision(point).label is PreferenceLabel.TWO_BOX)

    tie = scenarios["quarters-tie"]
    pref = core.preferred_decision(tie)
    _expect(pref.label is PreferenceLabel.INDIFFERENT)
    _expect(pref.expected_onebox == Fraction(5, 2) == pref.expected_twobox)

    quarter = Fraction(1, 4)
    fine = PredictionModel(
        (
            (Fraction(1, 10), quarter),
            (Fraction(3, 10), quarter),
            (Fraction(7, 10), quarter),
            (Fraction(9, 10), quarter),
        )
    )
    rm = RefinementModel(fine=fine, blocks=((0, 1), (2, 3)))
    coarse = refinement.coarsen(rm)
    _expect(coarse.support == ((Fraction(1, 5), half), (Fraction(4, 5), half)))
    parts = refinement.variance_decomposition(rm)
    _expect(parts.fine_variance == Fraction(1, 10), parts)
    _expect(parts.coarse_variance == Fraction(9, 100), parts)
    _expect(parts.expected_conditional_variance == Fraction(1, 100), parts)

    skewed = PredictionModel(
        ((Fraction(1, 100), half), (Fraction(99, 100), half))
    )
    report = refinement.check_delta_omniscience(skewed, Fraction(1, 100))
    _expect(report.is_omniscient)
    _expect(report.variance_lower_bound == Fraction(230249, 1000000), report)
    _expect(report.actual_variance == Fraction(2401, 10000), report)
    report = refinement.check_delta_omniscience(skewed, Fraction(1, 200))
    _expect(not report.is_omniscient)

    game = impossibility.build_adversarial_game(
        (half, Fraction(3, 10), Fraction(1, 5))
    )
    _expect(game.target_index == 1)
    _expect(impossibility.bad_decision_probability(game) == Fraction(7, 10))
    uniform = impossibility.build_adversarial_game(
        tuple(Fraction(1, 4) for _ in range(4))
    )
    _expect(uniform.target_index == 0)
    _expect(impossibility.bad_decision_probability(uniform) == Fraction(3, 4))
    return "all built-in example values reproduced"


def _check_distribution_laws(rng: random.Random, trials: int) -> str:
    for _ in range(trials):
        scenario = random_scenario(rng, require_imperfect=False)
        joint = core.build_joint(scenario)
        # the weights of all 4n cells account for each atom the joint holds
        n = len(scenario.prediction.support)
        cells = [core.JointAtom(*c) for c in product(range(n), Decision, (False, True))]
        total = joint.prob(lambda a: True)
        _expect(total == 1, f"joint mass {total}")
        held = sum(joint.weight(a) > 0 for a in cells)
        _expect(len(joint) == held, "zero atom survived pruning")
        p = scenario.prediction.p
        _expect(joint.prob(lambda a: a.decision is Decision.ONE_BOX) == p)
        _expect(joint.prob(lambda a: a.box_full) == p)
        if 0 < p < 1:
            given_one = joint.condition(
                lambda a: a.decision is Decision.ONE_BOX
            )
            if given_one.prob(lambda a: a.box_full) > 0:
                chained = given_one.condition(lambda a: a.box_full)
                direct = joint.condition(
                    lambda a: a.decision is Decision.ONE_BOX and a.box_full
                )
                # both conditionals live on the one-box, full cells
                same = all(
                    chained.weight(a) == direct.weight(a)
                    for a in cells
                    if a.decision is Decision.ONE_BOX and a.box_full
                )
                _expect(same, "conditioning chain broke")
    return f"{trials} random joints: unit mass, marginals, conditioning chain"


def _check_posterior_routes(rng: random.Random, trials: int) -> str:
    for _ in range(trials):
        scenario = random_scenario(rng)
        model = scenario.prediction
        closed = {d: core.posterior_box_full(scenario, d) for d in Decision}
        routed = core.posterior_box_full_via_joint(scenario)
        _expect(closed == routed, (closed, routed, model.support))
        _expect(all(0 <= value <= 1 for value in closed.values()))
        up, down = closed[Decision.ONE_BOX], closed[Decision.TWO_BOX]
        if model.variance > 0:
            _expect(down < model.p < up)
        else:
            _expect(down == model.p == up)
    return f"{trials} models: closed-form posteriors equal joint conditioning"


def _check_expected_rewards(rng: random.Random, trials: int) -> str:
    for _ in range(trials):
        scenario = random_scenario(rng)
        closed = {d: core.expected_reward(scenario, d) for d in Decision}
        routed = core.expected_reward_via_joint(scenario)
        _expect(closed == routed, (closed, routed))
    return f"{trials} models: closed-form expectations equal joint means"


def _check_preference_threshold(rng: random.Random, trials: int) -> str:
    ratios = [
        Fraction(1, 1000),
        Fraction(1, 10),
        Fraction(1, 2),
        Fraction(2),
        Fraction(17, 3),
    ]
    ties = 0
    for _ in range(trials):
        model = random_prediction_model(rng)
        threshold = model.variance / (model.p * (1 - model.p))
        todo = list(ratios)
        if threshold > 0:
            todo.append(threshold)
            ties += 1
        for ratio in todo:
            scenario = NewcombScenario(
                prediction=model, small_reward=ratio, large_reward=Fraction(1)
            )
            pref = core.preferred_decision(scenario)
            if ratio < threshold:
                expect = PreferenceLabel.ONE_BOX
            elif ratio == threshold:
                expect = PreferenceLabel.INDIFFERENT
            else:
                expect = PreferenceLabel.TWO_BOX
            _expect(pref.label is expect, (model.support, ratio, pref))
            scale = Fraction(rng.randint(1, 50), rng.randint(1, 7))
            scaled = NewcombScenario(
                prediction=model,
                small_reward=ratio * scale,
                large_reward=scale,
            )
            _expect(core.preferred_decision(scaled).label is pref.label)
    return (
        f"{trials} models x {len(ratios)}+ ratios: preference matches the "
        f"variance threshold ({ties} exact ties included)"
    )


def _check_authority(rng: random.Random, trials: int) -> str:
    points = 0
    for _ in range(trials):
        scenario = random_scenario(rng, require_imperfect=False)
        table = core.authority_table(scenario)
        omegas = [omega for omega, _ in scenario.prediction.support]
        _expect(list(table) == omegas, "authority table keys differ from the support")
        for omega, value in table.items():
            _expect(value == omega, (omega, value))
        points += len(table)
    return f"{points} support points: P(one-box | omega) = omega exactly"


def _support_variance(model: PredictionModel) -> Fraction:
    """sum(q omega^2) - (sum(q omega))^2, straight from the support."""
    mean = sum(q * omega for omega, q in model.support)
    return sum(q * omega * omega for omega, q in model.support) - mean * mean


def _check_refinement(rng: random.Random, trials: int) -> str:
    for _ in range(trials):
        rm = random_refinement(rng)
        fine = rm.fine
        coarse = refinement.coarsen(rm)
        _expect(coarse.p == fine.p, "coarsening moved the mean")
        parts = refinement.variance_decomposition(rm)
        # each variance recomputed from its support, not read back
        fine_var = _support_variance(fine)
        coarse_var = _support_variance(coarse)
        _expect(parts.fine_variance == fine_var, parts)
        _expect(parts.coarse_variance == coarse_var, parts)
        _expect(fine_var == coarse_var + parts.expected_conditional_variance, parts)
        _expect(parts.coarse_variance <= parts.fine_variance)
        _expect(parts.expected_conditional_variance >= 0)
        singletons = RefinementModel(
            fine=fine, blocks=tuple((i,) for i in range(len(fine.support)))
        )
        _expect(refinement.coarsen(singletons) == fine)
        lumped = RefinementModel(
            fine=fine, blocks=(tuple(range(len(fine.support))),)
        )
        _expect(refinement.coarsen(lumped).variance == 0)
    return f"{trials} refinements: mean kept, variances decompose exactly"


def _check_omniscience(rng: random.Random, trials: int) -> str:
    half = Fraction(1, 2)
    for _ in range(trials):
        model = random_prediction_model(rng)
        limit = min(model.p, 1 - model.p)
        delta = limit * Fraction(rng.randint(0, 15), 16)
        report = refinement.check_delta_omniscience(model, delta)
        p = model.p
        # the bound recomputed, since the inequalities cannot see a loose one
        bound = (1 - delta) ** 2 * (p - delta) - p * p
        _expect(report.variance_lower_bound == bound, report)
        _expect(bound >= p * (1 - p) - 3 * delta)
        if report.is_omniscient:
            _expect(report.actual_variance >= report.variance_lower_bound)

        delta2 = Fraction(rng.randint(1, 499), 1000)
        pair = PredictionModel(((delta2, half), (1 - delta2, half)))
        report2 = refinement.check_delta_omniscience(pair, delta2)
        _expect(report2.is_omniscient)
        _expect(report2.actual_variance == (half - delta2) ** 2)
        bound2 = (1 - delta2) ** 2 * (half - delta2) - half * half
        _expect(report2.variance_lower_bound == bound2, report2)
        _expect(report2.actual_variance >= report2.variance_lower_bound)

    ratio = Fraction(1, 1000)
    for k in range(2, 11):
        delta = Fraction(1, 2**k)
        pair = PredictionModel(((delta, half), (1 - delta, half)))
        scenario = NewcombScenario(
            prediction=pair, small_reward=ratio, large_reward=Fraction(1)
        )
        pref = core.preferred_decision(scenario)
        _expect(pref.label is PreferenceLabel.ONE_BOX, (delta, pref))
    blunt = Fraction(2499, 5000)
    pair = PredictionModel(((blunt, half), (1 - blunt, half)))
    scenario = NewcombScenario(
        prediction=pair, small_reward=ratio, large_reward=Fraction(1)
    )
    _expect(core.preferred_decision(scenario).label is PreferenceLabel.TWO_BOX)
    return (
        f"{trials} models: bound >= p(1-p) - 3*delta; sharp two-point "
        "priors force one-boxing at ratio 1/1000"
    )


def _check_impossibility(rng: random.Random, trials: int) -> str:
    for _ in range(trials):
        beliefs = random_beliefs(rng)
        n = len(beliefs)
        game = impossibility.build_adversarial_game(beliefs)
        bound = Fraction(1, n)
        target = game.target_index
        _expect(beliefs[target] <= bound)
        _expect(all(pi > bound for pi in beliefs[:target]), "target not minimal")
        _expect(game.rewards[target] == 1)
        _expect(sum(game.rewards) == 1)
        _expect(impossibility.optimal_choice(game) == target)
        _expect(impossibility.choice_payout(game, target) == 1)
        bad = impossibility.bad_decision_probability(game)
        _expect(bad == 1 - beliefs[target])
        _expect(bad >= 1 - bound)
    for n in range(2, 11):
        uniform = tuple(Fraction(1, n) for _ in range(n))
        game = impossibility.build_adversarial_game(uniform)
        _expect(game.target_index == 0)
        _expect(impossibility.bad_decision_probability(game) == 1 - Fraction(1, n))
    # an entry of exactly 1/n ahead of a smaller one is the target: the
    # random vectors above rarely hit that boundary of the search
    for weights, target in (((3, 2, 1), 1), ((2, 3, 1), 0), ((8, 5, 5, 2), 1)):
        beliefs = tuple(Fraction(w, sum(weights)) for w in weights)
        game = impossibility.build_adversarial_game(beliefs)
        _expect(game.target_index == target, "target not the first at 1/n")
        _expect(
            impossibility.bad_decision_probability(game)
            == 1 - Fraction(1, len(beliefs))
        )
    return f"{trials} belief vectors: pigeonhole target, bad-pick bound"


def _check_simulation() -> str:
    # a one-point prior takes its own path: no row 0, no guide table
    scenarios = builtin_scenarios()
    for name in ("symmetric-tenths", "point-half"):
        scenario = scenarios[name]
        report = montecarlo.simulate(scenario, samples=200_000, seed=2024)
        again = montecarlo.simulate(scenario, samples=200_000, seed=2024)
        _expect(report == again, f"{name}: identical runs disagreed")
        rows = montecarlo.compare_to_exact(report, scenario)
        flagged = [row.quantity for row in rows if row.flagged]
        _expect(not flagged, f"{name}: estimates off by >4 standard errors: {flagged}")
        freqs = montecarlo.empirical_authority(report)
        for (omega, _), freq in zip(scenario.prediction.support, freqs):
            _expect(freq is not None and abs(freq - float(omega)) < 0.02)
    return "200k-sample run reproducible and within 4 SEs of exact values"


def run_all(
    seed: int = 0,
    models: int = 200,
    echo: Callable[[str], None] | None = None,
) -> list[CheckResult]:
    """Run every check. Pass echo=print for live output.

    A failure inside a check becomes a failed CheckResult rather than an
    exception. models < 1 raises ValueError before any check runs: a
    battery that ran no random trials must not report a pass.
    """
    if models < 1:
        raise ValueError(f"models must be at least 1, got {models}")
    master = random.Random(seed)
    # a check with trials gets its own generator, seeded from master in
    # order; a fixed check (None) takes no arguments and counts one trial
    checks: list[tuple[str, Callable[..., str], int | None]] = [
        ("worked-examples", _check_worked_examples, None),
        ("distribution-laws", _check_distribution_laws, models),
        ("posterior-routes", _check_posterior_routes, models),
        ("expected-rewards", _check_expected_rewards, models),
        ("preference-threshold", _check_preference_threshold, models),
        ("authority", _check_authority, max(1, models // 2)),
        ("refinement", _check_refinement, models),
        ("omniscience", _check_omniscience, models),
        ("impossibility", _check_impossibility, max(10, models * 2)),
        ("simulation", _check_simulation, None),
    ]
    results = []
    for name, check, trials in checks:
        args = (random.Random(master.randrange(2**32)), trials) if trials else ()
        count = trials or 1
        try:
            detail = check(*args)
            result = CheckResult(name=name, ok=True, detail=detail, trials=count)
        except Exception as exc:
            result = CheckResult(
                name=name,
                ok=False,
                detail=f"{type(exc).__name__}: {exc}",
                trials=count,
            )
        results.append(result)
        if echo is not None:
            mark = "ok  " if result.ok else "FAIL"
            echo(f"{mark} {result.name}: {result.detail}")
    return results


def all_ok(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)
