"""Exact Bayesian engine and simulation harness for prediction games.

A predictor studies a subject and commits to a bias omega, filling the
opaque box with probability omega; the subject's own choice follows the
same coin. Given a finite prior over omega this package computes, in
exact rational arithmetic, the joint distribution of (bias, decision,
box contents), the posteriors each decision induces, the counterfactual
expected rewards, and the variance threshold where the preferred
decision flips. It also covers refining or coarsening the prior, the
near-omniscient limit, the adversarial n-box game that defeats any
belief vector, and a Monte Carlo harness whose estimates are checked
against the exact values.
"""

from .core import (
    Decision,
    JointAtom,
    NewcombScenario,
    Preference,
    PreferenceLabel,
    PredictionModel,
    ScenarioSummary,
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
from .impossibility import (
    NBoxGame,
    bad_decision_probability,
    build_adversarial_game,
    choice_payout,
    optimal_choice,
)
from .montecarlo import (
    ComparisonRow,
    SimulationReport,
    compare_to_exact,
    empirical_authority,
    simulate,
)
from .rational import decimal_str, format_rational, parse_rational
from .refinement import (
    OmniscienceReport,
    RefinementModel,
    VarianceDecomposition,
    check_delta_omniscience,
    coarsen,
    variance_decomposition,
)
from .scenario_io import (
    LoadedScenario,
    load_scenario,
    parse_scenario_data,
    save_scenario,
    scenario_to_data,
)
from .verify import CheckResult, all_ok, builtin_scenarios, run_all

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ComparisonRow",
    "Decision",
    "JointAtom",
    "LoadedScenario",
    "NBoxGame",
    "NewcombScenario",
    "OmniscienceReport",
    "Preference",
    "PreferenceLabel",
    "PredictionModel",
    "RefinementModel",
    "ScenarioSummary",
    "SimulationReport",
    "VarianceDecomposition",
    "all_ok",
    "authority_check",
    "authority_table",
    "bad_decision_probability",
    "build_adversarial_game",
    "build_joint",
    "builtin_scenarios",
    "check_delta_omniscience",
    "choice_payout",
    "coarsen",
    "compare_to_exact",
    "decimal_str",
    "empirical_authority",
    "expected_reward",
    "expected_reward_via_joint",
    "format_rational",
    "load_scenario",
    "optimal_choice",
    "parse_rational",
    "parse_scenario_data",
    "posterior_box_full",
    "posterior_box_full_via_joint",
    "preferred_decision",
    "run_all",
    "save_scenario",
    "scenario_summary",
    "scenario_to_data",
    "simulate",
    "variance_decomposition",
    "__version__",
]
