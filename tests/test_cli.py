import ast
import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from newcomb import cli, core, load_scenario, montecarlo
from newcomb.cli import (
    EXIT_DATA,
    EXIT_INTERRUPT,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)

F = Fraction

S1 = {
    "prediction": [
        {"omega": "1/10", "weight": "1/2"},
        {"omega": "9/10", "weight": "1/2"},
    ],
    "rewards": {"r": "1000", "R": "1000000"},
}


@pytest.fixture
def s1_path(tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(S1))
    return str(path)


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_option(self, capsys):
        assert main(["analyze"]) == EXIT_USAGE

    def test_unknown_option(self, capsys):
        assert main(["verify", "--bogus"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "analyze" in capsys.readouterr().out


class TestAnalyze:
    def test_prints_exact_summary(self, s1_path, capsys):
        assert main(["analyze", "--scenario", s1_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "p (marginal accuracy): 1/2 (0.5)" in out
        assert "sigma^2 (prior variance): 4/25 (0.16)" in out
        assert "threshold sigma^2/(p(1-p)): 16/25 (0.64)" in out
        assert "posterior P(full | one-box): 41/50 (0.82)" in out
        assert "posterior P(full | two-box): 9/50 (0.18)" in out
        assert "E[reward | one-box]: 820000" in out
        assert "preference: onebox" in out
        assert "P(one-box | omega = 9/10) = 9/10" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["analyze", "--scenario", str(tmp_path / "nope.json")])
        assert code == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", "--scenario", str(path)]) == EXIT_DATA

    def test_invalid_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        bad = dict(S1, rewards={"r": "0", "R": "5"})
        path.write_text(json.dumps(bad))
        assert main(["analyze", "--scenario", str(path)]) == EXIT_DATA

    def test_partition_and_delta_sections(self, tmp_path, capsys):
        data = {
            "prediction": [
                {"omega": "1/10", "weight": "1/4"},
                {"omega": "3/10", "weight": "1/4"},
                {"omega": "7/10", "weight": "1/4"},
                {"omega": "9/10", "weight": "1/4"},
            ],
            "rewards": {"r": "1000", "R": "1000000"},
            "partition": [[1, 2], [3, 4]],
        }
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(data))
        code = main(
            ["analyze", "--scenario", str(path), "--delta", "3/10"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert (
            "variance split: fine 1/10 (0.1) = coarse 9/100 (0.09) "
            "+ within-block 1/100 (0.01)" in out
        )
        assert "delta-omniscient at delta = 3/10: yes" in out

    # the file lists its omegas unsorted, so the model's sorted 0-based
    # indices differ from the positions the file's blocks use
    @pytest.mark.parametrize(
        "partition, err",
        [
            (
                [[1, 2], [2, 3, 4]],
                "error: partition[1]: index 2 appears in more than one block\n",
            ),
            (
                [[1, 2], [4]],
                "error: partition: indices [3] are not covered by any block\n",
            ),
        ],
        ids=["repeated", "missing"],
    )
    def test_partition_errors_name_file_positions(
        self, partition, err, tmp_path, capsys
    ):
        omegas = ["9/10", "1/10", "3/10", "7/10"]
        data = {
            "prediction": [{"omega": o, "weight": "1/4"} for o in omegas],
            "rewards": {"r": "1", "R": "100"},
            "partition": partition,
        }
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", "--scenario", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""

    # 1/2 is out of range for p = 1/2, and 1.5 is not a rational's grammar
    @pytest.mark.parametrize("delta", ["1/2", "1.5"])
    def test_bad_delta_prints_nothing(self, delta, s1_path, capsys):
        code = main(["analyze", "--scenario", s1_path, "--delta", delta])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("points", [2, 50])
    def test_joint_builds_do_not_grow_with_support(
        self, points, tmp_path, capsys, monkeypatch
    ):
        honest = core.build_joint
        builds = []

        def counting(scenario):
            builds.append(len(scenario.prediction.support))
            return honest(scenario)

        monkeypatch.setattr(core, "build_joint", counting)
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "prediction": [
                        {"omega": f"{k}/{points + 1}", "weight": f"1/{points}"}
                        for k in range(1, points + 1)
                    ],
                    "rewards": {"r": "1", "R": "3"},
                }
            )
        )
        assert main(["analyze", "--scenario", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("authority: ") == points
        assert builds == [points]

    def test_emit_writes_canonical_file(self, s1_path, tmp_path, capsys):
        target = tmp_path / "canonical.json"
        code = main(
            ["analyze", "--scenario", s1_path, "--emit", str(target)]
        )
        assert code == EXIT_OK
        reloaded = load_scenario(target)
        assert reloaded.scenario == load_scenario(s1_path).scenario


_DENOMINATORS = [1, 2, 3, 4, 6, 8, 9, 12, 24]


@st.composite
def sweep_grids(draw):
    """(argv, ps, spreads, ratios) of a small valid sweep grid.

    Every value has a denominator from a few numbers with common factors,
    and the ratios include thresholds of the grid, so both the reduced
    and the unreduced additions and the ties all occur.
    """

    def rational(low, high):
        den = draw(st.sampled_from(_DENOMINATORS))
        return F(draw(st.integers(low * den, high * den)), den)

    p_dens = draw(st.lists(st.sampled_from(_DENOMINATORS[1:]), min_size=1, max_size=3))
    ps = [F(draw(st.integers(1, den - 1)), den) for den in p_dens]
    widest = min(min(p, 1 - p) for p in ps)
    spreads = [
        widest * rational(0, 1) for _ in range(draw(st.integers(1, 3)))
    ]
    ratios = [rational(0, 2) for _ in range(draw(st.integers(1, 4)))]
    thresholds = sorted(
        {a * a / (p * (1 - p)) for p in ps for a in spreads} - {0}
    )
    if thresholds:
        ratios += draw(st.lists(st.sampled_from(thresholds), max_size=2))
    ratios = [r for r in ratios if r > 0] or [F(1)]
    if set(ratios) & set(thresholds):
        event("a ratio at a threshold")

    def text(values):
        # the same values, sometimes written in unreduced form
        scale = draw(st.sampled_from([1, 1, 2, 6]))
        return ",".join(f"{v.numerator * scale}/{v.denominator * scale}" for v in values)

    argv = ["sweep", "--p", text(ps), "--spread", text(spreads), "--ratio", text(ratios)]
    return argv, ps, spreads, ratios


def _sweep_reference(ps, spreads, ratios):
    """The sweep's text built with Fraction arithmetic and csv.writer."""
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(
        ["p", "spread", "sigma2", "threshold", "r_over_R", "preference", "e_onebox", "e_twobox"]
    )
    for p in ps:
        for a in spreads:
            model = core.PredictionModel.from_weights(((p - a, 1), (p + a, 1)))
            scenario = core.NewcombScenario(
                prediction=model, small_reward=F(1), large_reward=F(1)
            )
            one = core.posterior_box_full(scenario, core.Decision.ONE_BOX)
            full_two = core.posterior_box_full(scenario, core.Decision.TWO_BOX)
            sigma2 = model.variance
            for ratio in ratios:
                two = full_two + ratio
                pref = "onebox" if one > two else "twobox" if two > one else "indifferent"
                writer.writerow([p, a, sigma2, sigma2 / (p * (1 - p)), ratio, pref, one, two])
    return table.getvalue()


class TestSweep:
    def test_csv_schema_and_content(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code = main(
            [
                "sweep",
                "--p",
                "1/2",
                "--spread",
                "0,1/4",
                "--ratio",
                "1/1000,1/4,1",
                "--output",
                str(out_path),
            ]
        )
        assert code == EXIT_OK
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert list(rows[0]) == [
            "p",
            "spread",
            "sigma2",
            "threshold",
            "r_over_R",
            "preference",
            "e_onebox",
            "e_twobox",
        ]
        tied = [
            row
            for row in rows
            if row["spread"] == "1/4" and row["r_over_R"] == "1/4"
        ]
        assert tied[0]["preference"] == "indifferent"
        assert tied[0]["sigma2"] == "1/16"
        assert tied[0]["threshold"] == "1/4"
        sure = [
            row
            for row in rows
            if row["spread"] == "0" and row["r_over_R"] == "1/1000"
        ]
        assert sure[0]["preference"] == "twobox"

    def test_bytes_of_stdout_and_output_file(self, tmp_path, monkeypatch, capsys):
        # every ratio but 1/5 shares a denominator factor with
        # P(full | two-box); rows 3 and 8 reduce to integers, and row 6
        # is a tie at the threshold
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--p", "1/2", "--spread", "0,1/4", "--ratio", "1/5,1/4,1/2,5/8"]
        golden = (
            "p,spread,sigma2,threshold,r_over_R,preference,e_onebox,e_twobox\r\n"
            "1/2,0,0,0,1/5,twobox,1/2,7/10\r\n"
            "1/2,0,0,0,1/4,twobox,1/2,3/4\r\n"
            "1/2,0,0,0,1/2,twobox,1/2,1\r\n"
            "1/2,0,0,0,5/8,twobox,1/2,9/8\r\n"
            "1/2,1/4,1/16,1/4,1/5,onebox,5/8,23/40\r\n"
            "1/2,1/4,1/16,1/4,1/4,indifferent,5/8,5/8\r\n"
            "1/2,1/4,1/16,1/4,1/2,twobox,5/8,7/8\r\n"
            "1/2,1/4,1/16,1/4,5/8,twobox,5/8,1\r\n"
        )
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == golden
        assert main([*argv, "--output", "grid.csv"]) == EXIT_OK
        assert capsys.readouterr().out == "wrote 8 row(s) to grid.csv\n"
        assert (tmp_path / "grid.csv").read_bytes() == golden.encode("ascii")

    @settings(max_examples=100, deadline=None)
    @given(grid=sweep_grids())
    def test_rows_match_fraction_arithmetic_and_csv_writer(self, grid):
        argv, ps, spreads, ratios = grid
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == EXIT_OK
        assert out.getvalue() == _sweep_reference(ps, spreads, ratios)

    def test_stdout_when_no_output_given(self, capsys):
        code = main(
            ["sweep", "--p", "1/2", "--spread", "0", "--ratio", "1"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("p,spread,sigma2,threshold,r_over_R")

    @pytest.mark.parametrize(
        "args",
        [
            ["--p", "0", "--spread", "0", "--ratio", "1"],
            ["--p", "1", "--spread", "0", "--ratio", "1"],
            ["--p", "1/2", "--spread", "3/4", "--ratio", "1"],
            ["--p", "1/2", "--spread=-1/4", "--ratio", "1"],
            ["--p", "1/2", "--spread", "0", "--ratio", "0"],
            ["--p", "1/2", "--spread", "0", "--ratio", "1.5"],
        ],
    )
    def test_invalid_grids(self, args, capsys):
        assert main(["sweep", *args]) == EXIT_DATA

    def test_empty_list_names_the_option(self, capsys):
        argv = ["sweep", "--p", ",", "--spread", "1/10", "--ratio", "1/2"]
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == "error: --p: empty list\n"
        assert captured.out == ""

    def test_rows_agree_with_the_engine(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        main(
            [
                "sweep",
                "--p",
                "1/3,2/3",
                "--spread",
                "0,1/6,1/3",
                "--ratio",
                "1/100,1/2",
                "--output",
                str(out_path),
            ]
        )
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for row in rows:
            model = core.PredictionModel.from_weights(
                (
                    (F(row["p"]) - F(row["spread"]), 1),
                    (F(row["p"]) + F(row["spread"]), 1),
                )
            )
            scenario = core.NewcombScenario(
                prediction=model,
                small_reward=F(row["r_over_R"]),
                large_reward=F(1),
            )
            pref = core.preferred_decision(scenario)
            assert row["preference"] == pref.label.value
            assert F(row["e_onebox"]) == pref.expected_onebox
            assert F(row["e_twobox"]) == pref.expected_twobox
            assert F(row["sigma2"]) == model.variance

    def test_posteriors_once_per_model(self, monkeypatch, capsys):
        calls = []
        original = core.posterior_box_full

        def counting(scenario, decision):
            calls.append(decision)
            return original(scenario, decision)

        monkeypatch.setattr(cli, "posterior_box_full", counting)
        monkeypatch.setattr(core, "posterior_box_full", counting)
        ratios = ",".join(f"{m}/50" for m in range(1, 51))
        argv = ["sweep", "--p", "1/3,1/2", "--spread", "0,1/4", "--ratio", ratios]
        assert main(argv) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 200
        assert len(calls) == 8

    # 1,000 values of p and one spread; the models are never built, so
    # neither grid allocates its rows
    @staticmethod
    def _grid(ratios):
        return [
            "sweep",
            "--p", ",".join(f"{k}/1001" for k in range(1, 1001)),
            "--spread", "0",
            "--ratio", ",".join(f"{m}/1001" for m in range(1, ratios + 1)),
        ]

    def test_grid_past_the_row_cap_is_refused(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "PredictionModel", _UnbuildableModel)
        assert main(self._grid(1001)) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: grid of 1001000 rows exceeds the limit of 1000000 rows\n"
        )

    def test_grid_at_the_row_cap_is_built(self, monkeypatch):
        monkeypatch.setattr(cli, "PredictionModel", _UnbuildableModel)
        with pytest.raises(_ModelBuilt):
            main(self._grid(1000))


class _ModelBuilt(Exception):
    pass


class _UnbuildableModel:
    @staticmethod
    def from_weights(pairs):
        raise _ModelBuilt


class TestImpossibility:
    def test_worked_example(self, capsys):
        code = main(["impossibility", "--beliefs", "1/2,3/10,1/5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "adversarial target: box 2 (belief 3/10 <= 1/3)" in out
        assert "counterfactually optimal choice: box 2" in out
        assert "P(subject picks a worthless box): 7/10 (0.7)" in out

    # one validation pass reports these in the order the checks run:
    # box count, negatives, sum, then certainty
    @pytest.mark.parametrize(
        "args, err, code",
        [
            (
                ["--beliefs", "1/2,1/3"],
                "error: beliefs sum to 5/6, not 1\n",
                EXIT_DATA,
            ),
            (
                ["--beliefs", "1,0"],
                "error: a belief of exactly 0 or 1 means certainty about a box\n",
                EXIT_DATA,
            ),
            (
                ["--beliefs=-1/2,3/2"],
                "error: belief entries must not be negative\n",
                EXIT_DATA,
            ),
            # without "=" argparse takes the value for an option
            (
                ["--beliefs", "-1/2,3/2"],
                "newcomb impossibility: error: argument --beliefs: "
                "expected one argument\n",
                EXIT_USAGE,
            ),
            (
                ["--beliefs", "1"],
                "error: the game needs at least two boxes\n",
                EXIT_DATA,
            ),
            (
                ["--beliefs", "0.5,0.5"],
                "error: --beliefs[0]: '0.5' is not of the form "
                "'<int>' or '<int>/<posint>'\n",
                EXIT_DATA,
            ),
            # two faults each: the earlier check names its own
            (
                ["--beliefs=-1,1,1"],
                "error: belief entries must not be negative\n",
                EXIT_DATA,
            ),
            (["--beliefs", "0,1/2"], "error: beliefs sum to 1/2, not 1\n", EXIT_DATA),
        ],
        ids=[
            "sum",
            "certainty",
            "negative",
            "negative-without-equals",
            "one-box",
            "decimal",
            "negative-before-certainty",
            "sum-before-certainty",
        ],
    )
    def test_bad_vector(self, args, err, code, capsys):
        assert main(["impossibility", *args]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""


class TestSimulate:
    def test_clean_run_exits_zero(self, s1_path, capsys):
        code = main(
            [
                "simulate",
                "--scenario",
                s1_path,
                "--samples",
                "100000",
                "--seed",
                "7",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "posterior_full_onebox" in out
        assert "41/50" in out
        assert "FLAGGED" not in out

    def test_flagged_run_exits_three(self, s1_path, capsys):
        # an odd sample count cannot estimate p = 1/2 exactly, so a zero
        # threshold must flag
        code = main(
            [
                "simulate",
                "--scenario",
                s1_path,
                "--samples",
                "10001",
                "--seed",
                "2",
                "--flag-threshold",
                "0",
            ]
        )
        assert code == EXIT_VERIFY
        assert "FLAGGED" in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_flag_threshold_outside_its_domain_is_a_usage_error(
        self, threshold, s1_path, capsys
    ):
        # no deviation exceeds nan or inf, and every deviation exceeds -1,
        # so none of these thresholds would check anything
        code = main(
            [
                "simulate",
                "--scenario",
                s1_path,
                "--samples",
                "1000",
                "--seed",
                "1",
                "--flag-threshold",
                threshold,
            ]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--flag-threshold" in captured.err

    def test_builds_no_joint(self, s1_path, capsys, monkeypatch):
        # every exact value it prints has a closed form; the joint is the
        # independent route of the checks, not of a simulation
        honest = core.build_joint
        builds = []

        def counting(scenario):
            builds.append(len(scenario.prediction.support))
            return honest(scenario)

        monkeypatch.setattr(core, "build_joint", counting)
        code = main(
            ["simulate", "--scenario", s1_path, "--samples", "1000", "--seed", "1"]
        )
        assert code == EXIT_OK
        assert builds == []

    def test_bad_samples_exit_data(self, s1_path, capsys):
        code = main(
            ["simulate", "--scenario", s1_path, "--samples", "0", "--seed", "1"]
        )
        assert code == EXIT_DATA

    def test_chunk_size_past_the_cap_exits_data(self, s1_path, capsys):
        code = main(
            [
                "simulate",
                "--scenario",
                s1_path,
                "--samples",
                "10",
                "--seed",
                "1",
                "--chunk-size",
                str(montecarlo.MAX_CHUNK_SIZE + 1),
            ]
        )
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chunk_size" in captured.err

    @staticmethod
    def _point_prior(tmp_path, omega):
        path = tmp_path / "point.json"
        point = {
            "prediction": [{"omega": omega, "weight": "1"}],
            "rewards": {"r": "1", "R": "2"},
        }
        path.write_text(json.dumps(point))
        return str(path)

    def test_branch_without_samples_prints_unavailable(self, tmp_path, capsys):
        # ten samples at omega = 10^-6 never one-box, so the one-box rows
        # have no estimate, and the two-box rows, all at proportion 0,
        # sit well within the standard error of the exact 10^-6
        path = self._point_prior(tmp_path, "1/1000000")
        code = main(["simulate", "--scenario", path, "--samples", "10", "--seed", "1"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert (
            "posterior_full_onebox             1/1000000    unavailable"
            "            -         -"
        ) in lines
        assert (
            "expected_reward_onebox             1/500000    unavailable"
            "            -         -"
        ) in lines
        assert "Traceback" not in captured.err

    def test_correct_sampler_is_not_flagged(self, tmp_path, capsys):
        # about 10 of 1,000 samples one-box at omega = 1/100, so the
        # one-box proportions are often exactly 0, where the plug-in
        # standard error is 0 and any deviation read as infinite
        path = self._point_prior(tmp_path, "1/100")
        argv = ["simulate", "--scenario", path, "--samples", "1000"]
        codes = [main([*argv, "--seed", str(seed)]) for seed in range(1, 21)]
        assert codes == [EXIT_OK] * 20
        assert "FLAGGED" not in capsys.readouterr().out


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code = main(["verify", "--models", "40"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "10/10 checks passed" in out

    @pytest.mark.parametrize("models", ["0", "-3"])
    def test_models_below_one_is_a_usage_error(self, models, capsys):
        # zero random trials must not print "10/10 checks passed"
        assert main(["verify", "--models", models]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--models" in captured.err

    def test_fault_injection_exits_three(self, capsys, monkeypatch):
        honest = core.expected_reward

        def greedy(scenario, decision):
            return honest(scenario, decision) + 1

        monkeypatch.setattr(core, "expected_reward", greedy)
        code = main(["verify", "--models", "20"])
        assert code == EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out


LONG = "7" * 5000  # past Python's 4300-digit int-string limit
HUGE_R = json.dumps({**S1, "rewards": {"r": "1000", "R": "1" + "0" * 400}})
# each reward parses, but r/R has about 7000 digits
LONG_RATIO = json.dumps(
    {**S1, "rewards": {"r": "1/" + "7" * 4000, "R": "1" + "0" * 3000}}
)
# each weight parses, but their sum, named in the error, has about 6000 digits
LONG_WEIGHTS = json.dumps(
    {
        **S1,
        "prediction": [
            {"omega": "1/10", "weight": "1/" + "3" * 3000},
            {"omega": "9/10", "weight": "1/" + "7" * 3001},
        ],
    }
)
# each reward is a float, but R + r and so E[reward | two-box] are not
NEAR_MAX = json.dumps(
    {**S1, "rewards": {"r": str(int(1.7e308)), "R": str(int(1.7e308))}}
)
# "$" in a regex also matches before a final newline; the grammar must not
TRAILING_NEWLINES = json.dumps(
    {
        "prediction": [
            {"omega": "1/10\n", "weight": "1/2\n"},
            {"omega": "9/10\n", "weight": "1/2\n"},
        ],
        "rewards": {"r": "1000\n", "R": "1000000\n"},
    }
)
# json.load alone keeps the last of the repeated keys: R = 5
DUPLICATE_KEY = (
    '{"prediction": [{"omega": "1/10", "weight": "1/2"},'
    ' {"omega": "9/10", "weight": "1/2"}],'
    ' "rewards": {"r": "1000", "R": "1000000", "R": "5"}}'
)


class TestHostileInputs:
    @pytest.mark.parametrize(
        "args, content, expected",
        [
            # exact analysis of R = 10^400 succeeds: the decimal is
            # rounded from the Fraction, not from an overflowing float
            (["analyze"], HUGE_R, EXIT_OK),
            (["simulate", "--samples", "10", "--seed", "1"], HUGE_R, EXIT_DATA),
            (["simulate", "--samples", "1000", "--seed", "1"], NEAR_MAX, EXIT_DATA),
            (
                ["sweep", "--p", "1/2", "--spread", "1/10", "--ratio", f"1/{LONG}"],
                None,
                EXIT_DATA,
            ),
            (
                ["analyze"],
                json.dumps({**S1, "rewards": {"r": "1", "R": f"1/{LONG}"}}),
                EXIT_DATA,
            ),
            (["analyze"], '{"prediction": ' + LONG + "}", EXIT_DATA),
            (["analyze"], "[" * 100_000 + "]" * 100_000, EXIT_DATA),
            (["analyze"], LONG_RATIO, EXIT_DATA),
            (["analyze"], LONG_WEIGHTS, EXIT_DATA),
            (["analyze"], TRAILING_NEWLINES, EXIT_DATA),
            (["analyze", "--emit", "missing/s1.json"], json.dumps(S1), EXIT_DATA),
            (["analyze"], DUPLICATE_KEY, EXIT_DATA),
            (
                ["analyze"],
                json.dumps({**S1, "rewards": {"r": "1000", "R": "0"}}),
                EXIT_DATA,
            ),
        ],
        ids=[
            "analyze-huge-R",
            "simulate-huge-R",
            "simulate-near-max-rewards",
            "sweep-long-ratio",
            "long-denominator",
            "long-json-number",
            "deep-nesting",
            "analyze-long-output",
            "long-weight-sum",
            "trailing-newlines",
            "emit-missing-directory",
            "duplicate-key",
            "zero-large-reward",
        ],
    )
    def test_exit_code_without_traceback(
        self, args, content, expected, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        argv = list(args)
        if content is not None:
            path = tmp_path / "hostile.json"
            path.write_text(content)
            argv += ["--scenario", str(path)]
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if expected == EXIT_OK:
            assert "(8.2e+399)" in captured.out
            # r/R lies below the float range and must not print as 0
            assert "(ratio r/R = 1/1" + "0" * 397 + " (1e-397))" in captured.out
        else:
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    def test_sweep_cell_past_the_int_string_limit(self, capsys):
        # every input parses, but e_twobox = 1/2**7300 + 1/3**4700 has a
        # denominator of about 4,440 digits
        p, ratio = f"1/{2**7300}", f"1/{3**4700}"
        argv = ["sweep", "--p", p, "--spread", "0", "--ratio", ratio]
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("error: exact value too long to print: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


def _texts(low, high):
    return st.fractions(min_value=low, max_value=high, max_denominator=12).map(str)


# anything a rational option or field may carry: negative, unparseable,
# a zero denominator
junk_rationals = st.one_of(
    _texts(-2, 10**6),
    st.sampled_from(["1/0", "0/0", "0.5", "", "x", " 1/2", "1e3", "--1"]),
)
# JSON values that are not rational strings
junk_json = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(0, 1), st.just([])
)
BREAKAGES = [
    "missing-key",
    "json-value",
    "zero-denominator",
    "duplicate-omega",
    "weights",
    "rewards",
    "partition",
    "unknown-key",
    "not-json",
    "not-object",
]


def _mostly(draw, valid, invalid):
    """A draw from valid three times in four, else from invalid."""
    return draw(valid if draw(st.integers(0, 3)) else invalid)


@st.composite
def scenario_texts(draw):
    """Scenario files: valid half the time, else broken in one way."""
    n = draw(st.integers(1, 4))
    omegas = draw(st.lists(_texts(0, 1), min_size=n, max_size=n, unique=True))
    data = {
        "prediction": [{"omega": o, "weight": f"1/{n}"} for o in omegas],
        "rewards": {"r": draw(_texts(1, 10**6)), "R": draw(_texts(1, 10**6))},
    }
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, n + 1)))
        data["partition"] = [order[: n // 2], order[n // 2 :]] if n > 1 else [order]
    breakage = draw(st.sampled_from(BREAKAGES)) if draw(st.booleans()) else None
    entry = data["prediction"][-1]
    if breakage == "missing-key":
        holder = draw(st.sampled_from([data, data["rewards"], entry]))
        del holder[draw(st.sampled_from(sorted(holder)))]
    elif breakage == "json-value":
        holder = draw(st.sampled_from([data["rewards"], entry]))
        holder[draw(st.sampled_from(sorted(holder)))] = draw(junk_json)
    elif breakage == "zero-denominator":
        holder = draw(st.sampled_from([data["rewards"], entry]))
        holder[draw(st.sampled_from(sorted(holder)))] = "1/0"
    elif breakage == "duplicate-omega":
        data["prediction"].append(dict(entry))
    elif breakage == "weights":
        entry["weight"] = draw(junk_rationals)
    elif breakage == "rewards":
        data["rewards"][draw(st.sampled_from(["r", "R"]))] = draw(junk_rationals)
    elif breakage == "partition":
        data["partition"] = draw(
            st.one_of(
                st.lists(st.lists(st.integers(-1, n + 1), max_size=3), max_size=3),
                junk_json,
            )
        )
    elif breakage == "unknown-key":
        data["extra"] = "1"
    elif breakage == "not-json":
        return json.dumps(data)[: draw(st.integers(0, 20))]
    elif breakage == "not-object":
        return json.dumps(data["prediction"])
    return json.dumps(data)


def _option_list(draw, valid):
    values = st.lists(valid, min_size=1, max_size=3)
    return ",".join(_mostly(draw, values, st.lists(junk_rationals, min_size=1)))


@st.composite
def cli_argvs(draw):
    """argv for the commands that read data, with valid and invalid values.

    analyze and simulate lack --scenario; the test adds it.
    """
    command = draw(st.sampled_from(["analyze", "simulate", "sweep", "impossibility"]))
    if command == "analyze":
        argv = ["analyze"]
        if draw(st.booleans()):
            argv.append(f"--delta={_mostly(draw, _texts(0, 1), junk_rationals)}")
        return argv
    if command == "simulate":
        argv = [
            "simulate",
            f"--samples={draw(st.integers(-1, 1000))}",
            f"--seed={draw(st.integers(-1, 2**64))}",
        ]
        if draw(st.booleans()):
            argv.append(f"--chunk-size={draw(st.integers(-1, 300))}")
        if draw(st.booleans()):
            threshold = draw(
                st.sampled_from(["0", "4", "1e3", "nan", "inf", "-1", "x"])
            )
            argv.append(f"--flag-threshold={threshold}")
        return argv
    if command == "sweep":
        # any spread up to 1/12 keeps p +- spread inside [0, 1]
        return [
            "sweep",
            f"--p={_option_list(draw, _texts(Fraction(1, 12), Fraction(11, 12)))}",
            f"--spread={_option_list(draw, _texts(0, Fraction(1, 12)))}",
            f"--ratio={_option_list(draw, _texts(Fraction(1, 12), 2))}",
        ]
    weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=5))
    total = sum(weights) or 1
    beliefs = ",".join(str(Fraction(w, total)) for w in weights)
    invalid = st.lists(junk_rationals, min_size=1).map(",".join)
    return ["impossibility", f"--beliefs={_mostly(draw, st.just(beliefs), invalid)}"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(argv=cli_argvs(), content=scenario_texts())
    def test_documented_exit_code_and_no_traceback(self, argv, content, fuzz_dir):
        path = fuzz_dir / "scenario.json"
        path.write_text(content)
        if argv[0] in ("analyze", "simulate"):
            argv = [*argv, "--scenario", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_VERIFY)
        assert "Traceback" not in err.getvalue()
        if code in (EXIT_USAGE, EXIT_DATA):
            assert out.getvalue() == ""


class TestBrokenPipe:
    # an in-process stdout has no file number: the handler must not open
    # a descriptor it cannot use
    def test_closed_stdout_exits_with_sigpipe_status(self, monkeypatch):
        def raiser(**kwargs):
            raise BrokenPipeError

        monkeypatch.setattr(cli.verify, "run_all", raiser)
        before = len(os.listdir("/proc/self/fd"))
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["verify"]) for _ in range(20)]
        assert codes == [EXIT_PIPE] * 20
        assert len(os.listdir("/proc/self/fd")) == before

    # the sweep's write fails inside main; buffered, the others write only
    # when stdout is flushed at the end. Unbuffered, --help's write fails
    # where it is made, and argparse itself would swallow that error
    @pytest.mark.parametrize(
        "argv, unbuffered",
        [
            (["sweep", "--spread", "1/997",
              "--p", ",".join(f"{k}/997" for k in range(200, 210)),
              "--ratio", ",".join(f"{m}/9973" for m in range(1, 501))], False),
            (["impossibility", "--beliefs", "1/2,3/10,1/5"], False),
            (["analyze", "--scenario", "s1.json"], False),
            (["--help"], False),
            (["--help"], True),
        ],
        ids=["sweep-5000-rows", "impossibility", "analyze", "help", "help-unbuffered"],
    )
    def test_closed_pipe_exits_141_silently(self, argv, unbuffered, s1_path):
        read, write = os.pipe()
        os.close(read)
        argv = [sys.executable, "-m", "newcomb", *argv]
        env = _child_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open(write, "wb") as stdout:
            done = subprocess.run(argv, cwd=Path(s1_path).parent, env=env,
                                  stdout=stdout, stderr=subprocess.PIPE)
        assert (done.returncode, done.stderr) == (EXIT_PIPE, b"")


# buffered, the text waits for main's final flush, which fails; the
# interpreter's exit-time flush must not fail again and exit 120
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--scenario", "s1.json"],
        ["impossibility", "--beliefs", "1/2,3/10,1/5"],
        ["verify", "--models", "2"],
    ],
    ids=["analyze", "impossibility", "verify"],
)
def test_unwritable_stdout_exits_2_with_one_error_line(argv, s1_path):
    argv = [sys.executable, "-m", "newcomb", *argv]
    with open("/dev/full", "wb") as stdout:
        done = subprocess.run(argv, cwd=Path(s1_path).parent, env=_child_env(),
                              stdout=stdout, stderr=subprocess.PIPE, text=True)
    assert done.returncode == EXIT_DATA
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


def test_ctrl_c_exits_130_without_traceback():
    # -u: the child's stdout is a pipe, so its first check line would
    # otherwise wait in the buffer; that line shows the battery is running
    argv = [sys.executable, "-u", "-m", "newcomb", "verify", "--models", "100000"]
    with subprocess.Popen(
        argv, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        try:
            first = child.stdout.readline()
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
    assert first.startswith(b"ok   worked-examples: ")
    assert child.returncode == EXIT_INTERRUPT
    assert b"Traceback" not in err


def test_ctrl_c_during_simulate_exits_130_without_traceback(tmp_path):
    # 400M samples take tens of seconds: about 1 s after the start the
    # chunks are being drawn and counted, on every usable CPU
    (tmp_path / "s.json").write_text(json.dumps(S1))
    argv = [
        sys.executable, "-m", "newcomb", "simulate", "--scenario", "s.json",
        "--samples", "400000000", "--seed", "1",
    ]
    with subprocess.Popen(
        argv, cwd=tmp_path, env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as child:
        try:
            time.sleep(1.0)
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=10)
        finally:
            child.kill()
    assert child.returncode == EXIT_INTERRUPT, err
    assert out == b""
    assert b"Traceback" not in err


# python -O strips assert statements; the battery's checks must survive it
OPTIMIZED_VERIFY = """\
import sys
from fractions import Fraction
from newcomb import cli, core

if sys.argv[1:] == ["fault"]:
    honest = core.posterior_box_full
    core.posterior_box_full = lambda s, d: honest(s, d) + Fraction(1, 7)
sys.exit(cli.main(["verify", "--models", "5"]))
"""


def test_verify_fails_a_fault_under_python_optimize():
    env = {**_child_env(), "PYTHONOPTIMIZE": "1"}
    argv = [sys.executable, "-c", OPTIMIZED_VERIFY]
    honest = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (honest.returncode, honest.stdout) == (EXIT_OK, GOLDEN_VERIFY_5)
    faulty = subprocess.run([*argv, "fault"], env=env, capture_output=True, text=True)
    assert faulty.returncode == EXIT_VERIFY, faulty.stdout


def test_package_has_no_assert_statements():
    # python -O would strip them, and a check would pass unchecked
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _child_env():
    # buffered as in a user's shell, so output can wait for the exit-time flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


# Run in a fresh interpreter: this process has loaded numpy already.
# perfbench's tracing reads newcomb.montecarlo and newcomb.kernels from
# sys.modules after importing newcomb.cli, so both must still load there.
STARTUP_SCRIPT = """\
import contextlib, io, sys
import newcomb
from newcomb import *
from newcomb import cli

fine, emit = sys.argv[1:]
runs = [
    (["analyze", "--scenario", fine, "--delta", "3/10", "--emit", emit], 0),
    (["sweep", "--p", "1/2", "--spread", "0,1/4", "--ratio", "1/1000,1"], 0),
    (["impossibility", "--beliefs", "1/2,3/10,1/5"], 0),
    (["simulate", "--scenario", fine, "--samples", "0", "--seed", "1"], 2),
]
for argv, code in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code, argv
assert "numpy" not in sys.modules, "an exact command loaded numpy"
# simulate imports its thread pool only when a chunk is split
assert "concurrent.futures" not in sys.modules, "a command loaded concurrent.futures"
assert "newcomb.montecarlo" in sys.modules and "newcomb.kernels" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--scenario", fine, "--samples", "10", "--seed", "1"]) == 0
assert "numpy" in sys.modules, "simulate drew samples without numpy"
"""


def test_exact_commands_start_without_numpy(tmp_path):
    (tmp_path / "fine.json").write_text(json.dumps(FINE))
    argv = [sys.executable, "-c", STARTUP_SCRIPT, "fine.json", "out.json"]
    done = subprocess.run(
        argv, cwd=tmp_path, env=_child_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out.json").is_file()


# Full stdout of representative commands, generated before the exact path
# was simplified: any change to a printed value, its order or its format
# shows up here, not only in the single lines the tests above check.
FINE = {
    "prediction": [
        {"omega": "1/10", "weight": "1/4"},
        {"omega": "3/10", "weight": "1/4"},
        {"omega": "7/10", "weight": "1/4"},
        {"omega": "9/10", "weight": "1/4"},
    ],
    "rewards": {"r": "1000", "R": "1000000"},
    "partition": [[1, 2], [3, 4]],
}

GOLDEN_ANALYZE_S1 = """\
support points: 2
rewards: r = 1000, R = 1000000 (ratio r/R = 1/1000 (0.001))
p (marginal accuracy): 1/2 (0.5)
sigma^2 (prior variance): 4/25 (0.16)
prior P(box full): 1/2 (0.5)
threshold sigma^2/(p(1-p)): 16/25 (0.64)
posterior P(full | one-box): 41/50 (0.82)
posterior P(full | two-box): 9/50 (0.18)
E[reward | one-box]: 820000 (820000)
E[reward | two-box]: 181000 (181000)
preference: onebox
authority: P(one-box | omega = 1/10) = 1/10 (0.1)
authority: P(one-box | omega = 9/10) = 9/10 (0.9)
"""

GOLDEN_ANALYZE_FINE = """\
support points: 4
rewards: r = 1000, R = 1000000 (ratio r/R = 1/1000 (0.001))
p (marginal accuracy): 1/2 (0.5)
sigma^2 (prior variance): 1/10 (0.1)
prior P(box full): 1/2 (0.5)
threshold sigma^2/(p(1-p)): 2/5 (0.4)
posterior P(full | one-box): 7/10 (0.7)
posterior P(full | two-box): 3/10 (0.3)
E[reward | one-box]: 700000 (700000)
E[reward | two-box]: 301000 (301000)
preference: onebox
authority: P(one-box | omega = 1/10) = 1/10 (0.1)
authority: P(one-box | omega = 3/10) = 3/10 (0.3)
authority: P(one-box | omega = 7/10) = 7/10 (0.7)
authority: P(one-box | omega = 9/10) = 9/10 (0.9)
partition: 2 block(s)
coarse support points: 2
  coarse omega 1/5 with weight 1/2
  coarse omega 4/5 with weight 1/2
variance split: fine 1/10 (0.1) = coarse 9/100 (0.09) + within-block 1/100 (0.01)
delta-omniscient at delta = 3/10: yes
variance lower bound when omniscient: -19/125 (-0.152); actual variance: 1/10 (0.1)
wrote canonical scenario to canonical.json
"""

GOLDEN_EMITTED_FINE = """\
{
  "prediction": [
    {
      "omega": "1/10",
      "weight": "1/4"
    },
    {
      "omega": "3/10",
      "weight": "1/4"
    },
    {
      "omega": "7/10",
      "weight": "1/4"
    },
    {
      "omega": "9/10",
      "weight": "1/4"
    }
  ],
  "rewards": {
    "r": "1000",
    "R": "1000000"
  },
  "partition": [
    [
      1,
      2
    ],
    [
      3,
      4
    ]
  ]
}
"""

# the csv module ends every row with \r\n
GOLDEN_SWEEP = (
    "p,spread,sigma2,threshold,r_over_R,preference,e_onebox,e_twobox\r\n"
    "1/2,0,0,0,1/1000,twobox,1/2,501/1000\r\n"
    "1/2,0,0,0,1/4,twobox,1/2,3/4\r\n"
    "1/2,0,0,0,1,twobox,1/2,3/2\r\n"
    "1/2,1/4,1/16,1/4,1/1000,onebox,5/8,47/125\r\n"
    "1/2,1/4,1/16,1/4,1/4,indifferent,5/8,5/8\r\n"
    "1/2,1/4,1/16,1/4,1,twobox,5/8,11/8\r\n"
)

GOLDEN_IMPOSSIBILITY = """\
boxes: 3
beliefs: 1/2, 3/10, 1/5
adversarial target: box 2 (belief 3/10 <= 1/3)
rewards: 0, 1, 0
counterfactually optimal choice: box 2 (payout 1)
P(subject picks a worthless box): 7/10 (0.7); lower bound 1 - 1/3 = 2/3 (0.666667)
"""

GOLDEN_SIMULATE_S1 = """\
samples: 100000  seed: 7  chunk size: 262144
rng: philox4x64-10, key=(seed, chunk index)
counts: two-box/empty 41083, two-box/full 9195, one-box/empty 8960, one-box/full 40762
quantity                              exact       estimate       stderr   dev(SE) flag
p                                       1/2        0.49722     0.001581      1.76
prior_box_full                          1/2        0.49957     0.001581     0.272
posterior_full_onebox                 41/50     0.81979808     0.001723     0.117
posterior_full_twobox                  9/50     0.18288317     0.001713      1.68
expected_reward_onebox               820000      819798.08         1723     0.117
expected_reward_twobox               181000      183883.17         1713      1.68
"""

GOLDEN_SIMULATE_S1_FLAGGED = """\
samples: 10001  seed: 2  chunk size: 262144
rng: philox4x64-10, key=(seed, chunk index)
counts: two-box/empty 4113, two-box/full 904, one-box/empty 870, one-box/full 4114
quantity                              exact       estimate       stderr   dev(SE) flag
p                                       1/2     0.49835016        0.005      0.33 <--
prior_box_full                          1/2     0.50174983        0.005      0.35 <--
posterior_full_onebox                 41/50     0.82544141     0.005442         1 <--
posterior_full_twobox                  9/50     0.18018736     0.005424    0.0345 <--
expected_reward_onebox               820000      825441.41         5442         1 <--
expected_reward_twobox               181000      181187.36         5424    0.0345 <--
FLAGGED: p, prior_box_full, posterior_full_onebox, posterior_full_twobox, \
expected_reward_onebox, expected_reward_twobox deviate by more than 0.0 \
standard error(s)
"""

GOLDEN_VERIFY_5 = """\
ok   worked-examples: all built-in example values reproduced
ok   distribution-laws: 5 random joints: unit mass, marginals, conditioning chain
ok   posterior-routes: 5 models: closed-form posteriors equal joint conditioning
ok   expected-rewards: 5 models: closed-form expectations equal joint means
ok   preference-threshold: 5 models x 5+ ratios: preference matches the variance threshold (4 exact ties included)
ok   authority: 11 support points: P(one-box | omega) = omega exactly
ok   refinement: 5 refinements: mean kept, variances decompose exactly
ok   omniscience: 5 models: bound >= p(1-p) - 3*delta; sharp two-point priors force one-boxing at ratio 1/1000
ok   impossibility: 10 belief vectors: pigeonhole target, bad-pick bound
ok   simulation: 200k-sample run reproducible and within 4 SEs of exact values
10/10 checks passed
"""


class TestGoldenOutput:
    @pytest.fixture(autouse=True)
    def _scenario_files(self, tmp_path, monkeypatch):
        # relative paths keep the emit line free of the temporary directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s1.json").write_text(json.dumps(S1))
        (tmp_path / "fine.json").write_text(json.dumps(FINE))

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["analyze", "--scenario", "s1.json"], GOLDEN_ANALYZE_S1),
            (
                ["sweep", "--p", "1/2", "--spread", "0,1/4", "--ratio", "1/1000,1/4,1"],
                GOLDEN_SWEEP,
            ),
            (["impossibility", "--beliefs", "1/2,3/10,1/5"], GOLDEN_IMPOSSIBILITY),
            (
                ["simulate", "--scenario", "s1.json", "--samples", "100000", "--seed", "7"],
                GOLDEN_SIMULATE_S1,
            ),
            (["verify", "--models", "5"], GOLDEN_VERIFY_5),
        ],
        ids=["analyze", "sweep", "impossibility", "simulate", "verify"],
    )
    def test_stdout(self, argv, expected, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_flagged_simulate(self, capsys):
        argv = ["simulate", "--scenario", "s1.json", "--samples", "10001"]
        assert main([*argv, "--seed", "2", "--flag-threshold", "0"]) == EXIT_VERIFY
        assert capsys.readouterr().out == GOLDEN_SIMULATE_S1_FLAGGED

    def test_analyze_with_partition_delta_and_emit(self, tmp_path, capsys):
        argv = ["analyze", "--scenario", "fine.json", "--delta", "3/10"]
        assert main([*argv, "--emit", "canonical.json"]) == EXIT_OK
        assert capsys.readouterr().out == GOLDEN_ANALYZE_FINE
        emitted = (tmp_path / "canonical.json").read_bytes()
        assert emitted == GOLDEN_EMITTED_FINE.encode("utf-8")
