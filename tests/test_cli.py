import csv
import json
from fractions import Fraction

import pytest

from newcomb import cli, core, load_scenario, montecarlo
from newcomb.cli import EXIT_DATA, EXIT_OK, EXIT_PIPE, EXIT_USAGE, EXIT_VERIFY, main

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
        assert builds == [points, points]

    def test_emit_writes_canonical_file(self, s1_path, tmp_path, capsys):
        target = tmp_path / "canonical.json"
        code = main(
            ["analyze", "--scenario", s1_path, "--emit", str(target)]
        )
        assert code == EXIT_OK
        reloaded = load_scenario(target)
        assert reloaded.scenario == load_scenario(s1_path).scenario


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


class TestImpossibility:
    def test_worked_example(self, capsys):
        code = main(["impossibility", "--beliefs", "1/2,3/10,1/5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "adversarial target: box 2 (belief 3/10 <= 1/3)" in out
        assert "counterfactually optimal choice: box 2" in out
        assert "P(subject picks a worthless box): 7/10 (0.7)" in out

    def test_bad_vector(self, capsys):
        assert main(["impossibility", "--beliefs", "1/2,1/3"]) == EXIT_DATA
        assert main(["impossibility", "--beliefs", "0.5,0.5"]) == EXIT_DATA


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


class TestHostileInputs:
    @pytest.mark.parametrize(
        "args, content, expected",
        [
            # exact analysis of R = 10^400 succeeds: the decimal is
            # rounded from the Fraction, not from an overflowing float
            (["analyze"], HUGE_R, EXIT_OK),
            (["simulate", "--samples", "10", "--seed", "1"], HUGE_R, EXIT_DATA),
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
        ],
        ids=[
            "analyze-huge-R",
            "simulate-huge-R",
            "sweep-long-ratio",
            "long-denominator",
            "long-json-number",
            "deep-nesting",
            "analyze-long-output",
            "long-weight-sum",
        ],
    )
    def test_exit_code_without_traceback(
        self, args, content, expected, tmp_path, capsys
    ):
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


class TestBrokenPipe:
    def test_closed_stdout_exits_with_sigpipe_status(self, capsys, monkeypatch):
        def raiser(**kwargs):
            raise BrokenPipeError

        monkeypatch.setattr(cli.verify, "run_all", raiser)
        assert main(["verify"]) == EXIT_PIPE
