import json
from fractions import Fraction

import pytest

from newcomb import (
    NewcombScenario,
    PredictionModel,
    RefinementModel,
    coarsen,
    load_scenario,
    parse_scenario_data,
    save_scenario,
    scenario_to_data,
)
from newcomb.errors import InvalidScenarioError, ScenarioParseError

F = Fraction
HALF = F(1, 2)

GOOD = {
    "prediction": [
        {"omega": "1/10", "weight": "1/2"},
        {"omega": "9/10", "weight": "1/2"},
    ],
    "rewards": {"r": "1000", "R": "1000000"},
}


def variant(**changes):
    data = json.loads(json.dumps(GOOD))
    data.update(changes)
    return data


class TestParsing:
    def test_good_scenario(self, symmetric_tenths):
        loaded = parse_scenario_data(GOOD)
        assert loaded.scenario == symmetric_tenths
        assert loaded.refinement is None

    def test_non_canonical_rationals_reduce(self):
        data = variant(
            prediction=[
                {"omega": "2/20", "weight": "4/8"},
                {"omega": "81/90", "weight": "+1/2"},
            ]
        )
        loaded = parse_scenario_data(data)
        assert loaded.scenario.prediction.support == (
            (F(1, 10), HALF),
            (F(9, 10), HALF),
        )

    @pytest.mark.parametrize(
        "data, exc, needle",
        [
            ([1, 2], ScenarioParseError, "object"),
            ({}, ScenarioParseError, "missing"),
            (variant(extra=1), ScenarioParseError, "unknown"),
            (variant(prediction=[]), ScenarioParseError, "non-empty"),
            (variant(prediction="x"), ScenarioParseError, "non-empty list"),
            (
                variant(prediction=[{"omega": "1/2"}]),
                ScenarioParseError,
                "missing",
            ),
            (
                variant(
                    prediction=[
                        {"omega": "1/2", "weight": "1", "bias": "1"}
                    ]
                ),
                ScenarioParseError,
                "unknown",
            ),
            (
                variant(prediction=[{"omega": 0.5, "weight": "1"}]),
                ScenarioParseError,
                "prediction[0].omega",
            ),
            (
                variant(
                    prediction=[{"omega": "1/2", "weight": "0.5"}]
                ),
                ScenarioParseError,
                "prediction[0].weight",
            ),
            (
                variant(
                    prediction=[{"omega": "1/0", "weight": "1"}]
                ),
                ScenarioParseError,
                "zero denominator",
            ),
            (variant(rewards={"r": "1"}), ScenarioParseError, "missing"),
            (variant(rewards="x"), ScenarioParseError, "object"),
        ],
    )
    def test_shape_errors(self, data, exc, needle):
        with pytest.raises(exc) as info:
            parse_scenario_data(data)
        assert needle in str(info.value)

    @pytest.mark.parametrize(
        "data, needle",
        [
            (
                variant(
                    prediction=[
                        {"omega": "1/2", "weight": "1/2"},
                        {"omega": "1/4", "weight": "1/4"},
                    ]
                ),
                "sum to",
            ),
            (
                variant(
                    prediction=[
                        {"omega": "1/2", "weight": "1/2"},
                        {"omega": "1/2", "weight": "1/2"},
                    ]
                ),
                "twice",
            ),
            (
                variant(prediction=[{"omega": "3/2", "weight": "1"}]),
                "outside",
            ),
            (
                variant(rewards={"r": "0", "R": "5"}),
                "positive",
            ),
            (
                variant(rewards={"r": "5", "R": "-5"}),
                "positive",
            ),
        ],
    )
    def test_semantic_errors(self, data, needle):
        with pytest.raises(InvalidScenarioError, match=needle):
            parse_scenario_data(data)


class TestPartition:
    def test_indices_refer_to_file_order(self):
        # the file lists omegas unsorted; blocks must follow the file's
        # numbering, not the sorted support's
        data = {
            "prediction": [
                {"omega": "9/10", "weight": "1/4"},
                {"omega": "1/10", "weight": "1/4"},
                {"omega": "7/10", "weight": "1/4"},
                {"omega": "3/10", "weight": "1/4"},
            ],
            "rewards": {"r": "1", "R": "100"},
            "partition": [[2, 4], [1, 3]],
        }
        loaded = parse_scenario_data(data)
        coarse = coarsen(loaded.refinement)
        assert coarse.support == ((F(1, 5), HALF), (F(4, 5), HALF))

    @pytest.mark.parametrize(
        "partition, exc",
        [
            ("x", ScenarioParseError),
            ([1, 2], ScenarioParseError),
            ([[1, True]], ScenarioParseError),
            ([["1"]], ScenarioParseError),
            ([[0, 1]], InvalidScenarioError),
            ([[1, 3]], InvalidScenarioError),
            ([[1]], InvalidScenarioError),
            ([[1, 2], [2]], InvalidScenarioError),
            ([[1, 2], []], InvalidScenarioError),
        ],
    )
    def test_bad_partitions(self, partition, exc):
        with pytest.raises(exc):
            parse_scenario_data(variant(partition=partition))


class TestRoundTrip:
    def test_emit_then_parse_is_identity(self, symmetric_tenths):
        data = scenario_to_data(symmetric_tenths)
        assert parse_scenario_data(data).scenario == symmetric_tenths

    def test_with_partition(self):
        model = PredictionModel(
            (
                (F(1, 10), F(1, 4)),
                (F(3, 10), F(1, 4)),
                (F(7, 10), F(1, 4)),
                (F(9, 10), F(1, 4)),
            )
        )
        scenario = NewcombScenario(model, F(1), F(100))
        rm = RefinementModel(fine=model, blocks=((0, 1), (2, 3)))
        data = scenario_to_data(scenario, rm)
        assert data["partition"] == [[1, 2], [3, 4]]
        loaded = parse_scenario_data(data)
        assert loaded.scenario == scenario
        assert loaded.refinement == rm

    def test_refinement_must_match_the_scenario(self, symmetric_tenths):
        other = PredictionModel(((F(1, 4), HALF), (F(3, 4), HALF)))
        rm = RefinementModel(fine=other, blocks=((0,), (1,)))
        with pytest.raises(InvalidScenarioError):
            scenario_to_data(symmetric_tenths, rm)

    def test_file_round_trip(self, tmp_path, symmetric_tenths):
        path = tmp_path / "scenario.json"
        save_scenario(path, symmetric_tenths)
        loaded = load_scenario(path)
        assert loaded.scenario == symmetric_tenths

    def test_canonical_text_output(self, tmp_path):
        model = PredictionModel.from_weights([(F(2, 4), 3), (F(1, 4), 3)])
        scenario = NewcombScenario(model, F(10, 5), F(12, 4))
        path = tmp_path / "c.json"
        save_scenario(path, scenario)
        data = json.loads(path.read_text())
        assert data["prediction"] == [
            {"omega": "1/4", "weight": "1/2"},
            {"omega": "1/2", "weight": "1/2"},
        ]
        assert data["rewards"] == {"r": "2", "R": "3"}


class TestFiles:
    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "absent.json")

    def test_json_syntax_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "prediction": [,]\n}\n')
        with pytest.raises(ScenarioParseError, match="line 2"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"rewards": {"r": "1000", "R": "1000000", "R": "5"}}', "'R'"),
            ('{"prediction": [{"omega": "1/2", "omega": "1/3"}]}', "'omega'"),
            ('{"rewards": {}, "rewards": {}}', "'rewards'"),
        ],
        ids=["rewards", "prediction-entry", "top-level"],
    )
    def test_repeated_key_is_refused(self, tmp_path, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text)
        with pytest.raises(ScenarioParseError, match=f"key {key} appears twice"):
            load_scenario(path)
