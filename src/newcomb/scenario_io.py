"""Reading and writing scenario files.

A scenario file is JSON with this shape:

    {
      "prediction": [
        {"omega": "1/10", "weight": "1/2"},
        {"omega": "9/10", "weight": "1/2"}
      ],
      "rewards": {"r": "1000", "R": "1000000"},
      "partition": [[1, 2]]
    }

All numbers travel as exact rational strings ("<int>" or
"<int>/<posint>"); JSON numbers are rejected so no value ever passes
through a float. "partition" is optional and groups the prediction
entries into blocks by their 1-based position in the file's list.

Shape problems (missing or repeated keys, wrong types, unparseable
rationals) raise ScenarioParseError; value problems (weights that do not
sum to 1, nonpositive rewards, a partition that is not a partition)
raise InvalidScenarioError. Both carry the offending field in the
message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .core import NewcombScenario, PredictionModel
from .errors import (
    InvalidModelError,
    InvalidPartitionError,
    InvalidScenarioError,
    ScenarioParseError,
)
from .rational import format_rational, parse_rational
from .refinement import RefinementModel


@dataclass(frozen=True)
class LoadedScenario:
    scenario: NewcombScenario
    refinement: RefinementModel | None


def _require_keys(data: dict, required: set[str], optional: set[str], where: str) -> None:
    missing = required - data.keys()
    if missing:
        raise ScenarioParseError(f"{where}: missing key(s) {sorted(missing)}")
    unknown = data.keys() - required - optional
    if unknown:
        raise ScenarioParseError(f"{where}: unknown key(s) {sorted(unknown)}")


def parse_scenario_data(data: Any) -> LoadedScenario:
    """Build a scenario (and optional refinement) from decoded JSON."""
    if not isinstance(data, dict):
        raise ScenarioParseError(
            f"scenario must be a JSON object, got {type(data).__name__}"
        )
    _require_keys(data, {"prediction", "rewards"}, {"partition"}, "scenario")

    entries = data["prediction"]
    if not isinstance(entries, list) or not entries:
        raise ScenarioParseError("prediction: must be a non-empty list")
    file_support = []
    for i, entry in enumerate(entries):
        where = f"prediction[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioParseError(f"{where}: must be an object")
        _require_keys(entry, {"omega", "weight"}, set(), where)
        file_support.append(
            (
                parse_rational(entry["omega"], what=f"{where}.omega"),
                parse_rational(entry["weight"], what=f"{where}.weight"),
            )
        )
    try:
        model = PredictionModel(support=tuple(file_support))
    except InvalidModelError as exc:
        raise InvalidScenarioError(f"prediction: {exc}") from None

    rewards = data["rewards"]
    if not isinstance(rewards, dict):
        raise ScenarioParseError("rewards: must be an object")
    _require_keys(rewards, {"r", "R"}, set(), "rewards")
    small = parse_rational(rewards["r"], what="rewards.r")
    large = parse_rational(rewards["R"], what="rewards.R")
    try:
        scenario = NewcombScenario(
            prediction=model, small_reward=small, large_reward=large
        )
    except InvalidModelError as exc:
        raise InvalidScenarioError(f"rewards: {exc}") from None

    refinement = None
    if "partition" in data:
        refinement = _parse_partition(data["partition"], model, file_support)
    return LoadedScenario(scenario=scenario, refinement=refinement)


def _parse_partition(
    raw: Any,
    model: PredictionModel,
    file_support: list[tuple[Fraction, Fraction]],
) -> RefinementModel:
    """Translate 1-based file positions into model support indices.

    The model stores its support sorted by omega, which need not match
    the file's order, so block entries map through the position of each
    file entry's omega in the sorted support.
    """
    if not isinstance(raw, list):
        raise ScenarioParseError("partition: must be a list of blocks")
    position = {omega: idx for idx, (omega, _) in enumerate(model.support)}
    file_to_model = [position[omega] for omega, _ in file_support]
    n = len(file_support)
    blocks = []
    # repeats and gaps are found here, in file positions: the model's
    # own checks would name its sorted 0-based indices
    seen: set[int] = set()
    for b, block in enumerate(raw):
        where = f"partition[{b}]"
        if not isinstance(block, list):
            raise ScenarioParseError(f"{where}: must be a list of indices")
        translated = []
        for k in block:
            if not isinstance(k, int) or isinstance(k, bool):
                raise ScenarioParseError(f"{where}: index {k!r} is not an integer")
            if not 1 <= k <= n:
                raise InvalidScenarioError(
                    f"{where}: index {k} outside 1..{n}"
                )
            if k in seen:
                raise InvalidScenarioError(
                    f"{where}: index {k} appears in more than one block"
                )
            seen.add(k)
            translated.append(file_to_model[k - 1])
        blocks.append(tuple(translated))
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise InvalidScenarioError(
            f"partition: indices {missing} are not covered by any block"
        )
    try:
        return RefinementModel(fine=model, blocks=tuple(blocks))
    except InvalidPartitionError as exc:
        raise InvalidScenarioError(f"partition: {exc}") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a key it repeats: json.load
    would keep the last value and drop the others unseen."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioParseError(f"key {key!r} appears twice in one object")
        data[key] = value
    return data


def load_scenario(path) -> LoadedScenario:
    """Read a scenario file. Missing files raise the usual OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(
                f"{path}: invalid JSON at line {exc.lineno} "
                f"column {exc.colno}: {exc.msg}"
            ) from None
        except (ValueError, RecursionError) as exc:
            # a number past the int-string limit, a repeated key (a
            # ScenarioParseError), or nesting past the recursion limit
            raise ScenarioParseError(f"{path}: unreadable JSON: {exc}") from None
    return parse_scenario_data(data)


def scenario_to_data(
    scenario: NewcombScenario, refinement: RefinementModel | None = None
) -> dict:
    """Canonical JSON-ready form; load(emit(x)) reproduces x exactly.

    Support entries appear in the model's sorted order, so an emitted
    partition's 1-based indices refer to that order.
    """
    data: dict[str, Any] = {
        "prediction": [
            {"omega": format_rational(omega), "weight": format_rational(q)}
            for omega, q in scenario.prediction.support
        ],
        "rewards": {
            "r": format_rational(scenario.small_reward),
            "R": format_rational(scenario.large_reward),
        },
    }
    if refinement is not None:
        if refinement.fine != scenario.prediction:
            raise InvalidScenarioError(
                "refinement is over a different prediction model"
            )
        data["partition"] = [
            [i + 1 for i in block] for block in refinement.blocks
        ]
    return data


def save_scenario(
    path, scenario: NewcombScenario, refinement: RefinementModel | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_data(scenario, refinement), fh, indent=2)
        fh.write("\n")
