"""Spans around the public functions of each `newcomb` module.

`instrument()` replaces each traced function with a wrapper that records
a span (name, start, end, parent, operation id) and restores the
originals on exit; nothing under `src/` changes. A function is replaced
in every `newcomb` module whose namespace binds it, because callers look
names up in different places: `cli` binds engine functions with
from-imports, while `core` reaches `build_joint` and `verify` reaches
the engine through module attributes. Methods and properties are
replaced on their class.

A span's self time is its duration minus the time its child spans
cover. The per-layer metrics sum self times and calls per span name.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MAX_KEPT_SPANS = 200_000


class Tracer:
    """Span recorder with per-name totals kept as spans close."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.check_s: dict[str, float] = defaultdict(float)
        self.op = 0
        self._next_id = 0
        # open spans, innermost last: [span id, time covered by children]
        self._stack: list[list] = []

    def wrap(self, name, fn, on_call=None, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args)
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, start, time.perf_counter())
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def _close(self, name, frame, start, end):
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((frame[0], name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def write(self, path: Path) -> None:
        """One JSON header line, then one line per kept span."""
        header = {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _kernel_args(tracer, args):
    u, cum, omega, counts = args
    tracer.counts["kernels.samples"] += u.shape[1]
    tracer.counts["kernels.bytes"] += u.nbytes + cum.nbytes + omega.nbytes + counts.nbytes


def _trials_arg(tracer, args):
    tracer.counts["verify.trials"] += args[1]


def _joint_atoms(tracer, result):
    tracer.counts["core.joint_atoms"] += len(result)


def _time_checks(tracer, run_all):
    """Wrap verify.run_all so each check is timed between echo callbacks."""

    def timed_run_all(*args, echo=None, **kwargs):
        last = time.perf_counter()

        def timed_echo(line):
            nonlocal last
            # echo lines read "<mark> <check name>: <detail>", mark 4 wide
            name = line[5:].partition(":")[0]
            tracer.check_s[name] += time.perf_counter() - last
            if echo is not None:
                echo(line)
            last = time.perf_counter()

        return run_all(*args, echo=timed_echo, **kwargs)

    return tracer.wrap("verify.run_all", timed_run_all)


def _module_functions(tracer):
    """(module, attribute, wrapper) of each traced module function."""
    import newcomb.verify as verify

    def span(name, on_call=None, on_result=None):
        return lambda fn: tracer.wrap(name, fn, on_call, on_result)

    table = [
        ("cli", "main", span("cli.main")),
        ("rational", "parse_rational", span("rational.parse")),
        ("rational", "format_rational", span("rational.format")),
        ("rational", "decimal_str", span("rational.format")),
        ("scenario_io", "load_scenario", span("scenario_io.load")),
        ("scenario_io", "save_scenario", span("scenario_io.save")),
        ("core", "build_joint", span("core.joint", on_result=_joint_atoms)),
        ("core", "scenario_summary", span("core.summary")),
        ("core", "posterior_box_full", span("core.posterior")),
        ("core", "posterior_box_full_via_joint", span("core.posterior")),
        ("core", "expected_reward", span("core.expected_reward")),
        ("core", "expected_reward_via_joint", span("core.expected_reward")),
        ("core", "preferred_decision", span("core.preference")),
        ("core", "authority_check", span("core.authority")),
        ("refinement", "coarsen", span("refinement.decomposition")),
        ("refinement", "variance_decomposition", span("refinement.decomposition")),
        ("refinement", "check_delta_omniscience", span("refinement.omniscience")),
        ("impossibility", "build_adversarial_game", span("impossibility.game")),
        ("impossibility", "bad_decision_probability", span("impossibility.game")),
        ("impossibility", "optimal_choice", span("impossibility.game")),
        ("impossibility", "choice_payout", span("impossibility.game")),
        ("kernels", "count_cells_numpy", span("kernels.count", on_call=_kernel_args)),
        ("montecarlo", "simulate", span("montecarlo.simulate")),
        ("montecarlo", "compare_to_exact", span("montecarlo.compare")),
        ("verify", "run_all", lambda fn: _time_checks(tracer, fn)),
    ]
    for name in vars(verify):
        if name.startswith("_check_"):
            # every randomised check takes (rng, trials)
            randomised = name not in ("_check_worked_examples", "_check_simulation")
            table.append(("verify", name, span("verify.check", _trials_arg if randomised else None)))
    return table


def _class_members():
    """(span name, class, attribute, kind) of each traced member."""
    from newcomb.core import NewcombScenario, PredictionModel
    from newcomb.dist import FiniteDist

    return [
        ("core.model_build", PredictionModel, "__init__", "method"),
        ("core.model_build", PredictionModel, "from_weights", "classmethod"),
        ("core.model_build", NewcombScenario, "__init__", "method"),
        ("core.moments", PredictionModel, "p", "property"),
        ("core.moments", PredictionModel, "second_moment", "property"),
        ("core.moments", PredictionModel, "variance", "property"),
        ("dist.from_weights", FiniteDist, "from_weights", "classmethod"),
        ("dist.condition", FiniteDist, "condition", "method"),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Replace every traced function with its wrapper for the duration."""
    import newcomb.cli  # noqa: F401  (loads every module of the package)

    modules = [m for n, m in sys.modules.items() if n == "newcomb" or n.startswith("newcomb.")]
    undo = []
    try:
        for module, attr, make in _module_functions(tracer):
            original = getattr(sys.modules[f"newcomb.{module}"], attr)
            wrapper = make(original)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, bound, original))
                        setattr(mod, bound, wrapper)
        for name, cls, attr, kind in _class_members():
            original = cls.__dict__[attr]
            if kind == "property":
                replacement = property(tracer.wrap(name, original.fget))
            elif kind == "classmethod":
                replacement = classmethod(tracer.wrap(name, original.__func__))
            else:
                replacement = tracer.wrap(name, original)
            undo.append((cls, attr, original))
            setattr(cls, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, rounds: int, checks) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round, as name -> (value, unit).

    checks names every verify check; a check the program ran that is
    not named there is an error, so a renamed check cannot go unseen.
    """
    unknown = set(tracer.check_s) - set(checks)
    if unknown:
        raise ValueError(f"verify ran checks the benchmark does not know: {sorted(unknown)}")
    s = tracer.self_s
    c = tracer.calls
    n = tracer.counts

    def per_round(x):
        return x // rounds if isinstance(x, int) and x % rounds == 0 else x / rounds

    def ratio(x, y):
        return x / y if y else 0.0

    metrics = {
        "cli.self_s": (per_round(s["cli.main"]), "s"),
        "scenario_io.load_s": (per_round(s["scenario_io.load"]), "s"),
        "scenario_io.save_s": (per_round(s["scenario_io.save"]), "s"),
        "rational.parse_calls": (per_round(c["rational.parse"]), "count"),
        "rational.format_calls": (per_round(c["rational.format"]), "count"),
        "rational.format_s": (per_round(s["rational.format"]), "s"),
        "core.model_build_s": (per_round(s["core.model_build"]), "s"),
        "core.moment_evals": (per_round(c["core.moments"]), "count"),
        "core.moments_s": (per_round(s["core.moments"]), "s"),
        "core.joint_builds": (per_round(c["core.joint"]), "count"),
        "core.joint_atoms": (per_round(n["core.joint_atoms"]), "count"),
        "core.joint_s": (per_round(s["core.joint"]), "s"),
        "core.authority_s": (per_round(s["core.authority"]), "s"),
        "core.summary_s": (per_round(s["core.summary"]), "s"),
        "core.posterior_s": (per_round(s["core.posterior"]), "s"),
        "core.expected_reward_s": (per_round(s["core.expected_reward"]), "s"),
        "core.preference_s": (per_round(s["core.preference"]), "s"),
        "dist.from_weights_s": (per_round(s["dist.from_weights"]), "s"),
        "dist.condition_calls": (per_round(c["dist.condition"]), "count"),
        "dist.condition_s": (per_round(s["dist.condition"]), "s"),
        "refinement.decomposition_s": (per_round(s["refinement.decomposition"]), "s"),
        "refinement.omniscience_s": (per_round(s["refinement.omniscience"]), "s"),
        "impossibility.game_s": (per_round(s["impossibility.game"]), "s"),
        "kernels.count_s": (per_round(s["kernels.count"]), "s"),
        "kernels.samples_per_s": (ratio(n["kernels.samples"], s["kernels.count"]), "1/s"),
        # computed from the sizes of the arrays the kernel is handed,
        # not measured
        "kernels.bytes_per_sample": (ratio(n["kernels.bytes"], n["kernels.samples"]), "B"),
        "montecarlo.draw_s": (per_round(s["montecarlo.simulate"]), "s"),
        "montecarlo.chunks": (per_round(c["kernels.count"]), "count"),
        "montecarlo.compare_s": (per_round(s["montecarlo.compare"]), "s"),
        "verify.trials": (per_round(n["verify.trials"]), "count"),
    }
    for check in checks:
        metrics[f"verify.{check}_s"] = (per_round(tracer.check_s[check]), "s")
    return metrics
