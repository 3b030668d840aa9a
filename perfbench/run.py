"""End-to-end benchmark of the newcomb CLI, with a traced per-layer mode.

One closed-loop client in this single-threaded process calls
`newcomb.cli.main(argv)` in-process with stdout captured, one call after
another. A round calls the workload's small, mid and large input, each
a fixed number of times (`Case.repeats`, so that short calls get as many
samples as long ones); a run warms up by calling each once, then repeats
rounds until `--seconds` have passed, and reports the median time per
call of each tier. Every output is checked: the first of each tier against values
recomputed apart from the program (see workloads.py), every later one
for byte equality with the first.

  python3 perfbench/run.py --workload analyze --seed 1 --seconds 15 --trace 0

--trace 1 alternates untraced and traced rounds, which call each input
once, and reports per-layer metrics instead (see tracing.py), plus the
tracing overhead per round. The last line of stdout is the result as one JSON object; it is also
written, with the spans of a traced run, under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# no new round starts after this many seconds, so a run ends well
# within three minutes even on a slow machine
DEADLINE_S = 120.0

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
from workloads import TIERS, VERIFY_CHECKS, WORKLOADS  # noqa: E402


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports newcomb.cli."""
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import newcomb.cli"]
    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which rounds every start up to a step of 50 ms; without one, it
    # blocks in waitpid and returns as soon as the child exits.
    # The first start compiles the bytecode cache; users pay that once.
    subprocess.run(cmd, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Client:
    """Calls the CLI, counts attempts and failures, and checks outputs."""

    def __init__(self, cli, check):
        self.cli = cli
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs of calls that succeeded
        self.errors: list[str] = []  # calls that exited non-zero
        self.reference: dict[str, tuple[str, list[bytes]]] = {}
        self.tracer = None

    def call(self, case) -> float:
        """Run one case and return its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(case.argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{case.tier}: exit {code}: {err.getvalue()[-300:]}")
            return elapsed
        self._check(case, out.getvalue())
        return elapsed

    def _check(self, case, text):
        files = [path.read_bytes() for path in case.outputs]
        ref = self.reference.get(case.tier)
        if ref is None:
            try:
                problems = self.check(text, case.expect)
            except Exception as exc:  # a malformed output must not end the run
                problems = [f"checker raised {type(exc).__name__}: {exc}"]
            if problems:
                self.problems.extend(f"{case.tier}: {p}" for p in problems[:10])
            else:
                self.reference[case.tier] = (text, files)
        elif (text, files) != ref:
            self.problems.append(f"{case.tier}: output differs from the first call's")


def run_rounds(seconds, started, on_round):
    """Whole rounds until `seconds` have passed; on_round(i) runs round i."""
    begin = time.perf_counter()
    i = 0
    while True:
        on_round(i)
        i += 1
        now = time.perf_counter()
        if now - begin >= seconds and i >= 2 or now - started >= DEADLINE_S:
            return


def measure(client, cases, seconds, started) -> dict[str, list[float]]:
    times = {case.tier: [] for case in cases}

    def one_round(_):
        for case in cases:
            for _ in range(case.repeats):
                times[case.tier].append(client.call(case))

    run_rounds(seconds, started, one_round)
    return times


def measure_traced(client, cases, seconds, started):
    """Alternate untraced and traced rounds; returns (tracer, per-layer metrics)."""
    tracer = tracing.Tracer()
    wall = {False: [], True: []}

    def one_round(i):
        traced = i % 2 == 1
        with tracing.instrument(tracer) if traced else contextlib.nullcontext():
            client.tracer = tracer if traced else None
            start = time.perf_counter()
            for case in cases:
                client.call(case)
            wall[traced].append(time.perf_counter() - start)
        client.tracer = None

    run_rounds(seconds, started, one_round)
    metrics = tracing.layer_metrics(tracer, len(wall[True]), VERIFY_CHECKS)
    metrics["trace.overhead_s"] = (
        statistics.median(wall[True]) - statistics.median(wall[False]),
        "s",
    )
    return tracer, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "newcomb" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'newcomb'} not found; run from a checkout", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import newcomb.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "newcomb":
        print(f"perfbench: imported newcomb from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = BENCH / "_work"
    results = BENCH / "_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    make_cases, check = WORKLOADS[args.workload]
    cases = make_cases(random.Random(args.seed), work)
    client = Client(cli, check)
    for case in cases:  # warm-up round, untimed
        client.call(case)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer, layers = measure_traced(client, cases, args.seconds, started)
        tracer.write(results / f"spans-{name}.jsonl")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    else:
        times = measure(client, cases, args.seconds, started)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
        for tier in TIERS:
            metrics[f"call_s.{tier}"] = {"value": statistics.median(times[tier]), "unit": "s"}
    shutil.rmtree(work, ignore_errors=True)

    for problem in client.errors + client.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not client.problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    (results / f"result-{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
