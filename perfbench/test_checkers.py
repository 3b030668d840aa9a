"""Each workload's checker accepts the CLI's real output and rejects a corrupted one.

  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from newcomb import cli  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture
def analyze_case(tmp_path):
    # mid carries a partition, --delta and --emit
    return workloads.analyze_cases(random.Random(3), tmp_path)[1]


def test_analyze_accepts_real_output(analyze_case):
    out = run_cli(analyze_case.argv)
    assert workloads.check_analyze(out, analyze_case.expect) == []


def test_analyze_rejects_perturbed_posterior(analyze_case):
    out = run_cli(analyze_case.argv)
    line = re.search(r"^posterior P\(full \| one-box\): (\S+)", out, re.M)
    value = Fraction(line.group(1)) + Fraction(1, 10**9)
    bad = out.replace(line.group(0), f"posterior P(full | one-box): {value}")
    assert any("one-box" in p for p in workloads.check_analyze(bad, analyze_case.expect))


def test_analyze_rejects_changed_emit_file(analyze_case):
    out = run_cli(analyze_case.argv)
    emitted = analyze_case.expect["emit"]
    emitted.write_text(emitted.read_text().replace('"r": "', '"r": "1', 1))
    problems = workloads.check_analyze(out, analyze_case.expect)
    assert any("emitted rewards" in p for p in problems)


def test_sweep_rejects_swapped_preference(tmp_path):
    case = workloads.sweep_cases(random.Random(5), tmp_path)[0]
    out = run_cli(case.argv)
    assert workloads.check_sweep(out, case.expect) == []
    swap = {"onebox": "twobox", "twobox": "onebox"}
    lines = out.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[5] = swap[cells[5]]
    lines[1] = ",".join(cells)
    assert workloads.check_sweep("".join(lines), case.expect)


def test_sweep_rejects_missing_row(tmp_path):
    case = workloads.sweep_cases(random.Random(5), tmp_path)[0]
    out = run_cli(case.argv)
    short = "".join(out.splitlines(keepends=True)[:-1])
    assert any("rows for a grid" in p for p in workloads.check_sweep(short, case.expect))


@pytest.fixture
def simulate_case(tmp_path):
    case = workloads.simulate_cases(random.Random(7), tmp_path)[1]
    samples = 50_000
    case.argv[case.argv.index("--samples") + 1] = str(samples)
    case.expect["samples"] = samples
    return case


def test_simulate_accepts_real_output(simulate_case):
    out = run_cli(simulate_case.argv)
    assert workloads.check_simulate(out, simulate_case.expect) == []


def test_simulate_rejects_tally_not_summing_to_samples(simulate_case):
    out = run_cli(simulate_case.argv)
    m = re.search(r"one-box/full (\d+)", out)
    bad = out.replace(m.group(0), f"one-box/full {int(m.group(1)) + 1}")
    problems = workloads.check_simulate(bad, simulate_case.expect)
    assert any("counts sum" in p for p in problems)


def test_simulate_rejects_cell_far_from_exact(simulate_case):
    out = run_cli(simulate_case.argv)
    m = re.search(r"two-box/empty (\d+), two-box/full (\d+)", out)
    a, b = int(m.group(1)), int(m.group(2))
    moved = min(a, 2000)
    bad = out.replace(m.group(0), f"two-box/empty {a - moved}, two-box/full {b + moved}")
    problems = workloads.check_simulate(bad, simulate_case.expect)
    assert any("SE from" in p for p in problems)


def test_verify_rejects_zero_trials():
    case = workloads.verify_cases(random.Random(0), Path("."))[0]
    case.argv[-1] = "2"
    case.expect["models"] = 2
    out = run_cli(case.argv)
    assert workloads.check_verify(out, case.expect) == []
    bad = out.replace("ok   posterior-routes: 2 models", "ok   posterior-routes: 0 models")
    assert bad != out
    problems = workloads.check_verify(bad, case.expect)
    assert any("posterior-routes: reports zero trials" in p for p in problems)
