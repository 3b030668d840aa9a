"""Inputs and output checkers for the four benchmark workloads.

Each workload has three tiers, small, mid and large, and one round of a
run calls the CLI once per tier. Inputs come from a `random.Random`
seeded by the benchmark's `--seed`; the same seed gives the same files
and argument vectors.

The checkers recompute what each command prints from the generated
inputs alone, with plain `Fraction` sums and closed forms, and never
import `newcomb`. A checker returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

TIERS = ("small", "mid", "large")

# omegas are k/OMEGA_DEN and weights w/T for a prime T, so every
# denominator of a prior is the same prime whatever the seed, and with
# it the cost of the exact arithmetic
OMEGA_DEN = 997
RATIO_DEN = 9973

# 160 points take about 2.7 s a call; 300 take 9 s, which leaves two or
# three timed calls in a run and no steady median
ANALYZE_POINTS = {"small": 2, "mid": 50, "large": 160}
# calls per timed round, so that the short calls get enough samples
ANALYZE_REPEATS = {"small": 8, "mid": 2, "large": 1}
ANALYZE_BLOCKS = 5
SIMULATE_POINTS = {"small": 1, "mid": 2, "large": 300}
SIMULATE_SAMPLES = 4_000_000
# 6 standard errors: at the CLI's default of 4, one of the 18 rows
# compared per round drifts past the flag about once in a thousand
# seeds, which a benchmark run hundreds of times would hit
SIGMAS = 6
SWEEP_GRID = {"small": (4, 1, 25), "mid": (10, 2, 50), "large": (20, 2, 125)}
SWEEP_REPEATS = {"small": 5, "mid": 1, "large": 1}
VERIFY_MODELS = {"small": 20, "mid": 60, "large": 200}
SWEEP_COLUMNS = [
    "p",
    "spread",
    "sigma2",
    "threshold",
    "r_over_R",
    "preference",
    "e_onebox",
    "e_twobox",
]
VERIFY_CHECKS = (
    "worked-examples",
    "distribution-laws",
    "posterior-routes",
    "expected-rewards",
    "preference-threshold",
    "authority",
    "refinement",
    "omniscience",
    "impossibility",
    "simulation",
)


@dataclass
class Case:
    """One CLI invocation and what its output must satisfy."""

    tier: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    # files the command writes, whose bytes must repeat across calls
    outputs: list[Path] = field(default_factory=list)
    # calls per timed round
    repeats: int = 1


# ---------------------------------------------------------------- inputs


def _next_prime(n: int) -> int:
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def random_prior(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """n distinct omegas strictly inside (0, 1), sorted, weights summing to 1.

    The weights are a random composition of a prime T of about 10 n.
    """
    ks = sorted(rng.sample(range(1, OMEGA_DEN), n))
    total = _next_prime(10 * n + 1)
    cuts = [0] + sorted(rng.sample(range(1, total), n - 1)) + [total]
    return [
        (Fraction(k, OMEGA_DEN), Fraction(b - a, total))
        for k, a, b in zip(ks, cuts, cuts[1:])
    ]


def _write_scenario(path: Path, file_support, r, big_r, partition=None) -> None:
    data = {
        "prediction": [
            {"omega": str(omega), "weight": str(q)} for omega, q in file_support
        ],
        "rewards": {"r": str(r), "R": str(big_r)},
    }
    if partition is not None:
        data["partition"] = partition
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def analyze_cases(rng: random.Random, work: Path) -> list[Case]:
    cases = []
    for tier in TIERS:
        n = ANALYZE_POINTS[tier]
        if tier == "small":
            # the paper's two-point example
            support = [(Fraction(1, 10), Fraction(1, 2)), (Fraction(9, 10), Fraction(1, 2))]
            r, big_r = Fraction(1000), Fraction(1000000)
        else:
            support = random_prior(rng, n)
            r, big_r = Fraction(rng.randint(1, 5000)), Fraction(1000000)
        file_support = list(support)
        rng.shuffle(file_support)
        partition = None
        if tier == "mid":
            positions = list(range(1, n + 1))
            rng.shuffle(positions)
            partition = [sorted(positions[b::ANALYZE_BLOCKS]) for b in range(ANALYZE_BLOCKS)]
        path = work / f"analyze-{tier}.json"
        _write_scenario(path, file_support, r, big_r, partition)
        argv = ["analyze", "--scenario", str(path)]
        expect = {
            "support": sorted(support),
            "r": r,
            "R": big_r,
            "blocks": None,
            "delta": None,
            "emit": None,
        }
        if partition is not None:
            expect["blocks"] = [[file_support[i - 1][0] for i in block] for block in partition]
        outputs = []
        if tier in ("small", "mid"):
            p = sum(q * omega for omega, q in support)
            delta = Fraction(1, 10) if tier == "small" else min(p, 1 - p) / 2
            emit = work / f"analyze-{tier}-emit.json"
            argv += ["--delta", str(delta), "--emit", str(emit)]
            expect["delta"] = delta
            expect["emit"] = emit
            outputs.append(emit)
        cases.append(Case(tier, argv, expect, outputs, ANALYZE_REPEATS[tier]))
    return cases


def sweep_cases(rng: random.Random, work: Path) -> list[Case]:
    cases = []
    for tier in TIERS:
        n_p, n_a, n_r = SWEEP_GRID[tier]
        ps = [Fraction(k, OMEGA_DEN) for k in rng.sample(range(200, 801), n_p)]
        spreads = [Fraction(j, OMEGA_DEN) for j in rng.sample(range(1, 201), n_a)]
        # thresholds a^2/(p(1-p)) lie below 1/4, so ratios up to 1/2 give
        # both preferences
        ratios = [Fraction(m, RATIO_DEN) for m in rng.sample(range(1, RATIO_DEN // 2), n_r)]
        argv = [
            "sweep",
            "--p", ",".join(map(str, ps)),
            "--spread", ",".join(map(str, spreads)),
            "--ratio", ",".join(map(str, ratios)),
        ]
        expect = {"ps": ps, "spreads": spreads, "ratios": ratios}
        cases.append(Case(tier, argv, expect, repeats=SWEEP_REPEATS[tier]))
    return cases


def simulate_cases(rng: random.Random, work: Path) -> list[Case]:
    cases = []
    for tier in TIERS:
        support = random_prior(rng, SIMULATE_POINTS[tier])
        r, big_r = Fraction(rng.randint(1, 5000)), Fraction(1000000)
        path = work / f"simulate-{tier}.json"
        _write_scenario(path, support, r, big_r)
        seed = rng.randrange(2**32)
        argv = [
            "simulate",
            "--scenario", str(path),
            "--samples", str(SIMULATE_SAMPLES),
            "--seed", str(seed),
            "--flag-threshold", str(SIGMAS),
        ]
        expect = {"support": support, "samples": SIMULATE_SAMPLES, "seed": seed}
        cases.append(Case(tier, argv, expect))
    return cases


def verify_trials(models: int) -> dict[str, int]:
    """Trial count each randomised check must report for --models."""
    return {
        "distribution-laws": models,
        "posterior-routes": models,
        "expected-rewards": models,
        "preference-threshold": models,
        # authority reports support points, at least one per trial
        "authority": max(1, models // 2),
        "refinement": models,
        "omniscience": models,
        "impossibility": max(10, models * 2),
    }


def verify_cases(rng: random.Random, work: Path) -> list[Case]:
    # verify draws its random models by rejection sampling, so its own
    # --seed changes how much work it does; it stays at the CLI default
    # so that times and traced counts repeat across benchmark seeds
    return [
        Case(tier, ["verify", "--seed", "0", "--models", str(VERIFY_MODELS[tier])],
             {"models": VERIFY_MODELS[tier]})
        for tier in TIERS
    ]


# -------------------------------------------------------------- checkers


def _exact(text: str, what: str, problems: list[str]) -> Fraction | None:
    """Parse '<rational> (<decimal>)' and check the decimal approximates it."""
    m = re.fullmatch(r"(\S+) \((\S+)\)", text.strip())
    if m is None:
        problems.append(f"{what}: cannot parse {text!r}")
        return None
    value = Fraction(m.group(1))
    shown = float(m.group(2))
    if not math.isclose(shown, float(value), rel_tol=1e-5, abs_tol=1e-12):
        problems.append(f"{what}: decimal {shown} does not match {value}")
    return value


def _field(lines: dict[str, str], key: str, problems: list[str]) -> str:
    if key not in lines:
        problems.append(f"missing line {key!r}")
        return ""
    return lines[key]


def _split_lines(out: str) -> tuple[dict[str, str], list[str]]:
    keyed = {}
    for line in out.splitlines():
        if ": " in line and not line.startswith(("authority:", "  coarse omega")):
            key, _, rest = line.partition(": ")
            keyed.setdefault(key, rest)
    return keyed, out.splitlines()


def check_analyze(out: str, expect: dict) -> list[str]:
    problems: list[str] = []
    support = expect["support"]
    r, big_r = expect["r"], expect["R"]
    p = sum(q * w for w, q in support)
    m2 = sum(q * w * w for w, q in support)
    sigma2 = m2 - p * p
    threshold = sigma2 / (p * (1 - p))
    # Bayes on the joint of (omega, decision, fill): both flips have bias
    # omega, so P(full, one-box) = E[omega^2] and P(full, two-box) =
    # E[omega (1 - omega)]
    post_one = m2 / p
    post_two = (p - m2) / (1 - p)
    e_one = big_r * post_one
    e_two = big_r * post_two + r

    keyed, lines = _split_lines(out)
    if _field(keyed, "support points", problems) != str(len(support)):
        problems.append("support point count is wrong")
    want_rewards = f"r = {r}, R = {big_r} (ratio r/R = "
    if not _field(keyed, "rewards", problems).startswith(want_rewards):
        problems.append("rewards line is wrong")
    for key, want in (
        ("p (marginal accuracy)", p),
        ("sigma^2 (prior variance)", sigma2),
        ("prior P(box full)", p),
        ("threshold sigma^2/(p(1-p))", threshold),
        ("posterior P(full | one-box)", post_one),
        ("posterior P(full | two-box)", post_two),
        ("E[reward | one-box]", e_one),
        ("E[reward | two-box]", e_two),
    ):
        got = _exact(_field(keyed, key, problems), key, problems)
        if got is not None and got != want:
            problems.append(f"{key}: printed {got}, expected {want}")

    ratio = r / big_r
    by_threshold = "onebox" if ratio < threshold else "twobox" if ratio > threshold else "indifferent"
    by_reward = "onebox" if e_one > e_two else "twobox" if e_two > e_one else "indifferent"
    if by_threshold != by_reward:
        problems.append("reference preference routes disagree")
    if _field(keyed, "preference", problems) != by_threshold:
        problems.append(f"preference: expected {by_threshold}")

    authority = [line for line in lines if line.startswith("authority: ")]
    if len(authority) != len(support):
        problems.append(f"{len(authority)} authority lines for {len(support)} points")
    for line, (omega, _) in zip(authority, support):
        m = re.fullmatch(r"authority: P\(one-box \| omega = (\S+)\) = (.+)", line)
        if m is None:
            problems.append(f"cannot parse {line!r}")
            continue
        value = _exact(m.group(2), "authority", problems)
        if Fraction(m.group(1)) != omega or value != omega:
            problems.append(f"authority line {line!r} does not equal omega {omega}")

    if expect["blocks"] is not None:
        _check_partition(keyed, lines, expect["blocks"], support, sigma2, p, problems)
    if expect["delta"] is not None:
        _check_delta(keyed, support, expect["delta"], p, sigma2, problems)
    if expect["emit"] is not None:
        _check_emit(expect, problems)
    return problems


def _check_partition(keyed, lines, blocks, support, sigma2, p, problems):
    weight_of = dict(support)
    merged: dict[Fraction, Fraction] = {}
    within = Fraction(0)
    for block in blocks:
        w = sum(weight_of[omega] for omega in block)
        mean = sum(weight_of[omega] * omega for omega in block) / w
        second = sum(weight_of[omega] * omega * omega for omega in block) / w
        within += w * (second - mean * mean)
        merged[mean] = merged.get(mean, Fraction(0)) + w
    coarse = sorted(merged.items())
    coarse_var = sum(w * mean * mean for mean, w in coarse) - p * p

    if _field(keyed, "partition", problems) != f"{len(blocks)} block(s)":
        problems.append("partition block count is wrong")
    if _field(keyed, "coarse support points", problems) != str(len(coarse)):
        problems.append("coarse support point count is wrong")
    printed = [
        tuple(map(Fraction, re.fullmatch(r"  coarse omega (\S+) with weight (\S+)", line).groups()))
        for line in lines
        if line.startswith("  coarse omega ")
    ]
    if printed != coarse:
        problems.append("coarse support differs from the block means and weights")
    m = re.fullmatch(
        r"fine (.+\)) = coarse (.+\)) \+ within-block (.+\))",
        _field(keyed, "variance split", problems),
    )
    if m is None:
        problems.append("cannot parse the variance split")
        return
    fine, coarse_v, within_v = (_exact(g, "variance split", problems) for g in m.groups())
    if (fine, coarse_v, within_v) != (sigma2, coarse_var, within):
        problems.append("variance split terms are wrong")
    if None not in (fine, coarse_v, within_v) and fine != coarse_v + within_v:
        problems.append("variance split does not add up")


def _check_delta(keyed, support, delta, p, sigma2, problems):
    omniscient = all(not (delta < omega < 1 - delta) for omega, _ in support)
    key = f"delta-omniscient at delta = {delta}"
    if _field(keyed, key, problems) != ("yes" if omniscient else "no"):
        problems.append(f"{key}: expected {'yes' if omniscient else 'no'}")
    bound = (1 - delta) ** 2 * (p - delta) - p * p
    m = re.fullmatch(
        r"(.+\)); actual variance: (.+\))",
        _field(keyed, "variance lower bound when omniscient", problems),
    )
    if m is None:
        problems.append("cannot parse the omniscience bound")
        return
    got = tuple(_exact(g, "omniscience", problems) for g in m.groups())
    if got != (bound, sigma2):
        problems.append("omniscience bound or variance is wrong")


def _check_emit(expect, problems):
    path = expect["emit"]
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"emitted file unreadable: {exc}")
        return
    support = expect["support"]
    try:
        loaded = [(Fraction(e["omega"]), Fraction(e["weight"])) for e in data["prediction"]]
        rewards = (Fraction(data["rewards"]["r"]), Fraction(data["rewards"]["R"]))
    except (KeyError, TypeError, ValueError):
        problems.append("emitted file does not have the scenario shape")
        return
    if sorted(loaded) != support:
        problems.append("emitted prior differs from the input")
    if rewards != (expect["r"], expect["R"]):
        problems.append("emitted rewards differ from the input")
    blocks = expect["blocks"]
    if blocks is None:
        if "partition" in data:
            problems.append("emitted a partition the input did not have")
        return
    try:
        got = {frozenset(loaded[i - 1][0] for i in block) for block in data["partition"]}
    except (KeyError, TypeError, IndexError):
        problems.append("emitted partition is malformed")
        return
    if got != {frozenset(block) for block in blocks}:
        problems.append("emitted partition differs from the input")


def check_sweep(out: str, expect: dict) -> list[str]:
    problems: list[str] = []
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != SWEEP_COLUMNS:
        problems.append("sweep header is wrong")
        return problems
    body = rows[1:]
    grid = [
        (p, a, ratio)
        for p in expect["ps"]
        for a in expect["spreads"]
        for ratio in expect["ratios"]
    ]
    if len(body) != len(grid):
        problems.append(f"{len(body)} rows for a grid of {len(grid)}")
    for row, (p, a, ratio) in zip(body, grid):
        if len(row) != len(SWEEP_COLUMNS):
            problems.append(f"row {row!r} has the wrong width")
            continue
        # the prior {p - a, p + a} with equal weights
        sigma2 = a * a
        threshold = sigma2 / (p * (1 - p))
        e_one = p + sigma2 / p
        e_two = p - sigma2 / (1 - p) + ratio
        pref = "onebox" if ratio < threshold else "twobox" if ratio > threshold else "indifferent"
        want = [str(x) for x in (p, a, sigma2, threshold, ratio)] + [pref, str(e_one), str(e_two)]
        if row != want:
            problems.append(f"row {row!r} != expected {want!r}")
            if len(problems) > 20:
                break
    return problems


def check_simulate(out: str, expect: dict) -> list[str]:
    problems: list[str] = []
    if "FLAGGED" in out:
        problems.append("simulate flagged an estimate")
    n = expect["samples"]
    m = re.search(r"^samples: (\d+)  seed: (\d+)  chunk size: (\d+)$", out, re.M)
    if m is None or (int(m.group(1)), int(m.group(2))) != (n, expect["seed"]):
        problems.append("samples/seed line is wrong")
    m = re.search(
        r"^counts: two-box/empty (\d+), two-box/full (\d+), "
        r"one-box/empty (\d+), one-box/full (\d+)$",
        out,
        re.M,
    )
    if m is None:
        problems.append("cannot find the counts line")
        return problems
    counts = [int(x) for x in m.groups()]
    if sum(counts) != n:
        problems.append(f"counts sum to {sum(counts)}, not {n}")
    support = expect["support"]
    m1 = sum(q * w for w, q in support)
    m2 = sum(q * w * w for w, q in support)
    # cell probabilities: both flips have bias omega given omega
    exact = [1 - 2 * m1 + m2, m1 - m2, m1 - m2, m2]
    for name, count, prob in zip(("two-box/empty", "two-box/full", "one-box/empty", "one-box/full"), counts, exact):
        pi = float(prob)
        se = math.sqrt(pi * (1 - pi) / n)
        if abs(count / n - pi) > SIGMAS * se + 1e-12:
            problems.append(f"{name}: {count}/{n} is more than {SIGMAS} SE from {prob}")
    return problems


def check_verify(out: str, expect: dict) -> list[str]:
    problems: list[str] = []
    lines = out.splitlines()
    total = len(VERIFY_CHECKS)
    if not lines or lines[-1] != f"{total}/{total} checks passed":
        problems.append("verify did not report every check passed")
    seen = {}
    for line in lines[:-1]:
        m = re.fullmatch(r"(ok  |FAIL) ([\w-]+): (.*)", line)
        if m is None:
            problems.append(f"cannot parse {line!r}")
            continue
        if m.group(1) != "ok  ":
            problems.append(f"check failed: {line!r}")
        seen[m.group(2)] = m.group(3)
    if list(seen) != list(VERIFY_CHECKS):
        problems.append(f"checks {list(seen)} differ from {list(VERIFY_CHECKS)}")
    for name, want in verify_trials(expect["models"]).items():
        m = re.match(r"(\d+) ", seen.get(name, ""))
        got = int(m.group(1)) if m else 0
        if got == 0:
            problems.append(f"{name}: reports zero trials")
        elif name == "authority" and not want <= got <= 6 * want:
            # random priors have 1 to 6 support points
            problems.append(f"{name}: reports {got} points for {want} trials")
        elif name != "authority" and got != want:
            problems.append(f"{name}: reports {got} trials, expected {want}")
    return problems


WORKLOADS = {
    "analyze": (analyze_cases, check_analyze),
    "sweep": (sweep_cases, check_sweep),
    "simulate": (simulate_cases, check_simulate),
    "verify": (verify_cases, check_verify),
}
