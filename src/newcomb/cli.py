"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 unreadable or invalid input
data (which includes a sweep grid of more than MAX_SWEEP_ROWS rows), 3
verification failure (a failed self-check battery, or simulated
estimates drifting past the flag threshold). A reader closing our
stdout early (sweep piped into head) exits 141, the usual SIGPIPE
status, rather than pretending the input was bad; a stdout that cannot
be written (a full disk) exits 2. Ctrl-C exits 130 (128 + SIGINT)
without a traceback.

Each command builds its whole text before `main` writes it, so a run
exiting 1, 2 or 130 writes nothing to stdout. The one exception is
verify's check lines, which print live as each check finishes.

Exact values print as canonical rationals with a rounded decimal in
parentheses; files and CSV cells carry only the exact form.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import sys
from fractions import Fraction

from . import montecarlo, verify
from .core import (
    Decision,
    NewcombScenario,
    PredictionModel,
    PreferenceLabel,
    posterior_box_full,
    preferred_decision,
    scenario_summary,
)
from .errors import InvalidScenarioError, NewcombError
from .rational import decimal_str, format_ratio, format_rational, parse_rational
from .refinement import check_delta_omniscience, coarsen, variance_decomposition
from .impossibility import (
    bad_decision_probability,
    build_adversarial_game,
    choice_payout,
    optimal_choice,
)
from .scenario_io import load_scenario, save_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3
EXIT_INTERRUPT = 128 + 2
EXIT_PIPE = 128 + 13

# a sweep holds its whole CSV text, about 180 bytes of memory a row, so a
# grid past this many rows is refused rather than left to exhaust memory
MAX_SWEEP_ROWS = 1_000_000

SWEEP_COLUMNS = (
    "p",
    "spread",
    "sigma2",
    "threshold",
    "r_over_R",
    "preference",
    "e_onebox",
    "e_twobox",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this CLI
    # reserves 2 for bad input data
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # since Python 3.11 argparse drops an OSError from writing help; write
    # it here so a closed pipe reaches main's BrokenPipeError handler
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _flag_threshold(text: str) -> float:
    value = float(text)
    # no deviation exceeds nan or inf, and every one exceeds a negative
    # threshold: none of those would check anything
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of at least 0, got {text}"
        )
    return value


def _fmt(value: Fraction) -> str:
    return f"{format_rational(value)} ({decimal_str(value)})"


def _parse_rational_list(text: str, what: str) -> list[Fraction]:
    items = [piece.strip() for piece in text.split(",")]
    if not any(items):
        raise InvalidScenarioError(f"{what}: empty list")
    return [
        parse_rational(piece, what=f"{what}[{i}]")
        for i, piece in enumerate(items)
    ]


def _cmd_analyze(args) -> tuple[int, str]:
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    summary = scenario_summary(scenario)
    # a bad --delta fails before any value is formatted
    if args.delta is not None:
        delta = parse_rational(args.delta, what="--delta")
        report = check_delta_omniscience(scenario.prediction, delta)
    small, large = scenario.small_reward, scenario.large_reward
    pref = preferred_decision(scenario)
    lines = [
        f"support points: {len(scenario.prediction.support)}",
        f"rewards: r = {format_rational(small)}, R = {format_rational(large)}"
        f" (ratio r/R = {_fmt(small / large)})",
        f"p (marginal accuracy): {_fmt(summary.p)}",
        f"sigma^2 (prior variance): {_fmt(summary.sigma2)}",
        f"prior P(box full): {_fmt(summary.prior_box_full)}",
        f"threshold sigma^2/(p(1-p)): {_fmt(summary.threshold)}",
        "posterior P(full | one-box): "
        f"{_fmt(posterior_box_full(scenario, Decision.ONE_BOX))}",
        "posterior P(full | two-box): "
        f"{_fmt(posterior_box_full(scenario, Decision.TWO_BOX))}",
        f"E[reward | one-box]: {_fmt(pref.expected_onebox)}",
        f"E[reward | two-box]: {_fmt(pref.expected_twobox)}",
        f"preference: {pref.label.value}",
        *(
            f"authority: P(one-box | omega = {format_rational(omega)}) = {_fmt(value)}"
            for omega, value in summary.authority
        ),
    ]

    if loaded.refinement is not None:
        rm = loaded.refinement
        coarse = coarsen(rm)
        parts = variance_decomposition(rm)
        lines += [
            f"partition: {len(rm.blocks)} block(s)",
            f"coarse support points: {len(coarse.support)}",
            *(
                f"  coarse omega {format_rational(omega)} "
                f"with weight {format_rational(q)}"
                for omega, q in coarse.support
            ),
            f"variance split: fine {_fmt(parts.fine_variance)} = "
            f"coarse {_fmt(parts.coarse_variance)} + "
            f"within-block {_fmt(parts.expected_conditional_variance)}",
        ]

    if args.delta is not None:
        verdict = "yes" if report.is_omniscient else "no"
        lines += [
            f"delta-omniscient at delta = {format_rational(delta)}: {verdict}",
            f"variance lower bound when omniscient: "
            f"{_fmt(report.variance_lower_bound)}; "
            f"actual variance: {_fmt(report.actual_variance)}",
        ]

    if args.emit is not None:
        save_scenario(args.emit, scenario, loaded.refinement)
        lines.append(f"wrote canonical scenario to {args.emit}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _sweep_rows(ps, spreads, ratios):
    for p in ps:
        if not 0 < p < 1:
            raise InvalidScenarioError(
                f"p = {format_rational(p)}: must lie strictly between 0 and 1"
            )
    for a in spreads:
        if a < 0:
            raise InvalidScenarioError(
                f"spread = {format_rational(a)}: must not be negative"
            )
    for ratio in ratios:
        if ratio <= 0:
            raise InvalidScenarioError(
                f"ratio = {format_rational(ratio)}: must be positive"
            )
    rows = len(ps) * len(spreads) * len(ratios)
    if rows > MAX_SWEEP_ROWS:
        raise InvalidScenarioError(
            f"grid of {rows} rows exceeds the limit of {MAX_SWEEP_ROWS} rows"
        )
    ratio_terms = [
        (ratio.numerator, ratio.denominator, format_rational(ratio))
        for ratio in ratios
    ]
    # PreferenceLabel.compare(...).value would cost about 20 times this
    # inline choice in the per-ratio loop
    onebox = PreferenceLabel.ONE_BOX.value
    twobox = PreferenceLabel.TWO_BOX.value
    indifferent = PreferenceLabel.INDIFFERENT.value
    for p in ps:
        for a in spreads:
            if a > min(p, 1 - p):
                raise InvalidScenarioError(
                    f"spread {format_rational(a)} too wide for "
                    f"p = {format_rational(p)}: omega would leave [0, 1]"
                )
            model = PredictionModel.from_weights(
                ((p - a, Fraction(1)), (p + a, Fraction(1)))
            )
            sigma2 = model.variance
            # the cells that depend on the model alone
            prefix = (
                format_rational(p),
                format_rational(a),
                format_rational(sigma2),
                format_rational(sigma2 / (p * (1 - p))),
            )
            # the posteriors do not depend on the rewards; with R = 1,
            # E[one-box] = P(full | one-box) and E[two-box] is
            # P(full | two-box) + r
            scenario = NewcombScenario(
                prediction=model, small_reward=Fraction(1), large_reward=Fraction(1)
            )
            one = posterior_box_full(scenario, Decision.ONE_BOX)
            full_two = posterior_box_full(scenario, Decision.TWO_BOX)
            one_cell = format_rational(one)
            on, od = one.numerator, one.denominator
            fn, fd = full_two.numerator, full_two.denominator
            for rn, rd, ratio_cell in ratio_terms:
                # E[two-box] = full_two + ratio in lowest terms as n/d, by
                # the gcd steps of Fraction's own addition
                g = math.gcd(fd, rd)
                if g == 1:
                    n, d = fn * rd + rn * fd, fd * rd
                else:
                    s = fd // g
                    t = fn * (rd // g) + rn * s
                    g2 = math.gcd(t, g)
                    n, d = t // g2, s * (rd // g2)
                # both denominators are positive, so cross-multiplying
                # compares the two expectations exactly
                left, right = on * d, n * od
                yield (
                    *prefix,
                    ratio_cell,
                    onebox if left > right else twobox if right > left else indifferent,
                    one_cell,
                    format_ratio(n, d),
                )


def _cmd_sweep(args) -> tuple[int, str]:
    ps = _parse_rational_list(args.p, "--p")
    spreads = _parse_rational_list(args.spread, "--spread")
    ratios = _parse_rational_list(args.ratio, "--ratio")
    table = io.StringIO()
    # the bytes of csv.writer's excel dialect: no cell ever needs quoting,
    # as each is a canonical rational (-?\d+(/\d+)?) or a preference label
    table.write(",".join(SWEEP_COLUMNS) + "\r\n")
    table.writelines(
        ",".join(row) + "\r\n" for row in _sweep_rows(ps, spreads, ratios)
    )
    if args.output is None:
        return EXIT_OK, table.getvalue()
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        fh.write(table.getvalue())
    count = len(ps) * len(spreads) * len(ratios)
    return EXIT_OK, f"wrote {count} row(s) to {args.output}\n"


def _cmd_impossibility(args) -> tuple[int, str]:
    beliefs = _parse_rational_list(args.beliefs, "--beliefs")
    game = build_adversarial_game(beliefs)
    n = game.n
    target = game.target_index
    lines = [
        f"boxes: {n}",
        "beliefs: " + ", ".join(format_rational(pi) for pi in game.beliefs),
        f"adversarial target: box {target + 1} "
        f"(belief {format_rational(game.beliefs[target])} <= 1/{n})",
        "rewards: " + ", ".join(format_rational(x) for x in game.rewards),
    ]
    best = optimal_choice(game)
    lines += [
        f"counterfactually optimal choice: box {best + 1} "
        f"(payout {format_rational(choice_payout(game, best))})",
        f"P(subject picks a worthless box): {_fmt(bad_decision_probability(game))}; "
        f"lower bound 1 - 1/{n} = {_fmt(1 - Fraction(1, n))}",
    ]
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_simulate(args) -> tuple[int, str]:
    loaded = load_scenario(args.scenario)
    scenario = loaded.scenario
    report = montecarlo.simulate(
        scenario,
        samples=args.samples,
        seed=args.seed,
        chunk_size=args.chunk_size,
    )
    cells = report.cell_counts
    lines = [
        f"samples: {report.samples}  seed: {report.seed}  "
        f"chunk size: {report.chunk_size}",
        f"rng: {report.rng_algorithm}",
        "counts: "
        f"two-box/empty {cells[0][0]}, two-box/full {cells[0][1]}, "
        f"one-box/empty {cells[1][0]}, one-box/full {cells[1][1]}",
    ]
    if not scenario.prediction.is_imperfect:
        lines.append("exact comparison unavailable: prior mean is 0 or 1")
        return EXIT_OK, "\n".join(lines) + "\n"
    rows = montecarlo.compare_to_exact(
        report, scenario, flag_threshold=args.flag_threshold
    )
    lines.append(
        f"{'quantity':<24} {'exact':>18} {'estimate':>14} "
        f"{'stderr':>12} {'dev(SE)':>9} flag"
    )
    for row in rows:
        head = f"{row.quantity:<24} {format_rational(row.exact):>18} "
        if row.estimate is None:
            lines.append(f"{head}{'unavailable':>14} {'-':>12} {'-':>9}")
        else:
            mark = " <--" if row.flagged else ""
            lines.append(
                f"{head}{row.estimate:>14.8g} {row.stderr:>12.4g} "
                f"{row.deviation_ses:>9.3g}{mark}"
            )
    flagged = [row.quantity for row in rows if row.flagged]
    if flagged:
        lines.append(
            f"FLAGGED: {', '.join(flagged)} deviate by more than "
            f"{args.flag_threshold} standard error(s)"
        )
    return (EXIT_VERIFY if flagged else EXIT_OK), "\n".join(lines) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    # the check lines go out live as each check finishes
    results = verify.run_all(seed=args.seed, models=args.models, echo=print)
    passed = sum(1 for r in results if r.ok)
    code = EXIT_OK if verify.all_ok(results) else EXIT_VERIFY
    return code, f"{passed}/{len(results)} checks passed\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="newcomb",
        description=(
            "Exact analysis and simulation of prediction games with a "
            "coin-flipping predictor."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser(
        "analyze", help="exact summary of a scenario file"
    )
    analyze.add_argument("--scenario", required=True, help="scenario JSON file")
    analyze.add_argument(
        "--delta",
        help="also test delta-omniscience at this rational delta",
    )
    analyze.add_argument(
        "--emit", help="write the canonical form of the scenario to this path"
    )
    analyze.set_defaults(func=_cmd_analyze)

    sweep = sub.add_parser(
        "sweep",
        help="preference table over a grid of two-point priors",
        description=(
            "Grid over symmetric two-point priors {p - spread, p + spread} "
            "with equal weights, rewards normalized to R = 1, r = ratio. "
            "Writes CSV with exact rational cells."
        ),
    )
    sweep.add_argument("--p", required=True, help="comma-separated prior means")
    sweep.add_argument(
        "--spread", required=True, help="comma-separated half-widths"
    )
    sweep.add_argument(
        "--ratio", required=True, help="comma-separated reward ratios r/R"
    )
    sweep.add_argument("--output", help="CSV path (default: stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    imposs = sub.add_parser(
        "impossibility",
        help="adversarial n-box game against a belief vector",
    )
    imposs.add_argument(
        "--beliefs", required=True, help="comma-separated rational beliefs"
    )
    imposs.set_defaults(func=_cmd_impossibility)

    simulate = sub.add_parser(
        "simulate", help="Monte Carlo run checked against exact values"
    )
    simulate.add_argument("--scenario", required=True, help="scenario JSON file")
    simulate.add_argument("--samples", required=True, type=int)
    simulate.add_argument("--seed", required=True, type=int)
    simulate.add_argument(
        "--chunk-size", type=int, default=montecarlo.DEFAULT_CHUNK_SIZE
    )
    simulate.add_argument(
        "--flag-threshold",
        type=_flag_threshold,
        default=4.0,
        help="flag estimates deviating by more than this many SEs",
    )
    simulate.set_defaults(func=_cmd_simulate)

    verify_cmd = sub.add_parser(
        "verify", help="run the self-verification battery"
    )
    verify_cmd.add_argument("--seed", type=int, default=0)
    verify_cmd.add_argument(
        "--models",
        type=_positive_int,
        default=200,
        help="random instances per property check",
    )
    verify_cmd.set_defaults(func=_cmd_verify)
    return parser


def _release_stdout() -> None:
    """Leave stdout so that the interpreter's exit-time flush cannot fail.

    A stdout still holding text it cannot write (a closed pipe, a full
    disk) is pointed at devnull, so that flush does not raise a second
    time. One that flushes, such as an in-process StringIO, is left
    alone and no descriptor is opened.
    """
    try:
        sys.stdout.flush()
    except (OSError, ValueError):
        with contextlib.suppress(OSError, ValueError):
            target = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, target)
            finally:
                os.close(devnull)


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits on --help (0) and usage errors (1 via _Parser)
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        else:
            # a command returns its text only once it has succeeded, so a
            # failed one writes nothing here
            code, text = args.func(args)
            sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        _release_stdout()
        return EXIT_PIPE
    except (NewcombError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _release_stdout()
        return EXIT_DATA
    except KeyboardInterrupt:
        return EXIT_INTERRUPT


def entrypoint() -> None:
    raise SystemExit(main())
