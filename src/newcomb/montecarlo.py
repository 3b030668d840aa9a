"""Monte Carlo simulation of the two-box game, checked against exact values.

Sampling follows the generative story directly: draw a support point d
by inverse CDF, then flip the decision coin and the box-filling coin,
both with bias omega_d. Each chunk of samples gets its own
counter-based generator keyed by (seed, chunk index), so results are
bit-reproducible for a given (samples, seed, chunk_size) triple and do
not depend on the order chunks are processed in. A chunk of m samples
is 3m doubles of that stream: row 0 picks the point, rows 1 and 2 flip
the coins. One vectorized numpy kernel, kernels.count_cells_numpy,
tallies each chunk, with one guide table built per simulate call.

A one-point prior never uses row 0, so simulate does not draw it.
Philox is counter-based (Salmon et al., SC'11) and makes four doubles
per counter step: advancing the counter by m // 4 skips 4 * (m // 4)
doubles exactly, and the m % 4 left over are drawn into the end of row
0. Rows 1 and 2 get the very doubles a full draw gives them, so the
tally does not move.

A chunk of at least 2 * MIN_PART_WIDTH samples is drawn and counted in
pieces that run at once, one per usable CPU (at most one per
MIN_PART_WIDTH samples of the chunk), in the one shared buffer. The
draw cuts the chunk's stream range [start, 3m) at multiples of 4, where
start is the row-0 skip above (0 for two or more points), and piece i
draws its range with its own generator of the same key, advanced to
the range's first double. The count cuts the m columns, and each piece
tallies its columns into its own int array; the arrays are summed at
the end. Every piece writes its own slice, the doubles are the ones a
single draw gives, and integer sums do not depend on their order, so
the tally is bit-identical to a single piece's for any number of
pieces. The calling thread runs the first piece of each phase and a
thread pool the rest; a narrower chunk, or a process with one usable
CPU, runs as a single piece on the calling thread, and a call whose
chunks are all that narrow starts no pool.

simulate ends at the tally; compare_to_exact alone turns counts into
estimates. Within a decision branch the payout takes only two values
(r, plus R when the box is full), so each estimate is scale * phat +
shift for a proportion phat of the counts. Each deviation is a score
test (Wilson, JASA 1927): it is measured in the standard error that the
exact proportion pi itself gives, sqrt(pi * (1 - pi) / n), not the
plug-in one, which is 0 whenever phat is 0 or 1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from . import core
from .core import Decision, NewcombScenario
from .errors import InvalidModelError, InvalidScenarioError, ZeroSamplesError
from .kernels import count_cells_numpy, guide_table

DEFAULT_CHUNK_SIZE = 1 << 18
# a chunk holds 3 float64 uniforms per sample: about 100 MB at this size
MAX_CHUNK_SIZE = 1 << 22
# a chunk is drawn and counted in up to one piece per usable CPU, each
# at least this many samples wide; a narrower chunk runs in one piece.
# Only two-way splits of 2^18 were timed; this width was not measured
MIN_PART_WIDTH = 1 << 15
RNG_ALGORITHM = "philox4x64-10, key=(seed, chunk index)"


@dataclass(frozen=True)
class SimulationReport:
    """The tally a run produced, as plain ints.

    support_counts[d][dec][box] counts samples at support point d with
    decision dec (1 = one-box) and box state box (1 = full). Two runs
    with equal (samples, seed, chunk_size) compare equal.
    """

    samples: int
    seed: int
    chunk_size: int
    rng_algorithm: str
    support_counts: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    @property
    def cell_counts(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Counts summed over support points: [decision][box full]."""
        out = [[0, 0], [0, 0]]
        for cell in self.support_counts:
            for dec in (0, 1):
                for box in (0, 1):
                    out[dec][box] += cell[dec][box]
        return tuple(tuple(row) for row in out)


@dataclass(frozen=True)
class ComparisonRow:
    """One exact quantity next to its estimate.

    stderr is the standard error the exact value gives the estimate, and
    deviation_ses is |estimate - exact| in that unit; both are None when
    the estimate is unavailable. flagged marks deviations beyond
    the caller's threshold.
    """

    quantity: str
    exact: Fraction
    estimate: float | None
    stderr: float | None
    deviation_ses: float | None
    flagged: bool


def _float_rewards(scenario: NewcombScenario) -> tuple[float, float]:
    """(R, r) as floats, refused when R + r does not convert.

    Every exact value and every estimate compare_to_exact reports is at
    most R + r, so none of them overflows once this passes.
    """
    large, small = scenario.large_reward, scenario.small_reward
    try:
        float(large + small)
    except OverflowError:
        raise InvalidScenarioError(
            "rewards: too large to simulate (the estimates are floats)"
        ) from None
    return float(large), float(small)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cuts(lo: int, hi: int, pieces: int, step: int) -> list[int]:
    """pieces + 1 bounds from lo to hi; the inner ones are lo plus a
    multiple of step."""
    span = hi - lo
    return [lo + span * i // pieces // step * step for i in range(pieces)] + [hi]


def _draw(buffer, seed: int, chunk_index: int, lo: int, hi: int) -> None:
    """Doubles lo to hi of chunk chunk_index's stream, into buffer[lo:hi].

    lo must be a multiple of 4: Philox makes four doubles per counter
    step, so advancing the counter by lo // 4 skips exactly lo of them.
    """
    import numpy as np

    bitgen = np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64))
    # advance(0) is not free, and chunk size 1 would pay it per sample
    if lo:
        bitgen.advance(lo // 4)
    np.random.Generator(bitgen).random(out=buffer[lo:hi])


def _run(pool, fn, calls, **kwargs) -> None:
    """fn(*args, **kwargs) for each args in calls: the first on this
    thread, the rest on pool, which a single call never touches. Returns
    when all are done; raises the first error."""
    futures = [pool.submit(fn, *args, **kwargs) for args in calls[1:]]
    fn(*calls[0], **kwargs)
    for future in futures:
        future.result()


def simulate(
    scenario: NewcombScenario,
    samples: int,
    seed: int,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationReport:
    """Run the game `samples` times and tally the outcomes.

    seed must be an integer in [0, 2**64) and chunk_size one in
    [1, MAX_CHUNK_SIZE]. R + r must convert to a float, as the estimates
    are floats; that is checked before anything is drawn.
    """
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise ZeroSamplesError(
            f"samples must be a positive integer, got {samples!r}"
        )
    if (
        not isinstance(seed, int)
        or isinstance(seed, bool)
        or not 0 <= seed < 2**64
    ):
        raise InvalidModelError(
            f"seed must be an integer in [0, 2**64), got {seed!r}"
        )
    if (
        not isinstance(chunk_size, int)
        or isinstance(chunk_size, bool)
        or not 1 <= chunk_size <= MAX_CHUNK_SIZE
    ):
        raise InvalidModelError(
            f"chunk_size must be an integer in [1, {MAX_CHUNK_SIZE}], "
            f"got {chunk_size!r}"
        )
    _float_rewards(scenario)
    # numpy loads at the first sample drawn: analyze, sweep and
    # impossibility start without it
    import numpy as np

    support = scenario.prediction.support
    cum_exact = []
    acc = Fraction(0)
    for _, q in support:
        acc += q
        cum_exact.append(acc)
    # each cumulative sum is rounded once from its exact value; the last
    # one is exactly 1, so searchsorted can never fall off the end
    cum = np.array([float(c) for c in cum_exact], dtype=np.float64)
    cum[-1] = 1.0
    omega = np.array([float(o) for o, _ in support], dtype=np.float64)
    counts = np.zeros((len(support), 2, 2), dtype=np.int64)

    # one buffer for every chunk: a fresh (3, m) draw per chunk lets
    # glibc's malloc serve later chunks from a fragmenting heap
    width = min(chunk_size, samples)
    buffer = np.empty(3 * width, dtype=np.float64)
    one_point = len(support) == 1
    guide = None if one_point else guide_table(cum, width)
    parts = max(1, min(_usable_cpus(), width // MIN_PART_WIDTH))
    tallies = [counts] + [np.zeros_like(counts) for _ in range(parts - 1)]
    pool = None
    if parts > 1:
        # not at module scope: importing it costs every command's start-up
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(parts - 1)

    def plan(m):
        """A chunk of m samples as its pieces' draw ranges and kernel
        arguments. The pieces write disjoint slices: the draws cut the
        stream [start, 3m) at multiples of 4, and the counts cut the
        columns, each into a tally of its own."""
        # the kernel never reads row 0 of a one-point chunk: skip its
        # whole blocks of 4 doubles, and draw the m % 4 left over
        start = m - m % 4 if one_point else 0
        pieces = max(1, min(parts, m // MIN_PART_WIDTH))
        rows = _cuts(start, 3 * m, pieces, 4)
        cols = _cuts(0, m, pieces, 1)
        u = buffer[: 3 * m].reshape(3, m)
        return list(zip(rows, rows[1:])), [
            (u[:, a:b], cum, omega, tally)
            for a, b, tally in zip(cols, cols[1:], tallies)
        ]

    # every chunk but a short last one has the same pieces
    full = plan(width)
    try:
        done = 0
        chunk_index = 0
        while done < samples:
            m = min(chunk_size, samples - done)
            ranges, kernel_args = full if m == width else plan(m)
            _run(pool, _draw, [
                (buffer, seed, chunk_index, lo, hi) for lo, hi in ranges
            ])
            _run(pool, count_cells_numpy, kernel_args, guide=guide)
            done += m
            chunk_index += 1
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for tally in tallies[1:]:
        counts += tally

    support_counts = tuple(
        tuple(tuple(int(x) for x in row) for row in cell) for cell in counts
    )
    return SimulationReport(
        samples=samples,
        seed=seed,
        chunk_size=chunk_size,
        rng_algorithm=RNG_ALGORITHM,
        support_counts=support_counts,
    )


def empirical_authority(report: SimulationReport) -> tuple[float | None, ...]:
    """Observed one-box frequency at each support point.

    Converges to omega_d itself; None where a support point drew no
    samples.
    """
    out = []
    for cell in report.support_counts:
        n_d = cell[0][0] + cell[0][1] + cell[1][0] + cell[1][1]
        out.append((cell[1][0] + cell[1][1]) / n_d if n_d else None)
    return tuple(out)


def compare_to_exact(
    report: SimulationReport,
    scenario: NewcombScenario,
    *,
    flag_threshold: float = 4.0,
) -> tuple[ComparisonRow, ...]:
    """Derive each estimate from report.cell_counts, next to its exact value.

    A row's estimate is scale * phat + shift (scale 1 or R, shift 0 or r)
    for the proportion phat = successes / trials whose exact value is pi.
    Its standard error is scale * sqrt(pi (1 - pi) / trials), taken at
    the exact pi, and its deviation is |estimate - exact| in that unit.
    Requires an imperfect prior, since the exact posteriors do. An exact
    pi of 0 or 1 has a zero standard error, which flags exactly when the
    estimate differs at all from the exact value (deviation 0 or
    infinity). A branch that drew no samples gives a row with estimate
    and deviation None, never a fabricated zero.
    """
    large, small = _float_rewards(scenario)
    (two_empty, two_full), (one_empty, one_full) = report.cell_counts
    n_one = one_empty + one_full
    n_two = two_empty + two_full
    p = scenario.prediction.p
    post_one = core.posterior_box_full(scenario, Decision.ONE_BOX)
    post_two = core.posterior_box_full(scenario, Decision.TWO_BOX)
    # (quantity, exact, exact proportion, successes, trials, scale, shift)
    specs = (
        ("p", p, p, n_one, report.samples, 1, 0),
        # the box fills with probability omega, so P(full) is the prior mean
        ("prior_box_full", p, p, one_full + two_full, report.samples, 1, 0),
        ("posterior_full_onebox", post_one, post_one, one_full, n_one, 1, 0),
        ("posterior_full_twobox", post_two, post_two, two_full, n_two, 1, 0),
        (
            "expected_reward_onebox",
            core.expected_reward(scenario, Decision.ONE_BOX),
            post_one, one_full, n_one, large, 0,
        ),
        (
            "expected_reward_twobox",
            core.expected_reward(scenario, Decision.TWO_BOX),
            post_two, two_full, n_two, large, small,
        ),
    )
    rows = []
    for name, exact, pi, successes, trials, scale, shift in specs:
        if not trials:
            rows.append(ComparisonRow(name, exact, None, None, None, False))
            continue
        phat = successes / trials
        estimate = scale * phat + shift
        stderr = scale * math.sqrt(float(pi * (1 - pi)) / trials)
        target = float(exact)
        if stderr == 0.0:
            deviation = 0.0 if estimate == target else math.inf
        else:
            deviation = abs(estimate - target) / stderr
        rows.append(
            ComparisonRow(
                quantity=name,
                exact=exact,
                estimate=estimate,
                stderr=stderr,
                deviation_ses=deviation,
                flagged=deviation > flag_threshold,
            )
        )
    return tuple(rows)
