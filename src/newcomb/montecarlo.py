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

A chunk is drawn and counted in pieces that run at once, one per
usable CPU and at most one per MIN_PART_WIDTH samples (a narrower chunk,
or a process with one usable CPU, is one piece); the calling thread runs
the first piece and a thread pool the rest. A piece takes columns
[a, b) of the chunk and draws and counts them one block of at most
MIN_PART_WIDTH columns at a time, in a scratch array of its own, so the
kernel reads each block while it is still in cache and memory does not
grow with the chunk. Row r of column j is double r * m + j of the
chunk's stream. Philox is counter-based (Salmon et al., SC'11) and makes
four doubles per counter step, so each row's generator of a piece starts
at double pos = r * m + a: it advances the counter by pos // 4 and drops
pos % 4 doubles. The doubles are the ones a single draw gives, each
piece counts into an int array of its own, and integer sums do not
depend on their order, so the tally is bit-identical for any number of
pieces. A one-point prior never uses row 0, which is then not drawn. A
chunk of at most one block is drawn with one generator, since its rows
are one range of the stream.

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
# memory does not grow with the chunk, which is counted in blocks
MAX_CHUNK_SIZE = 1 << 22
# a chunk is drawn and counted in up to one piece per usable CPU, each
# at least this many samples wide, and a piece in blocks of at most this
# many; a narrower chunk runs in one piece, in one block
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


def _generator(key, pos: int):
    """A generator at double pos of the Philox stream of key.

    Philox makes four doubles per counter step: advancing the counter by
    pos // 4 skips 4 * (pos // 4) doubles, and pos % 4 more are drawn
    and dropped.
    """
    import numpy as np

    bitgen = np.random.Philox(key=key)
    # advance(0) is not free, and chunk size 1 would pay it per sample
    if pos >= 4:
        bitgen.advance(pos // 4)
    gen = np.random.Generator(bitgen)
    if pos % 4:
        gen.random(pos % 4)
    return gen


def _run(pool, fn, calls) -> None:
    """fn(*args) for each args in calls: the first on this thread, the
    rest on pool, which a single call never touches. Returns when all
    are done; raises the first error."""
    futures = [pool.submit(fn, *args) for args in calls[1:]]
    fn(*calls[0])
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

    width = min(chunk_size, samples)
    one_point = len(support) == 1
    guide = None if one_point else guide_table(cum, width)
    # the kernel never reads row 0 of a one-point chunk, so it is not drawn
    rows = (1, 2) if one_point else (0, 1, 2)
    parts = max(1, min(_usable_cpus(), width // MIN_PART_WIDTH))
    tallies = [counts] + [np.zeros_like(counts) for _ in range(parts - 1)]
    block = min(width, MIN_PART_WIDTH)
    scratch = [np.empty(3 * block, dtype=np.float64) for _ in range(parts)]
    pool = None
    if parts > 1:
        # not at module scope: importing it costs every command's start-up
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(parts - 1)

    def piece(chunk_index, m, a, b, buffer, tally):
        """Draw and count columns [a, b) of chunk chunk_index, m wide,
        one block at a time."""
        key = np.array([seed, chunk_index], dtype=np.uint64)
        if m <= block:
            # from the first double used, down to a multiple of 4
            start = rows[0] * m // 4 * 4
            _generator(key, start).random(out=buffer[start : 3 * m])
            u = buffer[: 3 * m].reshape(3, m)
            count_cells_numpy(u, cum, omega, tally, guide=guide)
            return
        gens = [(r, _generator(key, r * m + a)) for r in rows]
        for lo in range(a, b, block):
            u = buffer[: 3 * min(block, b - lo)].reshape(3, -1)
            for r, gen in gens:
                gen.random(out=u[r])
            count_cells_numpy(u, cum, omega, tally, guide=guide)

    def pieces(m):
        """A chunk of m samples as its pieces' columns, scratch and tally."""
        n = max(1, min(parts, m // MIN_PART_WIDTH))
        cols = [m * i // n for i in range(n + 1)]
        return list(zip(cols, cols[1:], scratch, tallies))

    # every chunk but a short last one has the same pieces
    full = pieces(width)
    try:
        done = 0
        chunk_index = 0
        while done < samples:
            m = min(chunk_size, samples - done)
            spans = full if m == width else pieces(m)
            _run(pool, piece, [(chunk_index, m, *span) for span in spans])
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
