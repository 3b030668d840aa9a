"""Monte Carlo simulation of the two-box game, checked against exact values.

Sampling follows the generative story directly: draw a support point d
by inverse CDF, then flip the decision coin and the box-filling coin,
both with bias omega_d. Each chunk of samples gets its own
counter-based generator keyed by (seed, chunk index), so results are
bit-reproducible for a given (samples, seed, chunk_size) triple and do
not depend on the order chunks are processed in. One vectorized numpy
kernel, kernels.count_cells_numpy, tallies each chunk.

Every reported figure derives from the integer count tensor alone. The
per-sample payouts within a decision branch take only two values (the
small reward plus possibly the large one), so means and standard errors
are exact functions of the counts; nothing needs a second pass over the
samples. Standard errors use the plug-in variance phat*(1-phat)/n
(ddof 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import core
from .core import Decision, NewcombScenario
from .errors import InvalidModelError, InvalidScenarioError, ZeroSamplesError
from .kernels import count_cells_numpy

DEFAULT_CHUNK_SIZE = 1 << 18
# a chunk holds 3 float64 uniforms per sample: about 100 MB at this size
MAX_CHUNK_SIZE = 1 << 22
RNG_ALGORITHM = "philox4x64-10, key=(seed, chunk index)"


@dataclass(frozen=True)
class Estimate:
    """A point estimate, its standard error, and the sample count behind it."""

    value: float
    stderr: float
    count: int


@dataclass(frozen=True)
class SimulationReport:
    """Everything a run produced, as plain ints and floats.

    support_counts[d][dec][box] counts samples at support point d with
    decision dec (1 = one-box) and box state box (1 = full). Two runs
    with equal (samples, seed, chunk_size) compare equal. Conditional
    estimates are None when their conditioning count is zero: an
    estimate that does not exist is not reported as 0.
    """

    samples: int
    seed: int
    chunk_size: int
    rng_algorithm: str
    support_counts: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    est_p: Estimate
    est_prior_full: Estimate
    est_post_full_onebox: Estimate | None
    est_post_full_twobox: Estimate | None
    est_reward_onebox: Estimate | None
    est_reward_twobox: Estimate | None

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

    deviation_ses is |estimate - exact| in standard-error units, None
    when the estimate is unavailable. flagged marks deviations beyond
    the caller's threshold.
    """

    quantity: str
    exact: Fraction
    estimate: float | None
    stderr: float | None
    deviation_ses: float | None
    flagged: bool


def _binomial_estimate(successes: int, n: int) -> Estimate:
    phat = successes / n
    return Estimate(
        value=phat, stderr=math.sqrt(phat * (1.0 - phat) / n), count=n
    )


def simulate(
    scenario: NewcombScenario,
    samples: int,
    seed: int,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationReport:
    """Run the game `samples` times and summarize the outcome counts.

    seed must be an integer in [0, 2**64) and chunk_size one in
    [1, MAX_CHUNK_SIZE]. Both rewards must convert to finite floats,
    since the reward estimates are floats.
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
    try:
        large = float(scenario.large_reward)
        small = float(scenario.small_reward)
    except OverflowError:
        raise InvalidScenarioError(
            "rewards: too large to simulate (the estimates are floats)"
        ) from None
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
    buffer = np.empty(3 * min(chunk_size, samples), dtype=np.float64)
    done = 0
    chunk_index = 0
    while done < samples:
        m = min(chunk_size, samples - done)
        key = np.array([seed, chunk_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        u = buffer[: 3 * m].reshape(3, m)  # C-contiguous, as out= requires
        rng.random(out=u)
        count_cells_numpy(u, cum, omega, counts)
        done += m
        chunk_index += 1

    support_counts = tuple(
        tuple(tuple(int(x) for x in row) for row in cell) for cell in counts
    )
    cells = counts.sum(axis=0)
    n_one = int(cells[1].sum())
    n_two = int(cells[0].sum())
    n_full = int(cells[:, 1].sum())

    est_p = _binomial_estimate(n_one, samples)
    est_prior_full = _binomial_estimate(n_full, samples)
    post_one = _binomial_estimate(int(cells[1, 1]), n_one) if n_one else None
    post_two = _binomial_estimate(int(cells[0, 1]), n_two) if n_two else None

    reward_one = (
        Estimate(large * post_one.value, large * post_one.stderr, n_one)
        if post_one
        else None
    )
    reward_two = (
        Estimate(
            large * post_two.value + small, large * post_two.stderr, n_two
        )
        if post_two
        else None
    )

    return SimulationReport(
        samples=samples,
        seed=seed,
        chunk_size=chunk_size,
        rng_algorithm=RNG_ALGORITHM,
        support_counts=support_counts,
        est_p=est_p,
        est_prior_full=est_prior_full,
        est_post_full_onebox=post_one,
        est_post_full_twobox=post_two,
        est_reward_onebox=reward_one,
        est_reward_twobox=reward_two,
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
    """Line up the report's estimates against exact values.

    Requires an imperfect prior, since the exact posteriors do. A zero
    standard error flags exactly when the estimate differs at all from
    the exact value (deviation 0 or infinity). Unavailable estimates
    produce rows with deviation None, never a fabricated zero.
    """
    p = scenario.prediction.p
    pairs = (
        ("p", p, report.est_p),
        # the box fills with probability omega, so P(full) is the prior mean
        ("prior_box_full", p, report.est_prior_full),
        (
            "posterior_full_onebox",
            core.posterior_box_full(scenario, Decision.ONE_BOX),
            report.est_post_full_onebox,
        ),
        (
            "posterior_full_twobox",
            core.posterior_box_full(scenario, Decision.TWO_BOX),
            report.est_post_full_twobox,
        ),
        (
            "expected_reward_onebox",
            core.expected_reward(scenario, Decision.ONE_BOX),
            report.est_reward_onebox,
        ),
        (
            "expected_reward_twobox",
            core.expected_reward(scenario, Decision.TWO_BOX),
            report.est_reward_twobox,
        ),
    )
    rows = []
    for name, exact, est in pairs:
        if est is None:
            rows.append(ComparisonRow(name, exact, None, None, None, False))
            continue
        target = float(exact)
        if est.stderr == 0.0:
            deviation = 0.0 if est.value == target else math.inf
        else:
            deviation = abs(est.value - target) / est.stderr
        rows.append(
            ComparisonRow(
                quantity=name,
                exact=exact,
                estimate=est.value,
                stderr=est.stderr,
                deviation_ses=deviation,
                flagged=deviation > flag_threshold,
            )
        )
    return tuple(rows)
