"""Counting kernel for the simulator.

The kernel consumes a (3, m) block of uniforms and tallies samples into
an (n, 2, 2) int64 tensor indexed by (support point, decision, box
full). Row 0 of the uniforms selects the support point by inverse CDF,
row 1 flips the decision coin, row 2 flips the box-filling coin.

The inverse CDF is a guide table ("indexed search", Chen and Asau 1974;
Devroye, Non-Uniform Random Variate Generation, III.2.4) in front of a
binary search. For a power of two k, guide[j] is
searchsorted(cum, j / k, side="right"), the number of cum values
<= j / k. A uniform u lies in bucket j = int(u * k), and its support
point, the number of cum values <= u, is at least guide[j] because cum
is non-decreasing; it equals guide[j] unless cum[guide[j]] <= u. Only
those samples go through searchsorted. Both steps are exact in floating
point: multiplying by a power of two does not round, so
j / k <= u < (j + 1) / k holds exactly, and j / k is itself a double.
Every sample therefore gets the index a plain binary search gives, and
the tally does not move.

k is the smallest power of two of at least BUCKETS_PER_POINT * n
buckets for n support points, so at most about one sample in
2 * BUCKETS_PER_POINT has a cut point below it in its bucket and falls
back. k is capped at 2**MAX_TABLE_BITS, and at the chunk length rounded
up to a power of two, so that building the table never costs more than
searching the chunk would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BUCKETS_PER_POINT = 32
MAX_TABLE_BITS = 16


def count_cells_numpy(
    u: np.ndarray, cum: np.ndarray, omega: np.ndarray, counts: np.ndarray
) -> None:
    """Vectorized tally. Adds into counts in place."""
    import numpy as np  # not at module scope: see montecarlo.simulate
    u0 = u[0]
    bits = min(
        (BUCKETS_PER_POINT * len(cum) - 1).bit_length(),
        (len(u0) - 1).bit_length(),
        MAX_TABLE_BITS,
    )
    k = 1 << bits
    guide = np.searchsorted(cum, np.arange(k) / k, side="right")
    # u0 * k < 2**MAX_TABLE_BITS, so int32 truncation is the floor
    d = guide[(u0 * k).astype(np.int32)]
    fallback = np.flatnonzero(cum[d] <= u0)
    if fallback.size:
        d[fallback] = np.searchsorted(cum, u0[fallback], side="right")
    om = omega[d]
    # cell index d * 4 + decision * 2 + box, built in place in d
    d <<= 1
    d += u[1] < om
    d <<= 1
    d += u[2] < om
    counts += np.bincount(d, minlength=counts.size).reshape(counts.shape)
