"""Counting kernel for the simulator.

The kernel consumes a (3, m) block of uniforms and tallies samples into
an (n, 2, 2) int64 tensor indexed by (support point, decision, box
full). Row 0 of the uniforms selects the support point by inverse CDF,
row 1 flips the decision coin, row 2 flips the box-filling coin.

A one-point prior needs no inverse CDF: every sample lands on point 0,
so the kernel never reads row 0 (montecarlo.simulate does not even draw
it) and counts the four cells from the two flips with three
comparisons and three count_nonzero calls.

For two or more points the inverse CDF is a guide table ("indexed
search", Chen and Asau 1974; Devroye, Non-Uniform Random Variate
Generation, III.2.4) in front of a binary search. For a power of two k,
guide[j] is searchsorted(cum, j / k, side="right"), the number of cum
values <= j / k. A uniform u lies in bucket j = int(u * k), and its
support point, the number of cum values <= u, is at least guide[j]
because cum is non-decreasing; it equals guide[j] unless
cum[guide[j]] <= u. Only those samples go through searchsorted. Both
steps are exact in floating point: multiplying by a power of two does
not round, so j / k <= u < (j + 1) / k holds exactly, and j / k is
itself a double. Every sample therefore gets the index a plain binary
search gives, whatever k is, and the tally does not move.

guide_table builds the table once per simulate call. k is the smallest
power of two of at least BUCKETS_PER_POINT * n buckets for n support
points, so at most about one sample in 2 * BUCKETS_PER_POINT has a cut
point below it in its bucket and falls back. k is capped at
2**MAX_TABLE_BITS, and at the chunk width rounded up to a power of two,
so that building the table never costs more than searching a chunk
would. Bucket and support indices are np.intp, numpy's native index
type: gathering with any other integer type costs a conversion per
sample.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BUCKETS_PER_POINT = 32
MAX_TABLE_BITS = 16


def guide_table(cum: np.ndarray, width: int) -> np.ndarray:
    """The guide table for cum, sized for chunks of up to width samples.

    Any table this returns gives exact lookups for chunks of any length;
    width only bounds what building it costs.
    """
    import numpy as np  # not at module scope: see montecarlo.simulate
    bits = min(
        (BUCKETS_PER_POINT * len(cum) - 1).bit_length(),
        (width - 1).bit_length(),
        MAX_TABLE_BITS,
    )
    k = 1 << bits
    return np.searchsorted(cum, np.arange(k) / k, side="right")


def count_cells_numpy(
    u: np.ndarray,
    cum: np.ndarray,
    omega: np.ndarray,
    counts: np.ndarray,
    *,
    guide: np.ndarray | None,
) -> None:
    """Vectorized tally. Adds into counts in place.

    guide is guide_table(cum, width) for any width. A one-point prior
    uses no table (pass None) and never reads u[0].
    """
    import numpy as np  # not at module scope: see montecarlo.simulate
    if len(cum) == 1:
        dec = u[1] < omega[0]
        box = u[2] < omega[0]
        n_dec = np.count_nonzero(dec)
        n_box = np.count_nonzero(box)
        dec &= box
        both = np.count_nonzero(dec)
        cell = counts[0]
        cell[1, 1] += both
        cell[1, 0] += n_dec - both
        cell[0, 1] += n_box - both
        cell[0, 0] += u.shape[1] - n_dec - n_box + both
        return
    u0 = u[0]
    k = len(guide)
    # u0 * k < 2**MAX_TABLE_BITS, so truncation is the floor
    d = guide[(u0 * k).astype(np.intp)]
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
