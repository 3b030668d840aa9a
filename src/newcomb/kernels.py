"""Counting kernel for the simulator.

The kernel consumes a (3, m) block of uniforms and tallies samples into
an (n, 2, 2) int64 tensor indexed by (support point, decision, box
full). Row 0 of the uniforms selects the support point by inverse CDF,
row 1 flips the decision coin, row 2 flips the box-filling coin.
"""

from __future__ import annotations

import numpy as np


def count_cells_numpy(
    u: np.ndarray, cum: np.ndarray, omega: np.ndarray, counts: np.ndarray
) -> None:
    """Vectorized tally. Adds into counts in place."""
    d = np.searchsorted(cum, u[0], side="right")
    om = omega[d]
    dec = (u[1] < om).astype(np.int64)
    box = (u[2] < om).astype(np.int64)
    flat = d * 4 + dec * 2 + box
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)
