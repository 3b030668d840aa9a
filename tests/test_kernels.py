import numpy as np

import oracle
from newcomb.kernels import count_cells_numpy


def make_inputs(m, seed=0, cum=(0.5, 1.0), omega=(0.1, 0.9)):
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((3, m))
    return (
        u,
        np.asarray(cum, dtype=np.float64),
        np.asarray(omega, dtype=np.float64),
        np.zeros((len(cum), 2, 2), dtype=np.int64),
    )


class TestNumpyKernel:
    def test_counts_total(self):
        u, cum, omega, counts = make_inputs(1000)
        count_cells_numpy(u, cum, omega, counts)
        assert counts.sum() == 1000
        assert (counts >= 0).all()

    def test_accumulates_in_place(self):
        u, cum, omega, counts = make_inputs(100)
        count_cells_numpy(u, cum, omega, counts)
        first = counts.copy()
        count_cells_numpy(u, cum, omega, counts)
        assert (counts == 2 * first).all()

    def test_exact_boundary_values(self):
        # u on row 0 at 0.0 lands in the first bin, at cum[0] in the
        # second (right-open bins); u on rows 1/2 below omega means yes
        u = np.array(
            [
                [0.0, 0.5, 0.4999, 0.9999],
                [0.1, 0.1, 0.0, 0.8999],
                [0.0999, 0.9, 0.1, 0.85],
            ]
        )
        cum = np.array([0.5, 1.0])
        omega = np.array([0.1, 0.9])
        counts = np.zeros((2, 2, 2), dtype=np.int64)
        count_cells_numpy(u, cum, omega, counts)
        assert counts[0, 0, 1] == 1  # u=0.0 -> d=0; 0.1 not < 0.1; 0.0999 < 0.1
        assert counts[1, 1, 0] == 1  # u=0.5 -> d=1 exactly at cum[0]; 0.9 not < 0.9
        assert counts[0, 1, 0] == 1  # u=0.4999 -> d=0
        assert counts[1, 1, 1] == 1  # u=0.9999 -> d=1; both flips below 0.9
        assert counts.sum() == 4

    def test_matches_plain_loop(self):
        u, cum, omega, counts = make_inputs(5000, seed=7)
        count_cells_numpy(u, cum, omega, counts)
        reference = np.zeros_like(counts)
        oracle.count_cells_loop(u, cum, omega, reference)
        assert (counts == reference).all()

    def test_single_support_point(self):
        u, cum, omega, counts = make_inputs(256, cum=(1.0,), omega=(0.5,))
        count_cells_numpy(u, cum, omega, counts)
        assert counts.sum() == 256
