from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from newcomb.kernels import count_cells_numpy, guide_table


def tally(u, cum, omega, counts, width=None):
    """count_cells_numpy with a table built for width (default: the chunk)."""
    guide = guide_table(cum, width or max(1, u.shape[1]))
    count_cells_numpy(u, cum, omega, counts, guide=guide)


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
        tally(u, cum, omega, counts)
        assert counts.sum() == 1000
        assert (counts >= 0).all()

    def test_accumulates_in_place(self):
        u, cum, omega, counts = make_inputs(100)
        tally(u, cum, omega, counts)
        first = counts.copy()
        tally(u, cum, omega, counts)
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
        tally(u, cum, omega, counts)
        assert counts[0, 0, 1] == 1  # u=0.0 -> d=0; 0.1 not < 0.1; 0.0999 < 0.1
        assert counts[1, 1, 0] == 1  # u=0.5 -> d=1 exactly at cum[0]; 0.9 not < 0.9
        assert counts[0, 1, 0] == 1  # u=0.4999 -> d=0
        assert counts[1, 1, 1] == 1  # u=0.9999 -> d=1; both flips below 0.9
        assert counts.sum() == 4

    def test_matches_plain_loop(self):
        u, cum, omega, counts = make_inputs(5000, seed=7)
        tally(u, cum, omega, counts)
        reference = np.zeros_like(counts)
        oracle.count_cells_loop(u, cum, omega, reference)
        assert (counts == reference).all()

    def test_single_support_point(self):
        u, cum, omega, counts = make_inputs(256, cum=(1.0,), omega=(0.5,))
        tally(u, cum, omega, counts)
        assert counts.sum() == 256

    def test_single_support_point_never_reads_row_zero(self):
        # simulate does not draw row 0 for a one-point prior, so the
        # kernel must tally from rows 1 and 2 alone
        u, cum, omega, counts = make_inputs(4099, seed=5, cum=(1.0,), omega=(0.3,))
        reference = np.zeros_like(counts)
        oracle.count_cells_loop(u, cum, omega, reference)
        u[0] = np.nan
        count_cells_numpy(u, cum, omega, counts, guide=None)
        assert (counts == reference).all()
        assert counts.sum() == 4099


def cum_from_weights(weights):
    """Cumulative weights as simulate builds them: each exact partial sum
    rounded once, the last set to exactly 1."""
    total = sum(weights)
    partial = 0
    cum = []
    for w in weights:
        partial += w
        cum.append(float(Fraction(partial, total)))
    cum[-1] = 1.0
    return np.array(cum, dtype=np.float64)


# integer weights across 60 binary orders: runs of tiny weights put many
# cum values in one bucket of the guide table, and a tiny last weight
# makes cum[-2] round to 1.0
weights_lists = st.lists(
    st.builds(lambda m, e: m << e, st.integers(1, 7), st.integers(0, 60)),
    min_size=1,
    max_size=40,
)
unit_floats = st.floats(0, 1, exclude_max=True)
# x / 2**b is a bucket edge j/k of every table with k >= 2**b; b runs up
# to the largest table size
bucket_edges = st.builds(
    lambda b, x: (x % (1 << b)) / (1 << b), st.integers(0, 16), st.integers(0)
)


@st.composite
def kernel_inputs(draw):
    """(u, cum, omega): a prior and a block of uniforms on its edges."""
    cum = cum_from_weights(draw(weights_lists))
    n = len(cum)
    omega = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
                min_size=n,
                max_size=n,
            )
        )
    )
    inner = [float(c) for c in cum if c < 1.0]
    on_cum = st.sampled_from(inner) if inner else st.nothing()
    # just below a cum value lies in the point before it
    below_cum = on_cum.map(lambda c: float(np.nextafter(c, 0.0)))
    u0 = draw(st.lists(unit_floats | bucket_edges | on_cum | below_cum, max_size=60))
    # a flip equal to omega is a "no"
    on_omega = sorted({x for x in omega if x < 1.0}) or [0.0]
    flips = unit_floats | st.sampled_from(on_omega)
    rows = [u0] + [
        draw(st.lists(flips, min_size=len(u0), max_size=len(u0))) for _ in (1, 2)
    ]
    return np.array(rows, dtype=np.float64).reshape(3, len(u0)), cum, omega


def edge_block(cum, extra=()):
    """Uniforms on every cum value, just below it, and on bucket edges."""
    inner = [c for c in cum if c < 1.0]
    u0 = [0.0, 0.5, 0.25, 0.75, 1 - 2**-16, 1 - 2**-53, *extra]
    u0 += inner + [float(np.nextafter(c, 0.0)) for c in inner]
    u0 = np.array(u0)
    return np.array([u0, np.roll(u0, 1), np.roll(u0, 2)])


CLUSTERED = cum_from_weights([2**40] + [1] * 30 + [2**40])
ROUNDS_TO_ONE = cum_from_weights([2**58, 2**58, 1])


class TestExactness:
    @given(kernel_inputs())
    # one support point
    @example((edge_block([1.0]), np.array([1.0]), np.array([0.5])))
    # omega 0 and 1 beside an interior point
    @example(
        (
            edge_block([0.25, 0.5, 1.0], extra=(0.1, 0.6)),
            np.array([0.25, 0.5, 1.0]),
            np.array([0.0, 0.1, 1.0]),
        )
    )
    # 31 distinct cum values within 2**-35 of 1/2
    @example(
        (edge_block(CLUSTERED), CLUSTERED, np.linspace(0.0, 1.0, len(CLUSTERED)))
    )
    # cum[-2] rounds to 1.0, so the last points are never drawn
    @example((edge_block(ROUNDS_TO_ONE), ROUNDS_TO_ONE, np.array([0.2, 0.5, 0.8])))
    def test_equals_plain_loop(self, case):
        u, cum, omega = case
        reference = np.zeros((len(cum), 2, 2), dtype=np.int64)
        oracle.count_cells_loop(u, cum, omega, reference)
        # a table built for this chunk, and the largest one, which simulate
        # also hands its shorter tail chunk
        for width in (None, 1 << 18):
            counts = np.zeros_like(reference)
            tally(u, cum, omega, counts, width)
            assert (counts == reference).all()
            assert counts.sum() == u.shape[1]

    def test_example_priors_have_their_shape(self):
        assert len(set(CLUSTERED[:-1])) == 31
        assert CLUSTERED[-2] - CLUSTERED[0] < 2**-35
        assert ROUNDS_TO_ONE[0] < ROUNDS_TO_ONE[1] == ROUNDS_TO_ONE[2] == 1.0

    def test_most_samples_taking_the_fallback(self, monkeypatch):
        # every u in [0.3, 0.3 + 2**-18) lies above cum[0] = 0.3 in the
        # bucket of every table of up to 2**16 buckets that holds 0.3, so
        # the table points it at d = 0 and the binary search must fix it
        m = 4096
        rng = np.random.Generator(np.random.Philox(key=3))
        u = rng.random((3, m))
        u[0, : m * 9 // 10] = 0.3 + u[0, : m * 9 // 10] * 2**-18
        cum = np.array([0.3, 1.0])
        omega = np.array([0.2, 0.7])
        searched = []
        honest = np.searchsorted

        def spy(a, v, *args, **kwargs):
            searched.append(np.size(v))
            return honest(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        counts = np.zeros((2, 2, 2), dtype=np.int64)
        tally(u, cum, omega, counts)
        monkeypatch.undo()
        # the table has a power-of-two size; the fallback is most of m
        assert any(m // 2 < size < m for size in searched), searched
        reference = np.zeros_like(counts)
        oracle.count_cells_loop(u, cum, omega, reference)
        assert (counts == reference).all()
        assert counts[1].sum() >= m * 9 // 10

    def test_fallback_share_on_a_300_point_chunk(self, monkeypatch):
        # pins how many samples the guide table sends to searchsorted on
        # one fixed 2^18 chunk: the tally cannot show a table that stops
        # working, only this count can (all 2^18 for guide[u0 // k])
        m = 1 << 18
        cum = cum_from_weights(range(1, 301))
        omega = np.linspace(0.0, 1.0, 300)
        u, cum, omega, counts = make_inputs(m, seed=11, cum=cum, omega=omega)
        guide = guide_table(cum, m)
        assert len(guide) == 1 << 14
        searched = []
        honest = np.searchsorted

        def spy(a, v, *args, **kwargs):
            searched.append(np.size(v))
            return honest(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        count_cells_numpy(u, cum, omega, counts, guide=guide)
        monkeypatch.undo()
        # 0.92% of the chunk, near the 300 / (2 * 2^14) a cut point's
        # bucket share predicts
        assert searched == [2420]
        assert counts.sum() == m
