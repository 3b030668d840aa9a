import hashlib
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from newcomb import (
    NewcombScenario,
    PredictionModel,
    SimulationReport,
    compare_to_exact,
    empirical_authority,
    montecarlo,
    simulate,
)
from newcomb.errors import (
    InvalidModelError,
    PerfectKnowledgeError,
    ZeroSamplesError,
)
from newcomb.montecarlo import MAX_CHUNK_SIZE, RNG_ALGORITHM

F = Fraction


# (support, samples, seed, chunk_size or None for the default, tally)
GOLDEN = [
    # 2 points, short tail chunk
    (
        ((F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))),
        10_001, 3, 4096,
        (((3991, 481), (469, 33)), ((48, 388), (464, 4127))),
    ),
    # 2 points, default chunk size, short tail chunk
    (
        ((F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))),
        300_000, 5, None,
        (
            ((121774, 13515), (13357, 1510)),
            ((1500, 13552), (13415, 121377)),
        ),
    ),
    # 1 point
    (
        ((F(1, 2), F(1)),),
        5_000, 1, 1024,
        (((1250, 1226), (1255, 1269)),),
    ),
    # 3 points including the certainty points, largest seed
    (
        ((F(0), F(1, 4)), (F(1, 2), F(3, 8)), (F(1), F(3, 8))),
        20_000, 2**64 - 1, 3000,
        (
            ((5026, 0), (0, 0)),
            ((1895, 1860), (1930, 1879)),
            ((0, 0), (0, 7410)),
        ),
    ),
    # two full chunks and a 3-sample tail through one draw buffer
    (
        ((F(0), F(1, 4)), (F(1, 3), F(1, 3)), (F(5, 6), F(5, 12))),
        2_003, 17, 1000,
        (
            ((503, 0), (0, 0)),
            ((274, 139), (158, 73)),
            ((19, 122), (121, 594)),
        ),
    ),
    # 1 point, chunks of 1: each draws 3 doubles and skips none
    (
        ((F(1, 3), F(1)),),
        101, 9, 1,
        (((38, 31), (27, 5)),),
    ),
    # 1 point, chunks of 4096 (row 0 skipped in whole blocks) and
    # a tail of 1810, 2 mod 4
    (
        ((F(1, 3), F(1)),),
        10_002, 4, 4096,
        (((4478, 2242), (2186, 1096)),),
    ),
    # 1 point, default chunk size, a tail of 37859, 3 mod 4
    (
        ((F(1, 3), F(1)),),
        300_003, 2**63 + 1, None,
        (((133707, 66731), (66369, 33196)),),
    ),
    # 2 points, chunks of 1
    (
        ((F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))),
        2_003, 8, 1,
        (((842, 110), (97, 6)), ((15, 80), (83, 770))),
    ),
    # 1 point, default chunk size, a tail of 98307, 3 mod 4, wide enough
    # to be drawn and counted in three pieces
    (
        ((F(1, 3), F(1)),),
        360_451, 6, None,
        (((160228, 80498), (79575, 40150)),),
    ),
    # chunks of 65537 and 65539, each counted in blocks: rows 1 and 2
    # start at doubles 1 and 2 mod 4, then 3 and 2 mod 4
    (
        ((F(1, 3), F(1)),),
        131_076, 12, 65_537,
        (((58183, 29244), (28852, 14797)),),
    ),
    (
        ((F(1, 10), F(1, 2)), (F(9, 10), F(1, 2))),
        131_076, 13, 65_537,
        (((52825, 5810), (5994, 633)), ((643, 5945), (5820, 53406))),
    ),
]


# 300 points, point d at omega d/299: each tally is pinned by its summed
# cells and a digest of every count in support order
SUPPORT_300 = tuple((F(d, 299), F(1, 300)) for d in range(300))
GOLDEN_300 = [
    # two chunks of the default size, split, and a tail of 75715, 3 mod 4
    (600_003, 21, None, ((200296, 99365), (99719, 200623)), "350e0ccf9957455d"),
    (10_003, 22, 4096, ((3354, 1676), (1707, 3266)), "356b3fd0f92a3aa8"),
    (2_002, 23, 1, ((668, 350), (342, 642)), "53a86acfa0cae256"),
]


def digest(report):
    flat = ",".join(
        str(x) for cell in report.support_counts for row in cell for x in row
    )
    return hashlib.sha256(flat.encode()).hexdigest()[:16]


def run_golden(support, samples, seed, chunk_size):
    scenario = NewcombScenario(PredictionModel(support), F(1000), F(1000000))
    kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    return simulate(scenario, samples=samples, seed=seed, **kwargs)


class TestValidation:
    def test_samples_must_be_positive(self, symmetric_tenths):
        for bad in (0, -5, 2.0, True, "10"):
            with pytest.raises(ZeroSamplesError):
                simulate(symmetric_tenths, samples=bad, seed=0)

    def test_seed_range(self, symmetric_tenths):
        for bad in (-1, 2**64, 0.5, False):
            with pytest.raises(InvalidModelError):
                simulate(symmetric_tenths, samples=10, seed=bad)
        simulate(symmetric_tenths, samples=10, seed=2**64 - 1)

    def test_chunk_size_must_be_positive(self, symmetric_tenths):
        with pytest.raises(InvalidModelError):
            simulate(symmetric_tenths, samples=10, seed=0, chunk_size=0)

    def test_chunk_size_is_capped(self, symmetric_tenths):
        # the documented cap, 2^22, as a literal: reading it back from the
        # module would let a changed cap pass
        assert MAX_CHUNK_SIZE == 4194304
        # rejected before any draw, so nothing of that size is allocated
        with pytest.raises(InvalidModelError, match="chunk_size"):
            simulate(symmetric_tenths, samples=10, seed=0, chunk_size=4194305)
        # the cap itself is allowed; 10 samples fill one chunk of 10
        simulate(symmetric_tenths, samples=10, seed=0, chunk_size=4194304)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, symmetric_tenths):
        a = simulate(symmetric_tenths, samples=50_000, seed=11)
        b = simulate(symmetric_tenths, samples=50_000, seed=11)
        assert a == b

    def test_seeds_differ(self, symmetric_tenths):
        a = simulate(symmetric_tenths, samples=50_000, seed=11)
        b = simulate(symmetric_tenths, samples=50_000, seed=12)
        assert a != b

    def test_chunking_only_regroups_the_same_stream(self, symmetric_tenths):
        # same chunk_size, samples not a multiple of it: the short tail
        # chunk must not disturb determinism
        a = simulate(symmetric_tenths, samples=10_001, seed=3, chunk_size=4096)
        b = simulate(symmetric_tenths, samples=10_001, seed=3, chunk_size=4096)
        assert a == b
        assert a.samples == 10_001

    @pytest.mark.parametrize("support, samples, seed, chunk_size, expected", GOLDEN)
    def test_golden_tally(self, support, samples, seed, chunk_size, expected):
        # pins the (samples, seed, chunk_size) -> tally contract: any
        # change to the Philox keying, the chunking or the counting kernel
        # that alters a single count fails here
        report = run_golden(support, samples, seed, chunk_size)
        assert report.support_counts == expected

    @pytest.mark.parametrize("m", [*range(10), 4099, 65537])
    def test_philox_advance_skips_whole_blocks_of_four(self, m):
        # simulate starts each row's generator at double m of the chunk's
        # stream this way: advance(m // 4) passes 4 * (m // 4) doubles,
        # and m % 4 more are drawn and dropped
        key = np.array([2**63 + 1, 7], dtype=np.uint64)
        full = np.random.Generator(np.random.Philox(key=key)).random(m + 9)
        bitgen = np.random.Philox(key=key)
        bitgen.advance(m // 4)
        rest = np.random.Generator(bitgen).random(m % 4 + 9)
        assert np.array_equal(rest[m % 4 :], full[m:])
        assert np.array_equal(montecarlo._generator(key, m).random(9), full[m:])


class TestKernelCalls:
    """How simulate calls the kernel, which perfbench's tracing relies on.

    perfbench/tracing.py counts one kernels.count span per kernel call
    and unpacks (u, cum, omega, counts) from the positional arguments.
    Every call gets one block of at most 2^15 columns: a chunk that
    narrow is one call, and a wider one a call per block of each of its
    pieces (TestSplit). So the traced montecarlo.chunks counts blocks,
    not chunks.
    """

    @pytest.mark.parametrize("points", [1, 2, 300])
    def test_one_call_per_chunk_with_four_positional_arguments(
        self, points, monkeypatch
    ):
        support = tuple((F(i, points), F(1, points)) for i in range(points))
        scenario = NewcombScenario(PredictionModel(support), F(1), F(2))
        honest = montecarlo.count_cells_numpy
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, sorted(kwargs)))
            return honest(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "count_cells_numpy", recording)
        report = simulate(scenario, samples=10_003, seed=5, chunk_size=4096)
        assert len(calls) == 3
        for (args, keywords), m in zip(calls, (4096, 4096, 1811)):
            assert len(args) == 4
            assert keywords == ["guide"]
            u = args[0]
            assert isinstance(u, np.ndarray) and u.shape == (3, m)
        monkeypatch.undo()
        assert simulate(scenario, samples=10_003, seed=5, chunk_size=4096) == report

    @pytest.mark.parametrize("points", [1, 2])
    def test_wide_chunks_are_counted_in_blocks(self, points, cpus, monkeypatch):
        # a chunk of 65537 in two pieces, [0, 32768) and [32768, 65537),
        # then a tail of 34466 in one; each row of a piece has its own
        # generator, started at double row * m + a of the chunk's stream
        support = tuple((F(i, points), F(1, points)) for i in range(points))
        scenario = NewcombScenario(PredictionModel(support), F(1), F(2))
        blocks = []
        starts = []
        honest_kernel = montecarlo.count_cells_numpy
        honest_generator = montecarlo._generator

        def kernel(u, cum, omega, counts, *, guide):
            blocks.append((id(counts), u.shape[1]))
            honest_kernel(u, cum, omega, counts, guide=guide)

        def generator(key, pos):
            starts.append((int(key[1]), pos))
            return honest_generator(key, pos)

        monkeypatch.setattr(montecarlo, "count_cells_numpy", kernel)
        monkeypatch.setattr(montecarlo, "_generator", generator)
        cpus(2)
        simulate(scenario, samples=100_003, seed=5, chunk_size=65_537)
        rows = (1, 2) if points == 1 else (0, 1, 2)
        assert sorted(starts) == sorted(
            [(0, r * 65537 + a) for r in rows for a in (0, 32768)]
            + [(1, r * 34466) for r in rows]
        )
        # the first piece of each chunk counts into one tally, the second
        # into its own
        widths = {}
        for tally, w in blocks:
            widths.setdefault(tally, []).append(w)
        assert sorted(sorted(ws) for ws in widths.values()) == [
            [1, 32768],
            [1698, 32768, 32768],
        ]


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs simulate sees as usable."""

    def force(n):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: n)

    return force


class TestSplit:
    """A chunk drawn and counted in pieces on several threads.

    The pieces cut the chunk's columns anywhere, and each row of a piece
    draws from its own generator, started at that column's double of the
    chunk's stream; the tally must be the one a single piece gives.
    """

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("support, samples, seed, chunk_size, expected", GOLDEN)
    def test_golden_tally_at_any_part_count(
        self, parts, support, samples, seed, chunk_size, expected, cpus
    ):
        cpus(parts)
        report = run_golden(support, samples, seed, chunk_size)
        assert report.support_counts == expected

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("samples, seed, chunk_size, cells, expected", GOLDEN_300)
    def test_300_point_tally_at_any_part_count(
        self, parts, samples, seed, chunk_size, cells, expected, cpus
    ):
        cpus(parts)
        report = run_golden(SUPPORT_300, samples, seed, chunk_size)
        assert report.cell_counts == cells
        assert digest(report) == expected

    @pytest.mark.parametrize("points", [1, 2, 300])
    @pytest.mark.parametrize("samples", range(4096, 4100))
    def test_pieces_of_any_width_give_the_same_tally(
        self, points, samples, cpus, monkeypatch
    ):
        # pieces and blocks as narrow as one sample, so rows start at
        # every position mod 4: chunks of 1365 (1 mod 4) and a tail of 1
        # to 4 samples
        support = tuple((F(d, points), F(1, points)) for d in range(points))
        scenario = NewcombScenario(PredictionModel(support), F(1), F(2))
        cpus(1)
        whole = simulate(scenario, samples=samples, seed=7, chunk_size=1365)
        cpus(3)
        monkeypatch.setattr(montecarlo, "MIN_PART_WIDTH", 1)
        assert simulate(scenario, samples=samples, seed=7, chunk_size=1365) == whole

    @pytest.mark.parametrize("points", [1, 300])
    def test_more_threads_than_cpus_switching_fast(self, points, cpus, monkeypatch):
        # eight pieces per chunk, more than there are CPUs, and a thread
        # switch every microsecond: a piece that wrote outside its slice,
        # or a tally update lost between threads, would move a count
        support = tuple((F(d, points), F(1, points)) for d in range(points))
        scenario = NewcombScenario(PredictionModel(support), F(1), F(2))
        cpus(1)
        whole = simulate(scenario, samples=50_001, seed=3, chunk_size=4099)
        cpus(8)
        # pieces of about 512 columns, counted in blocks of 100
        monkeypatch.setattr(montecarlo, "MIN_PART_WIDTH", 100)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = simulate(scenario, samples=50_001, seed=3, chunk_size=4099)
        finally:
            sys.setswitchinterval(interval)
        assert split == whole

    def test_part_width_is_pinned(self):
        # a literal, as for the chunk cap: chunks narrower than 2^16 run
        # in one piece, so chunk sizes 1 and 4096 never start a pool
        assert montecarlo.MIN_PART_WIDTH == 32768

    def test_narrow_chunks_run_in_one_piece(self, cpus, monkeypatch):
        cpus(4)
        support = ((F(1, 10), F(1, 2)), (F(9, 10), F(1, 2)))
        scenario = NewcombScenario(PredictionModel(support), F(1), F(2))
        honest = montecarlo.count_cells_numpy
        blocks = []

        def recording(*args, **kwargs):
            assert len(args) == 4 and sorted(kwargs) == ["guide"]
            blocks.append((args[0].shape, id(args[3])))
            return honest(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "count_cells_numpy", recording)
        simulate(scenario, samples=2 * 65535, seed=5, chunk_size=65535)
        # one piece, counted in two blocks, all into one tally
        assert [shape for shape, _ in blocks] == [(3, 32768), (3, 32767)] * 2
        assert len({tally for _, tally in blocks}) == 1
        blocks.clear()
        # 2^16 is two pieces of 2^15 however many CPUs there are, and a
        # tail chunk narrower than 2^16 is one piece
        simulate(scenario, samples=65536 + 40000, seed=5, chunk_size=65536)
        assert sorted(shape for shape, _ in blocks) == [
            (3, 7232), (3, 32768), (3, 32768), (3, 32768)
        ]
        # the pieces of a chunk count at once, so each into its own tally
        assert len({tally for _, tally in blocks[:2]}) == 2

    def test_one_point_draws_skip_row_zero(self, cpus, monkeypatch):
        # the stream position, of the chunk's 3m doubles, where each
        # generator starts: a chunk of at most 2^15 is drawn from one
        # generator, skipping row 0 down to its last m % 4 doubles; a
        # wider one has a generator for each of rows 1 and 2 per piece
        scenario = NewcombScenario(PredictionModel(((F(1, 3), F(1)),)), F(1), F(2))
        honest = montecarlo._generator
        starts = []

        def recording(key, pos):
            starts.append((int(key[1]), pos))
            return honest(key, pos)

        monkeypatch.setattr(montecarlo, "_generator", recording)
        cpus(2)
        simulate(scenario, samples=10_002, seed=4, chunk_size=4096)
        assert starts == [(0, 4096), (1, 4096), (2, 1808)]
        starts.clear()
        simulate(scenario, samples=65536 + 3, seed=4, chunk_size=65536)
        assert sorted(starts) == [
            (0, 65536), (0, 98304), (0, 131072), (0, 163840), (1, 0)
        ]

    def test_threads_end_with_the_call(self, cpus, symmetric_tenths):
        cpus(3)
        before = threading.active_count()
        simulate(symmetric_tenths, samples=300_000, seed=1)
        assert threading.active_count() == before

    def test_error_in_a_worker_propagates(self, cpus, symmetric_tenths, monkeypatch):
        cpus(2)
        honest = montecarlo.count_cells_numpy

        def broken(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("kernel failed in a worker")
            return honest(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "count_cells_numpy", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="kernel failed in a worker"):
            simulate(symmetric_tenths, samples=300_000, seed=1)
        assert threading.active_count() == before

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert montecarlo._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert montecarlo._usable_cpus() == (os.cpu_count() or 1)


class TestMemory:
    @pytest.mark.parametrize("points", [1, 300])
    def test_a_chunk_at_the_cap_is_drawn_in_blocks(self, points):
        # numpy reports its buffers to tracemalloc: a chunk of 2^22 drawn
        # at once would hold 3 * 2^22 doubles, about 100 MB
        support = tuple((F(d, points), F(1, points)) for d in range(points))
        scenario = NewcombScenario(PredictionModel(support), F(1), F(2))
        tracemalloc.start()
        try:
            simulate(scenario, samples=MAX_CHUNK_SIZE, seed=1, chunk_size=MAX_CHUNK_SIZE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestReport:
    def test_counts_add_up(self, symmetric_tenths):
        report = simulate(symmetric_tenths, samples=30_000, seed=1)
        total = sum(
            cell[dec][box]
            for cell in report.support_counts
            for dec in (0, 1)
            for box in (0, 1)
        )
        assert total == 30_000
        cells = report.cell_counts
        assert sum(cells[d][b] for d in (0, 1) for b in (0, 1)) == 30_000

    def test_estimates_derive_from_counts(self, symmetric_tenths):
        report = simulate(symmetric_tenths, samples=30_000, seed=1)
        rows = compare_to_exact(report, symmetric_tenths)
        by_name = {row.quantity: row for row in rows}
        (two_empty, two_full), (one_empty, one_full) = report.cell_counts
        n_one = one_empty + one_full
        phat = n_one / 30_000
        assert by_name["p"].estimate == phat
        # standard errors are taken at the exact proportion: p = 1/2 here
        assert by_name["p"].stderr == math.sqrt(0.25 / 30_000)
        assert by_name["prior_box_full"].estimate == (one_full + two_full) / 30_000
        post = one_full / n_one
        assert by_name["posterior_full_onebox"].estimate == post
        large = float(symmetric_tenths.large_reward)
        small = float(symmetric_tenths.small_reward)
        assert by_name["expected_reward_onebox"].estimate == large * post
        n_two = two_empty + two_full
        post2 = two_full / n_two
        twobox = by_name["expected_reward_twobox"]
        assert twobox.estimate == large * post2 + small
        exact2 = F(9, 50)  # P(full | two-box) for omega in {1/10, 9/10}
        assert twobox.stderr == large * math.sqrt(float(exact2 * (1 - exact2)) / n_two)

    def test_empty_branch_reports_none_not_zero(self, symmetric_tenths):
        report = simulate(symmetric_tenths, samples=1, seed=0)
        rows = compare_to_exact(report, symmetric_tenths)
        by_name = {row.quantity: row for row in rows}
        for name in ("posterior_full_onebox", "expected_reward_onebox"):
            assert by_name[name].estimate is None
            assert by_name[name].stderr is None
        for name in ("posterior_full_twobox", "expected_reward_twobox"):
            assert by_name[name].estimate is not None

    def test_certain_predictor_never_two_boxes(self):
        model = PredictionModel(((F(1), F(1)),))
        scenario = NewcombScenario(model, F(1), F(2))
        report = simulate(scenario, samples=1000, seed=42)
        assert report.cell_counts[0] == (0, 0)
        assert report.cell_counts[1] == (0, 1000)
        with pytest.raises(PerfectKnowledgeError):
            compare_to_exact(report, scenario)

    def test_empirical_authority_tracks_omega(self, symmetric_tenths):
        report = simulate(symmetric_tenths, samples=1_000_000, seed=0)
        freqs = empirical_authority(report)
        for (omega, _), freq in zip(
            symmetric_tenths.prediction.support, freqs
        ):
            assert abs(freq - float(omega)) < 0.005


class TestComparison:
    def test_large_run_sits_within_four_ses(self, symmetric_tenths):
        report = simulate(symmetric_tenths, samples=1_000_000, seed=0)
        rows = compare_to_exact(report, symmetric_tenths)
        assert [row.quantity for row in rows] == [
            "p",
            "prior_box_full",
            "posterior_full_onebox",
            "posterior_full_twobox",
            "expected_reward_onebox",
            "expected_reward_twobox",
        ]
        for row in rows:
            assert row.deviation_ses is not None
            assert not row.flagged, row

    def test_flag_threshold_is_respected(self, symmetric_tenths):
        # 10001 is odd, so the estimate of p cannot hit 1/2 exactly and
        # its deviation is strictly positive
        report = simulate(symmetric_tenths, samples=10_001, seed=2)
        rows = compare_to_exact(report, symmetric_tenths, flag_threshold=0.0)
        by_name = {row.quantity: row for row in rows}
        assert by_name["p"].flagged

    def test_single_sample_branch_is_not_flagged(self, symmetric_tenths):
        # one sample: the one-box branch is empty, and the two-box
        # proportion is 0 or 1, whose plug-in standard error would be 0
        report = simulate(symmetric_tenths, samples=1, seed=0)
        rows = compare_to_exact(report, symmetric_tenths)
        by_name = {row.quantity: row for row in rows}
        unavailable = by_name["posterior_full_onebox"]
        assert unavailable.estimate is None
        assert unavailable.deviation_ses is None
        assert not unavailable.flagged
        single = by_name["posterior_full_twobox"]
        assert single.estimate in (0.0, 1.0)
        # the standard error at the exact 9/50
        assert single.stderr == math.sqrt(float(F(9, 50) * F(41, 50)))
        assert single.deviation_ses == abs(single.estimate - 0.18) / single.stderr
        assert not single.flagged

    def test_zero_stderr_against_wrong_exact_flags_infinite(self):
        # omega in {0, 1}: every one-box sample has a full box and every
        # two-box sample an empty one, so both posteriors are exactly 1
        # and 0 and have no variance; a single sample off them is a fault
        model = PredictionModel(((F(0), F(1, 2)), (F(1), F(1, 2))))
        scenario = NewcombScenario(model, F(1), F(2))

        def rows_for(counts):
            report = SimulationReport(10, 0, 10, RNG_ALGORITHM, counts)
            return {row.quantity: row for row in compare_to_exact(report, scenario)}

        honest = rows_for((((5, 0), (0, 0)), ((0, 0), (0, 5))))
        faulty = rows_for((((4, 1), (0, 0)), ((0, 0), (1, 4))))
        for name in (
            "posterior_full_onebox",
            "posterior_full_twobox",
            "expected_reward_onebox",
            "expected_reward_twobox",
        ):
            assert honest[name].stderr == faulty[name].stderr == 0.0
            assert honest[name].deviation_ses == 0.0
            assert not honest[name].flagged
            assert faulty[name].deviation_ses == math.inf
            assert faulty[name].flagged

    def test_errors_shrink_like_root_n(self, symmetric_tenths):
        """100x the samples cuts the mean absolute error about 10x."""
        exact = 0.5

        def p_error(samples, seed):
            report = simulate(symmetric_tenths, samples, seed)
            row = compare_to_exact(report, symmetric_tenths)[0]
            assert row.quantity == "p"
            return abs(row.estimate - exact)

        small = [p_error(10_000, seed) for seed in range(10)]
        big = [p_error(1_000_000, seed) for seed in range(10)]
        ratio = (sum(small) / len(small)) / (sum(big) / len(big))
        assert 3 < ratio < 40, ratio
