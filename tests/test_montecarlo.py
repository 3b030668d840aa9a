import math
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
        # rejected before any draw, so nothing of that size is allocated
        with pytest.raises(InvalidModelError, match="chunk_size"):
            simulate(
                symmetric_tenths,
                samples=10,
                seed=0,
                chunk_size=MAX_CHUNK_SIZE + 1,
            )


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

    @pytest.mark.parametrize(
        "support, samples, seed, chunk_size, expected",
        [
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
        ],
    )
    def test_golden_tally(self, support, samples, seed, chunk_size, expected):
        # pins the (samples, seed, chunk_size) -> tally contract: any
        # change to the Philox keying, the chunking or the counting kernel
        # that alters a single count fails here
        scenario = NewcombScenario(PredictionModel(support), F(1000), F(1000000))
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        report = simulate(scenario, samples=samples, seed=seed, **kwargs)
        assert report.support_counts == expected

    @pytest.mark.parametrize("m", [*range(1, 10), 4099])
    def test_philox_advance_skips_whole_blocks_of_four(self, m):
        # simulate skips row 0 of a one-point chunk this way: advance(m // 4)
        # passes 4 * (m // 4) doubles, and m % 4 more are drawn and unused
        key = np.array([2**63 + 1, 7], dtype=np.uint64)
        full = np.random.Generator(np.random.Philox(key=key)).random(3 * m)
        bitgen = np.random.Philox(key=key)
        bitgen.advance(m // 4)
        rest = np.random.Generator(bitgen).random(m % 4 + 2 * m)
        assert np.array_equal(rest[m % 4 :], full[m:])


class TestKernelCalls:
    """How simulate calls the kernel, which perfbench's tracing relies on.

    perfbench/tracing.py counts one kernels.count span per chunk and
    unpacks (u, cum, omega, counts) from the positional arguments.
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
