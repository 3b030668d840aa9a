import math
from fractions import Fraction

import pytest

from newcomb import (
    NewcombScenario,
    PredictionModel,
    compare_to_exact,
    empirical_authority,
    simulate,
)
from newcomb.errors import (
    InvalidModelError,
    PerfectKnowledgeError,
    ZeroSamplesError,
)
from newcomb.montecarlo import MAX_CHUNK_SIZE

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
        assert by_name["p"].stderr == math.sqrt(phat * (1 - phat) / 30_000)
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
        assert twobox.stderr == large * math.sqrt(post2 * (1 - post2) / n_two)

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

    def test_zero_stderr_against_wrong_exact_flags_infinite(
        self, symmetric_tenths
    ):
        report = simulate(symmetric_tenths, samples=1, seed=0)
        rows = compare_to_exact(report, symmetric_tenths)
        by_name = {row.quantity: row for row in rows}
        unavailable = by_name["posterior_full_onebox"]
        assert unavailable.estimate is None
        assert unavailable.deviation_ses is None
        assert not unavailable.flagged
        degenerate = by_name["posterior_full_twobox"]
        assert degenerate.stderr == 0.0
        assert degenerate.deviation_ses == math.inf
        assert degenerate.flagged

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
