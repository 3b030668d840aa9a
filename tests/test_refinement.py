from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from newcomb import (
    PredictionModel,
    RefinementModel,
    check_delta_omniscience,
    coarsen,
    variance_decomposition,
)
from newcomb.errors import DeltaOutOfRangeError, InvalidPartitionError
from strategies import refinement_models

F = Fraction
HALF = F(1, 2)
QUARTER = F(1, 4)


def tenths_fine() -> PredictionModel:
    return PredictionModel(
        (
            (F(1, 10), QUARTER),
            (F(3, 10), QUARTER),
            (F(7, 10), QUARTER),
            (F(9, 10), QUARTER),
        )
    )


class TestConstruction:
    def test_blocks_are_canonicalized(self):
        model = tenths_fine()
        rm = RefinementModel(fine=model, blocks=((3, 2), (1, 0)))
        assert rm.blocks == ((0, 1), (2, 3))
        assert rm == RefinementModel(fine=model, blocks=((0, 1), (2, 3)))

    @pytest.mark.parametrize(
        "blocks",
        [
            (),
            ((0, 1),),
            ((0, 1), (2,)),
            ((0, 1), (2, 3), (3,)),
            ((0, 1), (2, 3, 4)),
            ((0, 1), (), (2, 3)),
            ((0, 1), (2, -1)),
            ((0, 1), (2, True)),
            ((0, 1), (2, F(3))),
            # a block that is not a sequence of indices
            (5,),
        ],
    )
    def test_non_partitions_rejected(self, blocks):
        with pytest.raises(InvalidPartitionError):
            RefinementModel(fine=tenths_fine(), blocks=blocks)

    def test_fine_must_be_a_model(self):
        with pytest.raises(InvalidPartitionError):
            RefinementModel(fine="nope", blocks=((0,),))


class TestCoarsen:
    def test_worked_example(self):
        rm = RefinementModel(fine=tenths_fine(), blocks=((0, 1), (2, 3)))
        coarse = coarsen(rm)
        assert coarse.support == ((F(1, 5), HALF), (F(4, 5), HALF))

    def test_singleton_blocks_change_nothing(self):
        model = tenths_fine()
        rm = RefinementModel(fine=model, blocks=((0,), (1,), (2,), (3,)))
        assert coarsen(rm) == model

    def test_single_block_collapses_to_the_mean(self):
        rm = RefinementModel(fine=tenths_fine(), blocks=((0, 1, 2, 3),))
        coarse = coarsen(rm)
        assert coarse.support == ((HALF, F(1)),)
        assert coarse.variance == 0

    def test_equal_block_means_merge(self):
        model = PredictionModel(
            ((F(0), F(1, 3)), (HALF, F(1, 3)), (F(1), F(1, 3)))
        )
        rm = RefinementModel(fine=model, blocks=((0, 2), (1,)))
        coarse = coarsen(rm)
        assert coarse.support == ((HALF, F(1)),)

    @given(refinement_models())
    @settings(max_examples=60)
    def test_matches_enumeration(self, rm):
        """Block means and masses agree with first-principles sums."""
        coarse = coarsen(rm)
        assert coarse.support == tuple(
            oracle.coarsen_support(rm.fine.support, rm.blocks)
        )
        assert coarse.p == rm.fine.p


class TestVarianceDecomposition:
    def test_worked_example(self):
        rm = RefinementModel(fine=tenths_fine(), blocks=((0, 1), (2, 3)))
        parts = variance_decomposition(rm)
        assert parts.fine_variance == F(1, 10)
        assert parts.coarse_variance == F(9, 100)
        assert parts.expected_conditional_variance == F(1, 100)

    @given(refinement_models())
    @settings(max_examples=60)
    def test_identity_and_monotonicity(self, rm):
        """Refining splits variance exactly; coarsening never gains any."""
        parts = variance_decomposition(rm)
        assert (
            parts.fine_variance
            == parts.coarse_variance + parts.expected_conditional_variance
        )
        assert parts.expected_conditional_variance == (
            oracle.expected_conditional_variance(rm.fine.support, rm.blocks)
        )
        assert parts.coarse_variance <= parts.fine_variance
        assert parts.expected_conditional_variance >= 0


class TestDeltaOmniscience:
    def test_worked_example(self):
        model = PredictionModel(((F(1, 100), HALF), (F(99, 100), HALF)))
        report = check_delta_omniscience(model, F(1, 100))
        assert report.is_omniscient
        assert report.variance_lower_bound == F(230249, 1000000)
        assert report.actual_variance == F(2401, 10000)
        assert report.actual_variance >= report.variance_lower_bound

    def test_tighter_delta_fails(self):
        model = PredictionModel(((F(1, 100), HALF), (F(99, 100), HALF)))
        assert not check_delta_omniscience(model, F(1, 200)).is_omniscient

    def test_excluded_region_is_open(self):
        model = PredictionModel(((QUARTER, HALF), (F(3, 4), HALF)))
        assert check_delta_omniscience(model, QUARTER).is_omniscient

    def test_delta_zero_means_only_certainty_counts(self):
        certain = PredictionModel(((F(0), HALF), (F(1), HALF)))
        assert check_delta_omniscience(certain, F(0)).is_omniscient
        hedged = PredictionModel(((F(0), HALF), (F(9, 10), HALF)))
        assert not check_delta_omniscience(hedged, F(0)).is_omniscient

    @pytest.mark.parametrize("delta", [F(-1, 10), HALF, F(9, 10)])
    def test_delta_range_enforced(self, delta):
        model = PredictionModel(((QUARTER, HALF), (F(3, 4), HALF)))
        with pytest.raises(DeltaOutOfRangeError):
            check_delta_omniscience(model, delta)

    def test_perfect_prior_admits_no_delta(self):
        model = PredictionModel(((F(1), F(1)),))
        with pytest.raises(DeltaOutOfRangeError):
            check_delta_omniscience(model, F(0))

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=40),
        st.fractions(min_value=0, max_value=1, max_denominator=40),
    )
    def test_bound_dominates_linear_form(self, p, delta):
        """(1-d)^2 (p-d) - p^2 >= p(1-p) - 3d for all p, d in [0, 1]."""
        bound = oracle.omniscience_bound(((p, F(1)),), delta)
        assert bound >= p * (1 - p) - 3 * delta

    @given(st.fractions(min_value=F(1, 100), max_value=F(49, 100), max_denominator=200))
    def test_two_point_family_meets_its_bound(self, delta):
        """The {delta, 1-delta} prior is delta-omniscient and obeys the bound."""
        model = PredictionModel(((delta, HALF), (1 - delta, HALF)))
        report = check_delta_omniscience(model, delta)
        assert report.is_omniscient
        assert report.actual_variance == (HALF - delta) ** 2
        assert report.actual_variance >= report.variance_lower_bound
