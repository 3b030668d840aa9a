from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from newcomb.dist import FiniteDist
from newcomb.errors import (
    EmptyDistributionError,
    InvalidModelError,
    NegativeWeightError,
    ZeroProbabilityEventError,
    ZeroTotalWeightError,
)

F = Fraction

# 1/(3...3) + 1/(7...7): each term prints, but the sum's reduced
# denominator has about 6000 digits, past Python's int-string limit
LONG_SUM_TERMS = (F(1, int("3" * 3000)), F(1, int("7" * 3001)))

# weights that are not exact rationals: coercing any of them would
# launder rounding error or text parsing into exact arithmetic
INEXACT_WEIGHTS = [0.5, "1/2", True, Decimal("0.5")]

# every outcome the strategies draw, plus one they never do
OUTCOMES = "abcdez"

raw_weightings = st.lists(
    st.tuples(
        st.sampled_from("abcde"),
        st.fractions(min_value=0, max_value=10, max_denominator=20),
    ),
    min_size=1,
    max_size=12,
).filter(lambda pairs: sum(w for _, w in pairs) > 0)

int_weightings = st.lists(
    st.tuples(st.sampled_from("abcde"), st.integers(min_value=1, max_value=30)),
    min_size=1,
    max_size=12,
)

# a value per outcome, with repeats, so that mean has atoms to group
outcome_values = st.fixed_dictionaries(
    {x: st.sampled_from([F(0), F(1, 3), F(5), F(-7, 4)]) for x in "abcde"}
)


def in_e(x):
    return x in "abc"


def in_f(x):
    return x in "bcd"


def weights(d):
    """The weight d gives each outcome of OUTCOMES."""
    return [d.weight(x) for x in OUTCOMES]


class TestConstruction:
    def test_normalizes(self):
        d = FiniteDist.from_weights([("a", F(2)), ("b", F(6))])
        assert d.weight("a") == F(1, 4)
        assert d.weight("b") == F(3, 4)

    def test_merges_duplicates_and_drops_zeros(self):
        d = FiniteDist.from_weights(
            [("a", F(1)), ("b", F(0)), ("a", F(1)), ("c", F(2))]
        )
        assert len(d) == 2
        assert d.weight("a") == F(1, 2)
        assert d.weight("b") == 0
        assert d.weight("c") == F(1, 2)

    def test_empty_input(self):
        with pytest.raises(EmptyDistributionError):
            FiniteDist.from_weights([])
        with pytest.raises(EmptyDistributionError):
            FiniteDist._from_numerators({}, 1)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeightError):
            FiniteDist.from_weights([("a", F(-1)), ("b", F(2))])

    def test_zero_total(self):
        with pytest.raises(ZeroTotalWeightError):
            FiniteDist.from_weights([("a", F(0)), ("b", F(0))])

    def test_direct_construction_checks_mass(self):
        with pytest.raises(ZeroTotalWeightError):
            FiniteDist._from_numerators({"a": 1}, 2)

    def test_mass_too_long_to_print_still_raises_the_model_error(self):
        den = LONG_SUM_TERMS[0].denominator * LONG_SUM_TERMS[1].denominator
        num = {x: den // w.denominator for x, w in zip("ab", LONG_SUM_TERMS)}
        with pytest.raises(ZeroTotalWeightError, match="too long to print"):
            FiniteDist._from_numerators(num, den)

    def test_direct_construction_rejects_nonpositive_atoms(self):
        with pytest.raises(NegativeWeightError):
            FiniteDist._from_numerators({"a": 0, "b": 1}, 1)

    def test_int_atom_weights_come_back_as_fractions(self):
        d = FiniteDist.from_weights([("a", 1)])
        assert type(d.weight("a")) is Fraction
        assert type(d.weight("z")) is Fraction

    @pytest.mark.parametrize(
        "bad", INEXACT_WEIGHTS, ids=lambda v: type(v).__name__
    )
    def test_inexact_weights_are_refused(self, bad):
        with pytest.raises(InvalidModelError, match="Fraction or int"):
            FiniteDist.from_weights([("a", bad), ("b", F(1))])

    def test_is_immutable(self):
        d = FiniteDist.from_weights([("a", 1), ("b", 2)])
        with pytest.raises(AttributeError):
            d._den = 1
        with pytest.raises(AttributeError):
            del d._num
        assert d.weight("b") == F(2, 3)


class TestEquality:
    """Two distributions are equal when they give every outcome the same
    weight, whatever order, merging or denominator built them."""

    def test_order_insensitive(self):
        d1 = FiniteDist.from_weights([("a", F(1)), ("b", F(3))])
        d2 = FiniteDist.from_weights([("b", F(3)), ("a", F(1))])
        assert weights(d1) == weights(d2)

    def test_merge_insensitive(self):
        d1 = FiniteDist.from_weights([("a", F(1)), ("a", F(1))])
        d2 = FiniteDist.from_weights([("a", F(7))])
        assert weights(d1) == weights(d2)
        assert len(d1) == len(d2) == 1

    def test_different_masses_differ(self):
        d1 = FiniteDist.from_weights([("a", F(1)), ("b", F(1))])
        d2 = FiniteDist.from_weights([("a", F(1)), ("b", F(3))])
        assert weights(d1) != weights(d2)

    @given(int_weightings, st.integers(min_value=2, max_value=9))
    def test_equal_whatever_the_denominator_held(self, pairs, k):
        """Scaling every raw weight by k scales the denominator held inside
        by k, and changes no weight."""
        d1 = FiniteDist.from_weights(pairs)
        d2 = FiniteDist.from_weights((x, k * w) for x, w in pairs)
        assert d2._den == k * d1._den
        assert weights(d1) == weights(d2)
        heavier = FiniteDist.from_weights(pairs + [("z", 1)])
        assert weights(heavier) != weights(d1)


class TestQueries:
    def test_prob_sums_matching_atoms(self):
        d = FiniteDist.from_weights([("a", F(1)), ("b", F(2)), ("c", F(1))])
        assert d.prob(lambda x: x in "ab") == F(3, 4)
        assert d.prob(lambda x: False) == 0
        assert d.prob(lambda x: True) == 1

    def test_mean_and_moments(self):
        d = FiniteDist.from_weights([(0, F(1)), (2, F(1))])
        assert d.mean(lambda x: 3 * x) == 3

    @pytest.mark.parametrize(
        "bad", INEXACT_WEIGHTS, ids=lambda v: type(v).__name__
    )
    def test_mean_refuses_inexact_values(self, bad):
        d = FiniteDist.from_weights([(0, F(1)), (2, F(1))])
        with pytest.raises(InvalidModelError, match="Fraction or int"):
            d.mean(lambda x: bad)


class TestConditioning:
    def test_reweights_exactly(self):
        d = FiniteDist.from_weights([("a", F(1)), ("b", F(2)), ("c", F(1))])
        given_ab = d.condition(lambda x: x in "ab")
        assert given_ab.weight("a") == F(1, 3)
        assert given_ab.weight("b") == F(2, 3)
        assert given_ab.weight("c") == 0

    def test_zero_probability_event_is_refused(self):
        d = FiniteDist.from_weights([("a", F(1))])
        with pytest.raises(ZeroProbabilityEventError):
            d.condition(lambda x: x == "z")

    @given(raw_weightings)
    def test_total_mass_is_one(self, pairs):
        """Normalization always lands on exactly 1, never approximately."""
        d = FiniteDist.from_weights(pairs)
        assert d.prob(lambda x: True) == 1
        assert sum(weights(d), F(0)) == 1

    @given(raw_weightings)
    def test_chained_conditioning_matches_conjunction(self, pairs):
        """condition(E) then condition(F) equals condition(E and F)."""
        d = FiniteDist.from_weights(pairs)
        if d.prob(in_e) == 0:
            return
        step = d.condition(in_e)
        if step.prob(in_f) == 0:
            return
        chained = step.condition(in_f)
        direct = d.condition(lambda x: in_e(x) and in_f(x))
        assert weights(chained) == weights(direct)
        assert len(chained) == len(direct)

    @given(raw_weightings)
    def test_conditioning_preserves_weight_ratios(self, pairs):
        """Surviving outcomes keep their relative odds."""
        d = FiniteDist.from_weights(pairs)
        mass = d.prob(in_e)
        if mass == 0:
            return
        conditioned = d.condition(in_e)
        for outcome in OUTCOMES:
            if in_e(outcome):
                assert conditioned.weight(outcome) == d.weight(outcome) / mass


class TestAgainstFractionOracle:
    """The int-numerator representation against plain Fraction sums."""

    @given(raw_weightings)
    def test_atoms_weight_prob_and_len(self, pairs):
        d = FiniteDist.from_weights(pairs)
        ref = oracle.normalize(pairs)
        assert weights(d) == [ref.get(x, 0) for x in OUTCOMES]
        assert all(type(w) is Fraction for w in weights(d))
        assert len(d) == len(ref)
        for event in (in_e, in_f, lambda x: True, lambda x: False):
            assert d.prob(event) == oracle.event_prob(ref, event)

    @given(raw_weightings)
    def test_condition_and_chained_condition(self, pairs):
        d = FiniteDist.from_weights(pairs)
        ref = oracle.normalize(pairs)
        if oracle.event_prob(ref, in_e) == 0:
            return
        given_e = d.condition(in_e)
        ref_e = oracle.condition(ref, in_e)
        assert weights(given_e) == [ref_e.get(x, 0) for x in OUTCOMES]
        assert len(given_e) == len(ref_e)
        assert given_e.prob(in_f) == oracle.event_prob(ref_e, in_f)
        if oracle.event_prob(ref_e, in_f) == 0:
            return
        chained = given_e.condition(in_f)
        ref_ef = oracle.condition(ref_e, in_f)
        assert weights(chained) == [ref_ef.get(x, 0) for x in OUTCOMES]
        assert len(chained) == len(ref_ef)

    @given(raw_weightings, outcome_values)
    def test_mean(self, pairs, values):
        d = FiniteDist.from_weights(pairs)
        ref = oracle.normalize(pairs)
        assert d.mean(values.__getitem__) == oracle.expectation(ref, values.__getitem__)
