import copy
import pickle
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


class TestConstruction:
    def test_normalizes(self):
        d = FiniteDist.from_weights([("a", F(2)), ("b", F(6))])
        assert d.weight("a") == F(1, 4)
        assert d.weight("b") == F(3, 4)

    def test_merges_duplicates_and_drops_zeros(self):
        d = FiniteDist.from_weights(
            [("a", F(1)), ("b", F(0)), ("a", F(1)), ("c", F(2))]
        )
        assert d.support == ("a", "c")
        assert d.weight("a") == F(1, 2)
        assert d.weight("b") == 0

    def test_empty_input(self):
        with pytest.raises(EmptyDistributionError):
            FiniteDist.from_weights([])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeightError):
            FiniteDist.from_weights([("a", F(-1)), ("b", F(2))])

    def test_zero_total(self):
        with pytest.raises(ZeroTotalWeightError):
            FiniteDist.from_weights([("a", F(0)), ("b", F(0))])

    def test_direct_construction_checks_mass(self):
        with pytest.raises(ZeroTotalWeightError):
            FiniteDist(atoms=(("a", F(1, 2)),))

    def test_mass_too_long_to_print_still_raises_the_model_error(self):
        with pytest.raises(ZeroTotalWeightError, match="too long to print"):
            FiniteDist(atoms=tuple(zip("ab", LONG_SUM_TERMS)))

    def test_direct_construction_rejects_duplicates(self):
        with pytest.raises(InvalidModelError):
            FiniteDist(atoms=(("a", F(1, 2)), ("a", F(1, 2))))

    def test_direct_construction_rejects_nonpositive_atoms(self):
        with pytest.raises(NegativeWeightError):
            FiniteDist(atoms=(("a", F(0)), ("b", F(1))))

    def test_int_atom_weights_come_back_as_fractions(self):
        d = FiniteDist(atoms=(("a", 1),))
        assert type(d.weight("a")) is Fraction
        assert [type(w) for _, w in d.atoms] == [Fraction]

    @pytest.mark.parametrize(
        "bad", INEXACT_WEIGHTS, ids=lambda v: type(v).__name__
    )
    def test_inexact_weights_are_refused(self, bad):
        with pytest.raises(InvalidModelError, match="Fraction or int"):
            FiniteDist.from_weights([("a", bad), ("b", F(1))])
        with pytest.raises(InvalidModelError, match="Fraction or int"):
            FiniteDist(atoms=(("a", bad), ("b", F(1, 2))))


class TestEquality:
    def test_order_insensitive(self):
        d1 = FiniteDist.from_weights([("a", F(1)), ("b", F(3))])
        d2 = FiniteDist.from_weights([("b", F(3)), ("a", F(1))])
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_merge_insensitive(self):
        d1 = FiniteDist.from_weights([("a", F(1)), ("a", F(1))])
        d2 = FiniteDist.from_weights([("a", F(7))])
        assert d1 == d2

    def test_different_masses_differ(self):
        d1 = FiniteDist.from_weights([("a", F(1)), ("b", F(1))])
        d2 = FiniteDist.from_weights([("a", F(1)), ("b", F(3))])
        assert d1 != d2

    def test_survives_pickle_and_copy(self):
        d = FiniteDist.from_weights([("a", 1), ("b", 2)]).condition(lambda x: True)
        for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
            assert clone == d
            assert clone.atoms == d.atoms
        with pytest.raises(AttributeError):
            d._den = 1

    @given(int_weightings, st.integers(min_value=2, max_value=9))
    def test_equal_whatever_the_denominator_held(self, pairs, k):
        """Scaling every raw weight by k scales the denominator held inside
        by k, and changes neither equality nor the hash."""
        d1 = FiniteDist.from_weights(pairs)
        d2 = FiniteDist.from_weights((x, k * w) for x, w in pairs)
        d3 = FiniteDist(atoms=reversed(d1.atoms))
        assert d2._den == k * d1._den
        assert d1 == d2 == d3
        assert hash(d1) == hash(d2) == hash(d3)
        heavier = FiniteDist.from_weights(pairs + [("f", 1)])
        assert heavier != d1 and d1 != heavier


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

    def test_map_merges_images(self):
        d = FiniteDist.from_weights([(-1, F(1)), (1, F(1)), (2, F(2))])
        squared = d.map(lambda x: x * x)
        assert squared.weight(1) == F(1, 2)
        assert squared.weight(4) == F(1, 2)


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
        assert sum((w for _, w in d.atoms), F(0)) == 1

    @given(raw_weightings)
    def test_chained_conditioning_matches_conjunction(self, pairs):
        """condition(E) then condition(F) equals condition(E and F)."""
        d = FiniteDist.from_weights(pairs)
        in_e = lambda x: x in "abc"
        in_f = lambda x: x in "bcd"
        if d.prob(in_e) == 0:
            return
        step = d.condition(in_e)
        if step.prob(in_f) == 0:
            return
        chained = step.condition(in_f)
        direct = d.condition(lambda x: in_e(x) and in_f(x))
        assert chained == direct

    @given(raw_weightings)
    def test_conditioning_preserves_weight_ratios(self, pairs):
        """Surviving outcomes keep their relative odds."""
        d = FiniteDist.from_weights(pairs)
        in_e = lambda x: x in "abc"
        mass = d.prob(in_e)
        if mass == 0:
            return
        conditioned = d.condition(in_e)
        for outcome in d.support:
            if in_e(outcome):
                assert conditioned.weight(outcome) == d.weight(outcome) / mass


class TestAgainstFractionOracle:
    """The int-numerator representation against plain Fraction sums."""

    @given(raw_weightings)
    def test_atoms_weight_prob_and_len(self, pairs):
        d = FiniteDist.from_weights(pairs)
        ref = oracle.normalize(pairs)
        assert d.atoms == tuple(ref.items())
        assert all(type(w) is Fraction for _, w in d.atoms)
        assert len(d) == len(ref)
        for outcome in "abcdez":
            assert d.weight(outcome) == ref.get(outcome, 0)
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
        assert given_e.atoms == tuple(ref_e.items())
        assert given_e.prob(in_f) == oracle.event_prob(ref_e, in_f)
        if oracle.event_prob(ref_e, in_f) == 0:
            return
        chained = given_e.condition(in_f)
        ref_ef = oracle.condition(ref_e, in_f)
        assert chained.atoms == tuple(ref_ef.items())
        assert len(chained) == len(ref_ef)

    @given(raw_weightings, outcome_values)
    def test_map_and_mean(self, pairs, values):
        d = FiniteDist.from_weights(pairs)
        ref = oracle.normalize(pairs)
        image = d.map(values.__getitem__)
        ref_image = oracle.pushforward(ref, values.__getitem__)
        assert image.atoms == tuple(ref_image.items())
        assert d.mean(values.__getitem__) == oracle.expectation(ref, values.__getitem__)
        assert image.mean(lambda v: v) == oracle.expectation(ref_image, lambda v: v)
