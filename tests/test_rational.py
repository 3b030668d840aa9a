from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newcomb.errors import (
    InvalidModelError,
    InvalidScenarioError,
    ScenarioParseError,
)
from newcomb.rational import (
    coerce_fraction,
    decimal_str,
    describe,
    format_rational,
    parse_rational,
)


class TestParse:
    def test_integer_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("-3") == -3
        assert parse_rational("+3") == 3
        assert parse_rational("0") == 0
        assert parse_rational("007") == 7

    def test_fraction_forms(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("2/4") == Fraction(1, 2)
        assert parse_rational("10/5") == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            " 1",
            "1 ",
            "1.5",
            "3e2",
            "1/2/3",
            "1/-2",
            "-/2",
            "--1",
            "+",
            "/",
            "a",
            "1/two",
            "0x10",
            "nan",
            "1/2\n",
            "3\n",
        ],
    )
    def test_grammar_rejections(self, bad):
        with pytest.raises(ScenarioParseError):
            parse_rational(bad)

    def test_zero_denominator(self):
        with pytest.raises(ScenarioParseError, match="zero denominator"):
            parse_rational("1/0")

    def test_non_string_input(self):
        with pytest.raises(ScenarioParseError, match="weight"):
            parse_rational(0.5, what="weight")

    def test_field_name_lands_in_message(self):
        with pytest.raises(ScenarioParseError, match=r"prediction\[3\]\.omega"):
            parse_rational("x", what="prediction[3].omega")


class TestFormat:
    def test_lowest_terms_and_integers(self):
        assert format_rational(Fraction(2, 4)) == "1/2"
        assert format_rational(Fraction(8, 2)) == "4"
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(0)) == "0"

    def test_past_the_int_string_limit_is_a_scenario_error(self):
        with pytest.raises(InvalidScenarioError, match="too long to print"):
            format_rational(Fraction(1, 10**5000))

    @given(st.fractions(max_denominator=10**6))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_any_text_form_parses_to_the_same_value(self, num, den):
        assert parse_rational(f"{num}/{den}") == Fraction(num, den)


class TestDescribe:
    def test_short_values_print_as_str_or_repr(self):
        assert describe(Fraction(2, 4)) == "1/2"
        assert describe(Fraction(1, 2), repr) == "Fraction(1, 2)"
        assert describe("a") == "a"

    def test_past_the_int_string_limit_never_raises(self):
        huge = Fraction(1, 3 * 10**5000)
        assert describe(huge) == "3.33333e-5001 (exact form too long to print)"
        assert describe(huge, repr).startswith("3.33333e-5001 ")
        assert describe(10**5000).startswith("1e+5000 ")
        assert describe((huge, huge), repr) == "<tuple too long to print>"


class TestDecimal:
    def test_six_significant_digits_by_default(self):
        assert decimal_str(Fraction(1, 3)) == "0.333333"
        assert decimal_str(Fraction(2, 3)) == "0.666667"
        assert decimal_str(Fraction(1, 2)) == "0.5"
        assert decimal_str(Fraction(820000)) == "820000"
        # beyond the float range, rounded from the Fraction itself
        assert decimal_str(Fraction(10**400)) == "1e+400"
        assert decimal_str(Fraction(-2 * 10**400, 3)) == "-6.66667e+399"
        # below it too, where a float underflows to 0 or is subnormal
        assert decimal_str(Fraction(1, 10**400)) == "1e-400"
        assert decimal_str(Fraction(-1, 10**400)) == "-1e-400"
        assert decimal_str(Fraction(1, 3 * 10**320)) == "3.33333e-321"
        assert decimal_str(Fraction(0)) == "0"


class TestCoerce:
    def test_accepts_fraction_and_int(self):
        assert coerce_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert coerce_fraction(5) == 5

    @pytest.mark.parametrize("bad", [0.5, "1/2", None, True])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(InvalidModelError):
            coerce_fraction(bad, "x")
