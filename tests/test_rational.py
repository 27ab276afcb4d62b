"""Exact scalar layer: Fraction arithmetic, parsing and formatting; the Bernoulli oracles."""

import random
from fractions import Fraction

import pytest

from genuscalc import format_rational, parse_rational
from oracles import akiyama_tanigawa, bernoulli, random_fraction


def test_sum_of_reduced_fractions():
    assert Fraction(1, 3) + Fraction(-28, 45) == Fraction(-13, 45)


def test_product_reduces_to_lowest_terms():
    assert Fraction(496, 63) * Fraction(1, 2880) == Fraction(31, 11340)


def test_denominator_is_always_positive():
    q = Fraction(1, -2)
    assert q.numerator == -1 and q.denominator == 2


def test_exact_comparison():
    assert Fraction(7, 5760) > Fraction(-4, 5760)
    assert Fraction(2, 4) == Fraction(1, 2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / Fraction(0)


def test_field_laws_on_random_rationals():
    rng = random.Random(20230405)
    for _ in range(300):
        a, b, c = (random_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b * c) == (a * b) * c
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a:
            assert a * (1 / a) == 1


def test_parse_rational_accepts_canonical_forms():
    assert parse_rational("-13/45") == Fraction(-13, 45)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("0") == 0
    assert parse_rational(" +3/4 ") == Fraction(3, 4)


@pytest.mark.parametrize(
    "bad",
    ["1.5", "", "a/b", "1/0", "1/-3", "3/", "/4", "1 / 2", "\u0663", "\uff13", "1/1\u0663", "1/00"],
)
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_takes_leading_zeros_in_either_part():
    assert parse_rational("1/02") == Fraction(1, 2)
    assert parse_rational("01/2") == Fraction(1, 2)
    assert parse_rational("-003/0006") == Fraction(-1, 2)


def test_parse_rational_refuses_more_than_a_thousand_digits():
    widest = "9" * 1000
    assert parse_rational(f"-{widest}/{widest[:-1]}8") == Fraction(-int(widest), int(widest) - 1)
    for text in ("9" * 1001, "1/" + "9" * 1001, "0" * 1001):
        with pytest.raises(ValueError, match="^1001-digit integer is too large$"):
            parse_rational(text)


def test_format_rational_omits_unit_denominator():
    assert format_rational(Fraction(496, 63)) == "496/63"
    assert format_rational(Fraction(-13, 45)) == "-13/45"
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(0) == "0"


def test_format_rational_refuses_a_float():
    with pytest.raises(ValueError, match=r"^scalar 0\.1 is a float; give an int, a Fraction or 'num/den'$"):
        format_rational(0.1)
    with pytest.raises(ValueError, match=r"^scalar None is not a rational; give an int, a Fraction or 'num/den'$"):
        format_rational(None)


def test_format_rational_reads_text_by_the_num_den_grammar():
    assert format_rational(" 7 ") == "7" and format_rational("-2/4") == "-1/2"
    with pytest.raises(ValueError, match=r"^malformed rational '1e3', expected num or num/den$"):
        format_rational("1e3")


def test_format_parse_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        q = random_fraction(rng, span=5000, max_den=5000)
        assert parse_rational(format_rational(q)) == q


def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for k in range(3, 22, 2):
        assert bernoulli(k) == 0


def test_bernoulli_matches_independent_triangle():
    for k in range(17):
        assert bernoulli(k) == akiyama_tanigawa(k), f"B_{k} disagrees"


def test_bernoulli_negative_index_raises():
    with pytest.raises(ValueError):
        bernoulli(-1)
