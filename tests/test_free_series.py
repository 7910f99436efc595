import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc.free_series import (
    FreeSeries,
    log_exp_product,
    series_exp,
    series_log,
    series_mul,
)

A, B, C = 0, 1, 2


def random_series(rng, max_degree, letters=2, terms=10, zero_constant=True):
    coeffs = {}
    for _ in range(terms):
        length = rng.randint(1 if zero_constant else 0, max_degree)
        word = tuple(rng.randrange(letters) for _ in range(length))
        coeffs[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return FreeSeries(max_degree, coeffs)


def test_mul_distributes():
    one = FreeSeries.one(3)
    a = FreeSeries.letter(A, 3)
    b = FreeSeries.letter(B, 3)
    product = series_mul(one + a, one + b)
    assert product == FreeSeries(3, {(): 1, (A,): 1, (B,): 1, (A, B): 1})


def test_mul_keeps_repeated_letters():
    a = FreeSeries.letter(A, 4)
    assert series_mul(a, a) == FreeSeries(4, {(A, A): 1})


def test_mul_truncated_inverse_pair():
    # (1 + A + A^2/2)(1 - A + A^2/2) = 1 + A^4/4; at degree 2 only 1 is left.
    half = Fraction(1, 2)
    plus = FreeSeries(2, {(): 1, (A,): 1, (A, A): half})
    minus = FreeSeries(2, {(): 1, (A,): -1, (A, A): half})
    assert series_mul(plus, minus) == FreeSeries.one(2)


def test_mul_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        series_mul(FreeSeries.one(3), FreeSeries.one(4))
    with pytest.raises(ValueError):
        FreeSeries(0, {(): 1})


def test_mul_truncates_overflow_words():
    a = FreeSeries(2, {(A, A): 1})
    assert series_mul(a, a) == FreeSeries.zero(2)
    assert FreeSeries(2, {(A, A, A): 1, (B,): 1}) == FreeSeries.letter(B, 2)


def test_exp_of_zero():
    assert series_exp(FreeSeries.zero(3)) == FreeSeries.one(3)


def test_exp_of_letter():
    result = series_exp(FreeSeries.letter(A, 3))
    assert result == FreeSeries(
        3,
        {(): 1, (A,): 1, (A, A): Fraction(1, 2), (A, A, A): Fraction(1, 6)},
    )


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        series_exp(FreeSeries.one(3))


def test_exp_product_mixed_word():
    product = series_mul(
        series_exp(FreeSeries.letter(A, 3)), series_exp(FreeSeries.letter(B, 3))
    )
    assert product.coefficient((A, B)) == 1
    assert product.coefficient((B, A)) == 0


def test_log_of_one():
    assert series_log(FreeSeries.one(3)) == FreeSeries.zero(3)


def test_log_rejects_other_constants():
    with pytest.raises(ValueError):
        series_log(FreeSeries.zero(3))
    with pytest.raises(ValueError):
        series_log(FreeSeries(3, {(): 2}))


def test_log_of_exp_product_degree_two():
    # Classical commutator term: log(e^A e^B) = A + B + (AB - BA)/2 + ...
    series = log_exp_product([(A, 1), (B, 1)], 2)
    assert series.coefficient((A, B)) == Fraction(1, 2)
    assert series.coefficient((B, A)) == Fraction(-1, 2)
    assert series.coefficient((A, B)) - series.coefficient((B, A)) == 1


def test_log_exp_product_single_factor():
    assert log_exp_product([(A, 1)], 4) == FreeSeries.letter(A, 4)
    assert log_exp_product([(B, Fraction(2, 3))], 4) == FreeSeries.letter(
        B, 4, Fraction(2, 3)
    )


def test_log_exp_product_needs_factors():
    with pytest.raises(ValueError):
        log_exp_product([], 3)
    with pytest.raises(ValueError):
        log_exp_product([(A, 1)], 0)


def reference_log_exp_product(weights, max_degree):
    """The oracle composed from the Fraction ring operations."""
    product = FreeSeries.one(max_degree)
    for index, scale in weights:
        letter = FreeSeries.letter(index, max_degree, scale)
        product = series_mul(product, series_exp(letter))
    return series_log(product)


@pytest.mark.parametrize(
    "weights, max_degree",
    [
        (((A, 1), (B, 1)), 1),
        (((A, 1), (B, 1)), 9),
        (((A, 2), (B, 2)), 9),
        (((A, Fraction(-3, 5)), (B, Fraction(7, 4)), (C, Fraction(1, 3))), 6),
        (((A, 1), (B, 0)), 9),
        (((A, 0), (B, Fraction(1, 2)), (C, -1)), 6),
        (((A, Fraction(1, 2)), (B, 1), (A, Fraction(1, 2))), 9),
        # Letters that are not 0..r-1, not in order, or repeated.
        (((0, 1), (4, 1)), 8),
        (((C, 1), (A, 2)), 8),
        (((A, 1), (A, -1), (B, 1)), 7),
        # Horner's factors, each cut to the degree it can still reach.
        (((A, Fraction(-3, 5)), (B, Fraction(7, 4)), (C, Fraction(1, 3))), 7),
        (((A, Fraction(2, 3)), (B, -1)), 1),
        (((A, 1), (B, Fraction(-1, 2)), (C, 3)), 1),
        (((A, 0), (B, 0), (C, 0)), 6),  # S = 0: the zero series
    ],
)
def test_log_exp_product_matches_fraction_reference(weights, max_degree):
    assert log_exp_product(weights, max_degree) == reference_log_exp_product(
        weights, max_degree
    )


def test_log_exp_product_sizes_by_distinct_letters():
    # One distinct letter is one word per length.  Lists sized by the
    # largest index would hold 10**n words at length n.
    assert log_exp_product(((9, 1),), 14) == FreeSeries(14, {(9,): 1})


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
        ),
        min_size=1,
        max_size=4,
    ),
    max_degree=st.integers(1, 6),
)
def test_log_exp_product_result_is_a_clean_series(weights, max_degree):
    # The oracle builds its result without the constructor, so it must hold
    # what the constructor would keep: words of at most max_degree letters,
    # each with a nonzero Fraction.
    result = log_exp_product(weights, max_degree)
    assert result == FreeSeries(max_degree, dict(result.coeffs))
    for word, value in result.coeffs.items():
        assert type(word) is tuple and len(word) <= max_degree
        assert type(value) is Fraction and value != 0


def test_log_exp_product_rejects_negative_letter():
    with pytest.raises(ValueError):
        log_exp_product([(A, 1), (-1, 1)], 3)
    with pytest.raises(ValueError):
        FreeSeries.letter(-1, 3)


def test_log_exp_roundtrip_random():
    rng = random.Random(20240817)
    for _ in range(5):
        a = random_series(rng, max_degree=6)
        assert series_log(series_exp(a)) == a


def test_exp_log_roundtrip_on_group_element():
    product = series_mul(
        series_exp(FreeSeries.letter(A, 6)), series_exp(FreeSeries.letter(B, 6))
    )
    assert series_exp(series_log(product)) == product


def test_grading_under_weight_scaling():
    base = log_exp_product([(A, 1), (B, 1)], 6)
    doubled = log_exp_product([(A, 2), (B, 2)], 6)
    assert set(doubled.coeffs) == set(base.coeffs)
    for word, value in base.coeffs.items():
        assert doubled.coefficient(word) == value * 2 ** len(word)


def test_associativity_random():
    rng = random.Random(7)
    for _ in range(3):
        a = random_series(rng, 5, terms=6, zero_constant=False)
        b = random_series(rng, 5, terms=6, zero_constant=False)
        c = random_series(rng, 5, terms=6, zero_constant=False)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_zero_coefficients_are_dropped():
    series = FreeSeries(3, {(A,): Fraction(0), (B,): 1})
    assert (A,) not in series.coeffs
    assert series == FreeSeries.letter(B, 3)


def test_scaled_by_zero_is_the_zero_series():
    series = FreeSeries(3, {(): 1, (A, B): Fraction(-2, 3), (B, B, A): 5})
    for zero in (0, Fraction(0)):
        scaled = series.scaled(zero)
        assert scaled == FreeSeries.zero(3) and scaled.coeffs == {}


def test_fraction_coefficients_are_kept_and_others_converted():
    value = Fraction(2, 3)
    series = FreeSeries(3, {(A,): value, (B,): 2, (A, B): "1/4"})
    assert series.coeffs[(A,)] is value
    assert [type(c) for c in series.coeffs.values()] == [Fraction] * 3
    assert series.coeffs[(B,)] == 2 and series.coeffs[(A, B)] == Fraction(1, 4)


def test_series_is_immutable():
    series = FreeSeries.one(3)
    with pytest.raises(AttributeError):
        series.max_degree = 5
