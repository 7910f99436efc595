import math
from fractions import Fraction

import pytest

from shadowosc import goldberg
from shadowosc.free_series import FreeSeries, log_exp_product, series_mul
from shadowosc.goldberg import (
    A,
    B,
    X1,
    X2,
    X3,
    AlternatingWord,
    ThreeWordPattern,
    collapse_series,
    collapse_strang,
    collapse_two_letter,
    collapse_word,
    estimate_radius,
    goldberg_coeff_three,
    goldberg_coeff_two,
    nonalternating_support,
    scale_series_coeff,
    three_letter_oracle,
    two_letter_oracle,
    verify_three_letter,
    verify_two_letter,
)


def test_scale_series_coeffs_match_formula():
    assert [scale_series_coeff(n) for n in range(5)] == [
        1, Fraction(1, 6), Fraction(1, 30), Fraction(1, 140), Fraction(1, 630)
    ]
    with pytest.raises(ValueError):
        scale_series_coeff(-1)


# -- closed forms -----------------------------------------------------------


@pytest.mark.parametrize(
    "start,length,expected",
    [
        (A, 1, Fraction(1)),
        (B, 1, Fraction(1)),
        (A, 2, Fraction(1, 2)),
        (B, 2, Fraction(-1, 2)),
        (A, 3, Fraction(-1, 6)),
        (B, 3, Fraction(-1, 6)),
        (A, 4, Fraction(-1, 12)),
        (B, 4, Fraction(1, 12)),
        (A, 5, Fraction(1, 30)),
    ],
)
def test_goldberg_coeff_two_examples(start, length, expected):
    assert goldberg_coeff_two(AlternatingWord(start, length)) == expected


def test_alternating_word_validation():
    with pytest.raises(ValueError):
        AlternatingWord(A, 0)
    with pytest.raises(ValueError):
        AlternatingWord(5, 2)
    assert AlternatingWord(A, 4).word() == (A, B, A, B)
    assert AlternatingWord(B, 3).label() == "BAB"


@pytest.mark.parametrize(
    "pattern,expected",
    [
        (ThreeWordPattern(0, "inner"), Fraction(1)),
        (ThreeWordPattern(0, "outer", (1, 1)), Fraction(1)),
        (ThreeWordPattern(1, "inner"), Fraction(-1, 6)),
        (ThreeWordPattern(1, "outer", (1, 1)), Fraction(-1, 6)),
        (ThreeWordPattern(1, "outer", (3, 3)), Fraction(-1, 6)),
        (ThreeWordPattern(1, "outer", (1, 3)), Fraction(1, 3)),
        (ThreeWordPattern(1, "outer", (3, 1)), Fraction(1, 3)),
        (ThreeWordPattern(2, "inner"), Fraction(1, 30)),
        (ThreeWordPattern(2, "outer", (1, 3)), Fraction(-1, 20)),
    ],
)
def test_goldberg_coeff_three_examples(pattern, expected):
    assert goldberg_coeff_three(pattern) == expected


def test_three_word_pattern_validation():
    with pytest.raises(ValueError):
        ThreeWordPattern(0, "outer", (1, 3))  # mixed endpoints need n >= 1
    with pytest.raises(ValueError):
        ThreeWordPattern(1, "inner", (1, 1))
    with pytest.raises(ValueError):
        ThreeWordPattern(1, "outer")
    with pytest.raises(ValueError):
        ThreeWordPattern(1, "outer", (1, 2))
    with pytest.raises(ValueError):
        ThreeWordPattern(-1, "inner")
    with pytest.raises(ValueError):
        ThreeWordPattern(1, "middle")


def test_pattern_word_enumeration():
    inner = ThreeWordPattern(1, "inner")
    assert sorted(inner.words()) == [(X2, X1, X2), (X2, X3, X2)]
    outer = ThreeWordPattern(1, "outer", (1, 3))
    assert list(outer.words()) == [(X1, X2, X3)]
    single = ThreeWordPattern(0, "outer", (3, 3))
    assert list(single.words()) == [(X3,)]
    two_mids = ThreeWordPattern(2, "outer", (1, 1))
    assert sorted(two_mids.words()) == [(X1, X2, X1, X2, X1), (X1, X2, X3, X2, X1)]


# -- oracle agreement -------------------------------------------------------


def test_two_letter_matches_oracle_through_degree_8():
    reports = verify_two_letter(8)
    assert len(reports) == 16
    assert all(report.match for report in reports)


def test_two_letter_degree_two_values():
    reports = {r.word: r for r in verify_two_letter(2)}
    assert reports["A"].oracle == 1
    assert reports["B"].oracle == 1
    assert reports["AB"].oracle == Fraction(1, 2)
    assert reports["BA"].oracle == Fraction(-1, 2)
    assert all(r.match for r in reports.values())


def test_verify_two_letter_rejects_tiny_degree():
    with pytest.raises(ValueError):
        verify_two_letter(1)


def test_raw_log_keeps_nonalternating_words():
    # AAB shows up with coefficient 1/12 before the nilpotent collapse.
    oracle = two_letter_oracle(4)
    assert oracle.coefficient((A, A, B)) == Fraction(1, 12)
    support = nonalternating_support(6)
    assert support[1] == 0 and support[2] == 0
    assert all(support[degree] > 0 for degree in range(3, 7))


def test_three_letter_matches_oracle_through_degree_7():
    reports = verify_three_letter(7)
    assert len(reports) == 45
    assert all(report.match for report in reports)


def test_three_letter_frozen_golden_value():
    # Golden value recorded from the free-algebra oracle run.
    assert three_letter_oracle(3).coefficient((X1, X2, X3)) == Fraction(1, 3)


def test_intermediate_letter_independence():
    oracle = three_letter_oracle(7)
    for n in range(4):
        inner = {oracle.coefficient(w) for w in ThreeWordPattern(n, "inner").words()}
        assert len(inner) == 1
        for endpoints in ((1, 1), (1, 3), (3, 1), (3, 3)) if n else ((1, 1), (3, 3)):
            pattern = ThreeWordPattern(n, "outer", endpoints)
            values = {oracle.coefficient(w) for w in pattern.words()}
            assert len(values) == 1


# -- collapse ---------------------------------------------------------------


def test_collapse_word_rules():
    assert collapse_word((A, A)) is None
    assert collapse_word((B, B, A)) is None
    assert collapse_word((A, B, A)) == (-1, (A,))
    assert collapse_word((B, A, B)) == (-1, (B,))
    assert collapse_word((A, B, A, B)) == (-1, (A, B))
    assert collapse_word((A, B, A, B, A)) == (1, (A,))
    assert collapse_word((A,)) == (1, (A,))
    assert collapse_word(()) == (1, ())


def test_collapse_two_letter_reproduces_scale_series():
    result = collapse_two_letter(5)
    for n in range(6):
        coeff = scale_series_coeff(n)
        assert result.a_coeffs[n] == coeff
        assert result.b_coeffs[n] == coeff
        assert result.ab_coeffs[n] == coeff / 2
        assert result.ba_coeffs[n] == -coeff / 2


def test_collapse_strang_even_and_odd_series():
    result = collapse_strang(5)
    assert result.odd_only
    assert result.a_coeffs == tuple(scale_series_coeff(n) for n in range(6))
    assert result.b_coeffs[0] == 1
    for n in range(1, 6):
        direct = Fraction(
            -math.factorial(n - 1) * math.factorial(n), 2 * math.factorial(2 * n + 1)
        )
        assert result.b_coeffs[n] == direct
        # Cauchy product route: the B series is (1 - x^2/4) times the A series.
        assert result.b_coeffs[n] == scale_series_coeff(n) - scale_series_coeff(n - 1) / 4


def test_commutator_closure_under_collapse():
    def letter(index):
        return FreeSeries.letter(index, 3)

    def bracket(left, right):
        return series_mul(left, right) - series_mul(right, left)

    inner = bracket(letter(A), letter(B))
    assert collapse_series(bracket(letter(A), inner)) == {(3, (A,)): Fraction(2)}
    assert collapse_series(bracket(letter(B), inner)) == {(3, (B,)): Fraction(-2)}


def test_strang_oracle_is_substituted_three_letter_oracle():
    # X1 = X3 -> B/2 and X2 -> A, the substitution collapse_strang relies on.
    substituted = {}
    for word, coeff in three_letter_oracle(7).coeffs.items():
        image = tuple(A if letter == X2 else B for letter in word)
        halves = sum(1 for letter in word if letter != X2)
        substituted[image] = substituted.get(image, 0) + coeff / 2**halves
    half = Fraction(1, 2)
    weighted = log_exp_product(((B, half), (A, 1), (B, half)), 7)
    assert FreeSeries(7, substituted) == weighted


def test_collapse_rejects_negative_order():
    with pytest.raises(ValueError):
        collapse_two_letter(-1)
    with pytest.raises(ValueError):
        collapse_strang(-1)


# -- convergence radius -----------------------------------------------------


def test_estimate_radius_converges_to_two():
    assert 1.99 <= estimate_radius(200) <= 2.01
    # More coefficients, tighter estimate; always above the true radius.
    assert estimate_radius(50) > estimate_radius(200) > 2.0


def test_estimate_radius_matches_ratio_formula():
    assert scale_series_coeff(1) / scale_series_coeff(2) == 5  # (1/6) / (1/30)
    n = 8  # estimate_radius(10) uses the ratio at n = 8
    expected = math.sqrt((2 * n + 2) * (2 * n + 3) / (n + 1) ** 2)
    assert estimate_radius(10) == pytest.approx(expected, rel=1e-15)


def test_estimate_radius_needs_enough_coefficients():
    with pytest.raises(ValueError):
        estimate_radius(9)
