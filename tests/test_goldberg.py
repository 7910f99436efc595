import math
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest

from shadowosc import goldberg
from shadowosc.free_series import FreeSeries, log_exp_product, series_mul
from shadowosc.goldberg import (
    A,
    B,
    X1,
    X2,
    X3,
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


def accepted_words(closed_form, letters, max_degree):
    """The words over range(letters) of length 0..max_degree that
    closed_form takes; any other must raise ValueError."""
    words = []
    for length in range(max_degree + 1):
        for word in product(range(letters), repeat=length):
            try:
                closed_form(word)
            except ValueError:
                continue
            words.append(word)
    return words


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
    word = ((start, 1 - start) * length)[:length]  # alternating, from start
    assert goldberg_coeff_two(word) == expected


def test_alternating_word_validation():
    for word in [(), (A, A), (A, B, B), (B, B, A, B), (2,), (A, 2)]:
        with pytest.raises(ValueError):
            goldberg_coeff_two(word)


@pytest.mark.parametrize(
    "pattern,expected",
    [
        ((X2,), Fraction(1)),
        ((X1,), Fraction(1)),
        ((X2, X1, X2), Fraction(-1, 6)),
        ((X1, X2, X1), Fraction(-1, 6)),
        ((X3, X2, X3), Fraction(-1, 6)),
        ((X1, X2, X3), Fraction(1, 3)),
        ((X3, X2, X1), Fraction(1, 3)),
        ((X2, X1, X2, X3, X2), Fraction(1, 30)),
        ((X1, X2, X3, X2, X3), Fraction(-1, 20)),
    ],
)
def test_goldberg_coeff_three_examples(pattern, expected):
    assert goldberg_coeff_three(pattern) == expected


def test_three_word_pattern_validation():
    for word in [
        (),
        (X1, X2),  # even length
        (X1, X3, X1),  # X1 next to X3
        (X2, X2, X2),
        (X1, X2, X2, X2, X1),
        (3,),
        (X2, 3, X2),
    ]:
        with pytest.raises(ValueError):
            goldberg_coeff_three(word)


@pytest.mark.parametrize(
    "letters,max_degree,closed_form,verify,names",
    [
        (2, 10, goldberg_coeff_two, verify_two_letter, "AB"),
        (3, 7, goldberg_coeff_three, verify_three_letter, ("X1", "X2", "X3")),
    ],
    ids=["two_letters", "three_letters"],
)
def test_verify_reports_every_word_the_closed_form_takes(
    letters, max_degree, closed_form, verify, names
):
    # Of all words up to max_degree, the empty one included, the ones the
    # closed form takes are the reported ones, each once.
    accepted = [
        "".join(names[letter] for letter in word)
        for word in accepted_words(closed_form, letters, max_degree)
    ]
    reported = [report.word for report in verify(max_degree)]
    assert len(set(reported)) == len(reported)
    assert sorted(reported) == sorted(accepted)


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


def test_nonalternating_support_matches_the_per_word_count():
    # The per-length count less the alternating words present equals
    # testing every word for a repeated adjacent letter.
    for max_degree in range(1, 15):
        counts = dict.fromkeys(range(1, max_degree + 1), 0)
        for word in two_letter_oracle(max_degree).coeffs:
            counts[len(word)] += any(a == b for a, b in zip(word, word[1:]))
        assert nonalternating_support(max_degree) == counts


def test_three_letter_matches_oracle_through_degree_7():
    reports = verify_three_letter(7)
    assert len(reports) == 45
    assert all(report.match for report in reports)


def test_three_letter_frozen_golden_value():
    # Golden value recorded from the free-algebra oracle run.
    assert three_letter_oracle(3).coefficient((X1, X2, X3)) == Fraction(1, 3)


def test_intermediate_letter_independence():
    # Over the words goldberg_coeff_three takes, the oracle's coefficient
    # depends only on the length and the two endpoints.
    oracle = three_letter_oracle(7)
    values = defaultdict(set)
    for word in accepted_words(goldberg_coeff_three, 3, 7):
        values[len(word), word[0], word[-1]].add(oracle.coefficient(word))
    assert len(values) == 18  # per n = 0..3: inner words, 4 endpoint pairs (2 at n = 0)
    assert all(len(group) == 1 for group in values.values())


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
