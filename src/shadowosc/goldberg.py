"""Closed-form word coefficients for logs of exponential products.

Goldberg's theorem gives the coefficient of every word in
log(exp(A) exp(B)) as an explicit rational; an extended version does the
same for log(exp(X1) exp(X2) exp(X3)).  The two nilpotent generators of
the harmonic-oscillator splitting satisfy AA = BB = 0 and the rewrite
rules ABA -> -A, BAB -> -B, so after "collapse" each surviving word
reduces to A, B, AB or BA and the whole log series folds into a scalar
power series.

Everything in this module is checked against the exact free-algebra
oracle in :mod:`shadowosc.free_series`; no closed form is trusted bare.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from typing import NamedTuple

from .free_series import FreeSeries, Word, log_exp_product

# Letter indices.  Two-letter alphabet: A, B.  Three-letter alphabet:
# X1, X2, X3.  A word is a tuple of them.
A, B = 0, 1
X1, X2, X3 = 0, 1, 2


def scale_series_coeff(n: int) -> Fraction:
    """n-th coefficient (n!)^2 / (2n+1)! of the even generator-scale series."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(math.factorial(n) ** 2, math.factorial(2 * n + 1))


def _alternates(word) -> bool:
    """No letter of word sits next to itself."""
    return all(map(operator.ne, word, word[1:]))


# ---------------------------------------------------------------------------
# Closed-form coefficients
# ---------------------------------------------------------------------------


def goldberg_coeff_two(word: Word) -> Fraction:
    """Coefficient of an alternating word in log(exp(A) exp(B)).

    Odd length 2n+1: (-1)^n (n!)^2/(2n+1)! regardless of the start.
    Even length 2n+2: (-1)^n (n!)^2/(2(2n+1)!), negated for start B.
    Any word but a nonempty alternating one over A, B raises ValueError.
    """
    if not word or not {*word} <= {A, B} or not _alternates(word):
        raise ValueError(f"not a nonempty alternating word over A, B: {word}")
    n = (len(word) - 1) // 2
    value = (-1) ** n * scale_series_coeff(n)
    if len(word) % 2:
        return value
    return value / 2 if word[0] == A else -value / 2


def goldberg_coeff_three(word: Word) -> Fraction:
    """Coefficient of a word of length 2n+1 in log(exp(X1) exp(X2) exp(X3)).

    The word alternates X2 with X1 or X3.  Inner words (X2 first) and
    outer words with equal endpoints share the two-letter odd coefficient
    (-1)^n (n!)^2/(2n+1)!; outer words X1...X3 and X3...X1 get
    (-1)^(n+1) (n-1)!(n+1)!/(2n+1)! instead.  The value never depends on
    which of X1/X3 sits between two X2's.  Any other word raises
    ValueError.
    """
    is_x2 = [letter == X2 for letter in word]
    if len(word) % 2 == 0 or not {*word} <= {X1, X2, X3} or not _alternates(is_x2):
        raise ValueError(f"not an odd-length word alternating X2 with X1 or X3: {word}")
    n = len(word) // 2
    value = (-1) ** n * scale_series_coeff(n)
    if word[0] == X2 or word[0] == word[-1]:
        return value
    # (n-1)! (n+1)! = (n!)^2 (n+1)/n
    return -value * Fraction(n + 1, n)


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------


class CoeffReport(NamedTuple):
    """One word checked: closed form against the free-algebra oracle."""

    word: str
    closed_form: Fraction
    oracle: Fraction

    @property
    def match(self) -> bool:
        return self.closed_form == self.oracle


@lru_cache(maxsize=None)
def two_letter_oracle(max_degree: int) -> FreeSeries:
    """log(exp(A) exp(B)) from the free algebra, cached per degree."""
    return log_exp_product(((A, 1), (B, 1)), max_degree)


@lru_cache(maxsize=None)
def three_letter_oracle(max_degree: int) -> FreeSeries:
    """log(exp(X1) exp(X2) exp(X3)) from the free algebra, cached."""
    return log_exp_product(((X1, 1), (X2, 1), (X3, 1)), max_degree)


def nonalternating_support(max_degree: int) -> dict[int, int]:
    """Count of nonzero non-alternating words per degree in the raw log.

    The raw series keeps words containing AA or BB (with degree-2 being
    the lone exception, where both such words cancel); only the nilpotent
    collapse removes them.
    """
    coeffs, ab = two_letter_oracle(max_degree).coeffs, (A, B) * max_degree
    counts, degrees = Counter(map(len, coeffs)), range(1, max_degree + 1)
    # Every word, less the alternating ones present: the slices of ABAB...
    counts.subtract(n for n in degrees for start in (0, 1) if ab[start : start + n] in coeffs)
    return {degree: counts[degree] for degree in degrees}


def _reports(words, closed_form, oracle: FreeSeries, names) -> list[CoeffReport]:
    """Each word's label, closed form and oracle coefficient."""
    return [
        CoeffReport("".join(names[i] for i in word), closed_form(word), oracle.coefficient(word))
        for word in words
    ]


def verify_two_letter(max_degree: int) -> list[CoeffReport]:
    """Check every alternating word up to max_degree against the oracle."""
    if max_degree < 2:
        raise ValueError(f"max_degree must be >= 2, got {max_degree}")
    support = nonalternating_support(max_degree)
    for degree in range(3, max_degree + 1):
        if support[degree] == 0:
            raise RuntimeError(
                f"raw log series lost its non-alternating words at degree {degree}"
            )
    ab = (A, B) * max_degree  # by length, the A-start word first, as slices of ABAB...
    words = [ab[start : start + n] for n in range(1, max_degree + 1) for start in (0, 1)]
    return _reports(words, goldberg_coeff_two, two_letter_oracle(max_degree), ("A", "B"))


def verify_three_letter(max_degree: int) -> list[CoeffReport]:
    """Check every word goldberg_coeff_three takes, up to max_degree,
    against the three-letter oracle.

    Per length 2n+1: the inner words X2 Y1 X2 ... Yn X2, then the outer
    words Y0 X2 Y1 ... X2 Yn grouped by endpoints (Y0, Yn), each Y one of
    X1, X3 and the middle letters in product order.
    """
    if max_degree < 3:
        raise ValueError(f"max_degree must be >= 3, got {max_degree}")
    oracle = three_letter_oracle(max_degree)
    words = []
    for n in range((max_degree - 1) // 2 + 1):
        inner = cartesian((X1, X3), repeat=n)
        outer = sorted(cartesian((X1, X3), repeat=n + 1), key=lambda ys: (ys[0], ys[-1]))
        # Inner words hold the Y's at odd positions, outer words at even ones.
        for offset, choices in ((1, inner), (0, outer)):
            for ys in choices:
                word = [X2] * (2 * n + 1)
                word[offset::2] = ys
                words.append(tuple(word))
    return _reports(words, goldberg_coeff_three, oracle, ("X1", "X2", "X3"))


# ---------------------------------------------------------------------------
# Nilpotent collapse
# ---------------------------------------------------------------------------


def collapse_word(word: Word):
    """Reduce a two-letter word with AA -> 0, BB -> 0, ABA -> -A, BAB -> -B.

    Any word with a repeated adjacent letter dies; a strictly alternating
    word loses its leading three letters to a sign flip until at most two
    remain.  Returns (sign, reduced_word) or None for zero.
    """
    if not _alternates(word):
        return None
    sign = 1
    while len(word) > 2:
        word = (word[0],) + word[3:]
        sign = -sign
    return sign, word


def collapse_series(series: FreeSeries) -> dict[tuple[int, Word], Fraction]:
    """Apply collapse_word to every term, graded by the original length.

    Returns {(original length, reduced word): coefficient}, zeros dropped.
    When each letter carries one power of x, the length is the power of x
    and the reduced word lies in {1, A, B, AB, BA}.
    """
    graded: dict[tuple[int, Word], Fraction] = {}
    for word, coeff in series.coeffs.items():
        hit = collapse_word(word)
        if hit is None:
            continue
        sign, reduced = hit
        key = (len(word), reduced)
        graded[key] = graded.get(key, 0) + sign * coeff
    return {key: value for key, value in graded.items() if value}


def _graded_sequence(graded: dict, reduced: Word, max_n: int) -> tuple[Fraction, ...]:
    """Coefficients of x^(2n + |reduced|) on ``reduced``, n = 0..max_n; a
    collapsing word keeps the parity of its length."""
    zero = Fraction(0)
    return tuple(
        graded.get((2 * n + len(reduced), reduced), zero) for n in range(max_n + 1)
    )


class TwoLetterCollapse(NamedTuple):
    """Collapsed log(exp(xA) exp(xB)): per n, the coefficients of
    x^(2n+1) A, x^(2n+1) B, x^(2n+2) AB and x^(2n+2) BA."""

    a_coeffs: tuple[Fraction, ...]
    b_coeffs: tuple[Fraction, ...]
    ab_coeffs: tuple[Fraction, ...]
    ba_coeffs: tuple[Fraction, ...]


def collapse_two_letter(max_n: int) -> TwoLetterCollapse:
    """Collapse the raw two-letter log series.  Expected values: the A
    and B sequences both equal (n!)^2/(2n+1)! and the AB/BA sequences are
    +-(n!)^2/(2(2n+1)!).
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    graded = collapse_series(two_letter_oracle(2 * max_n + 2))
    return TwoLetterCollapse(
        a_coeffs=_graded_sequence(graded, (A,), max_n),
        b_coeffs=_graded_sequence(graded, (B,), max_n),
        ab_coeffs=_graded_sequence(graded, (A, B), max_n),
        ba_coeffs=_graded_sequence(graded, (B, A), max_n),
    )


class StrangCollapse(NamedTuple):
    """Collapsed log of the symmetric half-kick product.

    ``a_coeffs[n]`` multiplies x^(2n) in the even series attached to xA,
    ``b_coeffs[n]`` the one attached to xB; ``odd_only`` records that
    every even-length word cancelled exactly.
    """

    a_coeffs: tuple[Fraction, ...]
    b_coeffs: tuple[Fraction, ...]
    odd_only: bool


def collapse_strang(max_n: int) -> StrangCollapse:
    """Collapse log(exp((x/2)B) exp(xA) exp((x/2)B)) with collapse_series.

    The weighted oracle log(exp(B/2) exp(A) exp(B/2)) is the three-letter
    log with X1 = X3 = B/2, X2 = A substituted: substitution is an algebra
    homomorphism, so it commutes with exp and log.  Each letter carries
    one power of x.  Only odd lengths should survive, giving
    x(S1(x) A + S2(x) B) with S1, S2 even.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    half = Fraction(1, 2)
    oracle = log_exp_product(((B, half), (A, 1), (B, half)), 2 * max_n + 1)
    graded = collapse_series(oracle)
    return StrangCollapse(
        a_coeffs=_graded_sequence(graded, (A,), max_n),
        b_coeffs=_graded_sequence(graded, (B,), max_n),
        odd_only=all(length % 2 for length, _ in graded),
    )


def estimate_radius(num_coeffs: int) -> float:
    """Ratio-test estimate of the convergence radius of the scale series.

    sqrt(a_n / a_{n+1}) at the largest n available from ``num_coeffs``
    exact coefficients; the true ratio (2n+2)(2n+3)/(n+1)^2 tends to 4,
    so the estimate tends to 2.
    """
    if num_coeffs < 10:
        raise ValueError(f"need at least 10 coefficients, got {num_coeffs}")
    n = num_coeffs - 2
    return math.sqrt(scale_series_coeff(n) / scale_series_coeff(n + 1))
