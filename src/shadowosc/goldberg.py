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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian

from .free_series import FreeSeries, Word, log_exp_product

# Letter indices.  Two-letter alphabet: A, B.  Three-letter alphabet:
# X1, X2, X3 (subscripts 1/2/3 as used by the endpoint formulas below).
A, B = 0, 1
X1, X2, X3 = 0, 1, 2

_SUBSCRIPT_TO_LETTER = {1: X1, 2: X2, 3: X3}


def scale_series_coeff(n: int) -> Fraction:
    """n-th coefficient (n!)^2 / (2n+1)! of the even generator-scale series."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(math.factorial(n) ** 2, math.factorial(2 * n + 1))


# ---------------------------------------------------------------------------
# Word patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlternatingWord:
    """Strictly alternating two-letter word of a given length and start."""

    start: int
    length: int

    def __post_init__(self):
        if self.start not in (A, B):
            raise ValueError(f"start must be A or B, got {self.start}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")

    def word(self) -> Word:
        other = B if self.start == A else A
        return tuple(self.start if i % 2 == 0 else other for i in range(self.length))

    def label(self) -> str:
        return "".join("AB"[letter] for letter in self.word())


@dataclass(frozen=True)
class ThreeWordPattern:
    """Word shape in the three-exponential log that survives collapse.

    shape="inner": X2 X_{i1} X2 ... X_{in} X2 (length 2n+1, n >= 0).
    shape="outer": X_{i1} X2 X_{i2} X2 ... X2 X_{i_{n+1}} (length 2n+1);
    ``endpoints`` holds the subscripts (i1, i_{n+1}), each 1 or 3.  For
    n=0 the outer word is the single letter X_{i1}, so mixed endpoints
    need n >= 1.
    """

    n: int
    shape: str
    endpoints: tuple[int, int] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.shape not in ("inner", "outer"):
            raise ValueError(f"shape must be 'inner' or 'outer', got {self.shape!r}")
        if self.shape == "inner":
            if self.endpoints is not None:
                raise ValueError("inner patterns carry no endpoints")
            return
        if self.endpoints is None:
            raise ValueError("outer patterns need endpoints")
        if any(e not in (1, 3) for e in self.endpoints):
            raise ValueError(f"endpoint subscripts must be 1 or 3, got {self.endpoints}")
        if self.n == 0 and self.endpoints[0] != self.endpoints[1]:
            raise ValueError("mixed endpoints require n >= 1")

    def length(self) -> int:
        return 2 * self.n + 1

    def words(self):
        """All concrete words matching the pattern (every choice of
        intermediate letters)."""
        if self.shape == "inner":
            for mids in cartesian((1, 3), repeat=self.n):
                word = [X2]
                for sub in mids:
                    word += [_SUBSCRIPT_TO_LETTER[sub], X2]
                yield tuple(word)
            return
        first, last = self.endpoints
        if self.n == 0:
            yield (_SUBSCRIPT_TO_LETTER[first],)
            return
        for mids in cartesian((1, 3), repeat=self.n - 1):
            word = [_SUBSCRIPT_TO_LETTER[first]]
            for sub in mids:
                word += [X2, _SUBSCRIPT_TO_LETTER[sub]]
            word += [X2, _SUBSCRIPT_TO_LETTER[last]]
            yield tuple(word)


def three_letter_label(word: Word) -> str:
    return "".join(f"X{letter + 1}" for letter in word)


# ---------------------------------------------------------------------------
# Closed-form coefficients
# ---------------------------------------------------------------------------


def goldberg_coeff_two(w: AlternatingWord) -> Fraction:
    """Coefficient of an alternating word in log(exp(A) exp(B)).

    Odd length 2n+1: (-1)^n (n!)^2/(2n+1)! regardless of the start.
    Even length 2n+2: (-1)^n (n!)^2/(2(2n+1)!), negated for start B.
    """
    n = (w.length - 1) // 2
    value = (-1) ** n * scale_series_coeff(n)
    if w.length % 2:
        return value
    return value / 2 if w.start == A else -value / 2


def goldberg_coeff_three(p: ThreeWordPattern) -> Fraction:
    """Coefficient of a pattern word in log(exp(X1) exp(X2) exp(X3)).

    Inner words and outer words with equal endpoints share the two-letter
    odd coefficient (-1)^n (n!)^2/(2n+1)!; mixed endpoints (1,3)/(3,1)
    get (-1)^(n+1) (n-1)!(n+1)!/(2n+1)! instead.  The value never depends
    on which of X1/X3 sits between two X2's.
    """
    n = p.n
    value = (-1) ** n * scale_series_coeff(n)
    if p.shape == "inner" or p.endpoints[0] == p.endpoints[1]:
        return value
    # (n-1)! (n+1)! = (n!)^2 (n+1)/n
    return -value * Fraction(n + 1, n)


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffReport:
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
    oracle = two_letter_oracle(max_degree)
    counts = {degree: 0 for degree in range(1, max_degree + 1)}
    for word in oracle.coeffs:
        if any(word[i] == word[i + 1] for i in range(len(word) - 1)):
            counts[len(word)] += 1
    return counts


def verify_two_letter(max_degree: int) -> list[CoeffReport]:
    """Check every alternating word up to max_degree against the oracle."""
    if max_degree < 2:
        raise ValueError(f"max_degree must be >= 2, got {max_degree}")
    oracle = two_letter_oracle(max_degree)
    support = nonalternating_support(max_degree)
    for degree in range(3, max_degree + 1):
        if support[degree] == 0:
            raise RuntimeError(
                f"raw log series lost its non-alternating words at degree {degree}"
            )
    reports = []
    for length in range(1, max_degree + 1):
        for start in (A, B):
            w = AlternatingWord(start, length)
            reports.append(
                CoeffReport(w.label(), goldberg_coeff_two(w), oracle.coefficient(w.word()))
            )
    return reports


def _patterns_up_to(max_degree: int):
    for n in range(0, (max_degree - 1) // 2 + 1):
        yield ThreeWordPattern(n, "inner")
        endpoint_pairs = [(1, 1), (3, 3)] if n == 0 else [(1, 1), (1, 3), (3, 1), (3, 3)]
        for pair in endpoint_pairs:
            yield ThreeWordPattern(n, "outer", pair)


def verify_three_letter(max_degree: int) -> list[CoeffReport]:
    """Check every pattern-conforming word up to max_degree, for all
    intermediate-letter choices, against the three-letter oracle."""
    if max_degree < 3:
        raise ValueError(f"max_degree must be >= 3, got {max_degree}")
    oracle = three_letter_oracle(max_degree)
    reports = []
    for pattern in _patterns_up_to(max_degree):
        closed = goldberg_coeff_three(pattern)
        for word in pattern.words():
            reports.append(
                CoeffReport(three_letter_label(word), closed, oracle.coefficient(word))
            )
    return reports


# ---------------------------------------------------------------------------
# Nilpotent collapse
# ---------------------------------------------------------------------------


def collapse_word(word: Word):
    """Reduce a two-letter word with AA -> 0, BB -> 0, ABA -> -A, BAB -> -B.

    Any word with a repeated adjacent letter dies; a strictly alternating
    word loses its leading three letters to a sign flip until at most two
    remain.  Returns (sign, reduced_word) or None for zero.
    """
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
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


@dataclass(frozen=True)
class TwoLetterCollapse:
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


@dataclass(frozen=True)
class StrangCollapse:
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
