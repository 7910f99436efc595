"""Exact truncated power series in noncommuting letters.

The coefficient field is ``fractions.Fraction``, so every operation in this
module is exact: no floats, no tolerances.  Words are tuples of letter
indices (``()`` is the algebra unit), and zero coefficients are never
stored, which makes equality of series plain dictionary equality.

This is the brute-force side of every coefficient identity checked in
:mod:`shadowosc.goldberg`: ``log_exp_product`` multiplies out exponentials
of single letters and takes the formal logarithm, with no closed-form
knowledge baked in.  It works on integers over one known denominator
per word length (a divided-power scaling), in dense lists indexed by each
word's base-r code, so its hot loop takes no gcd and hashes no word.  It
takes the log by Horner's rule and builds one Fraction per distinct
coefficient.  The Fraction ring operations ``series_mul``,
``series_exp`` and ``series_log`` are its reference.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

Word = Tuple[int, ...]


class FreeSeries:
    """A formal power series over noncommuting letters, truncated in degree.

    ``coeffs`` maps words (tuples of letter indices) to nonzero Fractions;
    words longer than ``max_degree`` are silently dropped, which is what
    truncation means here.
    """

    __slots__ = ("max_degree", "coeffs")

    def __init__(self, max_degree: int, coeffs: Mapping[Word, object] | None = None):
        if max_degree < 1:
            raise ValueError(f"max_degree must be positive, got {max_degree}")
        object.__setattr__(self, "max_degree", max_degree)
        clean: dict[Word, Fraction] = {}
        if coeffs:
            for word, value in coeffs.items():
                word = tuple(word)
                if len(word) > max_degree:
                    continue
                if type(value) is not Fraction:  # a Fraction is immutable: keep it
                    value = Fraction(value)
                if value:
                    clean[word] = value
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FreeSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, max_degree: int) -> "FreeSeries":
        return cls(max_degree)

    @classmethod
    def one(cls, max_degree: int) -> "FreeSeries":
        return cls(max_degree, {(): Fraction(1)})

    @classmethod
    def letter(cls, index: int, max_degree: int, scale=1) -> "FreeSeries":
        """The series ``scale * x_index``."""
        if index < 0:
            raise ValueError(f"letter index must be >= 0, got {index}")
        return cls(max_degree, {(index,): Fraction(scale)})

    # -- inspection --------------------------------------------------------

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return self.coeffs.get(tuple(word), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.coeffs.get((), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeSeries):
            return NotImplemented
        return self.max_degree == other.max_degree and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"FreeSeries(deg<={self.max_degree}, 0)"
        parts = []
        for word in sorted(self.coeffs, key=lambda w: (len(w), w)):
            name = "".join(str(i) for i in word) if word else "1"
            parts.append(f"{self.coeffs[word]}*{name}")
        return f"FreeSeries(deg<={self.max_degree}, {' + '.join(parts)})"

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "FreeSeries") -> None:
        if self.max_degree != other.max_degree:
            raise ValueError(
                f"mismatched truncation orders: {self.max_degree} vs {other.max_degree}"
            )

    def __add__(self, other: "FreeSeries") -> "FreeSeries":
        self._check_compatible(other)
        total = dict(self.coeffs)
        for word, value in other.coeffs.items():
            total[word] = total.get(word, Fraction(0)) + value
        return FreeSeries(self.max_degree, total)

    def __sub__(self, other: "FreeSeries") -> "FreeSeries":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "FreeSeries":
        factor = Fraction(factor)
        return FreeSeries(
            self.max_degree, {w: v * factor for w, v in self.coeffs.items()}
        )


def series_mul(a: FreeSeries, b: FreeSeries) -> FreeSeries:
    """Truncated concatenation product.

    The coefficient of a word w in the result is the sum of a[u]*b[v] over
    all splittings w = uv; words longer than max_degree are discarded.
    """
    a._check_compatible(b)
    product: dict[Word, Fraction] = {}
    for left, cl in a.coeffs.items():
        for right, cr in b.coeffs.items():
            if len(left) + len(right) <= a.max_degree:
                product[left + right] = product.get(left + right, 0) + cl * cr
    return FreeSeries(a.max_degree, product)


def series_exp(a: FreeSeries) -> FreeSeries:
    """exp(a) = sum a^m / m!, truncated at a.max_degree.

    Requires a zero constant term so that the sum is finite degree by
    degree.
    """
    if a.constant_term():
        raise ValueError("series_exp requires a zero constant term")
    power_sum = _power_sum(a, lambda m: Fraction(1, math.factorial(m)))
    return FreeSeries.one(a.max_degree) + power_sum


def series_log(a: FreeSeries) -> FreeSeries:
    """log(a) = sum (-1)^(m+1) (a-1)^m / m, truncated at a.max_degree.

    Requires constant term 1; inverse of series_exp up to the truncation
    order.
    """
    if a.constant_term() != 1:
        raise ValueError("series_log requires constant term 1")
    shifted = a - FreeSeries.one(a.max_degree)
    return _power_sum(shifted, lambda m: Fraction((-1) ** (m + 1), m))


def _power_sum(a: FreeSeries, coefficient) -> FreeSeries:
    """sum c_m a^m for m = 1..N, N = a.max_degree, c_m = coefficient(m)."""
    total, power = FreeSeries.zero(a.max_degree), FreeSeries.one(a.max_degree)
    for m in range(1, a.max_degree + 1):
        power = series_mul(power, a)
        total = total + power.scaled(coefficient(m))
    return total


def log_exp_product(
    weights: Sequence[tuple[int, object]], max_degree: int
) -> FreeSeries:
    """log of a product of exponentials of weighted single letters.

    ``weights`` is a sequence of (letter index, rational scale) pairs; the
    result is log(exp(s0 * x_l0) * exp(s1 * x_l1) * ...) truncated at
    ``max_degree``.  This one routine is the oracle for every word
    coefficient claimed in closed form elsewhere.  It knows no closed
    form: it multiplies out the exponentials and takes the formal log,
    the same computation as composing ``series_exp``, ``series_mul`` and
    ``series_log``, which the tests keep as its reference.

    The work is done on integers in divided-power scaling.  With ``b``
    the lcm of the scale denominators, a coefficient ``c`` of a word
    ``w`` is held as the integer ``c * b^|w| * |w|!``:

    * ``exp(s x_l)`` has ``s^m / m!`` on ``x_l^m``, held as ``(s b)^m``;
    * a product picks up the binomial ``|uv|! / (|u|! |v|!)``, so
      ``R[uv] += C(|uv|, |u|) * P[u] * Q[v]`` stays integral;
    * with ``S = P - 1``, ``N = max_degree`` and ``M = lcm(1..N)``, the
      log ``sum (-1)^(m+1) S^m / m`` is held, by Horner's rule, as
      ``S (c_1 + S (c_2 + ... + S c_N))`` with ``c_m = (-1)^(m+1) M/m``.
      The factor that ``S^k`` multiplies is cut at degree ``N - k``:
      about ``r/(r-1) r^N`` operations, against ``N r^N`` for each power.

    Each held value is the true coefficient times a positive integer
    fixed by the word length, so nothing is rounded and no gcd is taken
    until one Fraction per distinct value of each length divides that
    integer out, shared by every word that holds it.

    The integers live in dense lists, one per word length: with the
    ``r`` distinct letters sorted, a word is its base-``r`` code, so the
    list for length ``n`` holds ``r^n`` ints in lexicographic word order.
    Appending a word ``v`` of length ``m`` maps code ``u`` to
    ``u r^m + code(v)``: one strided slice ``[code(v)::r^m]`` per ``v``.
    """
    if not weights:
        raise ValueError("log_exp_product needs at least one factor")
    if max_degree < 1:
        raise ValueError(f"max_degree must be positive, got {max_degree}")
    scales = []
    for index, scale in weights:
        if index < 0:
            raise ValueError(f"letter index must be >= 0, got {index}")
        scales.append((index, Fraction(scale)))
    letters = sorted({index for index, _ in scales})
    radix, lengths = len(letters), range(max_degree + 1)
    base = math.lcm(*(scale.denominator for _, scale in scales))
    product = [[1]]  # each _concat fills in lengths 1..max_degree
    for index, scale in scales:
        weight = scale.numerator * (base // scale.denominator)
        digit = letters.index(index)  # x_l^m is m base-r digits, all this one
        factor = [(m, digit * sum(radix**k for k in range(m)), weight**m) for m in lengths]
        product = _concat(product, factor, radix, max_degree)
    product[0][0] = 0  # S = P - 1; every factor has constant term 1
    shifted = [(m, c, v) for m in lengths for c, v in enumerate(product[m]) if v]
    common = math.lcm(*range(1, max_degree + 1))
    # Horner: total = S (c_m + total) for m = N..1, cut at degree N - m + 1.
    total = [[0]]
    for m in range(max_degree, 0, -1):
        total[0][0] += common // m if m % 2 else -(common // m)
        total = _concat(total, shifted, radix, max_degree - m + 1)
    coeffs = {}
    for n, row in enumerate(total):
        shared = {v: Fraction(v, common * base**n * math.factorial(n)) for v in {*row} - {0}}
        words = itertools.compress(itertools.product(letters, repeat=n), row)
        coeffs.update(zip(words, map(shared.__getitem__, filter(None, row))))
    return FreeSeries(max_degree, coeffs)


def _concat(
    left: list[list[int]], right: list[tuple[int, int, int]], radix: int, degree: int
) -> list[list[int]]:
    """Concatenation product, truncated at ``degree``, of two divided-power
    series: ``left`` dense (``radix^n`` ints per length ``n``), ``right`` a
    list of ``(length, code, value)`` words, shortest first.  Each pair
    carries the binomial ``C(|u| + |v|, |u|)``."""
    out = [[0] * radix**n for n in range(degree + 1)]
    for n, row in enumerate(left):
        if not any(row):
            continue
        for m, code, value in right:
            if n + m > degree:
                break
            stride = radix**m
            scale = math.comb(n + m, n) * value
            dst = out[n + m]
            dst[code::stride] = [a + scale * b for a, b in zip(dst[code::stride], row)]
    return out
