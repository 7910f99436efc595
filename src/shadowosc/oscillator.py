"""Split-step maps for the unit harmonic oscillator and their exact
conserved quadratic forms.

The two schemes (kick-then-drift, and the symmetric half-kick sandwich)
are linear maps on (p, q), generated by the nilpotent matrices A (drift)
and B (kick).  Everything here runs on plain Python numbers: pass
Fractions and the arithmetic is exact, pass floats and you get floats.
Constants are written as Fractions so int and Fraction inputs never fall
into float division.

The scale factor of the effective generator is an even power series with
convergence radius 2; this module refuses to sum it at |x| >= 2 instead
of returning a meaningless partial sum, because the breakdown at step 2
is the whole point of the analysis.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

Scalar = Union[int, float, Fraction]

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class SeriesDivergesError(ValueError):
    """The generator-scale series does not converge at this time step."""


class NoEllipticLogError(ValueError):
    """The map has no elliptic (complex-rotation) real logarithm."""


class PhaseState(NamedTuple):
    p: Scalar
    q: Scalar


class Mat2:
    """2x2 matrix [[a, b], [c, d]] acting on column vectors (p, q),
    compared by value; mutable, so unhashable."""

    __slots__ = ("a", "b", "c", "d")
    __hash__ = None

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries() == other.entries()

    def __repr__(self):
        return f"{type(self).__name__}(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def zero(cls) -> "Mat2":
        return cls(0, 0, 0, 0)

    def __add__(self, other):
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __rmul__(self, scalar):
        return Mat2(scalar * self.a, scalar * self.b, scalar * self.c, scalar * self.d)

    def __matmul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, state: PhaseState) -> PhaseState:
        return PhaseState(
            self.a * state.p + self.b * state.q,
            self.c * state.p + self.d * state.q,
        )

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def max_abs_diff(self, other: "Mat2") -> float:
        return max(abs(float(x) - float(y)) for x, y in zip(self.entries(), other.entries()))


def commutator(m: Mat2, n: Mat2) -> Mat2:
    return m @ n - n @ m


# Drift generator (adds p to q) and kick generator (subtracts q from p).
# Both square to zero, which is what makes the linear factors exact
# exponentials: exp(xA) = 1 + xA and exp(xB) = 1 + xB.
A = Mat2(0, 0, 1, 0)
B = Mat2(0, -1, 0, 0)


class SchemeId(enum.Enum):
    FIRST_ORDER = "first"
    SECOND_ORDER = "second"


class StabilityClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


# ---------------------------------------------------------------------------
# Step maps
# ---------------------------------------------------------------------------


def step_first_order(s: PhaseState, x: Scalar) -> PhaseState:
    """One kick-then-drift step: p' = p - x q, then q' = q + x p'."""
    p = s.p - x * s.q
    q = s.q + x * p
    return PhaseState(p, q)


def step_second_order(s: PhaseState, x: Scalar) -> PhaseState:
    """One symmetric step: half kick, full drift, half kick."""
    half_x = HALF * x
    p = s.p - half_x * s.q
    q = s.q + x * p
    p = p - half_x * q
    return PhaseState(p, q)


def map_matrix(scheme: SchemeId, x: Scalar) -> Mat2:
    """The one-step map as an explicit matrix (determinant exactly 1)."""
    if scheme is SchemeId.FIRST_ORDER:
        return Mat2(1, -x, x, 1 - x * x)
    diag = 1 - HALF * x * x
    return Mat2(diag, -x + QUARTER * x**3, x, diag)


def orbit(s0: PhaseState, scheme: SchemeId, x: Scalar, n_steps: int) -> Iterator[PhaseState]:
    """Iterate the step map, streamed: yields n_steps + 1 states starting
    at s0, holding only the current one."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    step = step_first_order if scheme is SchemeId.FIRST_ORDER else step_second_order
    yield s0
    for _ in range(n_steps):
        s0 = step(s0, x)
        yield s0


def trajectory(s0: PhaseState, scheme: SchemeId, x: Scalar, n_steps: int) -> list[PhaseState]:
    """The orbit() as a list: n_steps + 1 states starting at s0.

    With Fraction inputs the whole orbit is exact, which is how the
    conservation statements are proved bit for bit rather than within a
    tolerance.
    """
    return list(orbit(s0, scheme, x, n_steps))


def _common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    fractions = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in fractions))
    return [v.numerator * (scale // v.denominator) for v in fractions], scale


def scaled_orbit(
    s0: PhaseState, scheme: SchemeId, x: Scalar, n_steps: int
) -> Iterator[tuple[PhaseState, int]]:
    """The exact orbit of trajectory() as integers over one denominator,
    streamed: yields n_steps + 1 pairs (PhaseState(P, Q), E), the state
    being (P/E, Q/E).

    With map_matrix(scheme, x) = K / D, K integer and D the lcm of its
    entries' denominators, one step is (P, Q), E -> K (P, Q), D E, so no
    gcd is taken; the pairs are not reduced (D is b^2 for the first
    scheme and 4 b^3 for the second at x = a/b, at most).  x, p0 and q0
    must be rational.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    entries, scale = _common_denominator(map_matrix(scheme, x).entries())
    step = Mat2(*entries)
    start, denominator = _common_denominator(s0)
    state = PhaseState(*start)
    yield state, denominator
    for _ in range(n_steps):
        state = step.apply(state)
        denominator *= scale
        yield state, denominator


def _scaled_matrices(scheme: SchemeId, n: int, b: int) -> tuple[Mat2, int, Mat2, int, Mat2, int]:
    """At x = n/b (b >= 1), the map, the shadow form's matrix and the
    generator direction as integer matrices over known denominators:
    (K, D, F, f, G, g) with map_matrix = K/D, shadow_form = F/f
    and generator_direction = G/g, no pair reduced.  It is to an x grid
    what scaled_orbit is to trajectory(): no Fraction is built.
    """
    b_sq = b * b
    if scheme is SchemeId.FIRST_ORDER:
        nb = n * b
        return (
            Mat2(b_sq, -nb, nb, b_sq - n * n), b_sq,
            Mat2(2 * b, -n, -n, 2 * b), 4 * b,
            Mat2(n, -2 * b, 2 * b, -n), 2 * b,
        )
    four_b_sq = 4 * b_sq
    off = four_b_sq - n * n  # 4 b^2 (1 - x^2/4)
    diag = (four_b_sq - 2 * n * n) * b  # 4 b^3 (1 - x^2/2)
    return (
        Mat2(diag, -n * off, 4 * n * b_sq, diag), 4 * b * b_sq,
        Mat2(four_b_sq, 0, 0, off), 8 * b_sq,
        Mat2(0, -off, four_b_sq, 0), four_b_sq,
    )


# ---------------------------------------------------------------------------
# Effective generator
# ---------------------------------------------------------------------------


def _inside_radius(x: Scalar) -> float:
    """float(x); NaN raises ValueError and |x| >= 2 SeriesDivergesError."""
    try:
        x = float(x)
    except OverflowError:  # a rational beyond the float range is far past 2
        x = math.inf if x > 0 else -math.inf
    if math.isnan(x):
        raise ValueError("generator scale is undefined at x = nan")
    if abs(x) >= 2.0:
        raise SeriesDivergesError(
            f"generator scale series diverges for |x| >= 2 (got x = {x})"
        )
    return x


# generator_scale sums at most this many terms; x = 1.99999 needs about
# 3.7e6 and x = 2 - 2^-52 about 10^14.
MAX_SCALE_TERMS = 10**7


def generator_scale(x: Scalar) -> float:
    """Sum the even series sum_n (n!)^2/(2n+1)! x^(2n) by partial sums.

    Terms are accumulated until the next one drops below 1e-14 of the
    running total.  Each term is the last times x^2 n^2 / ((2n)(2n+1)),
    with the counter n run as a float: for n <= MAX_SCALE_TERMS = 10^7,
    n and (2n)(2n+1) are integers below 2^53 (about 9.0e15), so both are
    exact as floats and every term has the bits of the integer-counter
    recurrence.  For |x| >= 2 the series diverges and this raises
    SeriesDivergesError rather than summing: past that step size there is
    no continuous motion for the discrete map to shadow.  NaN raises
    ValueError before any term is summed.  A series that needs more than
    MAX_SCALE_TERMS terms (|x| just below 2) raises ValueError.
    """
    x = _inside_radius(x)
    x_sq = x * x
    term = 1.0
    total = 0.0
    n = 0.0
    for _ in range(MAX_SCALE_TERMS):
        total += term
        n += 1.0
        two_n = n + n
        term *= x_sq * n * n / (two_n * (two_n + 1.0))
        if term < 1e-14 * total:
            return total + term
    raise ValueError(
        f"generator scale series needs more than {MAX_SCALE_TERMS} terms at x = {x}"
    )


def generator_scale_closed_form(x: Scalar) -> float:
    """Closed form 2 asin(x/2) / (x sqrt(1 - x^2/4)) of the scale series.

    Derived, not assumed: validated against partial sums before any test
    leans on it (see the acceptance suite).  NaN raises ValueError and
    |x| >= 2, infinities included, raises SeriesDivergesError.
    """
    x = _inside_radius(x)
    if x == 0.0:
        return 1.0
    return 2.0 * math.asin(x / 2.0) / (x * math.sqrt(1.0 - x * x / 4.0))


def generator_direction(scheme: SchemeId, x: Scalar) -> Mat2:
    """The unscaled generator: A + B + (x/2)[A,B] for the first-order
    scheme, A + (1 - x^2/4)B for the second.  Exact for rational x."""
    if scheme is SchemeId.FIRST_ORDER:
        half_x = HALF * x
        return Mat2(half_x, -1, 1, -half_x)
    off = 1 - QUARTER * x * x
    return Mat2(0, -off, 1, 0)


def effective_generator(scheme: SchemeId, x: Scalar) -> Mat2:
    """Scale times direction: the matrix G with exp(x G) equal to the
    one-step map.  Exists only inside the convergence radius."""
    return generator_scale(x) * generator_direction(scheme, x)


def _traceless(m: Mat2) -> tuple[float, Mat2, float]:
    """(trace/2, N, delta) in floats, with m = (trace/2) I + N and
    N^2 = delta I."""
    a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
    half_trace = (a + d) / 2.0
    na = a - half_trace
    return half_trace, Mat2(na, b, c, -na), na * na + b * c


def matrix_log_principal(m: Mat2) -> Mat2:
    """Principal real logarithm of an elliptic unit-determinant 2x2 map.

    With m = (trace/2) I + N and N^2 = delta I, the eigenvalues are
    exp(+-i theta) with cos theta = trace/2 and sin^2 theta = -delta =
    1 - (trace/2)^2, and the unique real log with eigenvalues +-i theta
    is (theta/sin theta) N.  theta = atan2(sin theta, trace/2) stays
    accurate at both ends, where arccos(trace/2) does not: sin theta is
    formed from delta, N's entries, when trace/2 > 0 (for tiny steps
    trace/2 rounds to 1), and from 1 - (trace/2)^2 otherwise (near -I,
    N's entries cancel in delta).  The determinant must be 1 within 1e-9;
    a NaN determinant (NaN or infinite entries) raises ValueError too.
    Serves as the independent cross-check of the effective generator: it
    never touches the series.
    """
    det = float(m.det())
    if not abs(det - 1.0) <= 1e-9:  # a NaN det fails too
        raise ValueError(f"matrix_log_principal needs det 1, got {det}")
    half_trace, traceless, _ = _traceless(m)
    # Below steps of about 1e-162, b*c underflows: form delta from N scaled
    # up by 2^shift, which is exact, and scale sin theta back.
    shift = 0
    if half_trace > 0.0:
        shift = max(0, -math.frexp(max(map(abs, traceless.entries())))[1])
        na, b, c, _ = (math.ldexp(v, shift) for v in traceless.entries())
        sin_sq = -(na * na + b * c)
    else:
        sin_sq = (1.0 - half_trace) * (1.0 + half_trace)
    if sin_sq <= 0.0:
        raise NoEllipticLogError(
            f"no elliptic logarithm: |trace| = {2 * abs(half_trace)} >= 2"
        )
    sin_theta = math.ldexp(math.sqrt(sin_sq), -shift)
    return (math.atan2(sin_theta, half_trace) / sin_theta) * traceless


def mat_exp(m: Mat2) -> Mat2:
    """Closed-form exponential of a real 2x2 matrix (float result).

    Split off the trace with _traceless; N^2 = delta I, so exp(N) is
    cosh/sinh or cos/sin in sqrt(|delta|).  Used as the second route of
    the generator cross-checks.
    """
    half_trace, traceless, delta = _traceless(m)
    if delta > 0:
        root = math.sqrt(delta)
        cos_like = math.cosh(root)
        sin_ratio = math.sinh(root) / root
    elif delta < 0:
        root = math.sqrt(-delta)
        cos_like = math.cos(root)
        sin_ratio = math.sin(root) / root
    else:
        cos_like = 1.0
        sin_ratio = 1.0
    scale = math.exp(half_trace)
    return Mat2(
        scale * (cos_like + sin_ratio * traceless.a),
        scale * sin_ratio * traceless.b,
        scale * sin_ratio * traceless.c,
        scale * (cos_like + sin_ratio * traceless.d),
    )


# ---------------------------------------------------------------------------
# Shadow energy
# ---------------------------------------------------------------------------


def shadow_form(scheme: SchemeId, x: Scalar) -> Mat2:
    """The symmetric matrix M of each scheme's conserved quadratic form
    (p q) M (p q)^t; exists for every x, but is positive definite only
    for |x| < 2."""
    if scheme is SchemeId.FIRST_ORDER:
        off = -QUARTER * x
        return Mat2(HALF, off, off, HALF)
    return Mat2(HALF, 0, 0, HALF * (1 - QUARTER * x * x))


def shadow_energy(s: PhaseState, scheme: SchemeId, x: Scalar):
    """The step-size-dependent energy the discrete map conserves exactly."""
    m = shadow_form(scheme, x)
    return m.a * s.p * s.p + (m.b + m.c) * s.p * s.q + m.d * s.q * s.q


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def _map_trace(x: Scalar):
    """Trace 2 - x^2 of both schemes' maps (conjugate by a half kick),
    summed as the first scheme's diagonal 1 + (1 - x^2), whose float bits
    2 - x^2 does not keep; a NaN trace (x = nan) raises ValueError."""
    trace = 1 + (1 - x * x)
    if trace != trace:  # only NaN differs from itself; no float conversion
        raise ValueError(f"the one-step map is undefined at x = {x}")
    return trace


def classify_trace(trace: Scalar, scale: int = 1) -> StabilityClass:
    """Classify a unit-determinant map of trace trace/scale (scale > 0)
    by |trace| against 2 scale.  Exact for int and Fraction input."""
    bound = 2 * scale
    if abs(trace) < bound:
        return StabilityClass.ELLIPTIC
    if abs(trace) == bound:
        return StabilityClass.PARABOLIC
    return StabilityClass.HYPERBOLIC


def stability_classify(x: Scalar) -> StabilityClass:
    """Classify the one-step map by |trace| against 2.

    Both schemes share trace 2 - x^2.  Exact comparisons, so rational
    input at the boundary classifies exactly.  NaN raises ValueError.
    """
    return classify_trace(_map_trace(x))


def spectral_radius(x: Scalar) -> float:
    """Largest eigenvalue magnitude of the one-step map.  NaN raises
    ValueError."""
    trace = abs(float(_map_trace(x)))
    if trace <= 2.0:
        return 1.0
    if math.isinf(trace * trace):  # |trace| above ~1e154: factor it out of the root
        return trace * ((1.0 + math.sqrt(1.0 - 4.0 / trace / trace)) / 2.0)
    return (trace + math.sqrt(trace * trace - 4.0)) / 2.0


def rotation_angle(x: Scalar) -> float:
    """The per-step phase advance in the elliptic regime, arccos(trace/2)
    taken as 2 arcsin(|x|/2) (trace = 2 - x^2), which keeps the digits of
    small angles.  NaN raises ValueError."""
    trace = float(_map_trace(x))
    if abs(trace) > 2.0:
        raise NoEllipticLogError(f"|trace| = {abs(trace)} > 2: no rotation angle")
    return 2.0 * math.asin(abs(float(x)) / 2.0)


# ---------------------------------------------------------------------------
# Structural identities
# ---------------------------------------------------------------------------


def check_generator_relations() -> list[tuple[str, bool]]:
    """Verify the five exact identities the whole construction rests on."""
    ab = commutator(A, B)
    checks = [
        ("A^2 = 0", A @ A == Mat2.zero()),
        ("B^2 = 0", B @ B == Mat2.zero()),
        ("ABA = -A", A @ B @ A == -A),
        ("BAB = -B", B @ A @ B == -B),
        ("[A,[A,B]] = 2A", commutator(A, ab) == 2 * A),
        ("[B,[A,B]] = -2B", commutator(B, ab) == -2 * B),
    ]
    return checks
