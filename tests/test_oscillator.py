import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc import oscillator
from shadowosc.oscillator import (
    A,
    B,
    Mat2,
    NoEllipticLogError,
    PhaseState,
    SchemeId,
    SeriesDivergesError,
    StabilityClass,
    _common_denominator,
    _scaled_matrices,
    check_generator_relations,
    classify_trace,
    commutator,
    effective_generator,
    generator_direction,
    generator_scale,
    generator_scale_closed_form,
    map_matrix,
    mat_exp,
    matrix_log_principal,
    rotation_angle,
    scaled_orbit,
    shadow_energy,
    shadow_form,
    spectral_radius,
    stability_classify,
    step_first_order,
    step_second_order,
    trajectory,
)

FIRST = SchemeId.FIRST_ORDER
SECOND = SchemeId.SECOND_ORDER
STEPPERS = {FIRST: step_first_order, SECOND: step_second_order}


def random_rational(rng, bound=4):
    return Fraction(rng.randint(-bound * 12, bound * 12), rng.randint(1, 12))


# -- generators and matrices -------------------------------------------------


def test_generator_relations_all_hold():
    report = check_generator_relations()
    assert len(report) == 6
    assert all(ok for _, ok in report)


def test_generator_matrices():
    assert A == Mat2(0, 0, 1, 0)
    assert B == Mat2(0, -1, 0, 0)
    assert commutator(A, B) == Mat2(1, 0, 0, -1)


def test_mat2_arithmetic():
    m = Mat2(1, 2, 3, 4)
    assert m.trace() == 5
    assert m.det() == -2
    assert m.transpose() == Mat2(1, 3, 2, 4)
    assert (m @ Mat2.identity()) == m
    assert 2 * m == Mat2(2, 4, 6, 8)
    assert m - m == Mat2.zero()
    assert m.apply(PhaseState(1, 1)) == PhaseState(3, 7)
    with pytest.raises(TypeError):
        hash(m)


def test_mat2_compares_and_prints_by_value():
    m = Mat2(1, 2, 3, 4)
    assert m == Mat2(1, 2, 3, 4) and not m != Mat2(1, 2, 3, 4)
    assert m == Mat2(Fraction(1), 2.0, 3, 4)
    assert m != Mat2(1, 2, 3, 5)
    assert m != (1, 2, 3, 4) and (1, 2, 3, 4) != m
    assert m.__eq__((1, 2, 3, 4)) is NotImplemented
    with pytest.raises(TypeError):
        hash(Mat2.zero())
    assert repr(m) == "Mat2(a=1, b=2, c=3, d=4)"
    assert repr(Mat2(Fraction(1, 2), -0.5, 0, 1)) == "Mat2(a=Fraction(1, 2), b=-0.5, c=0, d=1)"
    assert not hasattr(m, "__dict__")
    with pytest.raises(AttributeError):
        m.e = 5


# -- step maps ---------------------------------------------------------------


def test_step_first_order_examples():
    assert step_first_order(PhaseState(1, 0), 1) == PhaseState(1, 1)
    assert step_first_order(PhaseState(0, 1), 2) == PhaseState(-2, -3)
    state = PhaseState(0.3, -0.7)
    assert step_first_order(state, 0) == state


def test_step_second_order_examples():
    assert step_second_order(PhaseState(Fraction(1), Fraction(0)), Fraction(1)) == (
        Fraction(1, 2),
        Fraction(1),
    )
    assert step_second_order(PhaseState(Fraction(0), Fraction(1)), Fraction(1)) == (
        Fraction(-3, 4),
        Fraction(1, 2),
    )
    state = PhaseState(0.3, -0.7)
    assert step_second_order(state, 0) == state


def test_int_inputs_stay_exact():
    # Integer x must not fall into float division inside the half steps.
    state = step_second_order(PhaseState(1, 0), 1)
    assert state == (Fraction(1, 2), Fraction(1))
    assert isinstance(state.p, Fraction)


def test_map_matrix_closed_forms():
    x = Fraction(1)
    first = map_matrix(FIRST, x)
    assert first == Mat2(1, -1, 1, 0)
    assert first.trace() == 1
    second = map_matrix(SECOND, x)
    assert second == Mat2(Fraction(1, 2), Fraction(-3, 4), 1, Fraction(1, 2))
    assert map_matrix(FIRST, 0) == Mat2.identity()
    assert map_matrix(SECOND, 0) == Mat2.identity()


def test_map_matrix_equals_factor_products():
    one = Mat2.identity()
    rng = random.Random(3)
    for _ in range(10):
        x = random_rational(rng)
        product = (one + x * A) @ (one + x * B)
        assert map_matrix(FIRST, x) == product
        half = Fraction(1, 2) * x
        sandwich = (one + half * B) @ (one + x * A) @ (one + half * B)
        assert map_matrix(SECOND, x) == sandwich


@pytest.mark.parametrize(
    "x",
    [Fraction(0), Fraction(1, 3), Fraction(19, 10), Fraction(2), Fraction(5, 2),
     Fraction(-7, 3), Fraction(123, 1000)],
)
def test_schemes_are_conjugate_by_a_half_kick(x):
    # The second-order map is the first conjugated by Kh = I + (x/2) B, so
    # its form and generator direction are the first's, carried by Kh.
    kick, unkick = Mat2(1, -x / 2, 0, 1), Mat2(1, x / 2, 0, 1)
    assert kick @ unkick == Mat2.identity()
    assert kick @ map_matrix(FIRST, x) @ unkick == map_matrix(SECOND, x)
    assert unkick.transpose() @ shadow_form(FIRST, x) @ unkick == shadow_form(SECOND, x)
    assert kick @ generator_direction(FIRST, x) @ unkick == generator_direction(SECOND, x)
    # So both maps have trace 2 - x^2, which is all the stability functions read.
    for scheme in SchemeId:
        assert map_matrix(scheme, x).trace() == 2 - x * x
    assert stability_classify(x) is classify_trace(2 - x * x)


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from(list(SchemeId)),
    x=st.fractions(max_denominator=10**6),
    p=st.fractions(max_denominator=10**6),
    q=st.fractions(max_denominator=10**6),
)
def test_map_matrix_agrees_with_stepping(scheme, x, p, q):
    s = PhaseState(p, q)
    assert map_matrix(scheme, x).apply(s) == STEPPERS[scheme](s, x)


def test_unit_jacobian_exact():
    rng = random.Random(5)
    for scheme in (FIRST, SECOND):
        for _ in range(50):
            x = random_rational(rng, bound=8)
            assert map_matrix(scheme, x).det() == 1


# -- generator scale ---------------------------------------------------------


def test_generator_scale_at_zero_and_one():
    for zero in (0, 0.0, -0.0):
        assert generator_scale(zero) == generator_scale_closed_form(zero) == 1.0
    expected = 2 * math.pi / (3 * math.sqrt(3))
    assert generator_scale(1) == pytest.approx(expected, abs=1e-12)


def test_generator_scale_diverges_at_and_beyond_two():
    for x in (2, -2, 2.5, 10):
        with pytest.raises(SeriesDivergesError):
            generator_scale(x)
        with pytest.raises(SeriesDivergesError):
            generator_scale_closed_form(x)


@pytest.mark.parametrize("x", [Fraction(10**400), -Fraction(10**400), 10**400])
@pytest.mark.parametrize(
    "call",
    [
        generator_scale,
        generator_scale_closed_form,
        lambda x: effective_generator(SchemeId.FIRST_ORDER, x),
    ],
    ids=["generator_scale", "generator_scale_closed_form", "effective_generator"],
)
def test_rationals_beyond_the_float_range_diverge(call, x):
    with pytest.raises(SeriesDivergesError):
        call(x)


def test_generator_scale_rejects_nan():
    with pytest.raises(ValueError) as info:
        generator_scale(float("nan"))
    assert not isinstance(info.value, SeriesDivergesError)
    # +-inf/b is past the radius at every b, not the scale at some finite x.
    for x, b in itertools.product((math.inf, -math.inf), (1, 2, 3)):
        with pytest.raises(SeriesDivergesError):
            generator_scale(x, b)
        assert spectral_radius(x, b) == math.inf


def test_generator_scale_closed_form_rejects_nan():
    with pytest.raises(ValueError) as info:
        generator_scale_closed_form(float("nan"))
    assert not isinstance(info.value, SeriesDivergesError)
    for x in (math.inf, -math.inf):
        with pytest.raises(SeriesDivergesError):
            generator_scale_closed_form(x)


# The routine's stated accuracy: within 2^-50 of the scale, relative.
SCALE_BOUND = 2.0**-50


def series_coefficient(n):
    """a_n of the scale f(z) = sum a_n z^n, z = x^2/4, from the series
    sum (n!)^2/(2n+1)! x^(2n) itself."""
    return Fraction(4**n * math.factorial(n) ** 2, math.factorial(2 * n + 1))


def test_series_coefficients_satisfy_the_continued_ode():
    # The coefficient of z^n in 2z(1 - z) f' + (1 - 2z) f is
    # (2n + 1) a_n - 2n a_(n-1); the ODE asks for 1 at n = 0, else 0.
    a = [series_coefficient(n) for n in range(51)]
    for n in range(51):
        lhs = (2 * n + 1) * a[n] - (2 * n * a[n - 1] if n else 0)
        assert lhs == (n == 0), n


def node_coefficients(j, c0, count=136):
    """c_0 .. c_(count-1) of f at z = 1 - 2^-j in rho = (z - z_j)/2^-j, in
    Fractions: node 0 is the series, and every other node follows
    2(1 - s)(k + 1) c_(k+1) = [k = 0] + (1 - 2s)(2k + 1) c_k + 2ks c_(k-1)."""
    if j == 0:
        return [series_coefficient(k) for k in range(count)]
    s = Fraction(1, 2**j)
    c = [c0]
    for k in range(count - 1):
        rhs = (k == 0) + (1 - 2 * s) * (2 * k + 1) * c[k] + (2 * k * s * c[k - 1] if k else 0)
        c.append(rhs / (2 * (1 - s) * (k + 1)))
    return c


@functools.lru_cache(maxsize=None)
def continuation_nodes():
    """Nodes 0 to 70 of the same truncated continuation as the routine's:
    node j's c_0 is node j - 1's 136 terms at rho = 1/2, here rounded down
    to 2^-400 so that the denominators stay small."""
    nodes = [node_coefficients(0, 1)]
    while len(nodes) <= 70:
        value = sum((c.numerator << (400 - k)) // c.denominator for k, c in enumerate(nodes[-1]))
        nodes.append(node_coefficients(len(nodes), Fraction(value, 2**400)))
    return nodes


def continuation_reference(x):
    """The scale at the exact x: 56 terms at the node below z = x^2/4."""
    z = Fraction(x) ** 2 / 4
    j = next(j for j in itertools.count() if 1 - z > Fraction(1, 2 ** (j + 1)))
    rho = (z - 1 + Fraction(1, 2**j)) * 2**j
    assert 0 <= rho < Fraction(1, 2)
    return sum(c * rho**k for k, c in enumerate(continuation_nodes()[j][:56]))


def test_generator_scale_tail_is_below_its_bound():
    # Every node's coefficients are positive and do not increase, so after 56
    # terms at rho < 1/2 the rest is below 2 rho^56 c_0 <= 2^-55 f.
    for j, c in enumerate(continuation_nodes()):
        assert c[0] >= 1 and c[-1] > 0, j
        assert all(a >= b for a, b in zip(c, c[1:])), j
        tail = sum(c[k] / 2**k for k in range(56, len(c)))
        assert tail < c[0] / 2**55, j


def test_generator_scale_within_its_bound_of_the_exact_continuation():
    # 7/5 and 1.99975 step rho = 0.49 from nodes 0 and 11, where the tail is largest.
    xs = [Fraction(1, 3), Fraction("1.99351"), Fraction("1.9999"), 2 - Fraction(1, 10**20),
          Fraction(-3, 2), Fraction(1, 10**30), Fraction(7, 5), Fraction("1.99975"),
          1.0, 1.9999, -1.99351]
    for x in xs:
        reference = continuation_reference(x)
        assert abs(Fraction(generator_scale(x)) - reference) <= SCALE_BOUND * reference, x


def test_generator_scale_within_its_bound_of_the_closed_form():
    # For |x| <= 1 the closed form's own roundings stay below 2^-50 of it
    # (1 - x^2/4 >= 3/4 cancels little), so the two agree to 2^-49.
    rng = random.Random(20260)
    xs = [rng.uniform(-1.0, 1.0) for _ in range(500)] + [10.0**-k for k in range(1, 301)]
    for x in xs:
        closed = generator_scale_closed_form(x)
        assert abs(generator_scale(x) - closed) <= 2 * SCALE_BOUND * closed, x


def test_generator_scale_takes_the_exact_rational():
    # The float 1.9999 and the decimal 1.9999 are different steps.
    assert generator_scale(19999, 10000) == generator_scale(Fraction("1.9999"))
    assert generator_scale(1.9999) == generator_scale(Fraction(1.9999))
    assert generator_scale(Fraction("1.9999")) != generator_scale(1.9999)
    assert generator_scale(3, 2) == generator_scale(1.5) == generator_scale(-1.5)
    # Inside the radius although its float is 2.0: pi/(2 sqrt(w)) at w = 1e-20.
    near = generator_scale(2 - Fraction(1, 10**20))
    assert near == pytest.approx(math.pi / 2 * 1e10, rel=1e-9)


def test_generator_scale_beyond_the_float_range_raises_naming_x():
    built = len(oscillator._SCALE_NODES)
    x = 2 - Fraction(1, 10**700)  # 1 - x^2/4 near 2^-2326: past the last node
    with pytest.raises(ValueError, match=f"at x = {x} is too large for a float") as info:
        generator_scale(x)
    assert not isinstance(info.value, SeriesDivergesError)
    assert len(oscillator._SCALE_NODES) == built  # refused before any node is built
    # 10^-616 is still a float: pi/(2 sqrt(w)) is 1.57e308.
    assert generator_scale(2 - Fraction(1, 10**616)) == pytest.approx(math.pi / 2 * 1e308)
    with pytest.raises(ValueError, match="too large for a float"):
        generator_scale(2 - Fraction(7, 10**617))  # node 2046, but its sum is 1.88e308


def test_importing_the_cli_builds_no_node_table():
    src = str(Path(oscillator.__file__).resolve().parents[1])
    code = "import shadowosc.cli; from shadowosc import oscillator; print(len(oscillator._SCALE_NODES))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (0, "0\n")


def test_closed_form_matches_partial_sums():
    for k in range(1, 16):
        x = k / 10
        total = 0.0
        term = 1.0
        for n in range(60):
            total += term
            term *= x * x * (n + 1) ** 2 / ((2 * n + 2) * (2 * n + 3))
        assert abs(total - generator_scale_closed_form(x)) < 1e-10


# -- effective generator and matrix log ---------------------------------------


def test_generator_direction_closed_forms():
    x = Fraction(1)
    assert generator_direction(FIRST, x) == Mat2(Fraction(1, 2), -1, 1, Fraction(-1, 2))
    assert generator_direction(SECOND, x) == Mat2(0, Fraction(-3, 4), 1, 0)
    # First-order direction is A + B + (x/2)[A,B].
    rng = random.Random(2)
    for _ in range(5):
        x = random_rational(rng)
        built = A + B + (Fraction(1, 2) * x) * commutator(A, B)
        assert generator_direction(FIRST, x) == built


def test_effective_generator_small_step_limit():
    assert effective_generator(FIRST, 0.0) == Mat2(0.0, -1.0, 1.0, 0.0)
    near = effective_generator(FIRST, 1e-8)
    assert near.max_abs_diff(Mat2(0, -1, 1, 0)) < 1e-7


def test_effective_generator_diverges_outside():
    with pytest.raises(SeriesDivergesError):
        effective_generator(FIRST, 2.0)


def test_matrix_log_of_rotation():
    theta = math.pi / 3
    rotation = Mat2(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
    log = matrix_log_principal(rotation)
    assert log.max_abs_diff(Mat2(0, -theta, theta, 0)) < 1e-14


def test_matrix_log_inverts_exp():
    for x in (0.2, 0.9, 1.7):
        for scheme in (FIRST, SECOND):
            m = map_matrix(scheme, x)
            assert mat_exp(matrix_log_principal(m)).max_abs_diff(m) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(list(SchemeId)),
    x=st.floats(min_value=-1.9, max_value=1.9).filter(lambda x: x != 0),
)
def test_matrix_log_of_exp_round_trip(scheme, x):
    # x = 0 is excluded: exp(0) = I has no elliptic logarithm.
    step = x * effective_generator(scheme, x)
    assert matrix_log_principal(mat_exp(step)).max_abs_diff(step) < 1e-12


def test_matrix_log_matches_scaled_direction():
    # 1e-9 and 1e-8: trace/2 rounds to 1.0 in floats, the log must not.
    # 1e-200 and 5e-324: b*c underflows to 0 in floats.
    for x in [k / 10 for k in range(1, 20, 2)] + [1e-9, 1e-8, 1e-200, 5e-324]:
        scale = generator_scale(x)
        for scheme in (FIRST, SECOND):
            log = matrix_log_principal(map_matrix(scheme, x))
            target = (x * scale) * generator_direction(scheme, x)
            assert log.max_abs_diff(target) < 1e-12


def test_exp_of_effective_generator_reproduces_map():
    for x in (0.3, 1.0, 1.6):
        for scheme in (FIRST, SECOND):
            g = effective_generator(scheme, x)
            assert mat_exp(x * g).max_abs_diff(map_matrix(scheme, x)) < 1e-12


def test_matrix_log_rejects_nonelliptic():
    with pytest.raises(NoEllipticLogError):
        matrix_log_principal(map_matrix(FIRST, 2.0))  # trace exactly -2
    with pytest.raises(NoEllipticLogError):
        matrix_log_principal(map_matrix(FIRST, 3.0))
    with pytest.raises(ValueError):
        matrix_log_principal(Mat2(2.0, 0.0, 0.0, 1.0))  # det 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: matrix_log_principal(Mat2(math.nan, 0.0, 0.0, 1.0)),
        lambda: matrix_log_principal(Mat2(1.0, math.inf, 0.0, 1.0)),  # det inf*0 = nan
        lambda: spectral_radius(math.nan),
        lambda: rotation_angle(math.nan),
        lambda: stability_classify(math.nan),
        lambda: stability_classify(-math.nan),  # the sign bit set
    ],
    ids=["log_nan", "log_inf", "spectral_radius", "rotation_angle",
         "stability_first", "stability_second"],
)
def test_float_entry_points_reject_nan(call):
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, NoEllipticLogError)


def test_mat_exp_hyperbolic_and_nilpotent_branches():
    assert mat_exp(Mat2(0.0, 0.0, 1.0, 0.0)).max_abs_diff(Mat2(1, 0, 1, 1)) < 1e-15
    g = Mat2(1.0, 0.0, 0.0, -1.0)
    expected = Mat2(math.e, 0.0, 0.0, 1 / math.e)
    assert mat_exp(g).max_abs_diff(expected) < 1e-13


# -- shadow forms -------------------------------------------------------------


def test_shadow_form_values():
    form = shadow_form(FIRST, Fraction(1))
    assert form == Mat2(Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 4), Fraction(1, 2))
    assert shadow_form(FIRST, 0) == Mat2(Fraction(1, 2), 0, 0, Fraction(1, 2))
    second = shadow_form(SECOND, Fraction(1))
    assert second == Mat2(Fraction(1, 2), 0, 0, Fraction(3, 8))


def test_shadow_energy_formulas():
    # First order: (p^2 - x p q + q^2)/2; second order: (p^2 + (1 - x^2/4) q^2)/2.
    rng = random.Random(13)
    for _ in range(10):
        x = random_rational(rng)
        p = random_rational(rng)
        q = random_rational(rng)
        s = PhaseState(p, q)
        assert shadow_energy(s, FIRST, x) == (p * p - x * p * q + q * q) / 2
        assert shadow_energy(s, SECOND, x) == (p * p + (1 - x * x / 4) * q * q) / 2


def test_shadow_energy_examples():
    assert shadow_energy(PhaseState(1, 0), FIRST, 7) == Fraction(1, 2)
    assert shadow_energy(PhaseState(1, 1), FIRST, 1) == Fraction(1, 2)
    assert shadow_energy(PhaseState(Fraction(1, 2), 1), SECOND, 1) == Fraction(1, 2)


def test_shadow_energy_one_step_conservation():
    for scheme in (FIRST, SECOND):
        x = Fraction(1)
        before = PhaseState(Fraction(1), Fraction(0))
        after = STEPPERS[scheme](before, x)
        assert shadow_energy(after, scheme, x) == shadow_energy(before, scheme, x)


def test_first_order_energy_deviation_is_cross_term():
    rng = random.Random(23)
    for _ in range(10):
        x = random_rational(rng)
        p = random_rational(rng)
        q = random_rational(rng)
        deviation = shadow_energy(PhaseState(p, q), FIRST, x) - (p * p + q * q) / 2
        assert deviation == -x * p * q / 2


def test_form_times_direction_is_antisymmetric():
    rng = random.Random(31)
    for scheme in (FIRST, SECOND):
        for _ in range(50):
            x = random_rational(rng, bound=8)
            product = shadow_form(scheme, x) @ generator_direction(scheme, x)
            assert product.transpose() + product == Mat2.zero()


def test_form_times_direction_determinant_identity():
    # M L = (det L / 2) * rotation generator, for both scheme pairs.
    rng = random.Random(37)
    rotation = Mat2(0, -1, 1, 0)
    for scheme in (FIRST, SECOND):
        for _ in range(10):
            x = random_rational(rng)
            direction = generator_direction(scheme, x)
            product = shadow_form(scheme, x) @ direction
            assert product == (direction.det() / 2) * rotation


def test_shadow_form_definiteness_boundary():
    for scheme in (FIRST, SECOND):
        assert shadow_form(scheme, Fraction(19, 10)).det() > 0
        assert shadow_form(scheme, Fraction(2)).det() == 0
        assert shadow_form(scheme, Fraction(21, 10)).det() < 0
        assert shadow_form(scheme, Fraction(-2)).det() == 0


# -- stability ----------------------------------------------------------------


def test_stability_classification():
    assert stability_classify(1) is StabilityClass.ELLIPTIC
    assert stability_classify(2) is StabilityClass.PARABOLIC
    assert stability_classify(3) is StabilityClass.HYPERBOLIC
    assert stability_classify(Fraction(19, 10)) is StabilityClass.ELLIPTIC
    assert stability_classify(-2) is StabilityClass.PARABOLIC
    # The identity map at x = 0 sits on the |trace| = 2 boundary too.
    assert stability_classify(0) is StabilityClass.PARABOLIC
    # Integer traces over a denominator: -8/4, 7/4 and -9/4.
    assert classify_trace(-8, 4) is StabilityClass.PARABOLIC
    assert classify_trace(7, 4) is StabilityClass.ELLIPTIC
    assert classify_trace(-9, 4) is StabilityClass.HYPERBOLIC


def test_spectral_radius_values():
    assert spectral_radius(1.0) == 1.0
    assert spectral_radius(2.0) == 1.0
    assert spectral_radius(3.0) == pytest.approx((7 + 3 * math.sqrt(5)) / 2, rel=1e-15)
    assert spectral_radius(2.5) == pytest.approx(4.0, rel=1e-15)


def radius_reference(x) -> Fraction:
    """The spectral radius ((r + sqrt(r^2 - 4))/2)^2 at the exact r = |x| > 2,
    with the root taken by math.isqrt to 2^-300 absolute."""
    r, scale = abs(Fraction(x)), 2**300
    root = Fraction(math.isqrt(int((r * r - 4) * scale * scale)), scale)
    return ((r + root) / 2) ** 2


FLOAT_HYPERBOLIC = [2 + 2.0**-k for k in range(1, 53)] + [-2.5, 3.0, 1e3, 1e50, 1e110, 1e150, 1.2e154]


@pytest.mark.parametrize("x", FLOAT_HYPERBOLIC)
def test_spectral_radius_within_two_ulp_of_an_exact_reference(x):
    # Taken at the exact x, no digits cancel near 2.
    reference = radius_reference(x)
    error = abs(Fraction(spectral_radius(x)) - reference)
    assert error <= 2 * Fraction(math.ulp(float(reference))), x


def test_spectral_radius_within_one_ulp_at_the_exact_x():
    # One int true division of an isqrt root with 70 bits or more.  The exact
    # x need not be a float: 2 + 10^-20 has radius 1 + 2e-10, and its float 2.0
    # radius 1; at 1.34078079299425965e154 the float x's square overflows.
    exact = [2 + Fraction(1, 10**20), 2 + Fraction(1, 2**52),
             Fraction("1.34078079299425965e154"), -Fraction(5, 2)]
    for x in FLOAT_HYPERBOLIC + exact:
        reference = radius_reference(x)
        error = abs(Fraction(spectral_radius(x)) - reference)
        assert error <= Fraction(math.ulp(float(reference))), x
    assert spectral_radius(2 - Fraction(1, 10**20)) == spectral_radius(2 - Fraction(1, 2**52)) == 1.0
    assert spectral_radius(5, 2) == spectral_radius(-2.5) == 4.0
    assert spectral_radius(math.inf) == spectral_radius(10**400) == math.inf


def test_spectral_radius_second_scheme_where_x_cubed_overflows():
    # The second map's x^3 = 1e330 overflows a float, but the shared trace
    # 2 - x^2 = -1e220 does not.
    radius = spectral_radius(1e110)
    assert math.isfinite(radius)
    assert radius == pytest.approx(1e220, rel=1e-15)


def test_rotation_angle():
    assert rotation_angle(1.0) == pytest.approx(math.pi / 3, rel=1e-15)
    assert rotation_angle(2.0) == pytest.approx(math.pi, rel=1e-15)
    # Small angles keep their digits, which arccos(1 - x^2/2) loses: it gives
    # 1.0000000413743513e-05 at x = 1e-5 and 0.0 at x = 1e-9.
    assert rotation_angle(1e-5) == pytest.approx(1.0000000000041668e-05, rel=1e-15)
    assert rotation_angle(-1e-5) == pytest.approx(1.0000000000041668e-05, rel=1e-15)
    assert rotation_angle(1e-9) == 1e-09
    with pytest.raises(NoEllipticLogError):
        rotation_angle(3.0)


# 2 asin(x/2) at the exact x, rounded to the nearest float, from a 300-bit
# reference; 2 asin(|float(x)|/2) differs at 1.99999999999999999999 and
# at 5e-324, where it gives pi and 0.0.
@pytest.mark.parametrize(
    "x, theta",
    [
        (Fraction("1.99999999999999999999"), 3.141592653389793),  # the float x is 2.0
        (2 - Fraction(1, 2**52), 3.1415926237874707),
        (1e-300, 1e-300),  # d is about 2^1049, and 4d^2 past the float range
        (5e-324, 5e-324),  # theta/2 is half the least subnormal
        (Fraction(1, 3), 0.33489615843937864),
        (1, 1.0471975511965979),
        (2, math.pi),
    ],
)
def test_rotation_angle_at_the_exact_x(x, theta):
    n, d = Fraction(x).as_integer_ratio()
    assert rotation_angle(x) == theta
    # The angle of x = n/d, given as any pair, is that of its value.
    for scale in (1, 3, 2**80):
        assert rotation_angle(-n * scale, d * scale) == theta
        assert rotation_angle(Fraction(n, d) * scale, scale) == theta


def test_rotation_angle_refuses_past_the_radius():
    infinities = itertools.product((math.inf, -math.inf), (1, 2, 3))
    for x, b in ((Fraction(2) + Fraction(1, 10**30), 1), (7, 3), *infinities):
        with pytest.raises(NoEllipticLogError, match="no rotation angle"):
            rotation_angle(x, b)
    with pytest.raises(ValueError) as info:
        rotation_angle(math.nan, 3)
    assert not isinstance(info.value, NoEllipticLogError)


# -- trajectories -------------------------------------------------------------


def test_trajectory_zero_steps():
    s0 = PhaseState(1, 0)
    assert trajectory(s0, FIRST, 1, 0) == [s0]
    with pytest.raises(ValueError):
        trajectory(s0, FIRST, 1, -1)


def test_trajectory_period_six_exact():
    s0 = PhaseState(Fraction(1), Fraction(0))
    states = trajectory(s0, FIRST, Fraction(1), 6)
    assert states == [
        (1, 0),
        (1, 1),
        (0, 1),
        (-1, 0),
        (-1, -1),
        (0, -1),
        (1, 0),
    ]
    assert states[6] == s0


def test_exact_shadow_conservation_long_runs():
    xs = [Fraction(-3), Fraction(1, 3), Fraction(7, 5), Fraction(2), Fraction(4)]
    rng = random.Random(41)
    for scheme in (FIRST, SECOND):
        for x in xs:
            s0 = PhaseState(random_rational(rng), random_rational(rng))
            states = trajectory(s0, scheme, x, 400)
            e0 = shadow_energy(s0, scheme, x)
            assert all(shadow_energy(s, scheme, x) == e0 for s in states)


def test_scaled_orbit_step_is_integer_over_lcm():
    # One step from a unit vector over 1 is a column of K over D, where
    # map_matrix = K / D with D the lcm of the entries' denominators.
    def first_step(scheme, x, s0):
        return list(scaled_orbit(PhaseState(*s0), scheme, x, 1))[1]

    x = Fraction(1, 3)
    k = map_matrix(SECOND, x)
    for s0, column in (((1, 0), (k.a, k.c)), ((0, 1), (k.b, k.d))):
        state, scale = first_step(SECOND, x, s0)
        assert scale == 4 * 27
        assert all(isinstance(v, int) for v in state)
        assert (Fraction(state.p, scale), Fraction(state.q, scale)) == column
    assert first_step(FIRST, Fraction(5, 2), (1, 0)) == (PhaseState(4, 10), 4)
    assert first_step(FIRST, Fraction(5, 2), (0, 1)) == (PhaseState(-10, -21), 4)


@pytest.mark.parametrize("scheme", [FIRST, SECOND])
@pytest.mark.parametrize(
    "x", [Fraction(5, 2), Fraction(1, 3), Fraction(-7, 11), Fraction(0), Fraction(2)]
)
def test_scaled_orbit_equals_trajectory(scheme, x):
    s0 = PhaseState(Fraction(-3, 5), Fraction(2, 7))
    states = trajectory(s0, scheme, x, 50)
    orbit = list(scaled_orbit(s0, scheme, x, 50))
    assert len(orbit) == len(states)
    (a, b, c, d), form_scale = _common_denominator(shadow_form(scheme, x).entries())
    for (state, scale), reference in zip(orbit, states):
        assert (Fraction(state.p, scale), Fraction(state.q, scale)) == reference
        p, q = state
        energy = Fraction(a * p * p + (b + c) * p * q + d * q * q, form_scale * scale * scale)
        assert energy == shadow_energy(reference, scheme, x)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(list(SchemeId)),
    n=st.integers(min_value=-(10**12), max_value=10**12),
    b=st.integers(min_value=1, max_value=10**12),
)
def test_scaled_matrices_equal_fraction_reference(scheme, n, b):
    x = Fraction(n, b)
    mat, mat_scale, form, form_scale, direction, direction_scale = _scaled_matrices(scheme, n, b)
    pairs = (
        (mat, mat_scale, map_matrix(scheme, x)),
        (form, form_scale, shadow_form(scheme, x)),
        (direction, direction_scale, generator_direction(scheme, x)),
    )
    for scaled, scale, reference in pairs:
        assert type(scaled) is tuple and len(scaled) == 4
        assert all(type(v) is int for v in (*scaled, scale)) and scale > 0
        assert tuple(Fraction(v, scale) for v in scaled) == reference.entries()
    # (K - (T/2) I)/D = x G/g, which verify's log row checks as g b (2K - T I) = 2 D n G.
    (k11, k12, k21, k22), trace = mat, mat[0] + mat[3]
    traceless = (2 * k11 - trace, 2 * k12, 2 * k21, 2 * k22 - trace)
    scaled_g = tuple(2 * mat_scale * n * v for v in direction)
    assert tuple(direction_scale * b * v for v in traceless) == scaled_g


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(list(SchemeId)),
    x=small_rationals,
    p0=small_rationals,
    q0=small_rationals,
)
def test_scaled_orbit_conserves_energy_exactly(scheme, x, p0, q0):
    (a, b, c, d), form_scale = _common_denominator(shadow_form(scheme, x).entries())
    energies = {
        Fraction(a * p * p + (b + c) * p * q + d * q * q, form_scale * scale * scale)
        for (p, q), scale in scaled_orbit(PhaseState(p0, q0), scheme, x, 40)
    }
    assert len(energies) == 1


def test_scaled_orbit_streams_and_checks_steps():
    # A generator: only the states drawn are computed, so 10^18 steps cost nothing.
    orbit = scaled_orbit(PhaseState(1, 0), FIRST, Fraction(1), 10**18)
    assert next(orbit) == (PhaseState(1, 0), 1)
    assert next(orbit) == (PhaseState(1, 1), 1)
    with pytest.raises(ValueError):
        next(scaled_orbit(PhaseState(1, 0), FIRST, 1, -1))


def test_parabolic_edge_grows_quadratically():
    # At x = 2 the map is -(I + nilpotent): from (1, 0) the n-th state is
    # (-1)^n (1 - 2n, -2n), so p^2 + q^2 = 8n^2 - 4n + 1 exactly.
    x = Fraction(2)
    states = trajectory(PhaseState(Fraction(1), Fraction(0)), FIRST, x, 60)
    for n, s in enumerate(states):
        assert (s.p, s.q) == ((-1) ** n * (1 - 2 * n), (-1) ** n * (-2 * n))
        assert s.p * s.p + s.q * s.q == 8 * n * n - 4 * n + 1


def test_hyperbolic_growth_rate():
    for x in (2.5, 3.0):
        s = PhaseState(1.0, 0.0)
        n = 200
        for _ in range(n):
            s = step_first_order(s, x)
        rate = math.log(math.hypot(s.p, s.q)) / n
        target = math.log(spectral_radius(x))
        assert abs(rate - target) <= 0.01 * target


def test_bounded_orbits_inside_radius():
    # p^2 + q^2 stays below 4 E / lambda_min(2M) for both schemes; the
    # eigenvalue comes from the generic symmetric 2x2 formula.
    for scheme in (FIRST, SECOND):
        for x in (0.5, 1.0, 1.5, 1.9):
            two_m = 2.0 * shadow_form(scheme, float(x))
            a, b, _, d = (float(v) for v in two_m.entries())
            lam_min = (a + d - math.sqrt((a - d) ** 2 + 4 * b * b)) / 2
            s = PhaseState(1.0, 0.0)
            energy = shadow_energy(s, scheme, float(x))
            bound = 4 * energy / lam_min
            for _ in range(20000):
                s = STEPPERS[scheme](s, float(x))
                assert s.p * s.p + s.q * s.q <= bound + 1e-9
