"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here; the exact checks use
rational arithmetic and compare with ==.
"""

import math
import random
from fractions import Fraction

import pytest

from shadowosc.goldberg import (
    collapse_strang,
    estimate_radius,
    three_letter_oracle,
    verify_three_letter,
    verify_two_letter,
)
from shadowosc.oscillator import (
    Mat2,
    PhaseState,
    SchemeId,
    SeriesDivergesError,
    check_generator_relations,
    generator_direction,
    generator_scale,
    generator_scale_closed_form,
    map_matrix,
    matrix_log_principal,
    shadow_energy,
    shadow_form,
    step_first_order,
    step_second_order,
    trajectory,
)

FIRST = SchemeId.FIRST_ORDER
SECOND = SchemeId.SECOND_ORDER
STEPPERS = {FIRST: step_first_order, SECOND: step_second_order}


def check(number, name, ok):
    print(f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_two_letter_coefficients_exact():
    reports = verify_two_letter(12)
    ok = len(reports) == 24 and all(r.match for r in reports)
    check(1, "two-letter closed forms = oracle through degree 12", ok)


def test_criterion_02_three_letter_coefficients_and_oddness():
    # Every pattern word, every endpoint case, every intermediate choice.
    reports = verify_three_letter(7)
    ok = len(reports) == 45 and all(r.match for r in reports)
    collapsed = collapse_strang(3)  # covers every even degree <= 7
    ok = ok and collapsed.odd_only
    ok = ok and three_letter_oracle(7).coefficient((0, 1, 2)) == Fraction(1, 3)
    check(2, "three-letter closed forms = oracle through degree 7, odd only", ok)


def test_criterion_03_log_reconstruction():
    ok = True
    for k in range(1, 20, 2):
        x = k / 10
        scale = generator_scale(x, rel_tol=1e-14)
        for scheme in (FIRST, SECOND):
            log = matrix_log_principal(map_matrix(scheme, x))
            target = (x * scale) * generator_direction(scheme, x)
            ok = ok and log.max_abs_diff(target) <= 1e-12
    check(3, "principal log = x * scale * direction to 1e-12", ok)


def test_criterion_04_closed_form_scale_validated():
    ok = True
    for k in range(1, 16):
        x = k / 10
        total = 0.0
        term = 1.0
        for n in range(60):  # >= 30 terms, fully converged at these x
            total += term
            term *= x * x * (n + 1) ** 2 / ((2 * n + 2) * (2 * n + 3))
        ok = ok and abs(total - generator_scale_closed_form(x)) <= 1e-10
    check(4, "closed-form scale matches partial sums to 1e-10", ok)


def test_criterion_05_exact_conservation_1000_steps():
    xs = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
    s0 = PhaseState(Fraction(1), Fraction(0))
    ok = True
    for scheme in (FIRST, SECOND):
        for x in xs:
            reference = shadow_energy(s0, scheme, x)
            state = s0
            for _ in range(1000):
                state = STEPPERS[scheme](state, x)
                if shadow_energy(state, scheme, x) != reference:
                    ok = False
                    break
    check(5, "shadow energy bit-identical over 1000 exact steps", ok)


def test_criterion_06_divergence_boundary():
    ok = True
    for x in (2, 2.5, 10):
        try:
            generator_scale(x)
            ok = False
        except SeriesDivergesError:
            pass
    estimate = estimate_radius(200)
    ok = ok and 1.99 <= estimate <= 2.01
    check(6, "series refuses |x| >= 2; ratio-test radius in [1.99, 2.01]", ok)


def test_criterion_07_definiteness_boundary():
    ok = True
    for scheme in (FIRST, SECOND):
        ok = ok and shadow_form(scheme, Fraction(19, 10)).det() > 0
        ok = ok and shadow_form(scheme, Fraction(2)).det() == 0
        ok = ok and shadow_form(scheme, Fraction(21, 10)).det() < 0
    check(7, "shadow form definite strictly inside |x| < 2", ok)


def test_criterion_08_growth_and_boundedness():
    ok = True
    for x in (2.1, 2.5, 3.0):
        state = PhaseState(1.0, 0.0)
        n = 200
        for _ in range(n):
            state = step_first_order(state, x)
        # (1/2n) log(p^2 + q^2), via hypot to dodge float overflow
        rate = math.log(math.hypot(state.p, state.q)) / n
        radius = (x * x - 2 + x * math.sqrt(x * x - 4)) / 2
        ok = ok and abs(rate - math.log(radius)) <= 0.01 * math.log(radius)
    for x in (0.5, 1.0, 1.5):
        two_m = 2.0 * shadow_form(FIRST, x)
        a, b, _, d = (float(v) for v in two_m.entries())
        lam_min = (a + d - math.sqrt((a - d) ** 2 + 4 * b * b)) / 2
        state = PhaseState(1.0, 0.0)
        bound = 4 * shadow_energy(state, FIRST, x) / lam_min
        peak = state.p * state.p + state.q * state.q
        for _ in range(10**5):
            state = step_first_order(state, x)
            size = state.p * state.p + state.q * state.q
            if size > peak:
                peak = size
        ok = ok and peak <= bound + 1e-9
    check(8, "log-growth = log rho to 1%; orbits bounded inside", ok)


def test_criterion_09_structural_identities():
    ok = all(holds for _, holds in check_generator_relations())
    rng = random.Random(20240817)
    for _ in range(50):
        x = Fraction(rng.randint(-96, 96), rng.randint(1, 12))
        for scheme in (FIRST, SECOND):
            ok = ok and map_matrix(scheme, x).det() == 1
            product = shadow_form(scheme, x) @ generator_direction(scheme, x)
            ok = ok and product.transpose() + product == Mat2.zero()
    check(9, "nilpotent relations, unit Jacobian, antisymmetric M L", ok)


def test_criterion_10_period_six():
    s0 = PhaseState(Fraction(1), Fraction(0))
    states = trajectory(s0, FIRST, Fraction(1), 6)
    ok = states[6] == s0 and states[0] == s0 and len(set(states[:6])) == 6
    check(10, "x = 1 first-order orbit returns exactly after 6 steps", ok)
