import argparse
import contextlib
import errno
import hashlib
import io
import itertools
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shadowosc import cli, goldberg, oscillator
from shadowosc.oscillator import (
    Mat2,
    PhaseState,
    SchemeId,
    SeriesDivergesError,
    check_generator_relations,
    generator_direction,
    generator_scale,
    map_matrix,
    rotation_angle,
    shadow_energy,
    shadow_form,
    spectral_radius,
    stability_classify,
    trajectory,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.splitlines()
    return [line.split(",") for line in lines]


def test_coeffs_two_letters(capsys):
    code, out = run_cli(capsys, "coeffs", "--letters", "2", "--max-degree", "4")
    rows = parse_csv(out)
    assert code == 0
    assert rows[0] == ["word", "closed_form", "oracle", "match"]
    assert len(rows) == 9  # header + 8 alternating words
    table = {row[0]: row[1:] for row in rows[1:]}
    assert table["A"] == ["1", "1", "true"]
    assert table["B"] == ["1", "1", "true"]
    assert table["AB"] == ["1/2", "1/2", "true"]
    assert table["BA"] == ["-1/2", "-1/2", "true"]
    assert table["ABA"] == ["-1/6", "-1/6", "true"]
    assert out.endswith("\n") and "\r" not in out


def test_coeffs_three_letters(capsys):
    code, out = run_cli(capsys, "coeffs", "--letters", "3", "--max-degree", "3")
    rows = parse_csv(out)
    assert code == 0
    assert len(rows) == 10  # header + 3 single letters + 6 length-3 words
    table = {row[0]: row[1:] for row in rows[1:]}
    assert table["X1X2X3"] == ["1/3", "1/3", "true"]
    assert table["X1X2X1"] == ["-1/6", "-1/6", "true"]
    assert table["X2X1X2"] == ["-1/6", "-1/6", "true"]


def test_coeffs_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        goldberg, "goldberg_coeff_two", lambda w: Fraction(7, 13)
    )
    code, out = run_cli(capsys, "coeffs", "--letters", "2", "--max-degree", "2")
    assert code == 1
    assert ",false" in out


def test_verify_default_sweep(capsys):
    code, out = run_cli(capsys, "verify")
    rows = parse_csv(out)
    assert code == 0
    assert rows[0] == ["invariant", "x", "residual", "pass"]
    assert rows[1][0] == "generator_relations"
    assert all(row[3] == "pass" for row in rows[1:])
    by_name = {}
    for row in rows[1:]:
        by_name.setdefault(row[0], []).append(row)
    # 31 samples at 0.1 spacing: 19 strictly inside (0, 2), 11 at or beyond 2.
    assert len(by_name["log_vs_generator_first"]) == 19
    assert len(by_name["divergence_signaled"]) == 11
    assert len(by_name["det_map_first"]) == 31
    assert len(by_name["antisymmetry_second"]) == 31
    divergence_xs = [row[1] for row in by_name["divergence_signaled"]]
    assert divergence_xs[0] == "2.0"


def test_verify_single_x(capsys):
    # At 1e-9, trace/2 rounds to 1.0 in floats; at 1e-200, x^2 underflows.
    for x in ("1", "1e-9", "1e-200"):
        code, out = run_cli(capsys, "verify", "--x", x)
        rows = parse_csv(out)
        assert code == 0
        names = [row[0] for row in rows[1:]]
        assert "log_vs_generator_first" in names
        assert "divergence_signaled" not in names


@pytest.mark.parametrize("x", ["1.92", "1.99", "1.9935", "-1.99"])
def test_verify_log_rows_pass_near_the_radius(capsys, x):
    # Each failed while the row took the float map's matrix log (1.9935 at 5.5e-11).
    code, out = run_cli(capsys, "verify", "--x", x)
    assert code == 0
    logs = [row for row in parse_csv(out) if row[0].startswith("log_vs_generator")]
    assert len(logs) == 2 and all(float(row[2]) <= 1e-12 and row[3] == "pass" for row in logs)


def test_verify_refuses_where_the_float_residual_cannot_resolve_the_gate(capsys):
    # The residual's float side errs by up to 4 ulp of |x| scale: within the
    # 1e-12 gate while |x| scale < 2048, that is up to x = 1.99999765.
    code, out = run_cli(capsys, "verify", "--x-range", "1.99999:1.9999976:1/10000000")
    assert code == 0 and ",fail\n" not in out
    for x in ("1.9999976", "1.9999977", "-1.9999977"):
        scale = generator_scale(Fraction(x))
        assert (abs(float(x)) * scale < 2048) == (x == "1.9999976")
    code, out = run_cli(capsys, "verify", "--x", "1.9999977")
    assert (code, out) == (2, "")


def test_verify_x_that_rounds_to_zero_prints_the_rows_of_zero(capsys):
    # 0 < 1e-400 < 2, but its float is 0.0, whose map is I: no log row.
    zero = run_cli(capsys, "verify", "--x", "0")
    assert zero[0] == 0
    assert run_cli(capsys, "verify", "--x", "1e-400") == zero
    code, out = run_cli(capsys, "verify", "--x-range", "0:1e-399:1e-400")
    assert code == 0
    assert len(parse_csv(out)) == 2 + 6 * 11
    assert "log_vs_generator" not in out


def test_verify_detects_broken_identity(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "check_generator_relations", lambda: [("A^2 = 0", False)]
    )
    code, out = run_cli(capsys, "verify", "--x", "1")
    assert code == 1
    assert "generator_relations,,exact,fail" in out


def test_simulate_period_six(capsys):
    code, out = run_cli(
        capsys, "simulate", "--scheme", "first", "--x", "1", "--steps", "6", "--exact"
    )
    rows = parse_csv(out)
    assert code == 0
    assert rows[0] == ["step", "p", "q", "shadow_energy", "p2_plus_q2"]
    assert len(rows) == 8
    assert rows[1] == ["0", "1", "0", "0.5", "1"]
    assert rows[7] == ["6", "1", "0", "0.5", "1"]
    energies = {row[3] for row in rows[1:]}
    assert energies == {"0.5"}


def test_simulate_zero_step_is_constant(capsys):
    code, out = run_cli(capsys, "simulate", "--x", "0", "--steps", "3")
    rows = parse_csv(out)
    assert code == 0
    assert len({tuple(row[1:]) for row in rows[1:]}) == 1


def test_simulate_hyperbolic_conserves_energy(capsys):
    code, out = run_cli(
        capsys, "simulate", "--x", "3", "--steps", "50", "--exact"
    )
    rows = parse_csv(out)
    assert code == 0
    energies = {row[3] for row in rows[1:]}
    assert len(energies) == 1
    sizes = [float(row[4]) for row in rows[1:]]
    assert sizes[-1] > sizes[1] > sizes[0]


def test_shadow_reports_zero_drift(capsys):
    code, out = run_cli(capsys, "shadow", "--x", "3/2", "--steps", "10", "--exact")
    rows = parse_csv(out)
    assert code == 0
    assert rows[0] == [
        "step",
        "first_energy",
        "first_drift",
        "second_energy",
        "second_drift",
    ]
    assert all(row[2] == "0" and row[4] == "0" for row in rows[1:])


def decimal_reference(n, d):
    """The formatter the exact CSV columns had before: Decimal division."""
    with localcontext() as ctx:
        ctx.prec = 17
        return str(Decimal(n) / Decimal(d))


@pytest.mark.parametrize(
    "n, d, text",
    [
        (0, 1, "0"),
        (0, 7, "0"),
        (-1, 4, "-0.25"),
        (1, 4, "0.25"),
        (10**20, 1, "1.0000000000000000E+20"),
        (10**17 - 1, 1, "99999999999999999"),
        (999999999999999995, 10, "1.0000000000000000E+17"),  # rounding carries
        (123456789012345678901, 1, "1.2345678901234568E+20"),  # 21 exact digits
        (5, 10**30, "5E-30"),
        (1, 3, "0.33333333333333333"),
        (-7, 3, "-2.3333333333333333"),
        (12345678901234565, 10**17, "0.12345678901234565"),
        (123456789012345665, 10**18, "0.12345678901234566"),  # tie to even
        (123456789012345675, 10**18, "0.12345678901234568"),
    ],
)
def test_format_ratio_matches_decimal_division(n, d, text):
    assert decimal_reference(n, d) == text
    assert cli._format_ratio(n, d) == text
    value = Fraction(n, d)  # the reduced pair
    assert cli._format_ratio(value.numerator, value.denominator) == text
    for factor in (3, 10, 2**70):  # unreduced pairs print the value
        assert cli._format_ratio(n * factor, d * factor) == text


@pytest.mark.parametrize(
    "n, d, text",
    [
        (10**1000001, 3, "3.3333333333333333E+1000000"),
        (-7, 10**1000001, "-7E-1000001"),
        (1, 3 * 10**1000001, "3.3333333333333333E-1000002"),
    ],
    ids=["above_default_emax", "below_default_emin", "below_default_etiny"],
)
def test_format_ratio_beyond_default_exponent_range(n, d, text):
    # decimal's default context overflows above 1E+999999 and drops digits
    # below 1E-1000015, so decimal_reference cannot check these.
    assert cli._format_ratio(n, d) == text


@settings(max_examples=500, deadline=None)
@given(
    n=st.integers(min_value=-(10**60), max_value=10**60),
    d=st.integers(min_value=1, max_value=10**60),
    factor=st.integers(min_value=1, max_value=10**6),
)
def test_format_ratio_matches_decimal_division_property(n, d, factor):
    value = Fraction(n, d)
    reference = decimal_reference(value.numerator, value.denominator)
    assert cli._format_ratio(n * factor, d * factor) == reference


_LOG10_2 = math.log10(2)


def format_ratio_reference(n, d):
    """The exact printer before its large-value branch shifted out powers
    of two: d times 10^-k in one big multiplication."""
    if n == 0:
        return "0"
    sign, n = "-" if n < 0 else "", abs(n)
    # The bit lengths put log10(n/d) in an interval of width 2 log10(2) < 1,
    # so the cut has 19 or 20 digits (18 if the float estimate is off by one).
    k = 19 - math.floor((n.bit_length() - d.bit_length() + 1) * _LOG10_2)
    digits, rem = divmod(n * 10**k, d) if k >= 0 else divmod(n, d * 10**-k)
    if rem:
        # A final 1 stands for the nonzero remainder: with 18 or more digits
        # cut, no 17-digit rounding boundary lies between it and n/d.
        text = f"{sign}{digits}1E{-k - 1}"
    else:  # exact: Decimal strips trailing zeros down to exponent 0
        while k > 0 and digits % 10 == 0:
            digits, k = digits // 10, k - 1
        text = f"{sign}{digits}E{-k}"
    return str(cli._PRINT.plus(Decimal(text)))


def cut_digits(n, d):
    """m, the digits the printer cuts from |n|/d (negative: digits added)."""
    return math.floor((abs(n).bit_length() - d.bit_length() + 1) * _LOG10_2) - 19


# A tie at the 17th digit, (10 head + 5) 10^1700, plus low/d with low below
# 2^s, s = m + t: only the bits shifted out of n then decide between rounding
# half-even (low = 0) and up, so a lost or a spurious low bit changes the text.
_TIE_CUT = cut_digits(3 * 123456789012345685 * 10**1700, 3)


@pytest.mark.parametrize("t", [0, 40, _TIE_CUT, _TIE_CUT + 700], ids=["t0", "t<m", "t=m", "t>m"])
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_format_ratio_matches_reference_for_each_power_of_two(t, sign):
    d, s = 3 << t, _TIE_CUT + t
    for head in (12345678901234568, 12345678901234567):  # even and odd 17th digit
        for low in (0, 1, 1 << (s - 1), (1 << s) - 1):
            n = sign * ((10 * head + 5) * 10**1700 * d + low)
            assert cut_digits(n, d) == _TIE_CUT
            text = cli._format_ratio(n, d)
            assert text == format_ratio_reference(n, d)
            # The even head rounds up only past the tie; the odd one always.
            up = head % 2 == 0 and low > 0
            assert text.lstrip("-").startswith("1.234567890123456" + "89"[up])


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    quotient_bits=st.integers(min_value=0, max_value=20000),
    odd_bits=st.integers(min_value=1, max_value=200),
    extra_twos=st.integers(min_value=0, max_value=400),
    kind=st.sampled_from(["random", "multiple", "shifted", "tie"]),
    negative=st.booleans(),
    carried=st.integers(min_value=0, max_value=6100),
)
def test_format_ratio_matches_reference_property(
    seed, quotient_bits, odd_bits, extra_twos, kind, negative, carried
):
    # d = odd 2^t with t from 0 to past the cut m; n/d up to about 2^20000.
    rng = random.Random(seed)
    odd = rng.getrandbits(odd_bits) | 1
    m = max(0, math.floor(quotient_bits * _LOG10_2) - 19)
    t = rng.randrange(m + extra_twos + 1)
    d = odd << t
    if kind == "random":
        n = rng.getrandbits(quotient_bits + d.bit_length()) or 1
    elif kind == "multiple":  # rem = 0: q d 10^j with j at least the cut
        q = rng.randrange(1, 10**rng.randrange(1, 18)) * 10 ** rng.randrange(3)
        n = q * d * 10 ** (m + rng.randrange(3))
    elif kind == "shifted":  # the quotient's low bits all zero or all one
        n = (rng.getrandbits(quotient_bits) << t) | rng.choice([0, (1 << t) - 1])
        n = n or 1
    else:  # a tie at the 17th digit, decided by n's lowest bits alone
        tie = (10 * rng.randrange(10**16, 10**17) + 5) * 10 ** rng.randrange(3)
        n = tie * 10 ** (m + rng.randrange(3)) * d
        s = max(1, cut_digits(n, d) + t)
        n += rng.choice([0, 1, 1 << (s - 1), rng.randrange(1 << s)])
    n = -n if negative else n
    text = format_ratio_reference(n, d)
    assert cli._format_ratio(n, d) == text
    # A column's 5^m carried from a cell whose cut was above, at or below this one's.
    five = [carried, 5**carried]
    assert cli._format_ratio(n, d, five) == text
    cut = cut_digits(n, d)
    assert five == ([cut, 5**cut] if cut > 0 else [carried, 5**carried])


# One column's cuts m, cell by cell (m <= 0 is the k >= 0 branch): m rises
# by 0, 1, 2, 3 and more, falls, and crosses between the two branches; None
# is a zero cell, which leaves the carried power as it is.
CARRY_CUTS = [-19, -4, 0, 1, 1, 2, 4, 7, None, 7, 30, 12, 13, -2, 5, 40, 0, None, 3, 3]


@pytest.mark.parametrize("d", [3, 3 << 40, 12 * 4**50, 7**30], ids=["odd", "twos", "dyadic", "7^30"])
def test_format_ratio_carried_column_matches_decimal_division(d):
    cuts = [cut for cut in CARRY_CUTS if cut is not None]
    steps = {b - a for a, b in itertools.pairwise(cuts)}
    assert {0, 1, 2, 3, 23} <= steps and min(steps) < -20
    five, kept = [0, 1], [0, 1]
    for i, cut in enumerate(CARRY_CUTS):
        # 2 10^(m+19) plus a remainder in every other cell, alternating signs.
        n = 0 if cut is None else (-1) ** i * (2 * 10 ** (cut + 19) * d + i % 2)
        assert n == 0 or cut_digits(n, d) == cut
        text = cli._format_ratio(n, d, five)
        assert text == decimal_reference(n, d) == cli._format_ratio(n, d)
        if n and cut > 0:
            kept = [cut, 5**cut]
        assert five == kept


def reference_rows(command, scheme, x, s0, steps, exact):
    """simulate/shadow rows built from trajectory() and shadow_energy()."""
    if not exact:
        x, s0 = float(x), PhaseState(float(s0.p), float(s0.q))
        text, drift = repr, lambda e, e0: repr(e - e0)
    else:
        text = lambda v: decimal_reference(v.numerator, v.denominator)
        drift = lambda e, e0: text(e - e0)
    if command == "simulate":
        rows = [["step", "p", "q", "shadow_energy", "p2_plus_q2"]]
        for step, s in enumerate(trajectory(s0, scheme, x, steps)):
            energy = shadow_energy(s, scheme, x)
            rows.append([str(step), *map(text, (s.p, s.q, energy, s.p * s.p + s.q * s.q))])
    else:
        rows = [["step", "first_energy", "first_drift", "second_energy", "second_drift"]]
        columns = [
            [shadow_energy(s, scheme, x) for s in trajectory(s0, scheme, x, steps)]
            for scheme in (SchemeId.FIRST_ORDER, SchemeId.SECOND_ORDER)
        ]
        for step in range(steps + 1):
            row = [str(step)]
            for energies in columns:
                row += [text(energies[step]), drift(energies[step], energies[0])]
            rows.append(row)
    return "".join(",".join(row) + "\n" for row in rows)


STARTS = [("1", "0"), ("-3/5", "2/7"), ("0", "0")]


def orbit_argv(x, start, steps, exact):
    flag = ["--exact"] if exact else []
    return [f"--x={x}", "--steps", str(steps), f"--p0={start[0]}", f"--q0={start[1]}", *flag]


def check_streamed_orbits(capsys, x, start, exact):
    """simulate (both schemes) and shadow print reference_rows()."""
    steps = 200
    s0 = PhaseState(Fraction(start[0]), Fraction(start[1]))
    state = orbit_argv(x, start, steps, exact)
    for label, scheme in (("first", SchemeId.FIRST_ORDER), ("second", SchemeId.SECOND_ORDER)):
        code, out = run_cli(capsys, "simulate", "--scheme", label, *state)
        assert code == 0
        assert out == reference_rows("simulate", scheme, Fraction(x), s0, steps, exact)
    code, out = run_cli(capsys, "shadow", *state)
    assert code == 0
    assert out == reference_rows("shadow", None, Fraction(x), s0, steps, exact)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("x", ["1/10", "7/5", "5/2", "-7/3"])
def test_streamed_orbits_match_trajectory(capsys, x, start, exact):
    check_streamed_orbits(capsys, x, start, exact)


def overflow_message(label, x, step):
    return (
        f"shadowosc: error: the {label}-order float orbit at x = {x} leaves the float range"
        f" at step {step}; use --exact\n"
    )


# Float only: near the radius, negative, and so large that the state
# overflows.  At 1e200 a run prints the reference rows before the first
# step whose energy or p^2+q^2 is inf or nan, then exits 2 naming that
# step; at step 0 it prints nothing.  The second-order form's entry
# (1 - x^2/4)/2 is -inf, so that orbit fails at step 0 from any start.
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("x", ["1999/1000", "-3/4", "1e200"])
def test_streamed_float_orbits_match_trajectory(capsys, x, start):
    if x != "1e200":
        check_streamed_orbits(capsys, x, start, False)
        return
    state, s0 = orbit_argv(x, start, 200, False), PhaseState(*map(Fraction, start))
    failures = []
    for label, scheme in (("first", SchemeId.FIRST_ORDER), ("second", SchemeId.SECOND_ORDER)):
        rows = reference_rows("simulate", scheme, Fraction(x), s0, 200, False)
        lines = rows.splitlines(keepends=True)
        bad = [k for k, line in enumerate(lines[1:]) if "inf" in line or "nan" in line]
        code = cli.main(["simulate", "--scheme", label, *state])
        captured = capsys.readouterr()
        if not bad:
            assert code == 0 and captured.out == rows and captured.err == ""
            continue
        step = bad[0]
        assert code == 2
        assert captured.out == ("".join(lines[: step + 1]) if step else "")
        assert captured.err == overflow_message(label, "1e+200", step)
        failures.append((step, label))
    # From (0, 0) the first-order orbit stays at 0, so only the second fails.
    labels = ["second"] if start == ("0", "0") else ["first", "second"]
    assert [label for _, label in failures] == labels
    # shadow steps the first orbit, then the second: it names the first failure.
    step, label = min(failures, key=lambda failure: failure[0])
    rows = reference_rows("shadow", None, Fraction(x), s0, 200, False).splitlines(keepends=True)
    assert cli.main(["shadow", *state]) == 2
    captured = capsys.readouterr()
    assert captured.out == ("".join(rows[: step + 1]) if step else "")
    assert captured.err == overflow_message(label, "1e+200", step)


# Orbits that leave the float range partway, and starts (p0 = 1e200) whose
# step-0 energy is inf: (argv, failing orbit, its x, its first bad step).
ORBIT_OVERFLOWS = (
    (["simulate", "--x", "1e200", "--steps", "2"], "first", "1e+200", 1),
    (["simulate", "--x", "3", "--steps", "400"], "first", "3.0", 185),
    (["shadow", "--x", "3", "--steps", "400"], "first", "3.0", 185),
    (["simulate", "--p0", "1e200", "--steps", "1"], "first", "1.0", 0),
    (["shadow", "--p0", "1e200", "--steps", "1"], "first", "1.0", 0),
)


@pytest.mark.parametrize("argv,label,x,step", ORBIT_OVERFLOWS)
def test_float_orbit_leaving_the_float_range_exits_two(tmp_path, capsys, argv, label, x, step):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == overflow_message(label, x, step)
    # The rows before the failing step stay on stdout, with no inf or nan;
    # a failure at step 0 writes no CSV.
    lines = captured.out.splitlines()
    assert len(lines) == (step + 1 if step else 0)
    assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in range(step)]
    assert "inf" not in captured.out and "nan" not in captured.out
    target = tmp_path / "rows.csv"
    assert cli.main(["--out", str(target), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == overflow_message(label, x, step)
    assert list(tmp_path.iterdir()) == []


def assert_no_child_left():
    if hasattr(os, "fork"):  # else there is no helper
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def two_cpus(patch):
    """Let simulate fork its helper wherever os.fork exists."""
    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def count_forks(patch):
    """The calls of os.fork from here on, each made while no other thread runs."""
    fork, forks = os.fork, []

    def counted_fork():
        assert threading.active_count() == 1
        forks.append(None)
        return fork()

    patch.setattr(os, "fork", counted_fork)
    return forks


def fork_fails():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


# Whether simulate forks a helper: only under the first rule.
HELPER_RULES = {
    "two CPUs": two_cpus,
    "one CPU": lambda patch: patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False),
    "one CPU by count": lambda patch: (
        patch.delattr(os, "sched_getaffinity", raising=False),
        patch.setattr(os, "cpu_count", lambda: 1),
    ),
    "no fork": lambda patch: patch.delattr(os, "fork", raising=False),
    "fork fails": lambda patch: (two_cpus(patch), patch.setattr(os, "fork", fork_fails)),
}


# The float orbit is stepped and printed in blocks of cli._FLOAT_BLOCK rows:
# one row short of a block, a whole block, one row into the next, four
# blocks and five.  simulate prints the same rows whether a forked helper
# formats every other block or no helper runs.
@pytest.mark.parametrize("extra", [-1, 0, 1, 3 * cli._FLOAT_BLOCK - 1, 3 * cli._FLOAT_BLOCK + 3])
def test_float_orbits_match_trajectory_across_a_block_boundary(capsys, monkeypatch, extra):
    steps = cli._FLOAT_BLOCK + extra
    s0 = PhaseState(Fraction(-3, 5), Fraction(2, 7))
    state = ["--x", "1/10", "--steps", str(steps), "--p0=-3/5", "--q0", "2/7"]
    for label, scheme in (("first", SchemeId.FIRST_ORDER), ("second", SchemeId.SECOND_ORDER)):
        rows = reference_rows("simulate", scheme, Fraction(1, 10), s0, steps, False)
        for rule, setup in HELPER_RULES.items():
            with monkeypatch.context() as patch:
                forks = count_forks(patch) if hasattr(os, "fork") else []
                setup(patch)
                code, out = run_cli(capsys, "simulate", "--scheme", label, *state)
            assert code == 0 and out == rows, rule
            assert_no_child_left()
            helper = rule == "two CPUs" and hasattr(os, "fork") and steps >= cli._FLOAT_BLOCK
            assert len(forks) == helper, rule
    code, out = run_cli(capsys, "shadow", *state)
    assert code == 0
    assert out == reference_rows("shadow", None, Fraction(1, 10), s0, steps, False)


# Overflows past the first block, at x = 2.001 from (p0, q0): (command,
# failing orbit, first bad step).  From (1, 1) and (2, 1) the second orbit
# fails first, partway through a block the first orbit also fails in.
# simulate's helper formats the odd blocks: the first three rows fail in
# block 5, the last in block 6, which the process itself formats.
BLOCK_OVERFLOWS = [
    (["simulate"], ("1", "0"), "first", 5563),
    (["simulate", "--scheme", "second"], ("1", "0"), "second", 5568),
    (["shadow"], ("1", "0"), "first", 5563),
    (["shadow"], ("1", "1"), "second", 5569),
    (["shadow"], ("2", "1"), "second", 5558),
    (["simulate"], ("1e-28", "0"), "first", 6583),
]


@pytest.mark.parametrize("argv,start,label,step", BLOCK_OVERFLOWS)
def test_float_overflow_past_the_first_block_keeps_the_rows_before_it(
    capsys, monkeypatch, argv, start, label, step
):
    assert step > cli._FLOAT_BLOCK
    two_cpus(monkeypatch)
    state = ["--x", "2.001", "--steps", "20000", f"--p0={start[0]}", f"--q0={start[1]}"]
    assert cli.main([*argv, *state]) == 2
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.err == overflow_message(label, "2.001", step)
    s0 = PhaseState(*map(Fraction, start))
    scheme = SchemeId.SECOND_ORDER if "second" in argv else SchemeId.FIRST_ORDER
    command = argv[0]
    assert captured.out == reference_rows(command, scheme, Fraction("2.001"), s0, step - 1, False)


# SHA-256 of exact simulate rows that the benchmark's digests (first
# order, x = 5/2, 2000 steps) do not reach: the second scheme, a
# non-dyadic x (also negative, with the second scheme), and the shrinking
# zero-energy eigenvector (2, 1).
@pytest.mark.parametrize(
    "argv,sha256",
    [
        (["--x", "5/2"], "bc034b5fe2b930f58546e5dff6f8759823ef976529e6e755af46094c4d5269bd"),
        (
            ["--scheme", "second", "--x", "5/2"],
            "56ed7384c1d9f55247a8bbf059db09539df66a6ef23c93cc59acc83e25f4e05d",
        ),
        (["--x", "7/3"], "16115caaa2ce478e8a520a66ed3ac9e416a46b9469a59b5e7b5e10b628b2cb54"),
        (
            ["--x", "5/2", "--p0", "2", "--q0", "1"],
            "141f7463778060ab3fa7880c60a96e38cea9c767ad9a508c0758b7d10f03a631",
        ),
        (
            ["--scheme", "second", "--x", "-7/3", "--p0", "2/3", "--q0", "-1/4"],
            "d7a63c3d6d790b81aed32333777d3da08bb2a6f7d5213d798882c0277bd7d621",
        ),
    ],
    ids=["first-5/2", "second-5/2", "first-7/3", "eigenvector-5/2", "second-negative-7/3"],
)
def test_exact_simulate_rows_are_pinned(capsys, argv, sha256):
    code, out = run_cli(capsys, "simulate", *argv, "--steps", "600", "--exact")
    assert code == 0 and len(out.splitlines()) == 602
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_simulate_and_shadow_memory_does_not_grow_with_steps(tmp_path):
    # Holding the 20001 rows took about 9.5 MB; streamed, the peak is a few
    # hundred kB.  Near the radius the second-order float energies take
    # about 16500 distinct values in 20001 rows, so nearly every row misses
    # the text cache, which must stay bounded.
    target = tmp_path / "orbit.csv"
    near_radius = ["simulate", "--scheme", "second", "--x", "199999/100000"]
    for argv in (["simulate"], ["shadow"], near_radius):
        tracemalloc.start()
        try:
            code = cli.main(["--out", str(target), *argv, "--steps", "20000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20, (argv, peak)
        assert target.read_bytes().count(b"\n") == 20002


def exact_orbit_args(x, start, steps):
    """simulate's arguments without its parser, which is what binds the
    oscillator names that cli's orbit helpers use: they are bound here."""
    cli._oscillator()
    p0, q0 = (Fraction(v) for v in start)
    return argparse.Namespace(x=Fraction(x), p0=p0, q0=q0, steps=steps)


def energy_form(scheme, x):
    """(a, b + c, d) and the common denominator of shadow_form(scheme, x)."""
    (a, b, c, d), scale = oscillator._common_denominator(shadow_form(scheme, x).entries())
    return (a, b + c, d), scale


# 2/3 has an even numerator, so the map's common denominator is reduced;
# 123456789/1000000007 gives large step coefficients.
CARRY_XS = ["5/2", "1/3", "2/3", "-7/3", "2", "0", "123456789/1000000007"]


# Rows 0-2 seed the recurrence and row 3 is its first step.
RECURRENCE_STEPS = (0, 1, 2, 3, 300)


def carry_starts(x, scheme):
    starts = [(1, 0), ("-3/5", "2/7"), (0, 0)]
    if x == "5/2" and scheme is SchemeId.FIRST_ORDER:
        starts.append((2, 1))  # an eigenvector with shadow energy 0
    return starts


def exact_rows(args, scheme):
    """_exact_orbit's rows, each with the shadow energy _quadratic_column gives
    for it: the per-row witness of the identity that cli checks once."""
    energies = cli._quadratic_column(args, scheme, shadow_form(scheme, args.x).entries())
    rows = zip(cli._exact_orbit(args, scheme), energies, strict=True)
    return [(*row, energy) for row, energy in rows]


def assert_rows_are_direct_squares(rows, scheme, x):
    """Each exact_rows row's p^2 + q^2 and energy equal the squared state."""
    (a, cross, d), form_scale = energy_form(scheme, x)
    for ((p, q), scale), (norm, scale_sq), (energy, energy_scale) in rows:
        assert norm == p * p + q * q
        assert scale_sq == scale * scale
        assert energy == a * p * p + cross * p * q + d * q * q
        assert energy_scale == form_scale * scale_sq


@pytest.mark.parametrize("scheme", list(SchemeId))
@pytest.mark.parametrize("x", CARRY_XS)
def test_exact_orbit_carried_squares_equal_direct_squares(x, scheme):
    for start, steps in itertools.product(carry_starts(x, scheme), RECURRENCE_STEPS):
        rows = exact_rows(exact_orbit_args(x, start, steps), scheme)
        assert len(rows) == steps + 1
        assert_rows_are_direct_squares(rows, scheme, Fraction(x))
        if start == (2, 1):
            assert {row[-1][0] for row in rows} == {0}


@pytest.mark.parametrize("scheme", list(SchemeId))
@pytest.mark.parametrize("x", CARRY_XS)
def test_shadow_energy_stream_equals_exact_orbit_energies(x, scheme):
    # The shadow energy column steps the state for rows 0-2 alone; its
    # stream must still be the energies of _exact_orbit's states, row by row.
    (a, cross, d), form_scale = energy_form(scheme, Fraction(x))
    for start, steps in itertools.product(carry_starts(x, scheme), RECURRENCE_STEPS):
        args = exact_orbit_args(x, start, steps)
        form = shadow_form(scheme, args.x).entries()
        energies = list(cli._quadratic_column(args, scheme, form))
        assert energies == [
            (a * p * p + cross * p * q + d * q * q, form_scale * e * e)
            for ((p, q), e), _ in cli._exact_orbit(args, scheme)
        ]
    if scheme is SchemeId.SECOND_ORDER:
        return
    # shadow's CSV prints both schemes: each energy and its drift as
    # _format_ratio gives them for every row of the real orbit, although
    # shadow prints row 0's text throughout once its identity holds.
    for start in carry_starts(x, scheme):
        args = argparse.Namespace(exact=True, **vars(exact_orbit_args(x, start, 40)))
        orbits = [[energy for *_, energy in exact_rows(args, s)] for s in SchemeId]
        expected = ["step,first_energy,first_drift,second_energy,second_drift\n"]
        for step, row in enumerate(zip(*orbits)):
            cells = []
            for (n, d), (n0, d0) in zip(row, [orbit[0] for orbit in orbits]):
                cells += [cli._format_ratio(n, d), cli._format_ratio(n * d0 - n0 * d, d * d0)]
            expected.append(",".join([str(step), *cells]) + "\n")
        assert list(cli.cmd_shadow(args)) == expected


def map_matrix_stub(scheme, x):
    """A map of determinant 10/3, which keeps no shadow form."""
    return Mat2(Fraction(3, 2), 1, Fraction(-1, 3), 2)


def test_exact_orbit_recurrence_holds_for_any_step_matrix(monkeypatch):
    # The recurrence may assume neither det K = D^2 nor a conserved energy.
    # cli reads the map through the oscillator module, as scaled_orbit does.
    monkeypatch.setattr(oscillator, "map_matrix", map_matrix_stub)
    for scheme in SchemeId:
        for start, steps in itertools.product([(1, 0), ("-3/5", "2/7")], (0, 1, 2, 3, 40)):
            rows = exact_rows(exact_orbit_args("1/3", start, steps), scheme)
            assert len(rows) == steps + 1
            assert_rows_are_direct_squares(rows, scheme, Fraction(1, 3))
            if steps:  # the stub conserves no energy
                assert len({Fraction(*energy) for *_, energy in rows}) > 1


@pytest.mark.parametrize(
    "argv",
    [["shadow", "--exact"], ["simulate", "--exact"], ["simulate", "--exact", "--scheme", "second"]],
)
def test_map_that_keeps_no_shadow_form_fails_the_exact_check(monkeypatch, tmp_path, capsys, argv):
    # The identity is checked before the header: exit 1, one stderr line,
    # no row, and an older --out keeps its bytes.
    monkeypatch.setattr(oscillator, "map_matrix", map_matrix_stub)
    older = tmp_path / "older.csv"
    older.write_bytes(b"x,y\n1,2\n")
    for out in ([], ["--out", str(older)]):
        assert cli.main([*out, *argv, "--x", "1/3", "--steps", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("shadowosc: check failed: ")
        assert captured.err.count("\n") == 1
        assert older.read_bytes() == b"x,y\n1,2\n"


def integer_form_identity(scheme, x):
    """(K^t F K, D^2 F) on the integer map K/D and shadow form F/f that cli checks."""
    k, step = oscillator._common_denominator(map_matrix(scheme, x).entries())
    f, _ = oscillator._common_denominator(shadow_form(scheme, x).entries())
    k, f = Mat2(*k), Mat2(*f)
    return k.transpose() @ f @ k, step * step * f


@settings(deadline=None)
@given(
    st.one_of(
        st.fractions(min_value=-2, max_value=2),
        st.fractions().filter(lambda x: abs(x) > 2),
        st.sampled_from([Fraction(0), Fraction(2), Fraction(-2)]),
    ),
    st.sampled_from(list(SchemeId)),
)
@example(Fraction(1, 10**4299), SchemeId.SECOND_ORDER)  # repr refuses 10^4300
def test_step_map_keeps_the_shadow_form_on_integers(x, scheme):
    # K^t F K = D^2 F holds wherever the CLI runs, so the check never refuses a real map.
    kept, scaled = integer_form_identity(scheme, x)
    assert kept == scaled


def test_exact_simulate_zero_steps_is_one_row(capsys):
    code, out = run_cli(capsys, "simulate", "--x", "5/2", "--steps", "0", "--exact")
    assert code == 0
    assert out == "step,p,q,shadow_energy,p2_plus_q2\n0,1,0,0.5,1\n"


def integer_power(m, n):
    """m^n for an integer Mat2, by binary powering."""
    result = Mat2.identity()
    while n:
        if n & 1:
            result = result @ m
        m, n = m @ m, n >> 1
    return result


@pytest.mark.parametrize(
    "x, scheme", [("5/2", SchemeId.FIRST_ORDER), ("1/3", SchemeId.SECOND_ORDER)]
)
def test_exact_orbit_far_row_matches_map_power(x, scheme):
    steps, start = 4000, ("-3/5", "2/7")
    args = exact_orbit_args(x, start, steps)
    *_, row = exact_rows(args, scheme)
    entries, step = oscillator._common_denominator(map_matrix(scheme, args.x).entries())
    (p0, q0), scale0 = oscillator._common_denominator((args.p0, args.q0))
    p, q = integer_power(Mat2(*entries), steps).apply(PhaseState(p0, q0))
    scale = scale0 * step**steps
    (a, cross, d), form_scale = energy_form(scheme, args.x)
    energy = a * p * p + cross * p * q + d * q * q
    assert row == (
        ((p, q), scale), (p * p + q * q, scale * scale), (energy, form_scale * scale * scale)
    )
    # The exact energy is conserved: the far row's value is step 0's.
    assert Fraction(energy, form_scale * scale * scale) == shadow_energy(
        PhaseState(args.p0, args.q0), scheme, args.x
    )


# Each value starts with "-" and a digit or ".", which argparse would read
# as an option after a space.
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--x", "-1/2"],
        ["simulate", "--exact", "--p0", "-3/5"],
        ["simulate", "--x", "-1e-3"],
        ["sweep", "--x-range", "-1:1:1/2"],
        ["sweep", "--x-r", "-1:1:1/2"],  # an abbreviation argparse accepts
    ],
)
def test_negative_value_after_a_space(capsys, argv):
    *head, option, value = argv
    glued = run_cli(capsys, *head, f"{option}={value}")
    assert glued[0] == 0
    assert run_cli(capsys, *argv) == glued


def test_option_after_value_option_is_still_an_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--x", "-h"])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_float_text_cache_keeps_signed_zeros_apart():
    text = cli._FloatText()
    for value in (0.0, -0.0, 0.0, 0.5, -0.0, math.nan, math.inf, 0.5):
        assert text[value] == repr(value)


# Values too large for a float: x, p0, the trace -1e400 at x = 1e200.
FLOAT_OVERFLOWS = (
    ["simulate", "--x", "1e400", "--steps", "1"],
    ["shadow", "--x", "1e400", "--steps", "1"],
    ["simulate", "--p0", "1e400"],
    ["verify", "--x", "1e400"],
    ["sweep", "--x", "1e400"],
    ["sweep", "--x-range", "0:1e400:1e399"],
    ["sweep", "--x", "1e200"],
    # The second-order form's entry (1 - x^2/4)/2 is -inf at step 0.
    ["shadow", "--x", "1e160", "--steps", "0"],
    ["simulate", "--scheme", "second", "--x", "1e160"],
)


def test_exit_two_leaves_no_csv(tmp_path, capsys):
    # Refused before the first row: no CSV, and an older --out keeps its bytes.
    target, older = tmp_path / "rows.csv", tmp_path / "older.csv"
    for argv in (
        ["verify", "--x", "1.99999999999999999"],  # rounds to 2.0 in floats: refused
        ["verify", "--x", "1.9999999999999998"],  # refused: |x| scale is 4.2e8
        ["sweep", "--x", str(2 - Fraction(1, 10**700))],  # the scale is past the float range
        ["coeffs", "--letters", "3", "--max-degree", "11"],  # over the budget
        *FLOAT_OVERFLOWS,
    ):
        for out in ([], ["--out", str(target)]):
            assert cli.main([*out, *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error" in captured.err
            assert not target.exists()
        older.write_bytes(b"x,y\n1,2\n")
        assert cli.main(["--out", str(older), *argv]) == 2
        assert capsys.readouterr().out == ""
        assert older.read_bytes() == b"x,y\n1,2\n"


@pytest.mark.parametrize("command", ["verify"])
@pytest.mark.parametrize("x", ["1.99999999999999999999", "-1.99999999999999999999"])
def test_x_inside_the_radius_whose_float_is_two_exits_two(capsys, command, x):
    # |x| < 2, so the scale exists (1.6e10), but the float residual of the
    # log row, 4 ulp of |x| scale = 1.5e-5, cannot resolve the 1e-12 gate.
    assert cli.main([command, "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"shadowosc: error: log_vs_generator cannot resolve 1e-12 at x = {Fraction(x)}:"
        " its float residual errs by up to 4 ulp of |x| scale = 31415926533.89793\n"
    )


@pytest.mark.parametrize("x", ["1.99999999999999999999", "-1.99999999999999999999"])
def test_sweep_answers_inside_the_radius_where_the_float_x_is_two(capsys, x):
    # sweep has no gate: it prints the scale at the exact x, not DIVERGENT.
    code, out = run_cli(capsys, "sweep", "--x", x)
    assert code == 0
    (row,) = parse_csv(out)[1:]
    assert row[:3] == [repr(float(x)), "-2.0", "elliptic"]
    assert row[5] == repr(generator_scale(Fraction(x))) == "15707963266.948965"
    assert row[6] == "3.141592653389793"  # pi - 2e-10, where the float x gives pi


def test_unwritable_out_exits_two_naming_the_path(tmp_path, capsys):
    for target in (tmp_path / "missing" / "rows.csv", tmp_path):  # no directory; a directory
        for argv in (["sweep", "--x", "1"], ["simulate", "--steps", "3"]):
            assert cli.main(["--out", str(target), *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"shadowosc: error: cannot write --out {target}: ")
            assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_check_exits_one_keeping_the_whole_csv(tmp_path, capsys, monkeypatch):
    # The check fails after the last row: every row is written, to stdout
    # and to --out alike, and stderr holds one line.
    monkeypatch.setattr(goldberg, "goldberg_coeff_two", lambda w: Fraction(7, 13))
    monkeypatch.setattr(cli, "generator_scale", lambda n, b: 1.0)  # both log rows fail
    target = tmp_path / "rows.csv"
    for argv, message, lines in (
        (["verify", "--x", "1.999"], "2 of 9 verify rows failed", 10),
        (["coeffs", "--max-degree", "2"], "4 of 4 words differ from the oracle", 5),
    ):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"shadowosc: check failed: {message}\n"
        assert len(captured.out.splitlines()) == lines
        assert cli.main(["--out", str(target), *argv]) == 1
        assert tuple(capsys.readouterr()) == ("", captured.err)
        assert target.read_text() == captured.out


def test_grid_memory_does_not_grow_with_samples(tmp_path):
    # Held until the run ended, these rows peaked at 1.6 and 2.0 MB;
    # streamed, the peak is a few hundred kB.
    target = tmp_path / "grid.csv"
    for argv, lines in (
        (["sweep", "--x-range", "0:1:1/10000"], 1 + 10001),
        (["verify", "--x-range", "0:1:1/2500"], 2 + 6 + 8 * 2500),  # x = 0 has no log rows
    ):
        tracemalloc.start()
        try:
            code = cli.main(["--out", str(target), *argv])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**19, (argv, peak)
        assert target.read_bytes().count(b"\n") == lines


def test_refusal_partway_keeps_the_rows_before_it(tmp_path, capsys):
    # Both ends answer (the last is past the radius), but an x between them
    # is refused: verify's from x = 1.999998, where |x| scale passes 2048,
    # and sweep's at 2 - 10^-700, whose scale is past the float range.
    near = 2 - Fraction(1, 10**600)
    step = 2 - near - Fraction(1, 10**700)
    target = tmp_path / "rows.csv"
    for command, grid, error, per_sample, answered in (
        ("verify", "1.99999:2.00001:1/1000000", "log_vs_generator cannot resolve", 8, 8),
        ("sweep", f"{near}:{near + 2 * step}:{step}", "the generator scale at", 1, 1),
    ):
        argv = [command, "--x-range", grid]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"shadowosc: error: {error}")
        assert captured.err.count("\n") == 1
        lines = captured.out.splitlines(keepends=True)
        assert all(line.endswith("\n") for line in lines)
        assert (len(lines) - 1 - (command == "verify")) // per_sample == answered
        assert cli.main(["--out", str(target), *argv]) == 2
        assert capsys.readouterr().out == ""
        assert not target.exists()


def test_no_x_reaches_the_scale_series_twice(capsys, monkeypatch):
    # Each grid's ends are computed before its header and reused in place.
    calls = []

    def counted(n, b):
        calls.append(Fraction(n, b))
        return generator_scale(n, b)

    monkeypatch.setattr(cli, "generator_scale", counted)
    for command in ("verify", "sweep"):
        for grid in ("--x-range=-3:3:1/7", "--x-range=1.9:2.1:1/100", "--x=1.5", "--x=3"):
            calls.clear()
            run_cli(capsys, command, grid)
            assert calls and len(calls) == len(set(calls)), (command, grid, calls)
            # Each sample once, except that verify makes no call at x = 0.
            xs = [x for x in grid_xs(grid) if x or command == "sweep"]
            assert sorted(calls) == sorted(xs), (command, grid, calls)


def test_verify_fails_a_divergence_the_series_does_not_signal(capsys, monkeypatch):
    monkeypatch.setattr(cli, "generator_scale", lambda n, b: 1.0)
    code, out = run_cli(capsys, "verify", "--x", "3")
    assert code == 1
    assert out.endswith("\ndivergence_signaled,3.0,exact,fail\n")
    assert out.count(",fail\n") == 1


def assert_group_ends(pgid):
    """Wait up to 5 s for every process in group pgid to be reaped."""
    deadline = time.monotonic() + 5
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < deadline, "a process of the command outlived it"
        time.sleep(0.01)


def console_script(argv, prelude="", **kwargs):
    """run(), the console script's entry point, in a new interpreter after
    the statements in prelude."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", f"{prelude}\nfrom shadowosc.cli import run; run()", *argv],
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path}, **kwargs,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_failed_write_exits_two_naming_the_target():
    # /dev/full fails every write with ENOSPC.  Exit 1 would claim a failed
    # check, and Python's own retry of the buffered rows at exit must not
    # add a second message.
    # With a scale of 1.0, verify --x 1.999 fails a check after its last row:
    # the write still outranks it.
    broken = "import shadowosc.cli as cli; cli.generator_scale = lambda n, b: 1.0"
    argvs = (["sweep", "--x", "1"], ["simulate", "--steps", "100000"], ["verify", "--x", "1.999"])
    for argv in argvs:
        for out, target in ((["--out", "/dev/full"], "--out /dev/full"), ([], "stdout")):
            with open("/dev/full", "w") as full:
                proc = console_script([*out, *argv], broken, stdout=full, start_new_session=True)
                _, err = proc.communicate(timeout=60)
            assert proc.returncode == 2, (argv, target)
            assert err.decode() == (
                f"shadowosc: error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
            )
            assert_group_ends(proc.pid)  # simulate's helper included


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit on this platform")
def test_failed_write_removes_the_partial_out_file(tmp_path):
    # A file size limit fails the write after 4096 bytes, partway through;
    # after 300,000 bytes, while simulate's helper runs, which is reaped too.
    limit = (
        "import resource, signal\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, ({0}, {0}))"
    ).format
    target, too_large = tmp_path / "rows.csv", os.strerror(errno.EFBIG)
    for size, steps in ((4096, "1000"), (300000, "100000")):
        target.write_text("an older file of the same name\n")
        argv = ["--out", str(target), "simulate", "--steps", steps]
        proc = console_script(argv, limit(size), start_new_session=True)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.decode() == f"shadowosc: error: cannot write --out {target}: {too_large}\n"
        assert list(tmp_path.iterdir()) == []
        assert_group_ends(proc.pid)
    # Rows already written to stdout stay there.
    with open(target, "wb") as stdout:
        proc = console_script(["simulate", "--steps", "1000"], limit(4096), stdout=stdout)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == f"shadowosc: error: cannot write stdout: {too_large}\n"
    rows = target.read_bytes()
    assert len(rows) == 4096 and rows.startswith(b"step,p,q,shadow_energy,p2_plus_q2\n")


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit on this platform")
@pytest.mark.parametrize("steps", ["10", "3000"])
def test_write_cut_short_fails_under_an_unbuffered_stdout(tmp_path, capsys, steps):
    # Under python -u, stdout's text layer hands each write to the file
    # itself and drops what a write the system cuts short leaves over.  A
    # size limit 10 bytes short of the CSV, inside its last write, must
    # still fail the run.
    code, rows = run_cli(capsys, "simulate", "--steps", steps)
    assert code == 0
    size = len(rows) - 10
    limit = (
        "import io, resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({size}, {size}))\n"
        "sys.stdout = io.TextIOWrapper(io.FileIO(1, 'w', closefd=False), write_through=True)"
    )
    target = tmp_path / "rows.csv"
    with open(target, "wb") as stdout:
        proc = console_script(["simulate", "--steps", steps], limit, stdout=stdout)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == f"shadowosc: error: cannot write stdout: {os.strerror(errno.EFBIG)}\n"
    assert target.read_text() == rows[:size]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_the_console_script_silently():
    # run() is the console script's entry point; a reader that stops after
    # one line, as head does, ends it by SIGPIPE with nothing on stderr,
    # and its helper at its next frame.
    proc = console_script(
        ["simulate", "--steps", "1000000"], stdout=subprocess.PIPE, start_new_session=True
    )
    assert proc.stdout.readline() == b"step,p,q,shadow_energy,p2_plus_q2\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == -signal.SIGPIPE
    assert_group_ends(proc.pid)


def test_console_script_skips_interpreter_teardown(capsys):
    # Once main returns, run() flushes the streams and leaves by os._exit:
    # an atexit handler registered by other code never runs, and stdout
    # still holds every byte main writes.
    code, rows = run_cli(capsys, "sweep", "--x", "1")
    assert code == 0
    marker = "import atexit, sys; atexit.register(sys.stderr.write, 'atexit handler ran\\n')"
    proc = console_script(["sweep", "--x", "1"], marker, stdout=subprocess.PIPE)
    assert proc.communicate(timeout=60) == (rows.encode(), b"")
    assert proc.returncode == 0


def test_console_script_failed_check_keeps_the_whole_csv(tmp_path, capsys, monkeypatch):
    # Exit 1 takes the same exit: every row on stdout or in --out, one line on stderr.
    broken = "import shadowosc.cli as cli; cli.generator_scale = lambda n, b: 1.0"
    monkeypatch.setattr(cli, "generator_scale", lambda n, b: 1.0)  # both log rows fail
    argv, target = ["verify", "--x", "1.999"], tmp_path / "rows.csv"
    assert cli.main(argv) == 1
    rows = capsys.readouterr().out.encode()
    message = b"shadowosc: check failed: 2 of 9 verify rows failed\n"
    for out, stdout in (([], rows), (["--out", str(target)], b"")):
        proc = console_script([*out, *argv], broken, stdout=subprocess.PIPE)
        assert proc.communicate(timeout=60) == (stdout, message)
        assert proc.returncode == 1
    assert target.read_bytes() == rows


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 between fork and exec")
def test_console_script_with_stdout_closed_at_exec_writes_out(tmp_path, capsys):
    # With fd 1 closed at exec, sys.stdout is None: there is no stdout to flush.
    code, rows = run_cli(capsys, "sweep", "--x", "1")
    assert code == 0
    target = tmp_path / "rows.csv"
    proc = console_script(
        ["--out", str(target), "sweep", "--x", "1"], "import sys; assert sys.stdout is None",
        preexec_fn=lambda: os.close(1),
    )
    assert proc.communicate(timeout=60) == (None, b"")
    assert proc.returncode == 0
    assert target.read_bytes() == rows.encode()


def test_console_script_usage_error_and_help_keep_argparse_exits(capsys, monkeypatch):
    # argparse's SystemExit leaves by Python's own exit: a usage error
    # exits 2 with its text on stderr, and --help exits 0 with the help.
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, in process and in the child
    for argv, code in ((["sweep", "--x", "abc"], 2), (["sweep", "--help"], 0)):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == code
        expected = capsys.readouterr()
        proc = console_script(argv, stdout=subprocess.PIPE)
        assert proc.communicate(timeout=60) == (expected.out.encode(), expected.err.encode())
        assert proc.returncode == code


# The CLI surface, recorded on Python 3.10-3.13 while build_parser still
# filled in every subcommand at once: each subcommand's parser now adds its
# arguments when argparse first parses with it, so these bytes pin that
# argparse still routes the chosen subcommand through its parse_known_args.
HELP_SHA256 = {
    "": "5b6f62971a60dab85bd3efc43577f0eeae664f1f3f04021754714f3356517d1f",
    "coeffs": "45c4d945d3df7c7c0b7da60a82575fdcbe99c3c64ab89d74019bcebaf942a9d0",
    "verify": "e5d3d8673ac16232ca8d927279ed954766fa7904c10d79aab3c76ac2885ccc4e",
    "simulate": "f11c12fe888a7febb703a09c26cefd429d5f5da9fc7dc0d5fd935b4ac9f020c0",
    "shadow": "77305dd822ea710cf73a14cec31af37646d4ce066b3f6c7f63d8e7eff79c3a77",
    "sweep": "a323c3ff017622564dad2f30bfbb2895bbef933ed56d7a770d2861442b9b0125",
}
TOP_USAGE = "usage: shadowosc [-h] [--out OUT] {coeffs,verify,simulate,shadow,sweep} ...\n"
USAGE_ERRORS = [
    ("bogus", TOP_USAGE + "shadowosc: error: argument command: invalid choice: 'bogus'"
     " (choose from 'coeffs', 'verify', 'simulate', 'shadow', 'sweep')\n"),
    ("coeffs --bogus", TOP_USAGE + "shadowosc: error: unrecognized arguments: --bogus\n"),
    ("simulate --scheme third",
     "usage: shadowosc simulate [-h] [--scheme {first,second}] [--x X]\n"
     "                          [--steps STEPS] [--p0 P0] [--q0 Q0] [--exact]\n"
     "shadowosc simulate: error: argument --scheme: invalid choice: 'third'"
     " (choose from 'first', 'second')\n"),
    ("sweep --x-range 1:0:1",
     "usage: shadowosc sweep [-h] [--x X | --x-range START:STOP:STEP]\n"
     "shadowosc sweep: error: argument --x-range: stop must be >= start\n"),
    ("", TOP_USAGE + "shadowosc: error: the following arguments are required: command\n"),
]


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_bytes_are_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    proc = console_script([*command.split(), "--help"], stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert hashlib.sha256(out).hexdigest() == HELP_SHA256[command]


@pytest.mark.parametrize("argv,stderr", USAGE_ERRORS)
def test_usage_error_bytes_are_pinned(monkeypatch, argv, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    proc = console_script(argv.split(), stdout=subprocess.PIPE)
    assert proc.communicate(timeout=60) == (b"", stderr.encode())
    assert proc.returncode == 2


def test_coeffs_parses_no_rational(capsys, monkeypatch):
    # Only verify and sweep parse the --x-range default, when argparse
    # fills in their parser; coeffs fills in its own alone.
    parsed = []
    rational = cli._rational
    monkeypatch.setattr(cli, "_rational", lambda text: parsed.append(text) or rational(text))
    assert run_cli(capsys, "coeffs", "--max-degree", "4")[0] == 0
    assert parsed == []
    assert run_cli(capsys, "sweep", "--x", "1")[0] == 0
    assert parsed == ["1"]  # the --x-range default is text, parsed only when used
    parsed.clear()
    assert run_cli(capsys, "sweep")[0] == 0
    assert parsed == ["0", "3", "0.1"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_helper_ending_early_exits_two(tmp_path, capsys, monkeypatch):
    # The helper formats blocks 1, 3, ...; this one leaves after block 1, so
    # the rows of blocks 0-2 are printed and then the run fails.
    two_cpus(monkeypatch)
    alternate, parent, argv = cli._alternate, os.getpid(), ["simulate", "--steps", "5000"]
    code, rows = run_cli(capsys, *argv)
    assert code == 0

    def first_frame_only(first, blocks, fmt):
        sent = []

        def fmt_or_leave(block):
            if os.getpid() != parent:
                if sent:
                    os._exit(0)
                sent.append(block)
            return fmt(block)

        return alternate(first, blocks, fmt_or_leave)

    monkeypatch.setattr(cli, "_alternate", first_frame_only)
    message = "shadowosc: error: the helper process that formats every other block ended early\n"
    for out in ([], ["--out", str(tmp_path / "rows.csv")]):
        assert cli.main([*out, *argv]) == 2
        assert_no_child_left()
        captured = capsys.readouterr()
        assert captured.err == message
        kept = "".join(rows.splitlines(keepends=True)[: 3 * cli._FLOAT_BLOCK + 1])
        assert captured.out == ("" if out else kept)
        assert list(tmp_path.iterdir()) == []  # the partial --out file is removed


def test_sweep_default_range(capsys):
    code, out = run_cli(capsys, "sweep")
    rows = parse_csv(out)
    assert code == 0
    assert len(rows) == 32  # header + 31 samples
    header = rows[0]
    assert header == [
        "x",
        "trace",
        "stability",
        "spectral_radius",
        "shadow_det",
        "generator_scale",
        "theta",
    ]
    table = {row[0]: dict(zip(header, row)) for row in rows[1:]}
    row1 = table["1.0"]
    assert row1["trace"] == "1.0"
    assert row1["stability"] == "elliptic"
    assert row1["spectral_radius"] == "1.0"
    assert row1["shadow_det"] == "0.1875"
    assert row1["generator_scale"].startswith("1.2091995761561")
    row2 = table["2.0"]
    assert row2["trace"] == "-2.0"
    assert row2["stability"] == "parabolic"
    assert row2["generator_scale"] == "DIVERGENT"
    assert float(row2["theta"]) == pytest.approx(3.141592653589793)
    row3 = table["3.0"]
    assert row3["stability"] == "hyperbolic"
    assert float(row3["spectral_radius"]) == pytest.approx(6.854101966249685)
    assert float(row3["shadow_det"]) < 0
    assert row3["theta"] == ""
    xs = [float(row[0]) for row in rows[1:]]
    assert xs == sorted(xs)


def test_sweep_spectral_radius_finite_where_trace_squared_overflows(capsys):
    # trace = 2 - x^2 = -1e300 is a float, but its square is not.
    code, out = run_cli(capsys, "sweep", "--x", "1e150")
    header, row = parse_csv(out)
    assert code == 0
    cells = dict(zip(header, row))
    trace, radius = float(cells["trace"]), float(cells["spectral_radius"])
    assert trace == -1e300
    assert radius == pytest.approx(abs(trace), rel=1e-15)


def test_sweep_is_deterministic(capsys):
    _, first = run_cli(capsys, "sweep", "--x-range", "0:3:0.25")
    _, second = run_cli(capsys, "sweep", "--x-range", "0:3:0.25")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code = cli.main(["--out", str(target), "sweep", "--x-range", "0:1:0.5"])
    assert code == 0
    assert capsys.readouterr().out == ""
    content = target.read_bytes()
    assert content.startswith(b"x,trace,")
    assert b"\r" not in content and content.endswith(b"\n")


def test_lost_nonalternating_words_exit_one_with_no_csv(tmp_path, capsys, monkeypatch):
    # The raw log keeps non-alternating words from degree 3 on; a series
    # that lost them fails the check before any row is written.
    monkeypatch.setattr(
        goldberg,
        "nonalternating_support",
        lambda max_degree: {degree: int(degree != 3) for degree in range(1, max_degree + 1)},
    )
    target = tmp_path / "rows.csv"
    for out in ([], ["--out", str(target)]):
        assert cli.main([*out, "coeffs", "--max-degree", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "shadowosc: check failed: raw log series lost its non-alternating words at degree 3\n"
        )
        assert not target.exists()


def test_coeffs_degree_out_of_range_exits_two(capsys):
    for letters, degree in (("3", "2"), ("2", "0"), ("3", "0"), ("2", "15"), ("3", "11")):
        code = cli.main(["coeffs", "--letters", letters, "--max-degree", degree])
        assert code == 2
        assert "error" in capsys.readouterr().err


def test_coeffs_degree_below_the_letter_count_names_the_option(capsys):
    for argv in (["--max-degree", "1"], ["--letters", "3", "--max-degree", "2"]):
        assert cli.main(["coeffs", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-degree" in captured.err and "max_degree must be" not in captured.err


def test_coeffs_budget_admits_documented_degrees(capsys, monkeypatch):
    # Stubs stand in for the oracle, so the largest degrees cost nothing.
    asked = []
    for name in ("verify_two_letter", "verify_three_letter"):
        monkeypatch.setattr(goldberg, name, lambda degree: asked.append(degree) or [])
    for letters, degree in ((2, 14), (3, 10)):
        assert cli.MAX_DEGREE[letters] >= degree
        argv = ["coeffs", "--letters", str(letters), "--max-degree", str(degree)]
        assert run_cli(capsys, *argv) == (0, "word,closed_form,oracle,match\n")
    assert asked == [14, 10]


def test_coeffs_default_degrees(capsys):
    code, out = run_cli(capsys, "coeffs")  # two letters, degree 12
    assert code == 0
    assert len(parse_csv(out)) == 25  # header + 24 alternating words


# The rows at each letter count's largest degree, which the benchmark's
# digests (2 letters to degree 12, 3 to degree 8) do not reach.
@pytest.mark.parametrize(
    "letters,degree,lines,sha256",
    [
        (2, 14, 29, "535fe44fc21a2deb0f629a8da271ce35e2b8d6c182bd40aaa0cdc958d025f230"),
        (3, 10, 94, "b017210b55318c1a27fdef58d664855aab09cc0ef67359ec8b8c6e7a61458234"),
    ],
)
def test_coeffs_rows_at_the_degree_budget(capsys, letters, degree, lines, sha256):
    argv = ["coeffs", "--letters", str(letters), "--max-degree", str(degree)]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--scheme", "third"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--x-range", "3:0:0.1"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--x-range", "0:3:1e-9"])  # 3e9 samples: refused unbuilt
    assert info.value.code == 2
    capsys.readouterr()
    for option, value, message in (
        ("--x", "abc", "not a rational number: 'abc'"),
        ("--x", "1/0", "not a rational number: '1/0'"),
        ("--x-range", "0:3", "expected start:stop:step, got '0:3'"),
        ("--x-range", "0:3:0", "step must be positive"),
        ("--x-range", "0:3:-1/10", "step must be positive"),
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", option, value])
        assert info.value.code == 2
        assert f"argument {option}: {message}\n" in capsys.readouterr().err
    # verify's gate is pinned, and sweep's columns are the same for both schemes.
    target = tmp_path / "rows.csv"
    for argv in (["verify", "--tol", "1e-12"], ["sweep", "--scheme", "second"]):
        with pytest.raises(SystemExit) as info:
            cli.main(["--out", str(target), *argv])
        assert info.value.code == 2
        assert capsys.readouterr().out == "" and not target.exists()
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--steps", "-4"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--steps", "1e3"])
    assert info.value.code == 2
    assert "argument --steps: not an integer: '1e3'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    for argv in FLOAT_OVERFLOWS:
        assert cli.main(argv) == 2


def test_rational_refuses_long_digit_runs_and_exponents_unbuilt():
    bound = cli.MAX_DIGITS
    # At the bounds, signs and leading zeros included, the value is Fraction's.
    for text in (f"1e{bound}", f" -2.5E-{bound} ", f"1e+000{bound}", f".5e-{bound}", "7" * bound):
        assert cli._rational(text) == Fraction(text)
    past = bound + 1
    for text in (f"1e{past}", f"-1.E-{past}", f"1_0.2_5e+{past}", "1e4_301", "2e" + "9" * bound):
        with pytest.raises(argparse.ArgumentTypeError) as info:
            cli._rational(text)
        assert str(info.value) == f"decimal exponent past +-{bound}"
    # More digits than int() reads by default: named, not echoed.
    for text in ("7" * past, "1/" + "3" * past, "1_" * bound + "1", "1e" + "0" * past):
        with pytest.raises(argparse.ArgumentTypeError) as info:
            cli._rational(text)
        assert str(info.value) == f"more than {bound} digits in a row"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--x", "1e100000000"],
        ["verify", "--x-range", "0:1:1e-100000000"],
        ["simulate", "--exact", "--p0", "1e100000000"],
        ["shadow", "--q0", "-1e-100000000"],
    ],
)
def test_huge_exponent_exits_two_without_building_it(argv):
    # Fraction(text) would build 10^(10^8) first: minutes, not a usage error.
    with console_script(argv, stdout=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
    assert proc.returncode == 2 and out == b""
    assert err.endswith(f"decimal exponent past +-{cli.MAX_DIGITS}\n".encode())


def test_x_and_x_range_are_exclusive(capsys):
    for command in ("verify", "sweep"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--x", "1", "--x-range", "0:1:1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --x" in captured.err


def grid_xs(grid):
    """The exact samples of "--x=X" or "--x-range=START:STOP:STEP"."""
    kind, value = grid[2:].split("=")
    if kind == "x":
        return [Fraction(value)]
    start, stop, step = map(Fraction, value.split(":"))
    return [start + i * step for i in range(int((stop - start) / step) + 1)]


def reference_grid_rows(command, scheme, xs):
    """verify (both schemes) or sweep (one scheme) rows and exit code,
    with every exact column computed on Fractions from map_matrix,
    shadow_form, generator_direction and stability_classify, and the
    scale, radius and angle from the library at the exact x.  A log row
    holds if map - (trace/2) I = x direction exactly, and its residual is
    |x| |theta/sin theta - scale| max|direction|, with cos theta = 1 - x^2/2
    and sin theta = |x| sqrt(1 - x^2/4) each rounded once from the exact x:
    the map's log is theta/sin theta times its traceless part."""
    schemes = {"first": SchemeId.FIRST_ORDER, "second": SchemeId.SECOND_ORDER}
    sign = lambda v: (v > 0) - (v < 0)
    if command == "sweep":
        rows = [["x", "trace", "stability", "spectral_radius", "shadow_det",
                 "generator_scale", "theta"]]
        for x in xs:
            trace = map_matrix(scheme, x).trace()
            try:
                scale_text = repr(generator_scale(x))
            except SeriesDivergesError:
                scale_text = "DIVERGENT"
            rows.append([
                repr(float(x)),
                repr(float(trace)),
                stability_classify(x).value,
                repr(spectral_radius(x)),
                repr(float(shadow_form(scheme, x).det())),
                scale_text,
                repr(rotation_angle(x)) if abs(trace) <= 2 else "",
            ])
        return "".join(",".join(row) + "\n" for row in rows), 0
    rows = [["invariant", "x", "residual", "pass"],
            ["generator_relations", "", "exact",
             "pass" if all(ok for _, ok in check_generator_relations()) else "fail"]]
    for x in xs:
        x_text = repr(float(x))
        for label, scheme in schemes.items():
            form = shadow_form(scheme, x)
            product = form @ generator_direction(scheme, x)
            checks = {
                "det_map": map_matrix(scheme, x).det() == 1,
                "antisymmetry": product.transpose() + product == Mat2.zero(),
                "shadow_det_sign": sign(form.det()) == sign(2 - abs(x)),
            }
            for name, ok in checks.items():
                rows.append([f"{name}_{label}", x_text, "exact", "pass" if ok else "fail"])
        if 0 < abs(x) < 2:
            scale, size = generator_scale(x), abs(float(x))
            sin = size * math.sqrt(float(1 - x * x / 4))
            gap = size * abs(math.atan2(sin, float(1 - x * x / 2)) / sin - scale)
            for label, scheme in schemes.items():
                step, direction = map_matrix(scheme, x), generator_direction(scheme, x)
                exact = step - (step.trace() / 2) * Mat2.identity() == x * direction
                residual = gap * float(max(abs(v) for v in direction.entries()))
                rows.append([f"log_vs_generator_{label}", x_text, repr(residual),
                             "pass" if exact and residual <= 1e-12 else "fail"])
        elif abs(x) >= 2:  # generator_scale raises there for every x
            rows.append(["divergence_signaled", x_text, "exact", "pass"])
    code = 1 if any(row[3] == "fail" for row in rows[1:]) else 0
    return "".join(",".join(row) + "\n" for row in rows), code


@pytest.mark.parametrize(
    "grid",
    [
        "--x-range=-5/2:5/2:1/2",  # through x = -2 and x = 2
        "--x-range=-2:3:1/7",  # denominator 7, through both edges
        "--x-range=1/3:3:1/4",  # b = lcm(3, 4)
        "--x=1e-9",
        "--x=1e-200",
        "--x=2",
        "--x=-3/2",
        "--x=1.9999",  # failed while the series was summed at the float x
        "--x-range=1/8000:3:1/1000",  # perfbench's float_scan grid: 6 rows failed the same way
    ],
)
def test_grid_rows_match_fraction_reference(capsys, grid):
    xs = grid_xs(grid)
    assert run_cli(capsys, "verify", grid)[::-1] == reference_grid_rows("verify", None, xs)
    # The schemes are conjugate, so sweep has one reference for both.
    expected = reference_grid_rows("sweep", SchemeId.FIRST_ORDER, xs)
    assert expected == reference_grid_rows("sweep", SchemeId.SECOND_ORDER, xs)
    assert run_cli(capsys, "sweep", grid)[::-1] == expected


@pytest.mark.parametrize(
    "invariant, perturb",
    [
        # K + D e11 has determinant D^2 + D K.d, not D^2.
        ("det_map", lambda k, d, f, fs, g, gs: (_with(k, 0, k[0] + d), d, f, fs, g, gs)),
        # F (G + g I) = F G + g F, whose skew part 2 g F is not zero.
        (
            "antisymmetry",
            lambda k, d, f, fs, g, gs: (k, d, f, fs, (g[0] + gs, g[1], g[2], g[3] + gs), gs),
        ),
        # Negating F.d flips the sign of det F; negating G.b too keeps F G
        # antisymmetric (the second scheme's F and G are diagonal and anti-diagonal).
        (
            "shadow_det_sign",
            lambda k, d, f, fs, g, gs: (k, d, (f[0], 0, 0, -f[3]), fs, _with(g, 1, -g[1]), gs),
        ),
        # Only the identity g b (2K - T I) = 2 D n G and the residual read g.
        ("log_vs_generator", lambda k, d, f, fs, g, gs: (k, d, f, fs, g, 2 * gs)),
    ],
)
def test_verify_checks_each_sample(capsys, monkeypatch, invariant, perturb):
    failed = failed_rows_at_one_half(capsys, monkeypatch, perturb)
    # Each exact row's perturbation breaks the identity the log row checks too;
    # the residual, computed from x alone, stays within the gate.
    log_row = failed.pop()
    assert log_row[:2] == ["log_vs_generator_second", "0.5"] and float(log_row[2]) <= 1e-12
    if invariant != "log_vs_generator":
        assert failed == [[f"{invariant}_second", "0.5", "exact", "fail"]]
    else:
        assert failed == []


def failed_rows_at_one_half(capsys, monkeypatch, perturb):
    """The failed rows of verify on 0:1:1/4 with the second scheme's
    (K, D, F, f, G, g) at x = 1/2 replaced by perturb(K, D, F, f, G, g)."""
    helper = cli._scaled_matrices

    def broken(scheme, n, b):
        matrices = helper(scheme, n, b)
        if scheme is SchemeId.SECOND_ORDER and Fraction(n, b) == Fraction(1, 2):
            return perturb(*matrices)
        return matrices

    monkeypatch.setattr(cli, "_scaled_matrices", broken)
    code, out = run_cli(capsys, "verify", "--x-range", "0:1:1/4")
    assert code == 1
    return [row for row in parse_csv(out) if row[3] == "fail"]


def _with(m, index, value):
    """The entries (a, b, c, d) of m with the one at index replaced by value;
    the comments and ids here call entry a of G G.a."""
    return m[:index] + (value,) + m[index + 1:]


# verify reads the entries of K, F and G: a change to one entry fails the
# rows that read it.  At x = 1/2 the second scheme has F diagonal and G
# anti-diagonal, so G.a alone moves only the (a, a) entry of F G and of
# g b (2K - T I) - 2 D n G, and G.d only the (d, d) ones; F G keeps its
# zero diagonal whatever F.a is, and F.a alone moves only b + c of F G.
@pytest.mark.parametrize(
    "entry, perturb, failing",
    [
        ("G.a", lambda k, d, f, fs, g, gs: (k, d, f, fs, _with(g, 0, 1), gs),
         ["antisymmetry", "log_vs_generator"]),
        ("G.d", lambda k, d, f, fs, g, gs: (k, d, f, fs, _with(g, 3, 1), gs),
         ["antisymmetry", "log_vs_generator"]),
        ("G.b", lambda k, d, f, fs, g, gs: (k, d, f, fs, _with(g, 1, g[1] + 1), gs),
         ["antisymmetry", "log_vs_generator"]),
        ("G.c", lambda k, d, f, fs, g, gs: (k, d, f, fs, _with(g, 2, g[2] + 1), gs),
         ["antisymmetry", "log_vs_generator"]),
        ("K.c", lambda k, d, f, fs, g, gs: (_with(k, 2, k[2] + 1), d, f, fs, g, gs),
         ["det_map", "log_vs_generator"]),
        ("F.a", lambda k, d, f, fs, g, gs: (k, d, _with(f, 0, 2 * f[0]), fs, g, gs),
         ["antisymmetry"]),
    ],
    ids=["G.a", "G.d", "G.b", "G.c", "K.c", "F.a"],
)
def test_verify_checks_each_entry(capsys, monkeypatch, entry, perturb, failing):
    if entry == "F.a":  # the product F G that verify checks keeps its zero diagonal
        k, d, f, fs, g, gs = perturb(*cli._scaled_matrices(SchemeId.SECOND_ORDER, 1, 2))
        (f11, f12, f21, f22), (g11, g12, g21, g22) = f, g
        assert f11 * g11 + f12 * g21 == f21 * g12 + f22 * g22 == 0
        assert f11 * g12 + f12 * g22 + f21 * g11 + f22 * g21 != 0  # F G's b + c
    failed = failed_rows_at_one_half(capsys, monkeypatch, perturb)
    assert [row[0] for row in failed] == [f"{name}_second" for name in failing]
    assert all(row[1] == "0.5" for row in failed)


def test_grids_build_no_mat2_per_sample(capsys, monkeypatch):
    # verify's only Mat2 objects are the generator relations', built once a
    # run, and sweep builds none: every sample's matrices are integer tuples.
    built, init = [], oscillator.Mat2.__init__

    def counted(self, *entries):
        built.append(None)
        init(self, *entries)

    monkeypatch.setattr(oscillator.Mat2, "__init__", counted)

    def count(*argv):
        built.clear()
        assert run_cli(capsys, *argv)[0] == 0
        return len(built)

    assert count("verify", "--x", "1/2") == count("verify", "--x-range", "0:1:1/1000") > 0
    assert count("sweep", "--x", "1/2") == count("sweep", "--x-range", "0:1:1/1000") == 0


def radius_reference(x):
    """((r + sqrt(r^2 - 4))/2)^2 at the exact r = |x| > 2, the root taken
    by math.isqrt to 2^-300."""
    r, scale = abs(x), 2**300
    root = Fraction(math.isqrt(int((r * r - 4) * scale * scale)), scale)
    return ((r + root) / 2) ** 2


# Generated command lines: every subcommand, x from 1e-400 to 1e400, near
# and at +-2, and rationals within 10^-20 of +-2.
def _signed(texts):
    return st.builds(lambda text, negative: "-" * negative + text, texts, st.booleans())


X_TEXTS = _signed(
    st.one_of(
        st.builds("{}e{}".format, st.integers(1, 99), st.integers(-401, 398)),
        st.sampled_from(["0", "1", "2", "4/2", "1.92", "1.99", "1.999", "1.99999", "2.00001"]),
        st.integers(-40, 40).map(lambda k: repr(2 + k * 2.0**-52)),
        st.integers(1, 10**6).flatmap(
            lambda m: st.integers(-m, m).map(lambda k: str(2 + Fraction(k, m * 10**20)))
        ),
    )
)
STATE_TEXTS = st.one_of(
    st.sampled_from(["0", "1", "-1/3", "5/2", "1e-400", "1e200", "-1e400"]),
    st.fractions(max_denominator=1000).map(str),
)
STEP_TEXTS = st.sampled_from(["1", "1/7", "1/1000", "1e-5", "1e-22", str(Fraction(2.0**-51))])


@st.composite
def _x_choices(draw):
    start = draw(X_TEXTS)
    if draw(st.booleans()):
        return ["--x", start]
    step, count = draw(STEP_TEXTS), draw(st.integers(1, 50))
    stop = Fraction(start) + (count - 1) * Fraction(step)
    return ["--x-range", f"{start}:{stop}:{step}"]


@st.composite
def _commands(draw):
    command = draw(st.sampled_from(["coeffs", "verify", "sweep", "simulate", "shadow"]))
    if command == "coeffs":
        letters, degree = draw(st.sampled_from(["2", "3"])), draw(st.integers(1, 6))
        return ["coeffs", "--letters", letters, "--max-degree", str(degree)]
    if command in ("verify", "sweep"):
        return [command, *draw(_x_choices())]
    argv = [command, "--x", draw(X_TEXTS), "--steps", str(draw(st.integers(0, 50)))]
    argv += ["--p0", draw(STATE_TEXTS), "--q0", draw(STATE_TEXTS)]
    if command == "simulate":
        argv += ["--scheme", draw(st.sampled_from(["first", "second"]))]
    return argv + ["--exact"] * draw(st.booleans())


# Cells that are not numbers, by command and column: None admits any word.
_WORD_CELLS = {
    "coeffs": {0: None, 3: {"true", "false"}},
    "verify": {0: None, 1: {""}, 2: {"exact"}, 3: {"pass", "fail"}},
    "sweep": {2: {"elliptic", "parabolic", "hyperbolic"}, 5: {"DIVERGENT"}, 6: {""}},
}


def _is_finite_number(cell):
    """A finite Decimal, or a Fraction such as 1/2 (Fraction takes no inf or nan)."""
    try:
        return Decimal(cell).is_finite()
    except InvalidOperation:
        pass
    try:
        Fraction(cell)
    except (ValueError, ZeroDivisionError):
        return False
    return True


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_commands(), out=st.sampled_from([None, "rows.csv", "missing/rows.csv"]))
# verify at tiny and near-radius x: at 1e-200, a float times a 200-digit integer would overflow.
@example(argv=["verify", "--x", "1e-200"], out=None)
@example(argv=["verify", "--x", "1e-400"], out=None)
@example(argv=["verify", "--x-range", "0:1e-8:1e-9"], out=None)
@example(argv=["verify", "--x-range", "-3:3:1/7"], out=None)
@example(argv=["verify", "--x", "1.99999999999999999999"], out=None)
def test_generated_command_lines_keep_the_exit_contract(argv, out):
    with contextlib.ExitStack() as stack:
        target = None if out is None else Path(stack.enter_context(TemporaryDirectory())) / out
        stdout, stderr = io.StringIO(), io.StringIO()
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        code = cli.main([*(["--out", str(target)] if target else []), *argv])
        err = stderr.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err
        csv = stdout.getvalue()
        if target is not None and code != 2:
            assert csv == ""
            csv = target.read_text()
        if code == 2:
            assert err.startswith("shadowosc: error: ") and err.count("\n") == 1, err
            assert target is None or not target.exists()
        elif code == 1:
            assert err.startswith("shadowosc: check failed: ") and err.count("\n") == 1, err
        else:
            assert err == ""
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    if code == 1:
        assert any(row[-1] in ("fail", "false") for row in rows)
    words = _WORD_CELLS.get(argv[0], {})
    xs = grid_xs("=".join(argv[1:3])) if argv[0] == "sweep" else []
    for x, row in zip(xs or itertools.repeat(None), rows):  # an exit 2 cuts a grid short
        if argv[0] == "sweep" and row[5] == "DIVERGENT":
            assert row[2] in ("hyperbolic", "parabolic"), (argv, row)
        if argv[0] == "sweep" and row[2] == "hyperbolic":  # the radius at the exact x
            reference = radius_reference(x)
            error = abs(Fraction(float(row[3])) - reference)
            assert error <= Fraction(math.ulp(float(reference))), (argv, row)
        for column, cell in enumerate(row):
            allowed = words.get(column, set())
            assert allowed is None or cell in allowed or _is_finite_number(cell), (argv, row)
