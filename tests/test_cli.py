import argparse
import errno
import hashlib
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    matrix_log_principal,
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


def check_streamed_orbits(capsys, x, start, exact):
    """simulate (both schemes) and shadow print reference_rows()."""
    steps = 200
    s0 = PhaseState(Fraction(start[0]), Fraction(start[1]))
    flag = ["--exact"] if exact else []
    state = [f"--x={x}", "--steps", str(steps), f"--p0={start[0]}", f"--q0={start[1]}", *flag]
    for label, scheme in (("first", SchemeId.FIRST_ORDER), ("second", SchemeId.SECOND_ORDER)):
        code, out = run_cli(capsys, "simulate", "--scheme", label, *state)
        assert code == 0
        assert out == reference_rows("simulate", scheme, Fraction(x), s0, steps, exact)
    code, out = run_cli(capsys, "shadow", *state)
    assert code == 0
    assert out == reference_rows("shadow", None, Fraction(x), s0, steps, exact)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("x", ["1/10", "7/5", "5/2"])
def test_streamed_orbits_match_trajectory(capsys, x, start, exact):
    check_streamed_orbits(capsys, x, start, exact)


# Float only: near the radius, negative, and so large that the state
# overflows, which pins today's inf and nan rows.
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("x", ["1999/1000", "-3/4", "1e200"])
def test_streamed_float_orbits_match_trajectory(capsys, x, start):
    check_streamed_orbits(capsys, x, start, False)


def test_simulate_and_shadow_memory_does_not_grow_with_steps(tmp_path):
    # Holding the 20001 rows took about 9.5 MB; streamed, the peak is a few
    # hundred kB.  At x = 5/2 the float energies overflow to inf and nan,
    # so nearly every row misses the text cache, which must stay bounded.
    target = tmp_path / "orbit.csv"
    for argv in (["simulate"], ["shadow"], ["simulate", "--x", "5/2"]):
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
    p0, q0 = (Fraction(v) for v in start)
    return argparse.Namespace(x=Fraction(x), p0=p0, q0=q0, steps=steps)


def energy_form(scheme, x):
    """(a, b + c, d) and the common denominator of shadow_form(scheme, x)."""
    (a, b, c, d), scale = oscillator._common_denominator(shadow_form(scheme, x).entries())
    return (a, b + c, d), scale


# 2/3 has an even numerator, so the map's common denominator is reduced;
# 123456789/1000000007 gives large step coefficients.
CARRY_XS = ["5/2", "1/3", "2/3", "-7/3", "2", "0", "123456789/1000000007"]


@pytest.mark.parametrize("scheme", list(SchemeId))
@pytest.mark.parametrize("x", CARRY_XS)
def test_exact_orbit_carried_squares_equal_direct_squares(x, scheme):
    (a, cross, d), form_scale = energy_form(scheme, Fraction(x))
    starts = [(1, 0), ("-3/5", "2/7"), (0, 0)]
    if x == "5/2" and scheme is SchemeId.FIRST_ORDER:
        starts.append((2, 1))  # an eigenvector with shadow energy 0
    for start in starts:
        rows = list(cli._exact_orbit(exact_orbit_args(x, start, 300), scheme))
        assert len(rows) == 301
        for p, q, scale, norm, scale_sq, (energy, energy_scale) in rows:
            assert norm == p * p + q * q
            assert scale_sq == scale * scale
            assert energy == a * p * p + cross * p * q + d * q * q
            assert energy_scale == form_scale * scale_sq
        if start == (2, 1):
            assert {row[-1][0] for row in rows} == {0}


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
    *_, row = cli._exact_orbit(args, scheme)
    entries, step = oscillator._common_denominator(map_matrix(scheme, args.x).entries())
    (p0, q0), scale0 = oscillator._common_denominator((args.p0, args.q0))
    p, q = integer_power(Mat2(*entries), steps).apply(PhaseState(p0, q0))
    scale = scale0 * step**steps
    (a, cross, d), form_scale = energy_form(scheme, args.x)
    energy = a * p * p + cross * p * q + d * q * q
    assert row == (p, q, scale, p * p + q * q, scale * scale, (energy, form_scale * scale * scale))
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
)


def test_exit_two_leaves_no_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oscillator, "MAX_SCALE_TERMS", 10**4)
    target = tmp_path / "rows.csv"
    for argv in (
        ["verify", "--x", "1.99999999999999999"],  # rounds to 2.0 in floats
        ["verify", "--x", "1.9999999999999998"],  # past the term cap
        ["sweep", "--x", "1.9999999999999998"],  # not DIVERGENT: x < 2
        ["coeffs", "--letters", "3", "--max-degree", "11"],  # over the budget
        *FLOAT_OVERFLOWS,
    ):
        for out in ([], ["--out", str(target)]):
            assert cli.main([*out, *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error" in captured.err
            assert not target.exists()


def test_unwritable_out_exits_two_naming_the_path(tmp_path, capsys):
    for target in (tmp_path / "missing" / "rows.csv", tmp_path):  # no directory; a directory
        for argv in (["sweep", "--x", "1"], ["simulate", "--steps", "3"]):
            assert cli.main(["--out", str(target), *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"shadowosc: error: cannot write --out {target}: ")
            assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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
    for argv in (["sweep", "--x", "1"], ["simulate", "--steps", "100000"]):
        for out, target in ((["--out", "/dev/full"], "--out /dev/full"), ([], "stdout")):
            with open("/dev/full", "w") as full:
                proc = console_script([*out, *argv], stdout=full)
                _, err = proc.communicate(timeout=60)
            assert proc.returncode == 2, (argv, target)
            assert err.decode() == (
                f"shadowosc: error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
            )


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit on this platform")
def test_failed_write_removes_the_partial_out_file(tmp_path):
    # A file size limit fails the write after 4096 bytes, partway through.
    limit = (
        "import resource, signal\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))"
    )
    target = tmp_path / "rows.csv"
    target.write_text("an older file of the same name\n")
    proc = console_script(["--out", str(target), "simulate", "--steps", "1000"], limit)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    too_large = os.strerror(errno.EFBIG)
    assert err.decode() == f"shadowosc: error: cannot write --out {target}: {too_large}\n"
    assert list(tmp_path.iterdir()) == []
    # Rows already written to stdout stay there.
    with open(target, "wb") as stdout:
        proc = console_script(["simulate", "--steps", "1000"], limit, stdout=stdout)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == f"shadowosc: error: cannot write stdout: {too_large}\n"
    rows = target.read_bytes()
    assert len(rows) == 4096 and rows.startswith(b"step,p,q,shadow_energy,p2_plus_q2\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_the_console_script_silently():
    # run() is the console script's entry point; a reader that stops after
    # one line, as head does, ends it by SIGPIPE with nothing on stderr.
    proc = console_script(["simulate", "--steps", "1000000"], stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"step,p,q,shadow_energy,p2_plus_q2\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == -signal.SIGPIPE


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


def test_x_and_x_range_are_exclusive(capsys):
    for command in ("verify", "sweep"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--x", "1", "--x-range", "0:1:1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --x" in captured.err


def reference_grid_rows(command, scheme, xs):
    """verify (both schemes) or sweep (one scheme) rows and exit code,
    with every exact column computed on Fractions from map_matrix,
    shadow_form, generator_direction and stability_classify."""
    schemes = {"first": SchemeId.FIRST_ORDER, "second": SchemeId.SECOND_ORDER}
    sign = lambda v: (v > 0) - (v < 0)
    if command == "sweep":
        rows = [["x", "trace", "stability", "spectral_radius", "shadow_det",
                 "generator_scale", "theta"]]
        for x in xs:
            trace = map_matrix(scheme, x).trace()
            try:
                scale_text = repr(generator_scale(float(x)))
            except SeriesDivergesError:
                scale_text = "DIVERGENT"
            rows.append([
                repr(float(x)),
                repr(float(trace)),
                stability_classify(x).value,
                repr(spectral_radius(float(x))),
                repr(float(shadow_form(scheme, x).det())),
                scale_text,
                repr(rotation_angle(float(x))) if abs(trace) <= 2 else "",
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
            scale = generator_scale(float(x))
            for label, scheme in schemes.items():
                log = matrix_log_principal(map_matrix(scheme, float(x)))
                target = (float(x) * scale) * generator_direction(scheme, float(x))
                residual = log.max_abs_diff(target)
                rows.append([f"log_vs_generator_{label}", x_text, repr(residual),
                             "pass" if residual <= 1e-12 else "fail"])
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
        "--x=1.9999",  # a known log_vs_generator fail: exit 1
    ],
)
def test_grid_rows_match_fraction_reference(capsys, grid):
    kind, value = grid[2:].split("=")
    if kind == "x":
        xs = [Fraction(value)]
    else:
        start, stop, step = map(Fraction, value.split(":"))
        xs = [start + i * step for i in range(int((stop - start) / step) + 1)]
    assert run_cli(capsys, "verify", grid)[::-1] == reference_grid_rows("verify", None, xs)
    # The schemes are conjugate, so sweep has one reference for both.
    expected = reference_grid_rows("sweep", SchemeId.FIRST_ORDER, xs)
    assert expected == reference_grid_rows("sweep", SchemeId.SECOND_ORDER, xs)
    assert run_cli(capsys, "sweep", grid)[::-1] == expected


@pytest.mark.parametrize(
    "invariant, perturb",
    [
        # K + D e11 has determinant D^2 + D K.d, not D^2.
        ("det_map", lambda k, d, f, fs, g, gs: (k + Mat2(d, 0, 0, 0), d, f, fs, g, gs)),
        # F (G + g I) = F G + g F, whose skew part 2 g F is not zero.
        ("antisymmetry", lambda k, d, f, fs, g, gs: (k, d, f, fs, g + gs * Mat2.identity(), gs)),
        # Negating F.d flips the sign of det F; negating G.b too keeps F G
        # antisymmetric (the second scheme's F and G are diagonal and anti-diagonal).
        (
            "shadow_det_sign",
            lambda k, d, f, fs, g, gs: (k, d, Mat2(f.a, 0, 0, -f.d), fs, Mat2(g.a, -g.b, g.c, g.d), gs),
        ),
    ],
)
def test_verify_checks_each_sample(capsys, monkeypatch, invariant, perturb):
    helper = cli._scaled_matrices

    def broken(scheme, n, b):
        matrices = helper(scheme, n, b)
        if scheme is SchemeId.SECOND_ORDER and Fraction(n, b) == Fraction(1, 2):
            return perturb(*matrices)
        return matrices

    monkeypatch.setattr(cli, "_scaled_matrices", broken)
    code, out = run_cli(capsys, "verify", "--x-range", "0:1:1/4")
    assert code == 1
    failed = [row for row in parse_csv(out) if row[3] == "fail"]
    assert failed == [[f"{invariant}_second", "0.5", "exact", "fail"]]
