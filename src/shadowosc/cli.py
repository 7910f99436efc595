"""Command-line front end: verification suites and experiments as CSV.

Five subcommands: ``coeffs`` (closed-form word coefficients against the
free-algebra oracle), ``verify`` (matrix identities per time step),
``simulate`` (one trajectory), ``sweep`` (stability survey over a range
of time steps) and ``shadow`` (per-step drift of the conserved energies,
both schemes side by side).

Output is deterministic CSV: LF line endings, header row, no timestamps.
Exit status is the contract: 0 all checks pass, 1 a mathematical check
failed, 2 usage error (argparse's own convention).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Iterator
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import chain

from .oscillator import (
    HALF,
    PhaseState,
    SchemeId,
    SeriesDivergesError,
    _common_denominator,
    _scaled_matrices,
    check_generator_relations,
    classify_trace,
    generator_direction,
    generator_scale,
    map_matrix,
    matrix_log_principal,
    rotation_angle,
    scaled_orbit,
    shadow_form,
    spectral_radius,
)

# Larger --x-range grids are refused before any sample is built.
MAX_X_SAMPLES = 10**6

# coeffs --max-degree per letter count: the default, high enough for n <= 5
# in every closed-form sequence, and the largest.  The oracle's time grows
# about 2x per degree for two letters and 3-4x for three: 0.3 s / 25 MB
# at two letters, degree 14, and 0.6 s / 40 MB at three letters, degree
# 10, on Python 3.11 (2-vCPU KVM Xeon guest).
_DEFAULT_DEGREE = {2: 12, 3: 8}
MAX_DEGREE = {2: 14, 3: 10}


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


def _x_range(text: str) -> tuple[range, int]:
    """(numerators, b): the samples start + i step, as integers over
    b = lcm(start.denominator, step.denominator)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (_rational(part) for part in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError("step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError("stop must be >= start")
    count = int((stop - start) / step) + 1
    if count > MAX_X_SAMPLES:
        raise argparse.ArgumentTypeError(f"more than {MAX_X_SAMPLES} samples: {text!r}")
    b = math.lcm(start.denominator, step.denominator)
    first, stride = int(start * b), int(step * b)
    return range(first, first + count * stride, stride), b


def _x_sample(text: str) -> tuple[range, int]:
    """One x as the one-sample grid of _x_range."""
    n, b = _rational(text).as_integer_ratio()
    return range(n, n + 1), b


_LOG10_2 = math.log10(2)
# The exact printer's rounding: str(Decimal(n) / Decimal(d)) at precision
# 17, over the widest exponent range decimal has.
_PRINT = Context(prec=17, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _format_ratio(n: int, d: int) -> str:
    """n/d (d > 0) as str(Decimal(n) / Decimal(d)) at precision 17 with
    ROUND_HALF_EVEN, by one integer division; depends only on the value
    n/d, so the pair need not be reduced."""
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
    return str(_PRINT.plus(Decimal(text)))


def _float(name: str, n: int, d: int) -> float:
    """n/d (d > 0) as the nearest float, which is float(Fraction(n, d));
    a value outside the float range raises ValueError naming it."""
    try:
        return n / d
    except OverflowError:
        raise ValueError(f"{name} = {_format_ratio(n, d)} is too large for a float") from None


# verify's absolute gate on log_vs_generator residuals, 100x above the
# scale series' stop, so truncation never decides a comparison.
_LOG_TOL = 1e-12


def _float_orbit(args, scheme: SchemeId) -> Iterator[tuple[float, float, float]]:
    """The float orbit, streamed as (p, q, shadow energy) floats.  The step
    is step_first_order or step_second_order and the energy that of
    shadow_form, op for op, on plain floats: Fraction op float is
    float(Fraction) op float, so each energy has the bits of
    shadow_energy(state, scheme, x).  x, p0 and q0 are converted before
    the generator starts, so a value too large for a float fails first."""
    x, p, q = (
        _float(name, *getattr(args, name).as_integer_ratio()) for name in ("x", "p0", "q0")
    )
    a, b, c, d = map(float, shadow_form(scheme, x).entries())
    return _float_steps(scheme, x, p, q, a, b + c, d, args.steps)


def _float_steps(scheme, x, p, q, a, cross, d, steps):
    second, half_x = scheme is SchemeId.SECOND_ORDER, HALF * x
    yield p, q, a * p * p + cross * p * q + d * q * q
    for _ in range(steps):
        if second:
            p -= half_x * q
            q += x * p
            p -= half_x * q
        else:
            p -= x * q
            q += x * p
        yield p, q, a * p * p + cross * p * q + d * q * q


class _FloatText(dict):
    """repr() of floats, memoised: an orbit's energies repeat, a few
    hundred distinct values in 10^5 steps.  Zeros are never stored, so
    0.0 and -0.0 cannot share an entry; NaN never hits, and the size
    bound keeps a run of them flat."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            if len(self) >= 4096:
                self.clear()
            self[value] = text
        return text

    def cells(self, energy: float, energy0: float) -> tuple[str, str]:
        """The energy and its drift from energy0, as text."""
        return self[energy], self[energy - energy0]


def _csv(rows) -> Iterator[str]:
    """Rows of cells as CSV lines."""
    return (",".join(row) + "\n" for row in rows)


def _exact_orbit(args, scheme: SchemeId):
    """The exact orbit, streamed as (P, Q, E, R, E^2, (N, M)), all
    integers: the state is (P/E, Q/E), p^2 + q^2 = R/E^2 and its shadow
    energy N/M, with N = a P^2 + (b + c) PQ + d Q^2 over the form's
    common denominator.  P^2, PQ and Q^2 are squared once, at step 0.
    scaled_orbit steps (P, Q), E -> K (P, Q), D E, so the products are
    carried by K's symmetric square and E^2 by D^2: each row costs small
    times big products only, linear in the state's size."""
    (a, b, c, d), form_scale = _common_denominator(shadow_form(scheme, args.x).entries())
    cross = b + c
    (k11, k12, k21, k22), step = _common_denominator(map_matrix(scheme, args.x).entries())
    sym = (
        (k11 * k11, 2 * k11 * k12, k12 * k12),
        (k11 * k21, k11 * k22 + k12 * k21, k12 * k22),
        (k21 * k21, 2 * k21 * k22, k22 * k22),
    )
    step_sq, scale_sq = step * step, None
    s0 = PhaseState(args.p0, args.q0)
    for (p, q), scale in scaled_orbit(s0, scheme, args.x, args.steps):
        if scale_sq is None:
            p_sq, pq, q_sq, scale_sq = p * p, p * q, q * q, scale * scale
        else:
            p_sq, pq, q_sq = [u * p_sq + v * pq + w * q_sq for u, v, w in sym]
            scale_sq *= step_sq
        energy = a * p_sq + cross * pq + d * q_sq
        yield p, q, scale, p_sq + q_sq, scale_sq, (energy, form_scale * scale_sq)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(args) -> tuple[Iterator[str], int]:
    letters, max_degree, budget = args.letters, args.max_degree, MAX_DEGREE[args.letters]
    if max_degree is None:
        max_degree = _DEFAULT_DEGREE[letters]
    elif not letters <= max_degree <= budget:
        raise ValueError(
            f"--max-degree {max_degree} is outside {letters}..{budget} for {letters} letters"
        )
    # Only coeffs loads the oracle.  verify_* are looked up per call, so a
    # wrapper set on the module is the one run.
    from . import goldberg

    verify = goldberg.verify_two_letter if letters == 2 else goldberg.verify_three_letter
    rows = [["word", "closed_form", "oracle", "match"]]
    for report in verify(max_degree):
        rows.append(
            [
                report.word,
                str(report.closed_form),
                str(report.oracle),
                "true" if report.match else "false",
            ]
        )
    return _csv(rows), int(any(row[-1] == "false" for row in rows))


def cmd_verify(args) -> tuple[Iterator[str], int]:
    rows = [["invariant", "x", "residual", "pass"]]

    def emit(name: str, x_text: str, residual: str, ok: bool):
        rows.append([name, x_text, residual, "pass" if ok else "fail"])

    relations_ok = all(ok for _, ok in check_generator_relations())
    emit("generator_relations", "", "exact", relations_ok)

    numerators, b = args.x_range
    for n in numerators:
        x = _float("x", n, b)
        x_text = repr(x)
        # 2 - |x| = edge / b, so the form's determinant must share edge's sign.
        edge = 2 * b - abs(n)
        for scheme in SchemeId:
            mat, mat_scale, form, _, direction, _ = _scaled_matrices(scheme, n, b)
            emit(f"det_map_{scheme.value}", x_text, "exact", mat.det() == mat_scale * mat_scale)

            product = form @ direction
            skew = product.transpose() + product
            emit(f"antisymmetry_{scheme.value}", x_text, "exact", skew == skew.zero())
            det = form.det()
            sign_ok = det * edge > 0 or det == edge == 0
            emit(f"shadow_det_sign_{scheme.value}", x_text, "exact", sign_ok)

        # A nonzero x that rounds to 0.0 has the float map I: the rows of x = 0.
        if x and abs(n) < 2 * b:
            scale = generator_scale(x)
            for scheme in SchemeId:
                logmat = matrix_log_principal(map_matrix(scheme, x))
                target = (x * scale) * generator_direction(scheme, x)
                residual = logmat.max_abs_diff(target)
                emit(
                    f"log_vs_generator_{scheme.value}",
                    x_text,
                    repr(residual),
                    residual <= _LOG_TOL,
                )
        elif abs(n) >= 2 * b:
            try:
                generator_scale(x)
                signalled = False
            except SeriesDivergesError:
                signalled = True
            emit("divergence_signaled", x_text, "exact", signalled)

    return _csv(rows), int(any(row[-1] == "fail" for row in rows))


def cmd_simulate(args) -> tuple[Iterator[str], int]:
    scheme = SchemeId(args.scheme)
    if args.exact:
        lines = (
            f"{step},{_format_ratio(p, scale)},{_format_ratio(q, scale)},"
            f"{_format_ratio(*energy)},{_format_ratio(norm, scale_sq)}\n"
            for step, (p, q, scale, norm, scale_sq, energy) in enumerate(
                _exact_orbit(args, scheme)
            )
        )
    else:
        text = _FloatText()
        lines = (
            f"{step},{p!r},{q!r},{text[energy]},{p * p + q * q!r}\n"
            for step, (p, q, energy) in enumerate(_float_orbit(args, scheme))
        )
    return chain(["step,p,q,shadow_energy,p2_plus_q2\n"], lines), 0


def _exact_cells(energy, energy0) -> tuple[str, str]:
    (n, d), (n0, d0) = energy, energy0
    return _format_ratio(n, d), _format_ratio(n * d0 - n0 * d, d * d0)


def _drift_rows(orbits, cells):
    """Per step, each orbit's shadow energy (the last item of its points)
    and its drift from step 0, as text from cells(energy, energy0)."""
    for step, points in enumerate(zip(*orbits)):
        energies = [point[-1] for point in points]
        if step == 0:
            initial = energies
        row = [str(step)]
        for energy, energy0 in zip(energies, initial):
            row += cells(energy, energy0)
        yield row


def cmd_shadow(args) -> tuple[Iterator[str], int]:
    header = ["step", "first_energy", "first_drift", "second_energy", "second_drift"]
    if args.exact:
        orbits, cells = [_exact_orbit(args, scheme) for scheme in SchemeId], _exact_cells
    else:
        orbits, cells = [_float_orbit(args, scheme) for scheme in SchemeId], _FloatText().cells
    return _csv(chain([header], _drift_rows(orbits, cells))), 0


def cmd_sweep(args) -> tuple[Iterator[str], int]:
    # The second-order map is the first conjugated by a half kick, so every
    # column is the same for both schemes.
    rows = [
        [
            "x",
            "trace",
            "stability",
            "spectral_radius",
            "shadow_det",
            "generator_scale",
            "theta",
        ]
    ]
    numerators, b = args.x_range
    for n in numerators:
        x = _float("x", n, b)
        mat, mat_scale, form, form_scale, _, _ = _scaled_matrices(SchemeId.FIRST_ORDER, n, b)
        trace = mat.trace()
        stability = classify_trace(trace, mat_scale)
        try:
            scale_text = repr(generator_scale(x))
        except SeriesDivergesError:
            scale_text = "DIVERGENT"
        theta_text = repr(rotation_angle(x)) if abs(trace) <= 2 * mat_scale else ""
        rows.append(
            [
                repr(x),
                repr(_float("trace", trace, mat_scale)),
                stability.value,
                repr(spectral_radius(x)),
                repr(_float("shadow_det", form.det(), form_scale * form_scale)),
                scale_text,
                theta_text,
            ]
        )
    return _csv(rows), 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_state(parser):
    parser.add_argument("--p0", type=_rational, default=Fraction(1), help="initial momentum")
    parser.add_argument("--q0", type=_rational, default=Fraction(0), help="initial coordinate")
    parser.add_argument(
        "--exact",
        action="store_true",
        help="run in exact rational arithmetic (accepts values like 1/2)",
    )


def _add_x(parser):
    parser.add_argument("--x", type=_rational, default=Fraction(1), help="time step")


def _add_x_choice(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--x", type=_x_sample, dest="x_range", metavar="X", default=argparse.SUPPRESS,
        help="single time step",
    )
    group.add_argument(
        "--x-range",
        type=_x_range,
        default=_x_range("0:3:0.1"),
        metavar="START:STOP:STEP",
        help=f"inclusive sweep, at most {MAX_X_SAMPLES} samples (default 0:3:0.1)",
    )


# argparse takes a value after an option for another option unless it reads
# as -N or -N.N, so "--x -1/2" and "--x -1e-3" would fail.  Such a value,
# "-" then a digit or ".", is glued to its option (or an abbreviation of
# it, which argparse accepts too) as "--x=-1/2", always read as a value.
_RATIONAL_OPTIONS = ("--x", "--p0", "--q0", "--x-range")
_NEGATIVE = re.compile(r"-[0-9.]")


def _glue_negative_values(argv: list[str]) -> list[str]:
    glued: list[str] = []
    for arg in argv:
        option = glued[-1] if glued else ""
        rational = len(option) > 2 and any(name.startswith(option) for name in _RATIONAL_OPTIONS)
        if rational and _NEGATIVE.match(arg):
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    return glued


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowosc",
        description="Exact shadow energies and effective generators of the "
        "split-step harmonic oscillator.",
    )
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="check word coefficients against the oracle")
    coeffs.add_argument("--letters", type=int, choices=sorted(MAX_DEGREE), default=2)
    coeffs.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help=f"truncation order (default {_DEFAULT_DEGREE[2]} for two letters, "
        f"{_DEFAULT_DEGREE[3]} for three; at most {MAX_DEGREE[2]} and {MAX_DEGREE[3]})",
    )
    coeffs.set_defaults(handler=cmd_coeffs)

    verify = sub.add_parser("verify", help="check matrix identities per time step")
    _add_x_choice(verify)
    verify.set_defaults(handler=cmd_verify)

    simulate = sub.add_parser("simulate", help="emit one trajectory")
    simulate.add_argument(
        "--scheme", choices=[s.value for s in SchemeId], default="first", help="integrator scheme"
    )
    _add_x(simulate)
    simulate.add_argument("--steps", type=_nonnegative_int, default=100)
    _add_state(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    shadow = sub.add_parser("shadow", help="per-step energy drift, both schemes")
    _add_x(shadow)
    shadow.add_argument("--steps", type=_nonnegative_int, default=100)
    _add_state(shadow)
    shadow.set_defaults(handler=cmd_shadow)

    sweep = sub.add_parser("sweep", help="stability survey over time steps")
    _add_x_choice(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        lines, code = args.handler(args)
    except ValueError as exc:  # bad parameter combinations are usage errors
        print(f"shadowosc: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a mathematical check tripped
        print(f"shadowosc: check failed: {exc}", file=sys.stderr)
        return 1
    # Every handler returns finished lines.  simulate and shadow stream
    # them; the others build all their rows first, so a run that fails
    # midway writes no CSV.  A failed write exits 2 and removes a partial
    # --out file; rows already written to stdout stay there.
    out, handle = args.out, None
    try:
        handle = sys.stdout if out is None else open(out, "w", newline="")
        handle.writelines(lines)
        handle.flush()
    except OSError as exc:
        target = "stdout" if out is None else f"--out {out}"
        print(f"shadowosc: error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        if handle is not None:
            # Closing or exiting would retry the buffered rows and fail
            # again, so the null device takes them.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, handle.fileno())
            os.close(null)
            if out is not None:
                handle.close()
                if os.path.isfile(out) and not os.path.islink(out):
                    os.unlink(out)  # a partial CSV
        return 2
    finally:
        if out is not None and handle is not None:
            handle.close()
    return code


def run():
    import signal  # here, so that importing cli does not pay for it
    if hasattr(signal, "SIGPIPE"):  # "| head" ends the run silently, as in coreutils
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    run()
