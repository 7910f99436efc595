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
import io
import math
import os
import re
import sys
from collections.abc import Iterator
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context
from fractions import Fraction
from itertools import chain, islice

# What verify, simulate, shadow and sweep use of oscillator; coeffs never loads it.
_OSCILLATOR = (
    "SchemeId", "SeriesDivergesError", "_common_denominator", "_scaled_matrices",
    "check_generator_relations", "classify_trace", "generator_scale", "rotation_angle",
    "scaled_orbit", "shadow_form", "spectral_radius",
)


def _oscillator():
    """oscillator, bound here with _OSCILLATOR's names; a name already set (a wrapper) is kept."""
    from . import oscillator

    for name in _OSCILLATOR:
        globals().setdefault(name, getattr(oscillator, name))
    return globals().setdefault("oscillator", oscillator)


def __getattr__(name: str):  # cli.generator_scale before any subcommand has run
    if name != "oscillator" and name not in _OSCILLATOR:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _oscillator()
    return globals()[name]


# Larger --x-range grids are refused before any sample is built.
MAX_X_SAMPLES = 10**6

# coeffs --max-degree per letter count: the default, high enough for n <= 5
# in every closed-form sequence, and the largest.  The oracle's time grows
# about 2x per degree for two letters and 3x for three: 0.2 s / 21 MB
# at two letters, degree 14, and 0.3 s / 32 MB at three letters, degree
# 10, on Python 3.11 (2-vCPU KVM Xeon guest).
_DEFAULT_DEGREE = {2: 12, 3: 8}
MAX_DEGREE = {2: 14, 3: 10}


# The most digits in a row, and the largest decimal exponent, an argument
# may hold: int() refuses longer digit runs by default, and Fraction(text)
# builds 10^|exponent| first, so a larger one is refused before it.
MAX_DIGITS = 4300
# Fraction's decimal form with an exponent, underscores and signs included;
# compiled on first use, so a run that parses no rational never compiles it.
_EXPONENT = r"\s*[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)\s*"


def _rational(text: str) -> Fraction:
    if max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {MAX_DIGITS} digits in a row")
    decimal = re.fullmatch(_EXPONENT, text)
    if decimal and abs(int(decimal[1])) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"decimal exponent past +-{MAX_DIGITS}")
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


def _format_ratio(n: int, d: int, carry: list[int] | None = None) -> str:
    """n/d (d > 0), any pair of that value, as str(Decimal(n) / Decimal(d))
    at precision 17, half-even, by one integer division.  A column passes its
    carry = [m, o, o 5^m], o the odd part of its last large cell's d, kept from
    cell to cell and multiplied up while the cut m grows and d grows by a factor."""
    if n == 0:
        return "0"
    sign, n = "-" if n < 0 else "", abs(n)
    # The bit lengths put log10(n/d) in an interval of width 2 log10(2) < 1,
    # so the cut has 19 or 20 digits (18 if the float estimate is off by one).
    k = 19 - math.floor((n.bit_length() - d.bit_length() + 1) * _LOG10_2)
    if k >= 0:
        digits, rem = divmod(n * 10**k, d)
    else:  # d 10^-k = D 2^s, D = (d >> t) 5^-k, s = t - k; n // 2^s // D = n // (D 2^s)
        t, carry = (d & -d).bit_length() - 1, carry or [0, 1, 1]
        m, odd, divisor = carry  # divisor = odd 5^m
        growth, rest = divmod(d >> t, odd)
        if rest or -k < m:  # d's odd part is no multiple of odd, or the cut fell: D anew
            growth, m, divisor = d >> t, 0, 1
        carry[:] = -k, d >> t, divisor * (growth * 5 ** (-k - m))  # small times big unless anew
        digits, rem = divmod(n >> (t - k), carry[2])
        rem = rem or n & ~(-1 << (t - k))  # nonzero unless both parts are
    if rem:
        # A final 1 stands for the nonzero remainder: with 18 or more digits
        # cut, no 17-digit rounding boundary lies between it and n/d.
        digits, k = digits * 10 + 1, k + 1
    while k > 0 and digits % 10 == 0:  # exact: Decimal strips trailing zeros to exponent 0
        digits, k = digits // 10, k - 1
    return str(_PRINT.create_decimal(f"{sign}{digits}E{-k}"))


def _float(name: str, n: int, d: int) -> float:
    """n/d (d > 0) as the nearest float, which is float(Fraction(n, d));
    a value outside the float range raises ValueError naming it."""
    try:
        return n / d
    except OverflowError:
        raise ValueError(f"{name} = {_format_ratio(n, d)} is too large for a float") from None


_LOG_TOL = 1e-12  # verify's absolute gate on log_vs_generator residuals
_FLOAT_BLOCK = 1024  # rows per block of the float orbit


def _float_blocks(args, scheme: SchemeId) -> Iterator[list[tuple[int, float, float, float, float]]]:
    """The float orbit in blocks of _FLOAT_BLOCK rows (step, p, q, p^2 + q^2,
    shadow energy).  The step is step_first_order or step_second_order and
    the energy that of shadow_form, op for op, on plain floats: Fraction op
    float is float(Fraction) op float, so each energy has the bits of
    shadow_energy(state, scheme, x).  At a row whose energy or p^2 + q^2 is
    not finite, the rows before it are yielded, then ValueError is raised."""
    x, p, q = (_float(name, *getattr(args, name).as_integer_ratio()) for name in ("x", "p0", "q0"))
    a, b, c, d = map(float, shadow_form(scheme, x).entries())
    cross, second, half_x = b + c, scheme is SchemeId.SECOND_ORDER, 0.5 * x
    for first in range(0, args.steps + 1, _FLOAT_BLOCK):
        block = []
        for step in range(first, min(first + _FLOAT_BLOCK, args.steps + 1)):
            # A finite p^2 + q^2 implies a finite p and q.
            norm, energy = p * p + q * q, a * p * p + cross * p * q + d * q * q
            if energy - energy or norm - norm:
                if block:
                    yield block
                raise ValueError(
                    f"the {scheme.value}-order float orbit at x = {x!r} leaves the float range"
                    f" at step {step}; use --exact"
                )
            block.append((step, p, q, norm, energy))
            if second:  # the next row's state
                p -= half_x * q
                q += x * p
                p -= half_x * q
            else:
                p -= x * q
                q += x * p
        yield block


def _alternate(blocks: Iterator[list], fmt) -> Iterator[str]:
    """fmt(block) for each of blocks, in order.  With a second block, os.fork
    and a second CPU, a forked helper formats blocks 1, 3, 5, ... into
    length-prefixed frames on a pipe while this process formats 0, 2, 4, ...
    Both step their copy of one generator, so bytes and errors match: the helper
    sends a block cut short by the error, then this process raises it, and a frame
    that does not arrive whole (the helper ended or was killed) is formatted here,
    with every later block.  The helper leaves only by os._exit, never flushing
    inherited buffers; this process closes the pipe and reaps it on every way out."""
    yield fmt(next(blocks))
    second = next(blocks, None)
    if second is None:
        return
    affinity = getattr(os, "sched_getaffinity", None)  # the CPUs this process may use
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    pid = None
    if cpus > 1 and hasattr(os, "fork"):
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: every block is formatted here
            os.close(read)
            os.close(write)
        if pid == 0:  # the helper
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    for block in islice(chain([second], blocks), 0, None, 2):
                        data = fmt(block).encode()
                        pipe.write(len(data).to_bytes(8, "little") + data)
                        pipe.flush()
            finally:
                os._exit(0)
        if pid:
            os.close(write)
            frames = open(read, "rb")
    sending = pid is not None
    try:
        for i, block in enumerate(chain([second], blocks)):
            if sending and not i % 2:
                head = frames.read(8)
                size = int.from_bytes(head, "little")
                data = frames.read(size) if len(head) == 8 else b""
                if data and len(data) == size:
                    yield data.decode()
                    continue
                sending = False  # the helper ended: this block and the rest are formatted here
            yield fmt(block)
    finally:
        if pid is not None:
            frames.close()
            os.waitpid(pid, 0)


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


def _quadratic_column(args, scheme: SchemeId, form) -> Iterator[tuple[int, int]]:
    """(p q) F (p q)^t, F the rationals in form, at each exact state, as
    integer pairs (N, M) of value N/M.  N obeys Cayley-Hamilton for the
    symmetric square of K = D map (trace T, determinant t), for any K:
    N3 = c (N2 - t N1) + t^3 N0, c = T^2 - t; only rows 0-2 step the state."""
    (a, b, c, d), form_scale = _common_denominator(form)
    step_map = oscillator.map_matrix(scheme, args.x)
    (k11, k12, k21, k22), step = _common_denominator(step_map.entries())
    orbit = scaled_orbit((args.p0, args.q0), scheme, args.x, 2)
    rows = [(a * p * p + (b + c) * p * q + d * q * q, form_scale * e * e) for (p, q), e in orbit]
    yield from rows[: args.steps + 1]
    det = k11 * k22 - k12 * k21
    c1, c3, step_sq = (k11 + k22) ** 2 - det, det**3, step * step
    (n0, _), (n1, _), (n2, m) = rows
    for _ in range(args.steps - 2):  # small times big products only
        n0, n1, n2 = n1, n2, c1 * (n2 - det * n1) + c3 * n0
        m *= step_sq
        yield n2, m


def _exact_orbit(args, scheme: SchemeId):
    """The exact state (P/E, Q/E) and p^2 + q^2 = R/E^2 as (((P, Q), E), (R, E^2)) integers."""
    orbit = scaled_orbit((args.p0, args.q0), scheme, args.x, args.steps)
    return zip(orbit, _quadratic_column(args, scheme, (1, 0, 0, 1)), strict=True)


def _energy_text(args, scheme: SchemeId) -> str:
    """The exact shadow energy of every row, as text.  The map K/D keeps the
    form F/f, (K/D)^t F (K/D) = F, exactly when K^t F K = D^2 F on integers;
    checked once, it gives every row row 0's energy by induction."""
    matrices = oscillator.map_matrix(scheme, args.x), shadow_form(scheme, args.x)
    (k, step), (f, _) = (_common_denominator(m.entries()) for m in matrices)
    k, f = oscillator.Mat2(*k), oscillator.Mat2(*f)
    if k.transpose() @ f @ k != step * step * f:
        raise RuntimeError(f"the {scheme.value}-order map does not keep its shadow form")
    energy = oscillator.shadow_energy(oscillator.PhaseState(args.p0, args.q0), scheme, args.x)
    return _format_ratio(*energy.as_integer_ratio())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _generator_scale(n: int, b: int) -> float | None:
    """generator_scale at x = n/b, or None where it signals divergence."""
    try:
        return generator_scale(n, b)
    except SeriesDivergesError:
        return None


def _grid(header: str, x_range: tuple[range, int], sample) -> Iterator[str]:
    """header, then the text sample(n, b) at each x = n/b.  Both ends are
    computed before this returns: a sample's float overflows grow with |x|,
    so a grid that overflows anywhere overflows at an end."""
    numerators, b = x_range
    first = sample(numerators[0], b)
    last = [sample(numerators[-1], b)] if len(numerators) > 1 else []
    return chain([header, first], (sample(n, b) for n in numerators[1:-1]), last)


def cmd_coeffs(args) -> Iterator[str]:
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
    reports = verify(max_degree)
    yield "word,closed_form,oracle,match\n"
    for r in reports:
        yield f"{r.word},{r.closed_form},{r.oracle},{'true' if r.match else 'false'}\n"
    if failed := sum(not r.match for r in reports):
        raise RuntimeError(f"{failed} of {len(reports)} words differ from the oracle")


def cmd_verify(args) -> Iterator[str]:
    relations_ok = all(ok for _, ok in check_generator_relations())
    tally = [1, int(not relations_ok)]  # rows, failed rows
    names = ("det_map", "antisymmetry", "shadow_det_sign", "log_vs_generator")
    labels = [(scheme, *(f"{name}_{scheme.value}" for name in names)) for scheme in SchemeId]

    def sample(n: int, b: int) -> str:
        x = _float("x", n, b)
        # 2 - |x| = edge / b, so the form's determinant must share edge's sign.
        edge, rows, log_rows, gap = 2 * b - abs(n), [], [], None
        if edge > 0 and x:  # a nonzero x that rounds to 0.0 has the float map I: the rows of x = 0
            scale, four_b_sq = _generator_scale(n, b), 4 * b * b
            # The float residual below errs by under 4 ulp of |x| scale (at most
            # 3.8 over 4.3e5 sampled x); past |x| scale = 2048 that exceeds the gate.
            if 4 * math.ulp(abs(x) * scale) > _LOG_TOL:
                raise ValueError(
                    f"log_vs_generator cannot resolve {_LOG_TOL} at x = {Fraction(n, b)}:"
                    f" its float residual errs by up to 4 ulp of |x| scale = {abs(x) * scale!r}"
                )
            sin = abs(x) * math.sqrt((four_b_sq - n * n) / four_b_sq)  # |x| sqrt(1 - x^2/4)
            gap = abs(x) * abs(math.atan2(sin, (four_b_sq - 2 * n * n) / four_b_sq) / sin - scale)
        for scheme, det_map, antisymmetry, det_sign, log_vs_generator in labels:
            (k11, k12, k21, k22), k_scale, f, _, g, g_scale = _scaled_matrices(scheme, n, b)
            (f11, f12, f21, f22), (g11, g12, g21, g22) = f, g
            skew = f11 * g11 + f12 * g21 or f21 * g12 + f22 * g22  # F G's diagonal, then b + c
            skew = skew or f11 * g12 + f12 * g22 + f21 * g11 + f22 * g21
            det = f11 * f22 - f12 * f21
            rows += [
                (det_map, k11 * k22 - k12 * k21 == k_scale * k_scale, "exact"),
                (antisymmetry, not skew, "exact"),  # F G + (F G)^t = 0
                (det_sign, det * edge > 0 or det == edge == 0, "exact"),
            ]
            if gap is not None:  # log(map) = (theta/sin theta) (K - (T/2) I)/D, which is x G/g
                s, t = g_scale * b, 2 * k_scale * n  # g b (2K - T I) = 2 D n G, entry by entry
                exact = s * (k11 - k22) == t * g11 and 2 * s * k12 == t * g12
                exact = exact and 2 * s * k21 == t * g21 and s * (k22 - k11) == t * g22
                residual = gap * (max(map(abs, g)) / g_scale)
                log_rows.append((log_vs_generator, exact and residual <= _LOG_TOL, repr(residual)))
        if edge <= 0:
            rows.append(("divergence_signaled", _generator_scale(n, b) is None, "exact"))
        rows += log_rows
        tally[0] += len(rows)
        tally[1] += sum(not ok for _, ok, _ in rows)
        x_text = repr(x)
        return "".join([
            f"{label},{x_text},{residual},{'pass' if ok else 'fail'}\n"
            for label, ok, residual in rows
        ])

    relations = f"generator_relations,,exact,{'pass' if relations_ok else 'fail'}\n"
    yield from _grid("invariant,x,residual,pass\n" + relations, args.x_range, sample)
    if tally[1]:
        raise RuntimeError(f"{tally[1]} of {tally[0]} verify rows failed")


def cmd_simulate(args) -> Iterator[str]:
    scheme = SchemeId(args.scheme)
    if args.exact:
        energy, pc, qc, rc = _energy_text(args, scheme), [0, 1, 1], [0, 1, 1], [0, 1, 1]
        lines = (
            f"{step},{_format_ratio(p, e, pc)},{_format_ratio(q, e, qc)},"
            f"{energy},{_format_ratio(norm, e_sq, rc)}\n"
            for step, (((p, q), e), (norm, e_sq)) in enumerate(_exact_orbit(args, scheme))
        )
    else:
        blocks, text = _float_blocks(args, scheme), _FloatText()
        lines = _alternate(
            blocks,
            lambda block: "".join([
                f"{step},{p!r},{q!r},{text[e]},{norm!r}\n" for step, p, q, norm, e in block
            ]),
        )
    return chain(["step,p,q,shadow_energy,p2_plus_q2\n"], lines)


def cmd_shadow(args) -> Iterator[str]:
    header = "step,first_energy,first_drift,second_energy,second_drift\n"
    if args.exact:  # each scheme's energy is proved constant, so every drift is 0
        tail = "".join([f",{_energy_text(args, s)},0" for s in SchemeId]) + "\n"
        return chain([header], (f"{step}{tail}" for step in range(args.steps + 1)))
    text = _FloatText()
    rows = zip(*[(row[-1] for block in _float_blocks(args, s) for row in block) for s in SchemeId])
    first0, second0 = row0 = next(rows)
    lines = (
        f"{step},{text[first]},{text[first - first0]},{text[second]},{text[second - second0]}\n"
        for step, (first, second) in enumerate(chain([row0], rows))
    )
    return chain([header], lines)


def cmd_sweep(args) -> Iterator[str]:
    # The second-order map is the first conjugated by a half kick, so every
    # column is the same for both schemes.
    def line(n: int, b: int) -> str:
        x = _float("x", n, b)
        mat, mat_scale, form, form_scale, _, _ = _scaled_matrices(SchemeId.FIRST_ORDER, n, b)
        trace, det = mat[0] + mat[3], form[0] * form[3] - form[1] * form[2]
        stability = classify_trace(trace, mat_scale)
        scale = _generator_scale(n, b)
        scale_text = "DIVERGENT" if scale is None else repr(scale)
        theta_text = repr(rotation_angle(n, b)) if abs(trace) <= 2 * mat_scale else ""
        return (
            f"{x!r},{_float('trace', trace, mat_scale)!r},{stability.value},"
            f"{spectral_radius(n, b)!r},{_float('shadow_det', det, form_scale**2)!r},"
            f"{scale_text},{theta_text}\n"
        )

    header = "x,trace,stability,spectral_radius,shadow_det,generator_scale,theta\n"
    return _grid(header, args.x_range, line)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser; fill(self) adds its arguments, and binds what the
    handler uses of oscillator, the first time argparse parses with it."""

    def __init__(self, fill, **kwargs):
        super().__init__(**kwargs)
        self.fill = fill

    def parse_known_args(self, args=None, namespace=None):
        fill, self.fill = self.fill, None
        if fill:
            fill(self)
        return super().parse_known_args(args, namespace)


def _add_coeffs(parser):
    parser.add_argument("--letters", type=int, choices=sorted(MAX_DEGREE), default=2)
    parser.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help=f"truncation order (default {_DEFAULT_DEGREE[2]} for two letters, "
        f"{_DEFAULT_DEGREE[3]} for three; at most {MAX_DEGREE[2]} and {MAX_DEGREE[3]})",
    )


def _add_orbit(parser, scheme=False):
    _oscillator()
    if scheme:  # simulate's
        choices = [s.value for s in SchemeId]
        parser.add_argument("--scheme", choices=choices, default="first", help="integrator scheme")
    parser.add_argument("--x", type=_rational, default=Fraction(1), help="time step")
    parser.add_argument("--steps", type=_nonnegative_int, default=100)
    parser.add_argument("--p0", type=_rational, default=Fraction(1), help="initial momentum")
    parser.add_argument("--q0", type=_rational, default=Fraction(0), help="initial coordinate")
    parser.add_argument(
        "--exact",
        action="store_true",
        help="run in exact rational arithmetic (accepts values like 1/2)",
    )


def _add_x_choice(parser):
    _oscillator()
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--x", type=_x_sample, dest="x_range", metavar="X", default=argparse.SUPPRESS,
        help="single time step",
    )
    group.add_argument(
        "--x-range",
        type=_x_range,
        default="0:3:0.1",  # parsed only if neither option is given
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
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, text, fill, handler in (
        ("coeffs", "check word coefficients against the oracle", _add_coeffs, cmd_coeffs),
        ("verify", "check matrix identities per time step", _add_x_choice, cmd_verify),
        ("simulate", "emit one trajectory", lambda parser: _add_orbit(parser, True), cmd_simulate),
        ("shadow", "per-step energy drift, both schemes", _add_orbit, cmd_shadow),
        ("sweep", "stability survey over time steps", _add_x_choice, cmd_sweep),
    ):
        sub.add_parser(name, help=text, fill=fill).set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Stream one subcommand's lines.  The first two, its header and first row,
    are taken before the output opens: input refused by then exits 2 (ValueError)
    and leaves it untouched.  RuntimeError after the last line exits 1, the CSV
    kept; a later ValueError or a failed write exits 2 and removes a partial --out."""
    parser = build_parser()
    args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    out, handle = args.out, None
    try:
        head = [*islice(lines := args.handler(args), 2)]
        handle = sys.stdout if out is None else open(out, "w", newline="")
        if isinstance(getattr(handle, "buffer", None), io.RawIOBase):  # python -u
            # The text layer would drop what a partial write leaves over.
            handle = open(handle.fileno(), "w", encoding=handle.encoding, closefd=False)
        try:
            handle.writelines(head)
            handle.writelines(lines)
        finally:  # in the outer try: a failed write outranks a failed check
            handle.flush()
        return 0
    except RuntimeError as exc:  # a mathematical check tripped
        print(f"shadowosc: check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # usage errors and failed writes
        message = str(exc)
        if isinstance(exc, OSError):
            target = "stdout" if out is None else f"--out {out}"
            message = f"cannot write {target}: {exc.strerror}"
            if handle is not None:
                # Closing or exiting would retry the buffered rows and fail
                # again, so the null device takes them.
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, handle.fileno())
                os.close(null)
        print(f"shadowosc: error: {message}", file=sys.stderr)
        if out is not None and handle is not None:
            handle.close()
            if os.path.isfile(out) and not os.path.islink(out):
                os.unlink(out)  # a partial CSV
        return 2
    finally:
        if handle is not None and handle is not sys.stdout:
            handle.close()


def run():
    import signal  # here, so that importing cli does not pay for it
    if hasattr(signal, "SIGPIPE"):  # "| head" ends the run silently, as in coreutils
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()  # --out is closed; with the streams flushed, teardown has nothing to write
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None where the fd was closed at exec
        stream.flush()
    os._exit(code)  # skips interpreter teardown and atexit handlers


if __name__ == "__main__":
    run()
