"""Output checks for one CLI run, computed without importing ``shadowosc``.

Each expected CSV data row is one check.  A row fails when one of the
checks on it fails.  A crash, a wrong exit code, a wrong header or a CSV
whose SHA-256 differs from the digest recorded at the seed commit fails
every check of that command, as does a digest that was never recorded.

The checks on rows, by command:

* ``coeffs``: ``match`` is ``true``, and every odd alternating word's
  oracle cell equals (-1)^n (n!)^2/(2n+1)!, recomputed here.  For three
  letters that covers the inner words and the outer words with equal
  endpoints.
* ``simulate``: steps count up from 0.  In exact runs every
  ``shadow_energy`` cell equals the one at step 0.
* ``shadow``: every energy cell equals the one at step 0, and every
  drift cell is ``0``.
* ``sweep``: ``x`` and ``trace`` match the benchmark's own exact grid, and
  ``stability`` matches the exact classification by trace 2 - x^2.
  ``generator_scale`` is within the pinned 1e-10 relative tolerance of
  2 asin(x/2) / (x sqrt(1 - x^2/4)), or reads ``DIVERGENT`` for |x| >= 2.
* ``verify``: rows appear in the expected order, and a ``fail`` row is a
  failed check.  Residual columns are not digested, because fixes near
  the radius must be allowed to change them.

A failed check is fatal, and makes the run incorrect, unless it is a
``log_vs_generator`` row that failed its float gate at x >= 1.9.  That is
the known accuracy limit of the float path near the radius x = 2.  Those
rows still count towards ``check_fail_ratio``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

HEADERS = {
    "coeffs": "word,closed_form,oracle,match",
    "simulate": "step,p,q,shadow_energy,p2_plus_q2",
    "shadow": "step,first_energy,first_drift,second_energy,second_drift",
    "verify": "invariant,x,residual,pass",
    "sweep": "x,trace,stability,spectral_radius,shadow_det,generator_scale,theta",
}
DIGESTED = ("coeffs", "simulate", "shadow")

SCALE_REL_TOL = 1e-10
GATE_BAND_START = Fraction(19, 10)
_SCHEMES = ("first", "second")


@dataclass
class Outcome:
    """Result of checking one command's output."""

    attempted: int
    failed: int = 0
    ok: bool = True
    problems: list[str] = field(default_factory=list)
    csv_rows: int = 0
    csv_bytes: int = 0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid(params) -> list[Fraction]:
    """The exact sample points of ``--x-range start:stop:step``."""
    start, stop, step = params["start"], params["stop"], params["step"]
    return [start + i * step for i in range(int((stop - start) / step) + 1)]


def _verify_layout(params) -> list[tuple[str, str]]:
    layout = [("generator_relations", "")]
    for x in grid(params):
        x_text = repr(float(x))
        for label in _SCHEMES:
            layout += [(f"{name}_{label}", x_text)
                       for name in ("det_map", "antisymmetry", "shadow_det_sign")]
        if 0 < abs(x) < 2:
            layout += [(f"log_vs_generator_{label}", x_text) for label in _SCHEMES]
        elif abs(x) >= 2:
            layout.append(("divergence_signaled", x_text))
    return layout


def _three_letter_rows(max_degree: int) -> int:
    """Words of the three-letter patterns up to ``max_degree``: per n,
    2^n inner words, plus 2 outer words at n = 0 and 4 * 2^(n-1) after."""
    return sum(2**n + (2 if n == 0 else 2 ** (n + 1)) for n in range((max_degree - 1) // 2 + 1))


def expected_rows(kind: str, params) -> int:
    if kind == "coeffs":
        degree = params["max_degree"]
        return 2 * degree if params["letters"] == 2 else _three_letter_rows(degree)
    if kind in ("simulate", "shadow"):
        return params["steps"] + 1
    if kind == "verify":
        return len(_verify_layout(params))
    return len(grid(params))


def odd_alternating_value(letters: int, word: str) -> Fraction | None:
    """(-1)^n (n!)^2/(2n+1)! for an odd alternating word of length 2n+1,
    or None when the word is not one (or is a mixed-endpoint outer word)."""
    if letters == 2:
        seq = list(word)
        if any(a == b for a, b in zip(seq, seq[1:])):
            return None
    else:
        seq = [int(part) for part in word.split("X")[1:]]
        starts_with_two = seq[0] == 2
        if any((s == 2) != (starts_with_two == (i % 2 == 0)) for i, s in enumerate(seq)):
            return None
        if not starts_with_two and seq[0] != seq[-1]:
            return None
    if len(seq) % 2 == 0:
        return None
    n = len(seq) // 2
    return Fraction((-1) ** n * math.factorial(n) ** 2, math.factorial(2 * n + 1))


def _classify(x: Fraction) -> str:
    trace = abs(2 - x * x)
    if trace < 2:
        return "elliptic"
    return "parabolic" if trace == 2 else "hyperbolic"


def _scale_closed_form(x: float) -> float:
    if x == 0.0:
        return 1.0
    return 2.0 * math.asin(x / 2.0) / (x * math.sqrt(1.0 - x * x / 4.0))


def _row_checker(kind: str, params, rows):
    """A function (index, row) -> (problem, fatal) or None for ``kind``."""
    if kind == "coeffs":
        letters = params["letters"]

        def check_coeffs(i, row):
            if row[3] != "true":
                return f"closed form {row[1]} != oracle {row[2]} for {row[0]}", True
            value = odd_alternating_value(letters, row[0])
            if value is not None and Fraction(row[2]) != value:
                return f"oracle {row[2]} != {value} for {row[0]}", True
            return None

        return check_coeffs

    if kind == "simulate":
        exact = params["exact"]

        def check_simulate(i, row):
            if row[0] != str(i):
                return f"step {row[0]} at row {i}", True
            if exact and row[3] != rows[0][3]:
                return f"shadow_energy {row[3]} != {rows[0][3]} at step {i}", True
            return None

        return check_simulate

    if kind == "shadow":

        def check_shadow(i, row):
            if row[0] != str(i):
                return f"step {row[0]} at row {i}", True
            for col in (1, 3):
                if row[col] != rows[0][col]:
                    return f"energy {row[col]} != {rows[0][col]} at step {i}", True
                if row[col + 1] != "0":
                    return f"drift {row[col + 1]} at step {i}", True
            return None

        return check_shadow

    if kind == "verify":
        layout = _verify_layout(params)

        def check_verify(i, row):
            if i >= len(layout) or (row[0], row[1]) != layout[i]:
                return f"unexpected row {row[0]},{row[1]}", True
            if row[3] == "pass":
                return None
            known = row[0].startswith("log_vs_generator") and Fraction(row[1]) >= GATE_BAND_START
            return f"{row[0]} {row[3]} at x = {row[1]} (residual {row[2]})", not known

        return check_verify

    points = grid(params)

    def check_sweep(i, row):
        x = points[i]
        if row[0] != repr(float(x)) or row[1] != repr(float(2 - x * x)):
            return f"x/trace {row[0]},{row[1]} at row {i}", True
        if row[2] != _classify(x):
            return f"stability {row[2]} != {_classify(x)} at x = {row[0]}", True
        if abs(x) >= 2:
            if row[5] != "DIVERGENT":
                return f"generator_scale {row[5]} at x = {row[0]}", True
            return None
        closed = _scale_closed_form(float(x))
        if not abs(float(row[5]) - closed) <= SCALE_REL_TOL * abs(closed):
            return f"generator_scale {row[5]} vs closed form {closed!r} at x = {row[0]}", True
        return None

    return check_sweep


def check(kind: str, params, code: int | None, data: bytes | None,
          recorded_digest: str | None) -> Outcome:
    """Check one command's exit code and CSV bytes (None if absent)."""
    expected = expected_rows(kind, params)
    out = Outcome(attempted=expected)

    def fail_all(problem):
        out.failed, out.ok = expected, False
        out.problems.append(problem)
        return out

    if data is None:
        return fail_all(f"no output (exit code {code})")
    out.csv_bytes = len(data)
    lines = data.decode("utf-8", errors="replace").split("\n")
    out.csv_rows = len(lines) - 2
    if lines[0] != HEADERS[kind] or lines[-1] != "":
        return fail_all("bad header or missing final newline")
    if kind in DIGESTED:
        if recorded_digest is None:
            return fail_all("no recorded digest for this command")
        if digest(data) != recorded_digest:
            return fail_all("CSV bytes differ from the recorded digest")
    rows = [line.split(",") for line in lines[1:-1]]
    row_problem = _row_checker(kind, params, rows)
    failed_rows = 0
    for i, row in enumerate(rows[:expected]):
        try:
            hit = row_problem(i, row)
        except (ValueError, IndexError, ZeroDivisionError):
            hit = (f"malformed row {i}: {','.join(row)[:80]}", True)
        if hit is None:
            continue
        failed_rows += 1
        problem, fatal = hit
        if fatal:
            out.ok = False
            if len(out.problems) < 5:
                out.problems.append(problem)
    if len(rows) != expected:
        out.ok = False
        out.problems.append(f"{len(rows)} data rows, expected {expected}")
        failed_rows += max(expected - len(rows), 0)
    expected_code = 1 if kind == "verify" and any(r[-1] == "fail" for r in rows) else 0
    if code != expected_code:
        return fail_all(f"exit code {code}, expected {expected_code}")
    out.failed = failed_rows
    return out
