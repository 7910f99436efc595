"""The benchmark's workloads: which ``shadowosc`` CLI commands each one
runs, with arguments generated from a seed.

Sizes are scaled so that one repetition of a workload takes a few seconds
and a 35 s run holds eight to twelve repetitions, while each workload keeps
its layer balance:

* ``oracle`` - two ``coeffs`` runs; nearly all time is the free-algebra
  oracle (``free_series``), a little is the ``goldberg`` comparison.
  ``oscillator`` does no work.
* ``exact_orbit`` - exact ``simulate`` at hyperbolic x = 5/2 (numerators
  grow) and exact ``shadow`` at elliptic x = 1/3 (denominators grow as
  3^k): the exact ``oscillator`` path and ``cli`` formatting of huge
  Fractions.  ``free_series`` does no work.
* ``float_scan`` - ``verify`` and ``sweep`` over dense grids plus a long
  float ``simulate``: the same layers as ``exact_orbit`` but in floats,
  with many small calls (``generator_scale`` near the radius, the matrix
  log, 10^5 float steps).

The seed picks the initial state (``--p0``/``--q0``) of every seeded
``simulate``/``shadow`` from ``INITIAL_STATES`` and a sub-step offset of
the ``float_scan`` grids from ``GRID_OFFSETS``.  ``oracle`` has no seeded
input.  The choice sets are small so that every seeded output has a
recorded digest (``digests.json``); the offsets stay below half a grid
step so that no seed moves a grid point much closer to the radius x = 2,
where ``generator_scale`` sums many more terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

NAMES = ("oracle", "exact_orbit", "float_scan")

# Small rationals; the first is the CLI default (1, 0).
INITIAL_STATES = (
    (Fraction(1), Fraction(0)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(-1, 4)),
    (Fraction(-3, 5), Fraction(2, 7)),
    (Fraction(3, 4), Fraction(1, 5)),
    (Fraction(5, 7), Fraction(-2, 3)),
    (Fraction(-1, 3), Fraction(3, 4)),
    (Fraction(4, 9), Fraction(1, 2)),
)

# Fractions of a grid step.
GRID_OFFSETS = tuple(Fraction(k, 8) for k in range(5))

ORACLE_DEGREES = {2: 12, 3: 8}
EXACT_SIMULATE = (Fraction(5, 2), 2000)
EXACT_SHADOW = (Fraction(1, 3), 1500)
VERIFY_STEP = Fraction(1, 1000)
SWEEP_STEP = Fraction(1, 2000)
GRID_STOP = Fraction(3)
FLOAT_SIMULATE = (Fraction(1, 10), 100000)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``metric`` names its time (``<metric>_s``),
    ``kind`` selects its output checks and ``params`` feeds them."""

    metric: str
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        """Digest key: the arguments, space-joined."""
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    inputs: str
    commands: tuple[Command, ...]


def orbit_commands(p0: Fraction, q0: Fraction) -> tuple[Command, Command]:
    """Exact ``simulate`` and ``shadow`` from one initial state."""
    state = (f"--p0={p0}", f"--q0={q0}")
    (x_sim, steps_sim), (x_sh, steps_sh) = EXACT_SIMULATE, EXACT_SHADOW
    return (
        Command(
            "simulate_exact",
            "simulate",
            ("simulate", "--x", str(x_sim), "--steps", str(steps_sim), "--exact", *state),
            {"steps": steps_sim, "exact": True},
        ),
        Command(
            "shadow_exact",
            "shadow",
            ("shadow", "--x", str(x_sh), "--steps", str(steps_sh), "--exact", *state),
            {"steps": steps_sh},
        ),
    )


def float_simulate_command(p0: Fraction, q0: Fraction) -> Command:
    x, steps = FLOAT_SIMULATE
    return Command(
        "simulate_float",
        "simulate",
        ("simulate", "--x", str(x), "--steps", str(steps), f"--p0={p0}", f"--q0={q0}"),
        {"steps": steps, "exact": False},
    )


def coeffs_command(letters: int) -> Command:
    degree = ORACLE_DEGREES[letters]
    return Command(
        f"coeffs{letters}",
        "coeffs",
        ("coeffs", "--letters", str(letters), "--max-degree", str(degree)),
        {"letters": letters, "max_degree": degree},
    )


def grid_command(kind: str, offset: Fraction, step: Fraction) -> Command:
    start = offset * step
    return Command(
        kind,
        kind,
        (kind, "--x-range", f"{start}:{GRID_STOP}:{step}"),
        {"start": start, "stop": GRID_STOP, "step": step},
    )


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``: same seed, same commands."""
    rng = random.Random(seed)
    p0, q0 = rng.choice(INITIAL_STATES)
    offset = rng.choice(GRID_OFFSETS)
    if name == "oracle":
        return Workload(name, seed, "none (oracle has no seeded input)",
                        (coeffs_command(2), coeffs_command(3)))
    if name == "exact_orbit":
        return Workload(name, seed, f"p0={p0} q0={q0}", orbit_commands(p0, q0))
    if name == "float_scan":
        return Workload(
            name,
            seed,
            f"p0={p0} q0={q0} grid_offset={offset} step",
            (
                grid_command("verify", offset, VERIFY_STEP),
                grid_command("sweep", offset, SWEEP_STEP),
                float_simulate_command(p0, q0),
            ),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def digested_commands() -> list[Command]:
    """Every command whose CSV bytes ``digests.json`` pins: both
    ``coeffs`` runs and, for each initial state, the exact orbits and the
    float ``simulate``."""
    commands = [coeffs_command(2), coeffs_command(3)]
    for p0, q0 in INITIAL_STATES:
        commands += [*orbit_commands(p0, q0), float_simulate_command(p0, q0)]
    return commands
