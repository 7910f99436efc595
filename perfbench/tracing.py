"""In-process traced runs: spans at the module boundaries of ``shadowosc``.

The wrappers are installed from here, never from the program.  They
replace, for the duration of a run, the names that cross a module
boundary:

* the ``oscillator`` functions that ``cli`` imports;
* ``goldberg.verify_*`` and ``goldberg.*_oracle``, which ``cli`` and
  ``goldberg`` look up as module attributes;
* the ``log_exp_product`` that ``goldberg`` imports from ``free_series``.

Each call records a span (name, start, end, parent, run id) in memory.
A layer's time is the self time of its spans: duration minus the time
its direct child spans cover.  ``cli.main`` is the root span of each
command, so ``cli.self_s`` is parsing, formatting and writing the CSV.

Size counters are computed after each run from the objects the wrapped
calls returned, outside every span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from fractions import Fraction

# Span name -> layer metric prefix.  Any other oscillator function that
# cli imports falls into ``oscillator.map_form``.
LAYERS = {
    "cli.main": "cli.self",
    "log_exp_product": "free_series.log_exp_product",
    "verify_two_letter": "goldberg.verify",
    "verify_three_letter": "goldberg.verify",
    "two_letter_oracle": "goldberg.oracle",
    "three_letter_oracle": "goldberg.oracle",
    "trajectory": "oscillator.trajectory",
    "shadow_energy": "oscillator.shadow_energy",
    "generator_scale": "oscillator.generator_scale",
    "matrix_log_principal": "oscillator.matrix_log",
}
MAP_FORM = "oscillator.map_form"
GOLDBERG_NAMES = ("verify_two_letter", "verify_three_letter",
                  "two_letter_oracle", "three_letter_oracle", "log_exp_product")
# Wrapped calls whose return values feed the size counters.
KEEP_RESULTS = ("log_exp_product", "trajectory", "verify_two_letter", "verify_three_letter")


class Tracer:
    """Span recorder for one traced repetition (one or more commands)."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.run_id)
        if name in KEEP_RESULTS:
            self.results[name].append((args, result))
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def layer_times(self) -> dict[str, float]:
        """Self time per layer prefix, summed over spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        times: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            times[LAYERS.get(name, MAP_FORM)] += end - start - child
        return times

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def oscillator_names(cli, oscillator) -> list[str]:
    """The oscillator functions that cli imported."""
    return sorted(
        name for name, value in vars(cli).items()
        if callable(value) and getattr(value, "__module__", None) == oscillator.__name__
        and not isinstance(value, type)
    )


class Patch:
    """Installs a tracer's wrappers on the boundary names and restores
    the originals on exit."""

    def __init__(self, tracer: Tracer, cli, goldberg, oscillator):
        targets = [(cli, name) for name in oscillator_names(cli, oscillator)]
        targets += [(goldberg, name) for name in GOLDBERG_NAMES if hasattr(goldberg, name)]
        self._saved = [(module, name, getattr(module, name)) for module, name in targets]
        self._tracer = tracer

    def __enter__(self):
        for module, name, original in self._saved:
            setattr(module, name, self._tracer.wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, name, original in self._saved:
            setattr(module, name, original)
        return False


def oracle_cache_clearers(goldberg) -> list:
    """``cache_clear`` of each per-degree oracle cache.  Calling them
    before each command makes every run pay for the oracle as a fresh
    process does.  Taken before any wrapper is installed."""
    oracles = (getattr(goldberg, name, None) for name in ("two_letter_oracle", "three_letter_oracle"))
    return [oracle.cache_clear for oracle in oracles if hasattr(oracle, "cache_clear")]


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


def size_counters(tracer: Tracer) -> dict[str, int]:
    """Exact sizes from the returned objects: oracle terms and largest
    coefficient bit length (in total and per letter count), words
    checked, orbit steps and the bit length of each orbit's final state;
    and the call counts of the two most-called oscillator functions."""
    counters = {"free_series.terms": 0, "free_series.coeff_bits_max": 0,
                "goldberg.words_checked": 0, "oscillator.steps": 0,
                "oscillator.state_bits_max": 0,
                "oscillator.shadow_energy_calls": tracer.calls("shadow_energy"),
                "oscillator.generator_scale_calls": tracer.calls("generator_scale")}
    for (weights, _), series in tracer.results["log_exp_product"]:
        terms = len(series.coeffs)
        bits = max((_bits(c) for c in series.coeffs.values()), default=0)
        counters["free_series.terms"] += terms
        counters[f"free_series.terms.letters{len(weights)}"] = terms
        counters[f"free_series.coeff_bits_max.letters{len(weights)}"] = bits
        counters["free_series.coeff_bits_max"] = max(counters["free_series.coeff_bits_max"], bits)
    for name in ("verify_two_letter", "verify_three_letter"):
        counters["goldberg.words_checked"] += sum(len(r) for _, r in tracer.results[name])
    for _, states in tracer.results["trajectory"]:
        counters["oscillator.steps"] += len(states) - 1
        final_bits = max(_bits(states[-1].p), _bits(states[-1].q))
        counters["oscillator.state_bits_max"] = max(counters["oscillator.state_bits_max"], final_bits)
    return counters
