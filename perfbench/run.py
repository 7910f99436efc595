#!/usr/bin/env python3
"""The shadowosc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports nothing but the standard
library and the package under ``src/``.  ``NAME`` is one of ``oracle``,
``exact_orbit`` and ``float_scan`` (see ``workloads.py``), or ``all`` to
run them one after another.

``--trace 0`` times the workload end to end.  One client drives the
``shadowosc.cli`` subcommands as child processes, one at a time, so the
loop is closed: each command starts when the previous one has ended.
The workload repeats until ``--seconds`` have passed (at least three
times).  Before each repetition, three children import ``shadowosc.cli``,
build the parser and exit; they give ``setup_s``.  Each command's wall
time runs from process start until the CSV is written; ``wall_s`` is the
sum of the commands' times, and each command's own time is reported as
well.  ``peak_rss_mb`` is the largest peak RSS, from ``os.wait4``, of
any child in the run.

On a virtual machine whose cores the host shares with other tenants
(measured on a 2-vCPU KVM guest of a Xeon host), every process slows by
up to 2x, in bursts of a second or two and in phases of minutes, and
never speeds up.  So every end-to-end time is speed-corrected: its
fastest sample in the run (which skips the bursts) times ``REFERENCE_S``
over the fastest time, in the same run, of ``reference_work`` (which
cancels the phases).  For ``wall_s`` that is the sum of each command's
fastest time, because one repetition seldom misses the bursts in all of
its commands.  That is the time the program would take on a host where
``reference_work`` takes ``REFERENCE_S``.  ``reference_work`` is plain
standard-library Python, run in this process before every repetition and
every command, so no change to the program can move it.  The report
prints each raw fastest sample, median and quartiles beside the
corrected value.

``--trace 1`` runs the same commands in this process through
``cli.main``, alternating untraced and traced repetitions (see
``tracing.py``), and reports the per-layer metrics.  ``trace.overhead_s``
is the median traced wall time minus the median untraced one.  The spans
of the last traced repetition are written to
``perfbench/.work/spans-<workload>-seed<N>.json``.

Every output is checked (see ``checks.py``).  Standard output holds a
report (value, median, quartiles and sample count of every metric,
per-command times, ``check_fail_ratio``), and its last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
``attempted`` counts command runs and ``failed`` the runs whose output or
exit code was wrong.  The metrics are the ``end_to_end`` ones of
``BENCHMARK.json`` with ``--trace 0`` and the ``per_layer`` ones with
``--trace 1``.  Without the package under ``src/`` the benchmark exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
MIN_REPS = 3
SETUP_PER_REP = 3
SETUP_CODE = "import shadowosc.cli as cli; cli.build_parser()"
# About the fastest time of reference_work on a 2-vCPU Xeon (Sapphire
# Rapids) KVM guest with Python 3.11: the host speed that the corrected
# times refer to.
REFERENCE_S = 0.08


class SetupError(Exception):
    """The program cannot be started from this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], log: Path) -> tuple[float, int, int]:
    """Run ``python args`` to completion: (wall seconds, exit code, peak
    RSS in KiB of that child alone)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=sink, stderr=sink,
                                stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def run_command(command: workloads.Command) -> tuple[float, int, int, bytes | None]:
    """One CLI run as a child process: (wall s, exit code, peak RSS KiB,
    CSV bytes or None)."""
    csv, log = WORK / f"{command.metric}.csv", WORK / f"{command.metric}.log"
    csv.unlink(missing_ok=True)
    elapsed, code, rss = run_child(["-m", "shadowosc.cli", "--out", str(csv), *command.argv], log)
    data = csv.read_bytes() if csv.exists() else None
    csv.unlink(missing_ok=True)
    return elapsed, code, rss, data


def setup_time() -> float:
    elapsed, code, _ = run_child(["-c", SETUP_CODE], WORK / "setup.log")
    if code != 0:
        detail = (WORK / "setup.log").read_text(errors="replace").strip().splitlines()
        raise SetupError(f"importing shadowosc.cli failed (exit {code}): {detail[-1:]}")
    return elapsed


def reference_work() -> int:
    """A fixed computation in plain Python, in three parts of about equal
    time that mirror the workloads: small-integer ``Fraction`` sums in a
    dict (``oracle``), a linear recurrence whose integers grow, with long
    division (``exact_orbit``), and float functions written out with
    ``repr`` (``float_scan``).  It keeps little memory, because a child
    started from this process counts this process's resident memory in
    its peak RSS."""
    acc = {}
    for i in range(1, 8000):
        key = (i % 17, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 1000 + 1, 3 * (i % 777) + 1)
    a, b, digits = 1, 1, 0
    for k in range(12000):
        a, b = b, 3 * b - a
        if k % 8 == 0:
            q, r = divmod(b * 10**17, a)
            digits += math.gcd(q, r) % 7
    chars = 0
    for i in range(30000):
        chars += len(repr(math.asin(i / 30000) / (1 + i * 1e-4)))
    return len(acc) + digits + chars


def reference_time() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def load_digests() -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text())["digests"]


class Tally:
    """Check outcomes of one workload's command runs."""

    def __init__(self):
        self.runs = 0
        self.failed_runs = 0
        self.checks = 0
        self.failed_checks = 0
        self.problems: list[str] = []
        self.inconsistent: list[str] = []

    @property
    def correct(self) -> bool:
        return self.failed_runs == 0 and not self.inconsistent

    def add(self, command: workloads.Command, outcome: checks.Outcome):
        self.runs += 1
        self.checks += outcome.attempted
        self.failed_checks += outcome.failed
        if not outcome.ok:
            self.failed_runs += 1
        for problem in outcome.problems:
            line = f"{command.metric}: {problem}"
            if line not in self.problems and len(self.problems) < 20:
                self.problems.append(line)

    def check(self, command, code, data, digests) -> checks.Outcome:
        outcome = checks.check(command.kind, command.params, code, data, digests.get(command.key))
        self.add(command, outcome)
        return outcome


def measure_end_to_end(workload: workloads.Workload, seconds: float, digests) -> tuple[dict, Tally]:
    """Child-process timings of the workload, repeated for ``seconds``."""
    samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "peak_rss_mb": [],
                                       "reference_s": []}
    for command in workload.commands:
        samples[f"{command.metric}_s"] = []
    tally = Tally()
    setup_time()  # compiles the bytecode caches, as an installed package has them
    reference_time()
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        samples["reference_s"].append(reference_time())
        samples["setup_s"] += [setup_time() for _ in range(SETUP_PER_REP)]
        wall, peak_kib = 0.0, 0
        for command in workload.commands:
            samples["reference_s"].append(reference_time())
            elapsed, code, rss, data = run_command(command)
            tally.check(command, code, data, digests)
            samples[f"{command.metric}_s"].append(elapsed)
            wall += elapsed
            peak_kib = max(peak_kib, rss)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(peak_kib / 1024)
        reps += 1
    return samples, tally


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        from shadowosc import cli, goldberg, oscillator
    except ImportError as exc:
        raise SetupError(f"cannot import shadowosc from {SRC}: {exc}") from exc
    return cli, goldberg, oscillator, tracing.oracle_cache_clearers(goldberg)


def in_process_rep(workload, program, tally, digests, tracer=None):
    """Run every command once through ``cli.main``: (summed wall time of
    the ``cli.main`` calls, check outcomes)."""
    cli, _, _, cache_clearers = program
    total, outcomes = 0.0, []
    for command in workload.commands:
        csv = WORK / f"{command.metric}.csv"
        csv.unlink(missing_ok=True)
        argv = ["--out", str(csv), *command.argv]
        for cache_clear in cache_clearers:
            cache_clear()
        gc.collect()
        start = time.perf_counter()
        try:
            code = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, (argv,), {})
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash fails every check of the command
            traceback.print_exc()
            code = None
        total += time.perf_counter() - start
        data = csv.read_bytes() if csv.exists() else None
        csv.unlink(missing_ok=True)
        outcomes.append(tally.check(command, code, data, digests))
    return total, outcomes


def measure_traced(workload, seconds: float, digests) -> tuple[dict, Tally, tracing.Tracer]:
    """Per-layer metrics from alternating untraced and traced in-process
    repetitions."""
    program = import_program()
    cli, goldberg, oscillator, _ = program
    tally = Tally()
    walls: dict[bool, list[float]] = {False: [], True: []}
    layer_samples: dict[str, list[float]] = {}
    counters: dict[str, int] | None = None
    tracer = None
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < 2 * MIN_REPS or time.perf_counter() < deadline:
        traced = rep % 4 in (1, 2)  # untraced, traced, traced, untraced, ...
        if not traced:
            walls[False].append(in_process_rep(workload, program, tally, digests)[0])
        else:
            tracer = tracing.Tracer(run_id=rep)
            with tracing.Patch(tracer, cli, goldberg, oscillator):
                wall, outcomes = in_process_rep(workload, program, tally, digests, tracer)
            walls[True].append(wall)
            for name, value in layer_metrics(tracer).items():
                layer_samples.setdefault(name, []).append(value)
            rep_counters = tracing.size_counters(tracer)
            rep_counters["cli.rows"] = sum(o.csv_rows for o in outcomes)
            rep_counters["cli.csv_bytes"] = sum(o.csv_bytes for o in outcomes)
            if counters is not None and rep_counters != counters:
                tally.inconsistent.append(f"size counters changed: {counters} -> {rep_counters}")
            counters = rep_counters
        rep += 1
    layer_samples["trace.overhead_s"] = [statistics.median(walls[True]) - statistics.median(walls[False])]
    samples = dict(layer_samples)
    for name, value in counters.items():
        samples[name] = [value]
    return samples, tally, tracer


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    times = tracer.layer_times()
    return {f"{layer}_s": times.get(layer, 0.0) for layer in (
        "free_series.log_exp_product", "goldberg.verify", "oscillator.trajectory",
        "oscillator.shadow_energy", "oscillator.generator_scale", "oscillator.matrix_log",
        "oscillator.map_form", "cli.self")}


def summarize(name: str, values: list[float],
              speed: float | None) -> tuple[float, float, float, float, int]:
    """(value, median, q1, q3, n) of a metric's samples.  The value is
    the median, except for peak RSS, where it is the largest peak of any
    child in the run, and for end-to-end times (``speed`` given), where it
    is the fastest sample times ``speed`` (see the module docstring)."""
    median = statistics.median(values)
    if name == "peak_rss_mb":
        value = max(values)
    elif speed is not None and name.endswith("_s") and name != "reference_s":
        value = min(values) * speed
    else:
        value = median
    if len(values) == 1:
        return value, median, median, median, 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return value, median, q1, q3, len(values)


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return next((unit for unit in ("bits", "bytes") if unit in name), "count")


def report(workload, samples, tally, trace: int) -> dict:
    """Print the human-readable block; return {metric: value}."""
    print(f"workload {workload.name}  seed {workload.seed}  trace {trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"  seeded inputs: {workload.inputs}")
    for command in workload.commands:
        print(f"  command {command.metric}: shadowosc {command.key}")
    speed = None
    if not trace:
        speed = REFERENCE_S / min(samples["reference_s"])
        print(f"  speed correction {speed:.4g}: REFERENCE_S {REFERENCE_S} s over the fastest "
              f"reference_work, {min(samples['reference_s']):.4g} s")
    print(f"  {'metric':34} {'value':>14} {'fastest':>14} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'n':>4}  unit")
    reported = {}
    for name, values in samples.items():
        value, median, q1, q3, n = summarize(name, values, speed)
        if speed is not None and name == "wall_s":
            value = speed * sum(min(samples[f"{c.metric}_s"]) for c in workload.commands)
        reported[name] = value
        fmt = "14d" if isinstance(value, int) else "14.6g"
        print(f"  {name:34} {value:{fmt}} {min(values):{fmt}} {median:{fmt}} {q1:{fmt}} "
              f"{q3:{fmt}} {n:4d}  {unit_of(name)}")
    ratio = tally.failed_checks / tally.checks if tally.checks else 1.0
    reported["check_fail_ratio"] = ratio
    print(f"  {'check_fail_ratio':34} {ratio:14.6g}  ratio ({tally.failed_checks} failed of "
          f"{tally.checks} checks in {tally.runs} command runs)")
    for problem in tally.problems + tally.inconsistent:
        print(f"  problem: {problem}")
    return reported


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict, digests):
    workload = workloads.build(name, seed)
    if trace:
        samples, tally, tracer = measure_traced(workload, seconds, digests)
        write_spans(workload, tracer)
        wanted = spec["per_layer"]
    else:
        samples, tally = measure_end_to_end(workload, seconds, digests)
        wanted = spec["end_to_end"]
    reported = report(workload, samples, tally, trace)
    metrics = {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]} for m in wanted}
    return tally, metrics, reported


def write_spans(workload, tracer: tracing.Tracer) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "workload": workload.name,
        "seed": workload.seed,
        "fields": ["name", "start_s", "end_s", "parent", "run_id"],
        "spans": [[n, s - origin, e - origin, p, r] for n, s, e, p, r in tracer.spans],
    }
    (WORK / f"spans-{workload.name}-seed{workload.seed}.json").write_text(json.dumps(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "shadowosc" / "cli.py").is_file():
            raise SetupError(f"no shadowosc package under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        digests = load_digests()
        WORK.mkdir(exist_ok=True)
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = [run_workload(name, args.seed, args.seconds, args.trace, spec, digests)
                   for name in names]
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    attempted = sum(tally.runs for tally, _, _ in results)
    failed = sum(tally.failed_runs for tally, _, _ in results)
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{name}/{metric}": {"value": value, "unit": unit_of(metric)}
                   for name, (_, _, reported) in zip(names, results)
                   for metric, value in reported.items()}
    correct = all(tally.correct for tally, _, _ in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
