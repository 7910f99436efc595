"""Self-tests of the benchmark's output checks and tracing.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

from fractions import Fraction

import checks
import run
import tracing
import workloads

# `shadowosc simulate --x 3 --steps 5 --exact`, as documented in the README.
SIMULATE = b"""step,p,q,shadow_energy,p2_plus_q2
0,1,0,0.5,1
1,1,3,0.5,10
2,-8,-21,0.5,505
3,55,144,0.5,23761
4,-377,-987,0.5,1116298
5,2584,6765,0.5,52442281
"""
SIMULATE_PARAMS = {"steps": 5, "exact": True}

SHADOW = b"""step,first_energy,first_drift,second_energy,second_drift
0,0.20833333333333333,0,0.17901234567901235,0
1,0.20833333333333333,0,0.17901234567901235,0
2,0.20833333333333333,0,0.17901234567901235,0
"""


def check_simulate(data, recorded, code=0):
    return checks.check("simulate", SIMULATE_PARAMS, code, data, recorded)


def test_recorded_csv_passes():
    outcome = check_simulate(SIMULATE, checks.digest(SIMULATE))
    assert (outcome.ok, outcome.attempted, outcome.failed) == (True, 6, 0)
    assert (outcome.csv_rows, outcome.csv_bytes) == (6, len(SIMULATE))


def test_flipped_digit_fails_every_check():
    corrupted = SIMULATE.replace(b"23761", b"23762")
    outcome = check_simulate(corrupted, checks.digest(SIMULATE))
    assert not outcome.ok
    assert outcome.failed == outcome.attempted == 6


def test_non_constant_energy_fails_even_with_matching_digest():
    corrupted = SIMULATE.replace(b"4,-377,-987,0.5,", b"4,-377,-987,0.50000000000000001,")
    outcome = check_simulate(corrupted, checks.digest(corrupted))
    assert not outcome.ok
    assert outcome.failed == 1
    assert "shadow_energy" in outcome.problems[0]


def test_nonzero_drift_fails():
    params = {"steps": 2}
    assert checks.check("shadow", params, 0, SHADOW, checks.digest(SHADOW)).ok
    corrupted = SHADOW.replace(b"2,0.20833333333333333,0,", b"2,0.20833333333333333,1e-17,")
    outcome = checks.check("shadow", params, 0, corrupted, checks.digest(corrupted))
    assert (outcome.ok, outcome.failed) == (False, 1)


def test_crash_wrong_exit_code_and_missing_digest_fail_every_check():
    for code, data, recorded in ((1, None, None), (1, SIMULATE, checks.digest(SIMULATE)),
                                 (0, SIMULATE, None)):
        outcome = check_simulate(data, recorded, code)
        assert not outcome.ok
        assert outcome.failed == outcome.attempted == 6


def test_missing_rows_count_as_failed():
    truncated = SIMULATE[: SIMULATE.index(b"5,2584")]
    outcome = check_simulate(truncated, checks.digest(truncated))
    assert (outcome.ok, outcome.failed) == (False, 1)


def verify_csv(pass_column):
    params = {"start": Fraction(195, 100), "stop": Fraction(195, 100), "step": Fraction(1, 100)}
    rows = ["invariant,x,residual,pass", "generator_relations,,exact,pass"]
    rows += [f"{name},1.95,{'1e-11' if name.startswith('log') else 'exact'},{pass_column(name)}"
             for name, _ in checks._verify_layout(params)[1:]]
    return params, ("\n".join(rows) + "\n").encode()


def test_verify_gate_failures_near_the_radius_are_counted_but_tolerated():
    params, data = verify_csv(lambda name: "fail" if name.startswith("log") else "pass")
    outcome = checks.check("verify", params, 1, data, None)
    assert (outcome.ok, outcome.attempted, outcome.failed) == (True, 9, 2)
    assert not checks.check("verify", params, 0, data, None).ok


def test_verify_exact_invariant_failure_is_fatal():
    params, data = verify_csv(lambda name: "fail" if name.startswith("det_map") else "pass")
    outcome = checks.check("verify", params, 1, data, None)
    assert (outcome.ok, outcome.failed) == (False, 2)


def test_sweep_stability_and_scale():
    params = {"start": Fraction(1), "stop": Fraction(2), "step": Fraction(1)}
    good = (b"x,trace,stability,spectral_radius,shadow_det,generator_scale,theta\n"
            b"1.0,1.0,elliptic,1.0,0.1875,1.209199576156142,1.0471975511965979\n"
            b"2.0,-2.0,parabolic,1.0,0.0,DIVERGENT,3.141592653589793\n")
    assert checks.check("sweep", params, 0, good, None).ok
    for bad in (good.replace(b"parabolic", b"hyperbolic"), good.replace(b"1.2091995", b"1.2091996")):
        outcome = checks.check("sweep", params, 0, bad, None)
        assert (outcome.ok, outcome.failed) == (False, 1)


def test_odd_alternating_values():
    assert checks.odd_alternating_value(2, "A") == 1
    assert checks.odd_alternating_value(2, "BAB") == Fraction(-1, 6)
    assert checks.odd_alternating_value(2, "ABAB") is None
    assert checks.odd_alternating_value(3, "X2X1X2X3X2") == Fraction(1, 30)
    assert checks.odd_alternating_value(3, "X1X2X1") == Fraction(-1, 6)
    assert checks.odd_alternating_value(3, "X1X2X3") is None
    assert checks.odd_alternating_value(3, "X1X1X1") is None
    assert checks.expected_rows("coeffs", {"letters": 3, "max_degree": 5}) == 21


def test_same_seed_same_inputs():
    for name in workloads.NAMES:
        assert workloads.build(name, 7) == workloads.build(name, 7)
    keys = {c.key for c in workloads.digested_commands()}
    for seed in range(50):
        for name in workloads.NAMES:
            for command in workloads.build(name, seed).commands:
                assert command.kind not in checks.DIGESTED or command.key in keys


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer(run_id=3)
    inner = tracer.wrap("log_exp_product", lambda: None)
    outer = tracer.wrap("verify_two_letter", lambda: inner())
    tracer.call("cli.main", outer, (), {})
    assert [(name, parent, run) for name, _, _, parent, run in tracer.spans] == [
        ("cli.main", -1, 3), ("verify_two_letter", 0, 3), ("log_exp_product", 1, 3)]
    tracer.spans = [("cli.main", 0.0, 10.0, -1, 0), ("verify_two_letter", 1.0, 9.0, 0, 0),
                    ("log_exp_product", 2.0, 7.0, 1, 0), ("map_matrix", 9.0, 9.5, 0, 0)]
    assert dict(tracer.layer_times()) == {
        "cli.self": 1.5, "goldberg.verify": 3.0,
        "free_series.log_exp_product": 5.0, "oscillator.map_form": 0.5}


def test_end_to_end_times_are_speed_corrected_fastest_samples():
    samples = [3.0, 1.0, 2.0]
    assert run.summarize("coeffs2_s", samples, 1.5)[0] == 1.5
    assert run.summarize("reference_s", samples, 1.5)[0] == 2.0
    assert run.summarize("peak_rss_mb", samples, 1.5)[0] == 3.0
    assert run.summarize("coeffs2_s", samples, None)[0] == 2.0  # traced runs keep the median
