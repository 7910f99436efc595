import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import shadowosc
from shadowosc import cli, free_series, goldberg, oscillator


def test_star_import_binds_public_names_and_no_module():
    namespace = {}
    exec("from shadowosc import *", namespace)
    del namespace["__builtins__"]
    public = {
        name
        for name, value in vars(shadowosc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(namespace) == public
    # Every exported name comes from a submodule, so a stray helper import
    # in the package (say ``from types import ModuleType``) fails here.
    for name, value in namespace.items():
        assert any(
            getattr(module, name, None) is value
            for module in (free_series, goldberg, oscillator)
        ), name


def test_public_names_are_pinned():
    # A public name goes only by a deliberate edit of this list.
    assert sorted(shadowosc.__all__) == [
        "CoeffReport", "FreeSeries", "Mat2", "NoEllipticLogError", "PhaseState",
        "SchemeId", "SeriesDivergesError", "StabilityClass", "StrangCollapse",
        "TwoLetterCollapse",
        "check_generator_relations", "classify_trace", "collapse_strang",
        "collapse_two_letter", "collapse_word", "effective_generator",
        "estimate_radius", "generator_direction", "generator_scale",
        "generator_scale_closed_form", "goldberg_coeff_three", "goldberg_coeff_two",
        "log_exp_product", "map_matrix", "mat_exp", "matrix_log_principal", "orbit",
        "scale_series_coeff", "scaled_orbit", "series_exp", "series_log",
        "series_mul", "shadow_energy", "shadow_form", "spectral_radius",
        "stability_classify", "step_first_order", "step_second_order",
        "trajectory", "verify_three_letter", "verify_two_letter",
    ]


def fresh_modules(code):
    """The sorted module names that code prints, run in a new interpreter
    so that no test has imported anything yet."""
    src = str(Path(shadowosc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.stdout.split()


ORACLE_MODULES = {"shadowosc.goldberg", "shadowosc.free_series"}


def test_cli_start_up_skips_the_oracle():
    loaded = fresh_modules("import shadowosc.cli as c; c.build_parser()")
    assert not {*ORACLE_MODULES, "shadowosc.oscillator", "dataclasses"} & set(loaded)


def test_float_simulate_loads_nothing_past_start_up():
    # A multi-block float simulate forks its helper (two CPUs are granted
    # here) and loads no module that parsing its arguments does not.  That
    # parse loads the oscillator alone past the bare parser's start-up.
    prelude = (
        "import io, contextlib, os, shadowosc.cli as c\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
    )
    started = fresh_modules(prelude + "c.build_parser()")
    parsed = fresh_modules(prelude + "c.build_parser().parse_args(['simulate'])")
    simulated = fresh_modules(
        prelude + "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert c.main(['simulate', '--steps', '3000']) == 0"
    )
    assert simulated == parsed == sorted([*started, "shadowosc.oscillator"])


def test_coeffs_loads_the_oracle():
    loaded = fresh_modules(
        "import io, contextlib, shadowosc.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert c.main(['coeffs', '--max-degree', '4']) == 0"
    )
    assert ORACLE_MODULES <= set(loaded)
    # The oracle's records are NamedTuples: nothing loads dataclasses.
    assert not {"shadowosc.oscillator", "dataclasses"} & set(loaded)


def test_cli_keeps_a_wrapper_set_before_the_first_subcommand():
    # A scale of 1.0 fails verify's log rows at 1.999: the wrapper set on
    # cli before it loaded the oscillator is the one that runs.
    fresh_modules(
        "import io, contextlib, shadowosc.cli as c\n"
        "c.generator_scale = lambda n, b: 1.0\n"
        "assert 'shadowosc.oscillator' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert c.main(['verify', '--x', '1.999']) == 1\n"
        "assert c.generator_scale(1, 1) == 1.0"
    )
    # A name read before any subcommand has run is the oscillator's own.
    fresh_modules(
        "import shadowosc.cli as c\n"
        "helper, module = c._scaled_matrices, c.oscillator\n"
        "from shadowosc import oscillator\n"
        "assert helper is oscillator._scaled_matrices and module is oscillator"
    )


def test_bare_package_import_loads_no_submodule():
    # dir() lists every public name without loading one.
    loaded = fresh_modules("import shadowosc\nassert {*shadowosc.__all__} <= {*dir(shadowosc)}")
    assert [name for name in loaded if name.startswith("shadowosc")] == ["shadowosc"]
    # A submodule read as an attribute loads that submodule alone.
    loaded = fresh_modules("import shadowosc\nshadowosc.oscillator.Mat2")
    assert [name for name in loaded if name.startswith("shadowosc")] == [
        "shadowosc", "shadowosc.oscillator",
    ]


def test_package_lists_its_names_and_refuses_others():
    assert len(shadowosc.__all__) == 41 and set(shadowosc.__all__) <= set(dir(shadowosc))
    assert shadowosc.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        shadowosc.not_a_name


# The README's examples, run as written.
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def readme_block(start):
    """The one README code block whose text starts with start."""
    (body,) = [body for _, body in BLOCKS if body.startswith(start)]
    return body


def test_readme_library_example_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_simulate_transcript(capsys):
    command, *rows = readme_block("$ shadowosc ").splitlines(keepends=True)
    assert cli.main(command.split()[2:]) == 0
    assert capsys.readouterr().out == "".join(rows)


def test_readme_sweep_rows_appear_in_default_sweep(capsys):
    header, *rows = readme_block("x,trace,").splitlines()
    assert cli.main(["sweep", "--x-range", "0:3:0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert len(rows) == 3 and set(rows) <= set(lines[1:])


def test_readme_cli_commands_exit_zero(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    for line in readme_block("shadowosc ").splitlines():
        program, *argv = line.split("#")[0].split()
        assert program == "shadowosc"
        assert cli.main(["--out", str(target), *argv]) == 0, line
        assert capsys.readouterr().out == "" and target.stat().st_size > 0
