import re
import types
from pathlib import Path

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
        "AlternatingWord", "CoeffReport", "FreeSeries", "Mat2", "NoEllipticLogError",
        "PhaseState", "SchemeId", "SeriesDivergesError", "StabilityClass",
        "StrangCollapse", "ThreeWordPattern", "TwoLetterCollapse",
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
