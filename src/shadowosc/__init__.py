"""Exact shadow energies and effective generators for split-step
integrators of the 1-D harmonic oscillator.

The public names load on first use (PEP 562), so a process imports only
the submodules it touches: the CLI's ``simulate`` never loads the
free-algebra oracle of ``goldberg`` and ``free_series``."""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_PUBLIC = {
    "free_series": ("FreeSeries", "log_exp_product", "series_exp", "series_log", "series_mul"),
    "goldberg": (
        "CoeffReport", "StrangCollapse", "TwoLetterCollapse", "collapse_strang",
        "collapse_two_letter", "collapse_word", "estimate_radius", "goldberg_coeff_three",
        "goldberg_coeff_two", "scale_series_coeff", "verify_three_letter", "verify_two_letter",
    ),
    "oscillator": (
        "Mat2", "NoEllipticLogError", "PhaseState", "SchemeId", "SeriesDivergesError",
        "StabilityClass", "check_generator_relations", "classify_trace",
        "effective_generator", "generator_direction", "generator_scale",
        "generator_scale_closed_form", "map_matrix", "mat_exp", "matrix_log_principal",
        "orbit", "scaled_orbit", "shadow_energy", "shadow_form", "spectral_radius",
        "stability_classify", "step_first_order", "step_second_order", "trajectory",
    ),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _PUBLIC:  # shadowosc.goldberg after a bare ``import shadowosc``
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_SOURCE[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
