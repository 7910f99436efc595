"""Exact shadow energies and effective generators for split-step
integrators of the 1-D harmonic oscillator."""

import types

from .free_series import FreeSeries, log_exp_product, series_exp, series_log, series_mul
from .goldberg import (
    AlternatingWord,
    CoeffReport,
    StrangCollapse,
    ThreeWordPattern,
    TwoLetterCollapse,
    collapse_strang,
    collapse_two_letter,
    collapse_word,
    estimate_radius,
    goldberg_coeff_three,
    goldberg_coeff_two,
    scale_series_coeff,
    verify_three_letter,
    verify_two_letter,
)
from .oscillator import (
    Mat2,
    NoEllipticLogError,
    PhaseState,
    SchemeId,
    SeriesDivergesError,
    StabilityClass,
    check_generator_relations,
    classify_trace,
    effective_generator,
    generator_direction,
    generator_scale,
    generator_scale_closed_form,
    map_matrix,
    mat_exp,
    matrix_log_principal,
    orbit,
    scaled_orbit,
    shadow_energy,
    shadow_form,
    spectral_radius,
    stability_classify,
    step_first_order,
    step_second_order,
    trajectory,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
