"""Numerical toolkit for the nonstationary bounded distortion property:
jet propagation, curve functionals, seminorm estimation, and theorem engines
checking the explicit distortion bounds on 1D and multidimensional map
sequences."""

__version__ = "0.1.0"

from .curves import (
    NaturalCurve,
    ParamCurve,
    circle_arc,
    length,
    max_angle,
    reparameterize_natural,
    segment,
)
from .distortion import (
    BOUND_HOLDS,
    BOUND_VIOLATED,
    UNVERIFIED,
    BoundReport,
    DistortionTrace,
    HypothesisBudget,
    arc_ratio_curve,
    first_lemma_violation,
    interval_ratio_1d,
    lemma_step_checks,
    run_1d,
    run_curve,
    run_curve_holder,
)
from .jets import Jet1, Jet2, fd_oracle, push_jet1, push_jet2
from .maps import (
    Box,
    MapSequence,
    SeminormEstimate,
    SmoothMap,
    estimate_seminorms,
    images,
    jacobians,
    pointwise,
    polynomial_map,
    second_derivatives,
)
from .scenarios import (
    SCENARIOS,
    ScenarioSpec,
    SturmianParams,
    build_sequence,
    fibonacci_trace_map,
    quadratic_1d,
    rotation_map,
    sturmian_word,
    trace_map_invariant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
