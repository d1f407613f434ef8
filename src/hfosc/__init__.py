"""Periodic solutions of linear systems with rapidly oscillating
coefficients whose averaged stationary matrix has a multiple zero
eigenvalue: asymptotic expansion, growth bounds, series-based stability
classification, and an independent period-map reference solver."""

from .errors import (
    BoundaryUndecidable,
    ConjugacyError,
    DegenerateError,
    HfoscError,
    NoKernelError,
    NonFiniteError,
    NonUniqueError,
    NotRealError,
    SchemaError,
    StepFailure,
)
from .model import (
    ProblemSpec,
    TrigPoly,
    load_problem,
    parse_problem,
    serialize_problem,
)
from .spectral import KernelData, averaged_matrix, compute_kernel_data
from .expansion import AsymptoticExpansion, ExpansionLevel, expand, ode_residual, partial_sum
from .bounds import BoundsReport, ConvergenceConstants, check_growth, constants, normalize
from .averaging import (
    Series,
    StabilityVerdict,
    analyze_stability,
    char_poly_series,
    classify,
    formal_average,
    hurwitz_series,
)
from .oracle import (
    FloquetVerdict,
    PeriodicOracleSolution,
    SlopeReport,
    error_slope,
    floquet_verdict,
    monodromy,
    periodic_solution,
)

__all__ = [
    "AsymptoticExpansion",
    "BoundsReport",
    "ConvergenceConstants",
    "ExpansionLevel",
    "FloquetVerdict",
    "PeriodicOracleSolution",
    "Series",
    "SlopeReport",
    "StabilityVerdict",
    "analyze_stability",
    "char_poly_series",
    "check_growth",
    "classify",
    "constants",
    "error_slope",
    "expand",
    "floquet_verdict",
    "formal_average",
    "hurwitz_series",
    "monodromy",
    "normalize",
    "ode_residual",
    "partial_sum",
    "periodic_solution",
    "BoundaryUndecidable",
    "ConjugacyError",
    "DegenerateError",
    "HfoscError",
    "KernelData",
    "NoKernelError",
    "NonFiniteError",
    "NonUniqueError",
    "NotRealError",
    "ProblemSpec",
    "SchemaError",
    "StepFailure",
    "TrigPoly",
    "averaged_matrix",
    "compute_kernel_data",
    "load_problem",
    "parse_problem",
    "serialize_problem",
]

__version__ = "0.1.0"
