"""Operational-calculus toolkit for dilatation and shift-kernel equations.

The package solves integral equations whose kernels act by rescaling or
shifting the argument of the unknown, by interpreting each kernel as a
function of the scale-invariant derivative x d/dx and inverting it with
fractional-power quadrature formulas.  Every solver is paired with an
independent residual check that feeds the solution back through the
defining integral.
"""

from .errors import (
    ConvergenceError,
    DecayWarning,
    DivergenceError,
    PrecisionWarning,
    QuadratureDomainError,
    SeriesOverflowError,
    SpectralDomainError,
    TruncationWarning,
)
from .fracops import (
    CoordinateMap,
    generalized_half,
    half_sqrt_xd,
    log_map,
    reflected_radial_map,
    weyl_half_radial,
    xd_negpow,
)
from .opeval import (
    ExponentialProfile,
    MultiplierIntegral,
    eval_F,
    eval_F_quadrature,
    eval_F_series,
    eval_G,
    eval_I,
    eval_I_quadrature,
)
from .quadrature import (
    DEFAULT_TOL,
    QuadratureResult,
    integrate_finite,
    integrate_semi_infinite,
)
from .series import (
    PowerSeries,
    SpectralMultiplier,
    apply_multiplier,
    derivative,
    evaluate,
    from_coefficient_rule,
)
from .solvers import (
    EquationSpec,
    Family,
    SolutionFn,
    solve,
    solve_gaussian_dilation,
    solve_generalized_shift,
    solve_laplace_dilation,
    solve_moebius,
    solve_radial,
)
from .specfun import bessel_wright, stirling2, stirling2_frac
from .verify import (
    ConjectureReport,
    KernelComparison,
    ResidualReport,
    conjecture_check,
    radial_kernel_discrepancy,
    residual,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DecayWarning",
    "DivergenceError",
    "PrecisionWarning",
    "QuadratureDomainError",
    "SeriesOverflowError",
    "SpectralDomainError",
    "TruncationWarning",
    "CoordinateMap",
    "generalized_half",
    "half_sqrt_xd",
    "log_map",
    "reflected_radial_map",
    "weyl_half_radial",
    "xd_negpow",
    "ExponentialProfile",
    "MultiplierIntegral",
    "eval_F",
    "eval_F_quadrature",
    "eval_F_series",
    "eval_G",
    "eval_I",
    "eval_I_quadrature",
    "DEFAULT_TOL",
    "QuadratureResult",
    "integrate_finite",
    "integrate_semi_infinite",
    "PowerSeries",
    "SpectralMultiplier",
    "apply_multiplier",
    "derivative",
    "evaluate",
    "from_coefficient_rule",
    "EquationSpec",
    "Family",
    "SolutionFn",
    "solve",
    "solve_gaussian_dilation",
    "solve_generalized_shift",
    "solve_laplace_dilation",
    "solve_moebius",
    "solve_radial",
    "bessel_wright",
    "stirling2",
    "stirling2_frac",
    "ConjectureReport",
    "KernelComparison",
    "ResidualReport",
    "conjecture_check",
    "radial_kernel_discrepancy",
    "residual",
    "__version__",
]
