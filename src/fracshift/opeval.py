"""Operator-method evaluation of parameter-dependent integrals.

Three constructions, all instances of the same trick: push the integration
variable through a diagonal action of the scale derivative and leave behind a
closed-form moment in the spectral index.

* F(x, nu) = int_0^inf sin(x (1+t^2)^(-nu)) dt.  Expanding the sine puts
  (1+t^2)^(-mu) moments at mu = (2n+1) nu, each worth
  (sqrt(pi)/2) Gamma(mu - 1/2) / Gamma(mu), so

      F = (sqrt(pi)/2) sum_n (-1)^n x^(2n+1)/(2n+1)! * G((2n+1)nu - 1/2)/G((2n+1)nu).

  The series is primary for |x| <= 10; an adaptive quadrature of the defining
  integral (split at the sign changes of the sine) is the independent path.
  Both require nu > 1/2: at nu = 1/2 the integrand decays like 1/t and the
  integral diverges (the n = 0 moment hits the Gamma pole).

* G(x) = sum_n a_n O(n) x^n for a caller-supplied moment function
  O(mu) = int_0^inf g(t)^mu dt: a spectral multiplier applied to the series
  of f.

* I(x) = int_0^inf f(sqrt(x^2 - 2 g(t))) dt for profiles exponential in
  w = x^2/2: each term c e^(-beta w) is an eigenfunction of d/dw, so the
  shift by -g(t) integrates to the closed-form factor Q(-beta) with
  Q(mu) = int_0^inf e^(mu g(t)) dt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import quadrature
from .errors import (
    ConvergenceError,
    DivergenceError,
    PrecisionWarning,
    SeriesOverflowError,
)
from .quadrature import QuadratureResult, elementwise, integrate_semi_infinite
from .series import (
    CANCELLATION_GATE,
    PowerSeries,
    SpectralMultiplier,
    apply_multiplier,
    evaluate,
)
from .specfun import log_gamma

_SQRT_PI_HALF = math.sqrt(math.pi) / 2.0
_F_TERM_CAP = 400
_SERIES_X_LIMIT = 10.0
_TINY = 1e-300
_PROBE_OFFSETS = (0.25, 1.0, 2.5)  # probe exponents above the floor
_PROBE_TOL = 1e-9


@dataclass(frozen=True)
class MultiplierIntegral:
    """Moment function O(mu) = int_0^inf g(t)^mu dt with its admissible floor.

    When ``g_direct`` is supplied, construction cross-checks O against direct
    quadrature at three probe exponents above the floor (1e-7 agreement) and
    refuses the instance otherwise (ConvergenceError if a probe does not
    converge).  The three probes are the columns of one batch pass, so
    ``g_direct`` is called once per node, not once per node and exponent.
    """

    O: Callable[[float], float]
    domain_floor: float
    g_direct: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.g_direct is None:
            return
        mus = [self.domain_floor + d for d in _PROBE_OFFSETS]
        g = elementwise(self.g_direct)
        oracle = quadrature.integrate_semi_infinite_batch(
            lambda ts, mu: g(ts)[:, None] ** mu, np.array(mus), 0.0, _PROBE_TOL)
        if not oracle.converged:
            i = int(np.argmax(oracle.errors > _PROBE_TOL))
            raise ConvergenceError(f"moment probe at mu={mus[i]} did not converge "
                                   f"(error estimate {oracle.errors[i]:.3g})")
        for mu, value in zip(mus, oracle.values.tolist()):
            claimed = float(self.O(mu))
            if abs(claimed - value) > 1e-7:
                raise ValueError(
                    f"moment function disagrees with quadrature at mu={mu}: "
                    f"{claimed!r} vs {value!r}"
                )


@dataclass(frozen=True)
class ExponentialProfile:
    """f as a function of w = x^2/2: sum of c_j * exp(-beta_j w), beta_j > 0."""

    terms: tuple[tuple[float, float], ...]

    def __init__(self, terms: Sequence[tuple[float, float]]):
        clean = tuple((float(c), float(b)) for c, b in terms)
        for _, b in clean:
            if not b > 0.0:
                raise ValueError(f"profile rates must be positive, got {b}")
        object.__setattr__(self, "terms", clean)

    def value_at_w(self, w: float) -> float:
        return math.fsum(c * math.exp(-b * w) for c, b in self.terms)


class FSeriesResult(NamedTuple):
    value: float
    terms_used: int
    cancellation_index: float


def _check_nu(nu: float) -> None:
    if nu < 0.5:
        raise ValueError(f"nu must be >= 1/2, got {nu}")
    if nu == 0.5:
        raise DivergenceError(
            "at nu = 1/2 the integrand decays like 1/t and the integral "
            "diverges (first series moment hits the Gamma pole)"
        )


def eval_F_series(x: float, nu: float, tol: float = 1e-14) -> FSeriesResult:
    """Alternating-series value of F(x, nu); odd in x by construction.

    Terms are formed in the log domain, so large x degrades through
    cancellation (reported) rather than overflow; a term whose magnitude
    exceeds the floating range raises before producing garbage.
    """
    _check_nu(nu)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if x == 0.0:
        return FSeriesResult(0.0, 0, 0.0)
    ln_ax = math.log(abs(x))
    sign_x = 1.0 if x > 0.0 else -1.0
    total = 0.0
    abs_sum = 0.0
    small_streak = 0
    terms_used = 0
    for n in range(_F_TERM_CAP):
        m = (2 * n + 1) * nu
        ln_mag = (2 * n + 1) * ln_ax + log_gamma(m - 0.5) - log_gamma(m) \
            - log_gamma(2 * n + 2.0)
        if ln_mag > 700.0:
            raise SeriesOverflowError(n)
        term = (-1.0) ** n * sign_x * math.exp(ln_mag)
        total += term
        abs_sum += abs(term)
        terms_used = n + 1
        if abs(term) <= tol * abs(total):
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    else:
        raise ConvergenceError(
            f"sine-moment series not settled after {_F_TERM_CAP} terms"
        )
    value = _SQRT_PI_HALF * total
    index = (_SQRT_PI_HALF * abs_sum) / max(abs(value), _TINY)
    if index > CANCELLATION_GATE:
        warnings.warn(
            f"series for F({x!r}, {nu!r}) lost ~{math.log10(index):.0f} digits "
            "to cancellation; prefer the quadrature path",
            PrecisionWarning, stacklevel=2,
        )
    return FSeriesResult(value, terms_used, index)


def eval_F_quadrature(x: float, nu: float,
                      tol: float = 1e-10) -> QuadratureResult:
    """Direct adaptive value of int_0^inf sin(x (1+t^2)^(-nu)) dt.

    The sine argument decreases monotonically from x to 0, so its zero
    crossings kpi < x sit at t = sqrt((x/(kpi))^(1/nu) - 1); the segments
    between them take tol/(2n) each, the one-signed remainder beyond the last
    one mapped pass at tol/2, and the sum has converged when every part has.
    """
    _check_nu(nu)
    if x == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    ax = abs(x)
    sign_x = 1.0 if x > 0.0 else -1.0

    def integrand(t: float) -> float:
        return math.sin(ax * (1.0 + t * t) ** (-nu))

    pts = []
    k = 1
    while k * math.pi < ax:
        r = (ax / (k * math.pi)) ** (1.0 / nu) - 1.0
        if r > 0.0:
            pts.append(math.sqrt(r))
        k += 1
    pts.sort()
    parts = []
    evals = 0
    for lo, hi in zip([0.0] + pts, pts):
        parts.append(quadrature.integrate_finite(
            integrand, lo, hi, tol / (2.0 * len(pts)),
            quadrature.DEFAULT_BUDGET - evals))
        evals += parts[-1].evaluations
    parts.append(integrate_semi_infinite(integrand, pts[-1] if pts else 0.0,
                                         tol / 2.0 if pts else tol,
                                         quadrature.DEFAULT_BUDGET - evals))
    evals += parts[-1].evaluations
    return QuadratureResult(sign_x * sum(p.value for p in parts),
                            sum(p.abs_error_estimate for p in parts), evals,
                            all(p.converged for p in parts))


def eval_F(x: float, nu: float, tol: float = 1e-14) -> float:
    """Series value for |x| <= 10, quadrature beyond or on precision loss;
    ConvergenceError when that quadrature does not converge."""
    if abs(x) <= _SERIES_X_LIMIT:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            res = eval_F_series(x, nu, tol)
        if res.cancellation_index <= CANCELLATION_GATE:
            return res.value
    quad = eval_F_quadrature(x, nu, max(tol, 1e-12))
    if not quad.converged:
        raise ConvergenceError(f"F({x!r}, {nu!r}): quadrature did not converge "
                               f"(error estimate {quad.abs_error_estimate:.3g})")
    return quad.value


def eval_G(mi: MultiplierIntegral, f_series: PowerSeries, x: float) -> float:
    """sum_n a_n O(n) x^n: the moment function applied as a spectral symbol."""
    mult = SpectralMultiplier(mi.O, mi.domain_floor, "moment symbol")
    return evaluate(apply_multiplier(mult, f_series), x).value


def eval_I(profile: ExponentialProfile, Q: Callable[[float], float],
           x: float) -> float:
    """Closed-form value sum_j c_j Q(-beta_j) exp(-beta_j x^2 / 2).

    Q must be finite at every spectral point -beta_j; a Q that raises or
    returns a non-finite value there is a domain error.
    """
    w = 0.5 * x * x
    total = 0.0
    for c, beta in profile.terms:
        try:
            q = float(Q(-beta))
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(
                f"shift symbol undefined at spectral point mu={-beta}"
            ) from exc
        if not math.isfinite(q):
            raise ValueError(
                f"shift symbol non-finite at spectral point mu={-beta}"
            )
        total += c * q * math.exp(-beta * w)
    return total


def eval_I_quadrature(profile: ExponentialProfile,
                      g: Callable[[float], float], x: float,
                      tol: float = 1e-10) -> QuadratureResult:
    """Oracle for eval_I: direct quadrature of int_0^inf f(sqrt(x^2 - 2 g(t))) dt."""
    w0 = 0.5 * x * x

    def integrand(t: float) -> float:
        return profile.value_at_w(w0 - float(g(t)))

    return integrate_semi_infinite(integrand, 0.0, tol)
