"""Independent validation by substitution.

Every solver in this package is checked the same way: put the candidate u
back under the family's integral sign, evaluate that left-hand side by
adaptive quadrature at a tolerance one decade below the residual of interest,
and compare with the data f on a grid.  The harness integrates the defining
equation directly (integrand and range from solvers.FAMILIES), sharing only
the shift fracops._shifted with the solvers, never the half-power formula.

Also here: the fractional Stirling-coefficient check (truncations of
sum_k S(nu, k) x^k f^(k)(x) against the diagonal value sum_n n^nu a_n x^n)
and the side-by-side comparison of the two radial kernel readings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
import numpy.polynomial.polynomial as npp

from . import series as series_mod
from .errors import (
    ConvergenceError,
    DivergenceError,
    QuadratureDomainError,
)
from .fracops import weyl_half_radial_batch
from .quadrature import elementwise, integrate_decaying_batch, integrate_finite_batch
from .series import PowerSeries
from .solvers import FAMILIES, EquationSpec, Family, SolutionFn
from .specfun import STIRLING_FRAC_MAX_K, stirling2_frac

_TINY = 1e-300
_QUAD_ERRORS = (QuadratureDomainError, DivergenceError, ConvergenceError)

DEFAULT_QUAD_TOL = 1e-8


@dataclass(frozen=True)
class ResidualReport:
    """Per-point comparison of the quadrature LHS with the data f.

    ``residuals`` holds |lhs - rhs| with NaN at points whose quadrature
    failed; failed points are excluded from the maxima and counted in
    ``quad_failures``.
    """

    grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residuals: np.ndarray
    max_abs: float
    max_rel: float
    quad_failures: int
    label: str = ""

    def summary(self) -> str:
        tag = f" [{self.label}]" if self.label else ""
        return (
            f"residual check{tag}: {len(self.grid)} points, "
            f"max abs {self.max_abs:.3g}, max rel {self.max_rel:.3g}, "
            f"quad failures {self.quad_failures}"
        )

    def to_csv(self, stream, header_lines: Sequence[str] = ()) -> None:
        """Write '#'-commented header lines, a column row, then the data."""
        for line in header_lines:
            stream.write(f"# {line}\n")
        if self.label:
            stream.write(f"# residual report: {self.label}\n")
        stream.write("x,lhs,rhs,abs_residual\n")
        for x, l, r, d in zip(self.grid, self.lhs, self.rhs, self.residuals):
            stream.write(
                f"{x:.17g},{l:.17g},{r:.17g},{d:.17g}\n"
            )


class ConjectureReport(NamedTuple):
    nu: float
    x: float
    K_values: list[int]
    partial_sums: list[float]
    target: float
    abs_errors: list[float]
    constant_term_excluded: bool


class KernelComparison(NamedTuple):
    """Residual reports for the two readings of the radial solution kernel."""

    transported: ResidualReport
    plain: ResidualReport


def _evaluator(u) -> Callable[[np.ndarray], np.ndarray]:
    """u on an array of any shape: a SolutionFn through ``eval_batch`` on the
    raveled argument, a plain callable one point at a time."""
    batch = getattr(u, "eval_batch", None)
    if batch is None:
        return elementwise(u)

    def ev(args: np.ndarray) -> np.ndarray:
        flat = batch(np.ravel(np.asarray(args, dtype=float)))
        return np.asarray(flat, dtype=float).reshape(np.shape(args))
    return ev


def _lhs_pass(spec: EquationSpec, u, xs: np.ndarray, tol: float):
    """One adaptive pass computing the family LHS at every grid point."""
    fam = FAMILIES[spec.family]
    integrand = fam.integrand(spec, _evaluator(u))
    if fam.upper is None:
        return integrate_decaying_batch(integrand, xs, tol=tol)
    return integrate_finite_batch(integrand, xs, 0.0, getattr(spec, fam.upper),
                                  tol=tol)


def _lhs_values(spec, u, xs, tol):
    try:
        res = _lhs_pass(spec, u, xs, tol)
        return np.asarray(res.values, dtype=float), np.asarray(res.errors,
                                                               dtype=float)
    except _QUAD_ERRORS:
        if len(xs) == 1:  # a retry would repeat the failed pass exactly
            return np.array([math.nan]), np.array([math.inf])
    # One grid point poisoned the shared pass; redo pointwise so the failure
    # stays local.
    parts = [_lhs_values(spec, u, xs[i:i + 1], tol)
             for i in range(len(xs))]
    return (np.concatenate([v for v, _ in parts]),
            np.concatenate([e for _, e in parts]))


def residual(spec: EquationSpec, u, grid: Sequence[float],
             quad_tol: float = DEFAULT_QUAD_TOL) -> ResidualReport:
    """Substitute u into the family equation and report |LHS - f| per point.

    The LHS quadrature runs at quad_tol/10 so its own error stays an order
    below the residuals being judged; a point whose quadrature error exceeds
    quad_tol (or whose evaluation fails) counts as a quadrature failure.
    """
    xs = np.asarray(list(grid), dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("grid must be a non-empty 1-d sequence")
    rhs = np.array([spec.rhs(float(x)) for x in xs])
    lhs, errs = _lhs_values(spec, u, xs, quad_tol / 10.0)

    failed = ~np.isfinite(lhs) | (errs > quad_tol)
    resid = np.abs(lhs - rhs)
    resid[failed] = math.nan
    ok = ~failed
    if ok.any():
        max_abs = float(np.max(resid[ok]))
        max_rel = float(np.max(resid[ok] / np.maximum(np.abs(rhs[ok]), _TINY)))
    else:
        max_abs = math.nan
        max_rel = math.nan
    return ResidualReport(xs, lhs, rhs, resid, max_abs, max_rel,
                          int(failed.sum()), label=spec.family.value)


def conjecture_check(nu: float, f: PowerSeries, x: float,
                     K: int) -> ConjectureReport:
    """Truncations of the fractional-coefficient sum against the diagonal value.

    Partial sums S_K = sum_{k<=K} S(nu, k) x^k f^(k)(x) are compared with
    sum_{n>=1} n^nu a_n x^n.  The n = 0 term is excluded on both sides: x^k
    d^k annihilates constants and 0^nu = 0; a nonzero a_0 is only flagged.
    K is capped at the coefficient cancellation horizon.
    """
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    if not x > 0.0:
        raise ValueError("x must be positive")
    if not 0 <= K <= STIRLING_FRAC_MAX_K:
        raise ValueError(
            f"K must lie in [0, {STIRLING_FRAC_MAX_K}] "
            "(coefficient cancellation horizon)"
        )
    target = math.fsum(
        (n ** nu) * a * x ** n for n, a in enumerate(f.coeffs) if n >= 1 and a
    )
    flagged = bool(f.coeffs[0] != 0.0)

    k_values = list(range(K + 1))
    terms = []
    for k in k_values:
        der = series_mod.derivative(f, k)
        fk = float(npp.polyval(x, der.coeffs))
        terms.append(stirling2_frac(nu, k) * (x ** k) * fk)
    partials = []
    acc = 0.0
    for t in terms:
        acc = math.fsum([acc, t])
        partials.append(acc)
    abs_errors = [abs(p - target) for p in partials]
    return ConjectureReport(nu, x, k_values, partials, target, abs_errors,
                            flagged)


def _plain_radial(f_prime, xs: np.ndarray, tol: float):
    """The printed closed form of the radial solution at every x in ``xs``:
    -(2 sqrt(2)/pi) int_0^inf f'(x^2 + u^2)/sqrt(x^2 + u^2) du."""
    pref = -2.0 * math.sqrt(2.0) / math.pi

    def integrand(us, x2):
        args = x2[None, :] + (us * us)[:, None]
        return pref * np.asarray(f_prime(args), dtype=float) / np.sqrt(args)
    return integrate_decaying_batch(integrand, np.square(xs), tol=tol)


def radial_kernel_discrepancy(f, f_prime,
                              grid: Sequence[float]) -> KernelComparison:
    """Residuals of both radial kernel readings against the same equation.

    The transported kernel (fracops.weyl_half_radial_batch) differentiates
    the profile in w = x^2/2; the plain reading, the printed closed form,
    applies f' to the squared argument.  Both candidates are computed at
    tol 1e-10 and substituted into the radial equation at the default
    quad_tol; the plain one fails by an O(1) margin at x = 0 for the exact
    Gaussian pair.
    """
    tol = 1e-10
    spec = EquationSpec(Family.RADIAL, f=f, f_prime=f_prime)
    reports = []
    for kind, batch in (
            ("transported", lambda xs: weyl_half_radial_batch(f, f_prime, xs, tol)),
            ("plain", lambda xs: _plain_radial(f_prime, xs, tol))):
        u = SolutionFn(None, f"radial half kernel ({kind})", None, tol,
                       Family.RADIAL, lambda xs, _batch=batch: _batch(xs).values)
        reports.append(replace(residual(spec, u, grid),
                               label=f"radial/{kind}"))
    return KernelComparison(*reports)
