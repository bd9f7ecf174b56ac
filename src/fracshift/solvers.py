"""One solver per dilation/shift-kernel integral-equation family.

The five families, written with unknown u under the integral and data f:

  gaussian dilation   int_0^inf u(x e^{-y^2}) dy           = f(x)
  laplace dilation    int_0^inf e^{-y} u(x y^mu) dy        = f(x),  mu > 0
  radial              int_0^inf u(sqrt(x^2 + 2 y^2)) dy    = f(x)
  generalized shift   int_0^inf u(F_inv(F(x) - y^2)) dy    = f(x)
  moebius             int_0^a  u(x / (1 + x y)) dy         = f(x),  a > 0

Each kernel is the exponential of a first-order generator acting on u, so the
equation inverts spectrally: the shift families via the half power of the
generator ((2/sqrt(pi)) sqrt(G) f), the laplace family via the inverse-gamma
coefficient map b_n = a_n / Gamma(mu n + 1), and the moebius family via the
geometric expansion of (1 - exp(-a x^2 d/dx))^{-1} applied to x^2 f'.
The shift families are gaussian (the generalized shift on the log map),
radial (on the reflected radial map) and genshift; their solvers share one
handle, ``_half_power``.  The radial and genshift residuals take the
kernel's own shift; gaussian keeps u(x e^{-y^2}), which rounds better.

Each family is one FamilyDef entry of FAMILIES, so adding a family means
adding one entry.  Solvers return SolutionFn handles; nothing is precomputed
on a grid.  A handle's scalar call is derived from its ``eval_batch``, except
for laplace, whose compensated series evaluation keeps its diagnostics.
Solvers probe the callables they read at x in {0.5, 1.5} and wrap one that
does not map arrays to arrays; the scalar entry points of quadrature and
fracops, and verify.residual given a plain callable, call it one point at a
time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import numpy.polynomial.polynomial as npp

from . import fracops
from .errors import ConvergenceError
from .fracops import CoordinateMap
from .quadrature import DEFAULT_TOL, vectorized
from .series import PowerSeries, SpectralMultiplier, apply_multiplier, evaluate
from .specfun import recip_gamma

_EXP_UNDERFLOW = 745.0  # exp(-y) is subnormal-or-zero beyond this


class Family(enum.Enum):
    GAUSSIAN_DILATION = "gaussian"
    LAPLACE_DILATION = "laplace"
    RADIAL = "radial"
    GENERALIZED_SHIFT = "genshift"
    MOEBIUS = "moebius"


class FamilyDef(NamedTuple):
    """Everything the package knows about one equation family."""

    requires: tuple[str, ...]  # EquationSpec fields that must be set
    solve: Callable[[EquationSpec, float], SolutionFn]  # (spec, tol) -> u
    # (spec, ev) -> (y, xs) -> LHS terms of shape (len(y), len(xs)), where
    # ev(args) evaluates the candidate u on an array of any shape
    integrand: Callable[[EquationSpec, Callable], Callable]
    bound: float  # residual acceptance bound of `fracshift verify`
    grid: str  # default grid of `fracshift verify`
    positive: tuple[str, ...]  # required fields that must be > 0
    vanishes_at_zero: Callable[[EquationSpec], bool]  # f(0) = 0 is required
    upper: str | None  # field a of the range (0, a); None: (0, inf)


def _laplace_integrand(spec, ev):
    def integrand(ys, xs):
        out = np.zeros((len(ys), len(xs)))
        ok = ys < _EXP_UNDERFLOW
        if ok.any():
            yy = ys[ok]
            out[ok] = np.exp(-yy)[:, None] * ev(np.outer(yy ** spec.mu, xs))
        return out
    return integrand


def _always(spec) -> bool:
    return True


def _never(spec) -> bool:
    return False


def _map_descends_at_zero(spec) -> bool:
    """Whether the map's F is -inf at its lower domain end 0 (the log map):
    the descending kernel integrates f' towards that end, so it annihilates
    f(0), and f(0) = 0 is required.  Where F(0) is finite (reflected radial
    map) the kernel descends towards the other end."""
    cmap = spec.cmap
    if cmap.domain[0] != 0.0:
        return False
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(cmap.F(0.0)) == -np.inf
    except (ArithmeticError, ValueError):  # a scalar F undefined at 0
        return False


def _shift_integrand(cmap: CoordinateMap, ev):
    """LHS terms u(F_inv(F(x) - y^2)) on ``cmap``: the kernel's own shift,
    0 where the argument has left the map's range."""
    def integrand(ys, xs):
        with np.errstate(divide="ignore"):  # F(lo) = -inf at x = lo
            ws = np.asarray(cmap.F(xs), dtype=float)
        return fracops._shifted(cmap, ev, ws, ys * ys)
    return integrand


# The solvers take an admitted EquationSpec; the public solve_* build one.
FAMILIES: dict[Family, FamilyDef] = {
    Family.GAUSSIAN_DILATION: FamilyDef(
        ("f", "f_prime"),
        lambda spec, tol: _half_power(spec, "half power of the scale derivative",
                                      "gaussian dilation kernel",
                                      fracops._LOG_MAP, tol),
        lambda spec, ev: lambda ys, xs: ev(np.outer(np.exp(-ys * ys), xs)),
        1e-6, "geom:0.1:5:25", positive=(), vanishes_at_zero=_always,
        upper=None,
    ),
    Family.LAPLACE_DILATION: FamilyDef(
        ("f_series", "mu"),
        lambda spec, tol: _solve_laplace(spec),
        _laplace_integrand,
        1e-7, "geom:0.1:3:15", positive=("mu",), vanishes_at_zero=_never,
        upper=None,
    ),
    Family.RADIAL: FamilyDef(
        ("f", "f_prime"),
        lambda spec, tol: _solve_radial(spec, tol),
        lambda spec, ev: _shift_integrand(fracops._REFLECTED_RADIAL_MAP, ev),
        1e-6, "0:3:13", positive=(), vanishes_at_zero=_never, upper=None,
    ),
    Family.GENERALIZED_SHIFT: FamilyDef(
        ("f", "f_prime", "cmap"),
        lambda spec, tol: _half_power(
            spec, f"half power transported by '{spec.cmap.name}' map",
            "transported half kernel", spec.cmap, tol),
        lambda spec, ev: _shift_integrand(spec.cmap, ev),
        1e-6, "geom:0.1:5:25", positive=(),
        vanishes_at_zero=_map_descends_at_zero, upper=None,
    ),
    Family.MOEBIUS: FamilyDef(
        ("f", "f_prime", "a"),
        lambda spec, tol: _solve_moebius(spec, tol),
        lambda spec, ev: lambda ys, xs: ev(
            xs[None, :] / (1.0 + np.outer(ys, xs))),
        1e-5, "geom:0.1:3:15", positive=("a",), vanishes_at_zero=_always,
        upper="a",
    ),
}


@dataclass(frozen=True)
class EquationSpec:
    """One equation instance: a family tag, its data f, and parameters.

    Construction checks the fields FAMILIES[family] requires and their
    values (f(0) = 0 is probed as |f(e^-700)| < 1e-6).  This is the only
    admission check: the public solve_* build a spec too.
    """

    family: Family
    f: Callable | None = None
    f_prime: Callable | None = None
    f_series: PowerSeries | None = None
    mu: float | None = None
    a: float | None = None
    cmap: CoordinateMap | None = None

    def __post_init__(self):
        fam = FAMILIES[self.family]
        name = self.family.value
        missing = [key for key in fam.requires if getattr(self, key) is None]
        if missing:
            raise ValueError(f"{name} family needs {' and '.join(missing)}")
        for key in fam.positive:
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{name} family needs {key} > 0")
        if fam.vanishes_at_zero(self) and \
                not fracops.value_near_zero(self.f, 1.0) < 1e-6:
            raise ValueError(
                "f(0) must vanish: the generator annihilates constants, so a "
                "constant component of f is unreachable"
            )

    def rhs(self, x: float) -> float:
        if self.f is not None:
            return float(self.f(x))
        return evaluate(self.f_series, x).value


@dataclass(frozen=True)
class SolutionFn:
    """Evaluable solution with method metadata.

    ``eval_batch`` maps a 1-d argument array to values in one adaptive pass;
    the residual harness and the CLI use it.  ``eval`` is the scalar entry
    behind ``__call__``; passed as None it is derived from ``eval_batch``.
    ``series`` is set for the spectral (laplace) family.
    """

    eval: Callable[[float], float] | None
    method: str
    truncation: int | None
    error_estimate: float
    family: Family
    eval_batch: Callable[[np.ndarray], np.ndarray]
    series: PowerSeries | None = None

    def __post_init__(self):
        if self.eval is None:
            batch = self.eval_batch
            object.__setattr__(
                self, "eval",
                lambda x: float(batch(np.array([float(x)]))[0]))

    def __call__(self, x: float) -> float:
        return self.eval(x)


def _half_power(spec: EquationSpec, method: str, what: str,
                cmap: CoordinateMap, tol: float) -> SolutionFn:
    """Handle whose eval_batch is one pass of the half-power kernel on
    ``cmap`` over all arguments, refused unless converged; it reads f' only."""
    fp = vectorized(spec.f_prime)

    def eval_batch(xs: np.ndarray) -> np.ndarray:
        res = fracops.generalized_half_batch(cmap, fp, xs, tol)
        return res.converged_values(what)

    return SolutionFn(None, method, None, tol, spec.family, eval_batch)


def solve_gaussian_dilation(f, f_prime, tol: float = DEFAULT_TOL) -> SolutionFn:
    """u = (2/sqrt(pi)) sqrt(x d/dx) f, computed from the caller's f'."""
    return solve(EquationSpec(Family.GAUSSIAN_DILATION, f=f, f_prime=f_prime),
                 tol)


def solve_laplace_dilation(f_series: PowerSeries, mu: float) -> SolutionFn:
    """Coefficient map a_n -> a_n / Gamma(mu n + 1), evaluated as a series.

    mu = 1 turns exp(-x) into the J0(2 sqrt(x)) series; integer mu = m gives
    the order-0 Bessel-Wright series with gamma step m.
    """
    return solve(EquationSpec(Family.LAPLACE_DILATION, f_series=f_series,
                              mu=mu))


def _solve_laplace(spec: EquationSpec) -> SolutionFn:
    mu = spec.mu
    inv_gamma = SpectralMultiplier(
        lambda n: recip_gamma(mu * n + 1.0), 0.0,
        f"inv-gamma(step={mu:g})",
    )
    u_series = apply_multiplier(inv_gamma, spec.f_series)
    coeffs = u_series.coeffs

    def eval_batch(xs: np.ndarray) -> np.ndarray:
        return np.asarray(npp.polyval(np.asarray(xs, dtype=float), coeffs),
                          dtype=float)

    def eval_one(x: float) -> float:
        return evaluate(u_series, x).value

    return SolutionFn(eval_one, "inverse-gamma spectral coefficient map",
                      u_series.order, abs(float(coeffs[-1])),
                      Family.LAPLACE_DILATION, eval_batch, u_series)


def solve_radial(f, f_prime, tol: float = DEFAULT_TOL) -> SolutionFn:
    """u = -(2/sqrt(pi)) sqrt(-(1/x) d/dx) f via the ascending half kernel.

    The decay probe of ``weyl_half_radial_batch`` runs once, at solve time;
    the handle applies the half-power kernel on the reflected radial map."""
    return solve(EquationSpec(Family.RADIAL, f=f, f_prime=f_prime), tol)


def _solve_radial(spec: EquationSpec, tol: float) -> SolutionFn:
    fracops._probe_decay(vectorized(spec.f), tol)
    return _half_power(spec, "ascending half power in w = x^2/2",
                       "radial half kernel", fracops._REFLECTED_RADIAL_MAP, tol)


def solve_generalized_shift(cmap: CoordinateMap, f, f_prime,
                            tol: float = DEFAULT_TOL) -> SolutionFn:
    """u = (2/sqrt(pi)) sqrt(q(x) d/dx) f in the transported coordinate."""
    return solve(EquationSpec(Family.GENERALIZED_SHIFT, f=f, f_prime=f_prime,
                              cmap=cmap), tol)


# -- moebius family ----------------------------------------------------------

_K_START = 64
_K_CAP = 100_000


class _ShiftTerms:
    """Terms h(x_k) = x_k^2 f'(x_k), x_k = x/(1 + k a x), k = 0, 1, ..., of
    the moebius shift series at the arguments ``xs`` > 0.  Each term is
    computed once: a larger cutoff evaluates f' on the new rows only."""

    def __init__(self, f, f_prime, a: float, xs: np.ndarray):
        self.f, self.f_prime, self.a = f, f_prime, a
        self.xs = np.asarray(xs, dtype=float)
        self.live = self.xs > 0.0
        self.xl = self.xs[self.live]
        self.h = np.empty((0, len(self.xl)))

    def _args(self, k0: int, k1: int) -> np.ndarray:
        """Rows x_k, k0 <= k < k1."""
        ks = np.arange(k0, k1, dtype=float)
        return self.xl[None, :] / (1.0 + self.a * np.outer(ks, self.xl))

    def partial_sum(self, K: int) -> np.ndarray:
        """u_K at ``xs``, 0 where x = 0 (see moebius_partial_sum)."""
        out = np.zeros_like(self.xs)
        if not self.live.any():
            return out
        if len(self.h) < K + 3:
            xk = self._args(len(self.h), K + 3)
            self.h = np.concatenate(
                [self.h, xk * xk * np.asarray(self.f_prime(xk), dtype=float)])
        h = self.h
        tail = np.asarray(self.f(self._args(K + 1, K + 2)[0]), dtype=float) \
            / self.a + 0.5 * h[K + 1] - (h[K + 2] - h[K]) / 24.0
        out[self.live] = h[: K + 1].sum(axis=0) + tail
        return out


def moebius_partial_sum(f, f_prime, a: float, xs: np.ndarray,
                        K: int) -> np.ndarray:
    """Shift-series value truncated at k = K, with the integral tail folded in
    (f and f_prime must map arrays to arrays).

    u_K(x) = sum_{k=0}^{K} h(x_k) + T(K), h(t) = t^2 f'(t),
    x_k = x/(1 + k a x).  The tail T is the Euler-Maclaurin closure of the
    remainder: its integral part telescopes exactly to f(x_{K+1})/a, and the
    first correction terms use a central difference for h'.  The leftover is
    O(K^-5), so doubling K is a sharp convergence check.  ``solve_moebius``
    doubles K on one ``_ShiftTerms``, so the rows k <= K+2 of one partial
    sum serve the next, with values equal to this function's bit for bit.
    """
    return _ShiftTerms(f, f_prime, a, xs).partial_sum(K)


def solve_moebius(f, f_prime, a: float, tol: float = DEFAULT_TOL) -> SolutionFn:
    return solve(EquationSpec(Family.MOEBIUS, f=f, f_prime=f_prime, a=a), tol)


def _solve_moebius(spec: EquationSpec, tol: float) -> SolutionFn:
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a = spec.a
    fv = vectorized(spec.f)
    fp = vectorized(spec.f_prime)

    def converge(xs: np.ndarray):
        terms = _ShiftTerms(fv, fp, a, xs)
        K = _K_START
        prev = terms.partial_sum(K)
        while True:
            K2 = 2 * K
            cur = terms.partial_sum(K2)
            diff = float(np.max(np.abs(cur - prev), initial=0.0))
            if diff <= tol:
                return cur, K, diff
            if K2 >= _K_CAP:
                raise ConvergenceError(
                    f"shift-series cap K={K2} reached with doubling "
                    f"difference {diff:.3g} > {tol:g}"
                )
            K, prev = K2, cur

    def eval_batch(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if (xs < 0.0).any():
            raise ValueError("arguments must be >= 0")
        return converge(xs)[0]

    _, k_probe, diff_probe = converge(np.array([1.0]))
    return SolutionFn(None, "geometric shift series, tail closed by "
                      "Euler-Maclaurin", k_probe, diff_probe, Family.MOEBIUS,
                      eval_batch)


def solve(spec: EquationSpec, tol: float = DEFAULT_TOL) -> SolutionFn:
    """Dispatch to the family solver for an EquationSpec."""
    return FAMILIES[spec.family].solve(spec, tol)
