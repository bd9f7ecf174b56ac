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
constructor, ``_half_power``, and their residuals its pass ``fracops._weyl``,
both on the map named once in the family's entry.  Moebius is the order-1
shift on w = -1/x: its left side is that pass at nu = 1 cut at a, and its
series sum_k g(w - k a) samples it at t = k a; all read g = f' q.  The
series' tail past K is Gregory's end correction of order 8 on the rows
k = K+1 .. K+9 it already has, and K doubles from 16.

Each family is one FamilyDef entry of FAMILIES, so adding a family means
adding one entry.  Solvers return SolutionFn handles; nothing is precomputed
at solve time.  A handle's scalar call is derived from its ``eval_batch``,
except for laplace, whose compensated series evaluation keeps its
diagnostics.

The gaussian, radial, genshift and moebius handles are one kind,
``_InterpolatingBatch`` on the family's map (moebius on the log map: on
-1/x, u = x^m is |w|^-m, algebraic at s = -1, and x^1.5 does not certify by
256 intervals); laplace has its series.  Until a handle has been asked for
160 points in all, each ``eval_batch`` is one kernel pass, bit for bit.  The
call that reaches 160 builds, once, a Chebyshev interpolant of u in w = F(x)
(Boyd, Chebyshev and Fourier Spectral Methods, ch. 17): points s of the
second kind on [-1, 1], w = w_top - 2 (1 - s)/(1 + s), with w_top the
largest F(x) asked, or F at the lower end where F falls to -inf at the upper
one (0 on the reflected radial map).  It holds v = u/(1 + s), 0 at s = -1,
and answers (1 + s) v by the barycentric formula (Trefethen, Approximation
Theory and Approximation Practice).  The nodes start at 16 intervals and
double, nested, until the previous interpolant predicts the new node values
within 1e-13 of their max, so c f takes the path of f.  Moebius doubles on
v, one series pass each; the half-power families double on their data
g/(1 + s), g = (4/pi) f' q, at N + 1 data points, and u = int_0^inf
g(w - t^2) dt reads sqrt(1 + s) int_{-1}^s (g/(1 + r)) (1 + r)^(-1/2)
(s - r)^(-1/2) dr.  That integral of the fourth-kind Chebyshev polynomial
W_n is pi P_n(s) (Hale & Olver, SIAM J. Sci. Comput. 2018), so g/(1 + s) =
sum a_n W_n gives u = pi sqrt(1 + s) sum a_n P_n(s), rounded by about
eps sum |a_n| everywhere; past 1e-3 of the handle's tol, a kernel pass on
the nodes gives u instead.  The handle keeps the kernel for good when
nothing certifies by 256 intervals or the gap stops falling, when a pass on
the nodes fails, or when F is -inf at neither end of the domain; arguments
above w_top always take the kernel.

Solvers probe the callables they read at x in {0.5, 1.5} and wrap one that
does not map arrays to arrays; the scalar entry points of quadrature and
fracops, and verify.residual given a plain callable, call it one point at a
time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import numpy.polynomial.polynomial as npp
from numpy.polynomial.legendre import legval

from . import fracops
from .errors import ConvergenceError
from .fracops import CoordinateMap
from .quadrature import DEFAULT_TOL, _check_positive, vectorized
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
    # (spec, ev, xs) -> (integrand, cols), integrand(y, cols) the LHS terms
    # of shape (len(y), len(cols)); ev(args) evaluates u on any array shape
    integrand: Callable[[EquationSpec, Callable, np.ndarray], tuple]
    bound: float  # residual acceptance bound of `fracshift verify`
    grid: str  # default grid of `fracshift verify`
    positive: tuple[str, ...]  # required fields that must be finite and > 0
    # the map w = F(x) of the family's shift and handle; None for laplace
    cmap: Callable[[EquationSpec], CoordinateMap | None]
    upper: str | None  # field a of the range (0, a); None: (0, inf)


def _laplace_integrand(spec, ev, xs):
    def integrand(ys, xs):
        out = np.zeros((len(ys), len(xs)))
        ok = ys < _EXP_UNDERFLOW
        if ok.any():
            yy = ys[ok]
            out[ok] = np.exp(-yy)[:, None] * ev(np.outer(yy ** spec.mu, xs))
        return out
    return integrand, xs


def _end_values(cmap: CoordinateMap) -> tuple[float, float]:
    """F at both ends of ``cmap.domain``, NaN where F is undefined there."""
    try:
        with np.errstate(all="ignore"):
            f_lo, f_hi = np.asarray(cmap.F(np.array(cmap.domain)), dtype=float)
    except (ArithmeticError, ValueError):  # F undefined at an end
        return math.nan, math.nan
    return float(f_lo), float(f_hi)


def _map_descends_at_zero(cmap: CoordinateMap | None) -> bool:
    """Whether the map's F is -inf at its lower domain end 0 (the log map):
    the descending kernel integrates f' towards that end, so it annihilates
    f(0), and f(0) = 0 is required.  Where F(0) is finite (reflected radial
    map) the kernel descends towards the other end."""
    return cmap is not None and cmap.domain[0] == 0.0 \
        and _end_values(cmap)[0] == -math.inf


def _weyl_terms(nu: float):
    """LHS terms u(F_inv(F(x) - y^(1/nu))) on the family's map, over the
    columns F(xs): the pass ``fracops._weyl`` of order nu."""
    return lambda spec, ev, xs: fracops._weyl(
        FAMILIES[spec.family].cmap(spec), nu, ev, xs)


# The solvers take an admitted EquationSpec; the public solve_* build one.
FAMILIES: dict[Family, FamilyDef] = {
    Family.GAUSSIAN_DILATION: FamilyDef(
        ("f", "f_prime"),
        lambda spec, tol: _half_power(spec, "half power of the scale derivative",
                                      "gaussian dilation kernel", tol),
        _weyl_terms(0.5),
        1e-6, "geom:0.1:5:25", positive=(),
        cmap=lambda spec: fracops._LOG_MAP, upper=None,
    ),
    Family.LAPLACE_DILATION: FamilyDef(
        ("f_series", "mu"),
        lambda spec, tol: _solve_laplace(spec),
        _laplace_integrand,
        1e-7, "geom:0.1:3:15", positive=("mu",), cmap=lambda spec: None,
        upper=None,
    ),
    Family.RADIAL: FamilyDef(
        ("f", "f_prime"),
        lambda spec, tol: _solve_radial(spec, tol),
        _weyl_terms(0.5),
        1e-6, "0:3:13", positive=(),
        cmap=lambda spec: fracops._REFLECTED_RADIAL_MAP, upper=None,
    ),
    Family.GENERALIZED_SHIFT: FamilyDef(
        ("f", "f_prime", "cmap"),
        lambda spec, tol: _half_power(
            spec, f"half power transported by '{spec.cmap.name}' map",
            "transported half kernel", tol),
        _weyl_terms(0.5),
        1e-6, "geom:0.1:5:25", positive=(), cmap=lambda spec: spec.cmap,
        upper=None,
    ),
    Family.MOEBIUS: FamilyDef(
        ("f", "f_prime", "a"),
        lambda spec, tol: _solve_moebius(spec, tol),
        _weyl_terms(1.0),
        1e-5, "geom:0.1:3:15", positive=("a",),
        cmap=lambda spec: fracops._MOEBIUS_MAP, upper="a",
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
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"{name} family needs {key} > 0 and finite")
        if _map_descends_at_zero(fam.cmap(self)) and \
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

    The gaussian, radial, genshift and moebius handles answer from their
    kernel until they have been asked for 160 points, then from an
    interpolant whose data or series values certify to 1e-13 relative, or
    from the kernel for good where none certifies (see the module
    docstring); laplace answers from its series.

    ``error_estimate`` is not the same quantity for every family, and on
    neither path is it the error of the interpolant.  For the half-power
    families (gaussian, radial, genshift) it is the requested ``tol``, not
    the error achieved, which is usually far smaller; for moebius it is the
    doubling difference of the series at x = 1, ``truncation`` the cutoff of
    the sum returned there, and for laplace the magnitude of the last
    coefficient of the solution series.
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


# Points asked before a handle builds its interpolant: about the series work
# of a moebius build that certifies at 128 intervals, so a handle never costs
# much more than twice the kernel alone (ski rental), whatever the series'
# rows per argument, since a kernel call and a build both scale with them;
# a half-power build costs N + 1 data points, or a kernel pass on N nodes.
# _CERTIFY is the relative gap; the closed form's rounding bound
# 4 eps pi sqrt(2) sum |a_n| stays within 1e-3 tol while sum |a_n| <=
# _ROUNDING tol.
_BUILD_AFTER = 160
_N_START = 16
_N_CAP = 256
_CERTIFY = 1e-13
_ROUNDING = 1e-3 / (4.0 * np.finfo(float).eps * math.pi * math.sqrt(2.0))
_BLOCK = 2048  # arguments per barycentric product, so memory stays bounded


def _barycentric(s: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The polynomial through the values ``v`` at the Chebyshev points of the
    second kind s_j = cos(pi j / n), evaluated at ``t`` in [-1, 1] by the
    barycentric formula (weights (-1)^j, halved at both ends)."""
    wts = np.where(np.arange(len(s)) % 2, -1.0, 1.0)
    wts[[0, -1]] *= 0.5
    wv = np.stack([wts * v, wts], axis=1)
    out = np.empty(len(t))
    for i in range(0, len(t), _BLOCK):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = t[i:i + _BLOCK, None] - s
            num, den = ((1.0 / d) @ wv).T
            blk = num / den
        bad = ~np.isfinite(blk)  # an argument on a node takes its value
        blk[bad] = v[np.abs(d[bad]).argmin(axis=1)]
        out[i:i + _BLOCK] = blk
    return out


class _InterpolatingBatch:
    """``eval_batch`` of a handle: ``kernel`` (xs -> u) until the handle has
    been asked for _BUILD_AFTER points, then, where one is certified, a
    Chebyshev interpolant of u in the transported variable w = F(x) on
    ``cmap``, built from the ``data`` g where given (see the module
    docstring); its closed form takes sum |a_n| up to ``bound``."""

    def __init__(self, cmap: CoordinateMap,
                 kernel: Callable[[np.ndarray], np.ndarray],
                 data: Callable | None = None, bound: float = 0.0):
        self.cmap, self.kernel = cmap, kernel
        self.data, self.bound = data, bound
        self.asked = 0
        self.nodes: tuple[np.ndarray, np.ndarray] | None = None  # (s, v)
        f_lo, f_hi = _end_values(cmap)
        # u vanishes where F = -inf; a map without such an end keeps the
        # kernel.  F(lo) tops the range when F falls to -inf at hi, and the
        # kernel takes x = lo; else the top is the largest F(x) asked.
        self.kernel_only = -math.inf not in (f_lo, f_hi)
        self.top_at_lo = f_hi == -math.inf and math.isfinite(f_lo) \
            and math.isfinite(cmap.domain[0])
        self.w_top = f_lo if self.top_at_lo else -math.inf

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.kernel_only:
            return self.kernel(xs)
        lo, hi = self.cmap.domain
        with np.errstate(all="ignore"):
            ws = np.asarray(self.cmap.F(xs), dtype=float)
        usable = (xs >= lo) & (xs < hi) & (ws < math.inf)
        if self.nodes is None:
            self.asked += xs.size
            if usable.any():
                self.w_top = max(self.w_top, float(ws[usable].max()))
            if self.asked < _BUILD_AFTER or self.w_top == -math.inf:
                return self.kernel(xs)
            self.build()
            if self.kernel_only:
                return self.kernel(xs)
        near = usable & (ws <= self.w_top)
        out = np.empty(xs.shape)
        if not near.all():  # above w_top, or refused by the kernel
            out[~near] = self.kernel(xs[~near])
        # w = w_top - 2 (1 - s)/(1 + s), u = (1 + s) v
        one_s = 4.0 / (2.0 + (self.w_top - ws[near]))
        out[near] = one_s * _barycentric(*self.nodes, one_s - 1.0)
        return out

    def node_values(self, theta: np.ndarray, f: Callable) -> np.ndarray:
        """f / (1 + s) at the nodes s = cos(theta), theta < pi."""
        half = 0.5 * theta
        xs = self.cmap.F_inv(self.w_top - 2.0 * np.tan(half) ** 2)
        return f(np.asarray(xs, dtype=float)) / (2.0 * np.cos(half) ** 2)

    def build(self) -> None:
        """Double the nodes from _N_START until the previous interpolant
        predicts the new node values within _CERTIFY max |v|, or keep the
        kernel for good at _N_CAP, once the gap stops falling or where a
        pass on the nodes fails.  v(-1) = 0 is a node, so data that do not
        vanish there never certify."""
        def top(v):  # f' q is not sampled at x = lo (0 inf on the radial
            if self.top_at_lo:  # map): v(1) zeroes the top coefficient
                v[0] = 2.0 * (v[1:-1:2].sum() - v[2:-1:2].sum())
            return v
        f, n, gap = self.data or self.kernel, _N_START, math.inf
        theta = math.pi * np.arange(n + 1) / n
        try:
            v = top(np.append(self.node_values(theta[:-1], f), 0.0))
            while 2 * n <= _N_CAP and (n == _N_START or gap < last):
                n, last = 2 * n, gap
                fine = math.pi * np.arange(n + 1) / n  # nested: theta[::2]
                new = self.node_values(fine[1::2], f)
                gap = np.abs(_barycentric(np.cos(theta), v,
                                          np.cos(fine[1::2])) - new).max()
                theta, v = fine, top(np.insert(v, np.arange(1, len(v)), new))
                if gap <= _CERTIFY * np.abs(v).max():
                    self.nodes = (np.cos(theta), self.solution(theta, v))
                    return
        except (ArithmeticError, ValueError):  # a node the pass refuses
            pass
        self.kernel_only = True

    def solution(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u/(1 + s) at the nodes: ``v`` itself without data, else from the
        data values ``v`` by the closed form (see the module docstring), or
        by the kernel where sum |a_n| passes the bound."""
        if self.data is None:
            return v
        a = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / (2 * len(v) - 2)
        a[-1] *= 0.5  # a is T coefficients / 2, then W ones by
        a[:-1] -= a[1:]  # T_n = (W_n - W_{n-1})/2
        if np.abs(a).sum() > self.bound:
            return np.append(self.node_values(theta[:-1], self.kernel), 0.0)
        s = np.cos(theta[:-1])
        return np.append(math.pi * legval(s, a) / np.sqrt(1.0 + s), 0.0)


def _half_power(spec: EquationSpec, method: str, what: str,
                tol: float) -> SolutionFn:
    """Handle whose eval_batch is ``_InterpolatingBatch`` of the half-power
    kernel on the family's map; it reads f' only."""
    cmap = FAMILIES[spec.family].cmap(spec)
    fp = vectorized(spec.f_prime)

    def kernel(xs: np.ndarray) -> np.ndarray:
        res = fracops.generalized_half_batch(cmap, fp, xs, tol)
        return res.converged_values(what)

    return SolutionFn(None, method, None, tol, spec.family, _InterpolatingBatch(
        cmap, kernel, fracops._half_data(cmap, fp), _ROUNDING * tol))


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
                       "radial half kernel", tol)


def solve_generalized_shift(cmap: CoordinateMap, f, f_prime,
                            tol: float = DEFAULT_TOL) -> SolutionFn:
    """u = (2/sqrt(pi)) sqrt(q(x) d/dx) f in the transported coordinate."""
    return solve(EquationSpec(Family.GENERALIZED_SHIFT, f=f, f_prime=f_prime,
                              cmap=cmap), tol)


# -- moebius family ----------------------------------------------------------

_K_START = 16
_K_CAP = 100_000
# Gregory's end correction of order 8 (Dahlquist & Bjorck, Numerical Methods
# in Scientific Computing I, 3.4): the coefficients of 1/ln(1+D) - 1/D in the
# forward difference D, folded into weights on the rows h_{K+1} .. h_{K+9}
_GREGORY = (1 / 2, -1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480,
            275 / 24192, -33953 / 3628800, 8183 / 1036800)
_GREGORY_W = np.array([sum(g * math.comb(j, i) * (-1) ** (j - i)
                           for j, g in enumerate(_GREGORY[i:], i))
                       for i in range(len(_GREGORY))])


class _ShiftTerms:
    """Terms g(w - k a), g = f' q, k = 0, 1, ..., of the moebius shift series
    on w = -1/x at the arguments ``xs`` >= 0, each term computed once: a
    larger cutoff evaluates f' on the new rows only.  A non-finite f or f'
    raises QuadratureDomainError naming its argument."""

    def __init__(self, f, f_prime, a: float, xs: np.ndarray):
        self.f = fracops._zero_at_lo(0.0, f)
        self.g = fracops._zero_at_lo(0.0, lambda xi: np.asarray(
            f_prime(xi), dtype=float) * fracops._MOEBIUS_MAP.q(xi))
        xs = np.asarray(xs, dtype=float)
        if not ((xs >= 0.0) & (xs < math.inf)).all():
            raise ValueError("arguments must be >= 0 and finite")
        self.a, self.h = a, np.empty((0, len(xs)))
        with np.errstate(divide="ignore"):  # F(0) = -inf
            self.ws = fracops._MOEBIUS_MAP.F(xs)

    def partial_sum(self, K: int) -> np.ndarray:
        """u_K at ``xs``, 0 where x = 0 (see moebius_partial_sum)."""
        if not self.ws.size:
            return np.zeros(0)
        rows = K + 1 + len(_GREGORY_W)
        if len(self.h) < rows:
            ks = np.arange(len(self.h), rows, dtype=float)
            self.h = np.concatenate([self.h, fracops._shifted(
                fracops._MOEBIUS_MAP, self.g, self.ws, ks * self.a)])
        h = self.h
        tail = fracops._shifted(fracops._MOEBIUS_MAP, self.f, self.ws,
                                np.array([(K + 1.0) * self.a]))[0] \
            / self.a + _GREGORY_W @ h[K + 1:rows]
        return h[: K + 1].sum(axis=0) + tail


def moebius_partial_sum(f, f_prime, a: float, xs: np.ndarray,
                        K: int) -> np.ndarray:
    """Shift-series value truncated at k = K, with the integral tail folded in
    (f and f_prime must map arrays to arrays).

    u_K(x) = sum_{k=0}^{K} h(x_k) + T(K), h(t) = t^2 f'(t),
    x_k = x/(1 + k a x).  The tail T is Gregory's formula for the remainder:
    its integral part telescopes exactly to f(x_{K+1})/a, and the end
    correction sum_{j<=8} G_j D^j h(x_{K+1}), D the forward difference in k,
    is fixed weights on the rows k = K+1 .. K+9.  The leftover is a ninth
    difference, O(K^-(n+10)) where h ~ k^-(n+1), so doubling K is a sharp
    convergence check.  ``solve_moebius`` doubles K on one ``_ShiftTerms``,
    so the rows k <= K+9 of one partial sum serve the next, with values
    equal to this function's bit for bit.
    """
    return _ShiftTerms(f, f_prime, a, xs).partial_sum(K)


def solve_moebius(f, f_prime, a: float, tol: float = DEFAULT_TOL) -> SolutionFn:
    return solve(EquationSpec(Family.MOEBIUS, f=f, f_prime=f_prime, a=a), tol)


def _solve_moebius(spec: EquationSpec, tol: float) -> SolutionFn:
    fv, fp = vectorized(spec.f), vectorized(spec.f_prime)

    def converge(xs: np.ndarray):
        terms = _ShiftTerms(fv, fp, spec.a, xs)
        K = _K_START
        prev = terms.partial_sum(K)
        while True:
            K2 = 2 * K
            cur = terms.partial_sum(K2)
            diff = float(np.max(np.abs(cur - prev), initial=0.0))
            if diff <= tol:
                return cur, K2, diff
            if K2 >= _K_CAP:
                raise ConvergenceError(
                    f"shift-series cap K={K2} reached with doubling "
                    f"difference {diff:.3g} > {tol:g}"
                )
            K, prev = K2, cur

    def eval_batch(xs: np.ndarray) -> np.ndarray:
        return converge(xs)[0]

    _, k_probe, diff_probe = converge(np.array([1.0]))
    return SolutionFn(None, "geometric shift series, tail closed by "
                      "Gregory's formula", k_probe, diff_probe, Family.MOEBIUS,
                      # on the log map, not -1/x: see the module docstring
                      _InterpolatingBatch(fracops._LOG_MAP, eval_batch))


def solve(spec: EquationSpec, tol: float = DEFAULT_TOL) -> SolutionFn:
    """Dispatch to the family solver for an EquationSpec; ``tol`` must be
    finite and positive (laplace does not read it)."""
    _check_positive(tol)
    return FAMILIES[spec.family].solve(spec, tol)
