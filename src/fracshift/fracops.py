"""Fractional powers of scale-derivative operators as integral kernels.

Everything here reduces to one spectral fact: on x^n the operator x*d/dx acts
as multiplication by n, so a negative power acts through the Laplace-type
representation

    (x d/dx)^(-nu) f = (1/Gamma(nu)) int_0^inf f(x e^-s) s^(nu-1) ds,

and the half power needed by the dilation equations is its derivative form

    (2/sqrt(pi)) (x d/dx)^(1/2) f = (2/pi) int_0^inf f'(x e^-s) x e^-s s^(-1/2) ds.

All kernels are computed in substituted variables with the endpoint
singularity removed (s = t^(1/nu) for the power kernel, s = v^2 for the
half-power ones).

Coordinate transport: for a generator q(x) d/dx with antiderivative
F(x) = int dx/q(x), the shifted function is g(F^-1(lambda + F(x))), so the
half-power kernel in the transported variable w = F(x) reads

    (2/pi) int_0^inf g'(w - s) s^(-1/2) ds,   g(w) = f(F^-1(w)).

This is the descending (Riemann-Liouville direction) kernel, and it is the
only half-power kernel here: ``generalized_half`` evaluates it for any
``CoordinateMap``.  ``half_sqrt_xd`` is that kernel on the log map
(q = x, the dilation generator above), and ``weyl_half_radial`` is it on
the reflected radial map w = -x^2/2: the radial equation needs the
ascending (Weyl direction) kernel with profile argument w + s, which is the
descending one in the reflected coordinate.

Both kernels and the shift-family residuals are one pass, ``_weyl``:
int_0^inf g(F^-1(F(x) - t^(1/nu))) dt = Gamma(nu+1) I^nu g, the Weyl integral
of order nu with respect to F (Samko, Kilbas & Marichev 1993, s. 18.2).

Scalar entry points accept any real -> real callables and call them one point
at a time (``quadrature.elementwise``); the ``*_batch`` variants evaluate a
whole argument array in one adaptive pass and require the callables to
broadcast over numpy arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DecayWarning, DivergenceError
from .quadrature import (
    DEFAULT_TOL,
    BatchResult,
    _check_finite,
    _check_positive,
    elementwise,
    integrate_decaying_batch,
)

_FOUR_OVER_PI = 4.0 / math.pi


@dataclass(frozen=True)
class CoordinateMap:
    """Invertible coordinate change F with generator profile q = 1/F'.

    ``domain`` = (lo, hi) bounds the admissible x; the half-power kernel also
    takes x = lo (see generalized_half_batch).  Construction runs the
    probe-grid invariants on 100 interior points: F_inv(F(x)) == x to 1e-10
    relative and q(x)*F'(x) == 1 to 1e-8 (central differences), raising
    ValueError naming the first failing probe point.
    """

    F: Callable[[float], float]
    F_inv: Callable[[float], float]
    q: Callable[[float], float]
    domain: tuple[float, float]
    name: str = ""

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty domain ({lo}, {hi})")
        self.validate()

    def probe_grid(self) -> np.ndarray:
        lo, hi = self.domain
        plo = lo if math.isfinite(lo) else (min(hi, 0.0) - 1e3 if math.isfinite(hi) else -1e3)
        phi = hi if math.isfinite(hi) else max(lo, 0.0) + 1e3
        span = phi - plo
        pts = plo + span * np.linspace(0.02, 0.98, 100)
        if math.isfinite(lo):
            pts = np.maximum(pts, lo + 1e-4 * span)
        if math.isfinite(hi):
            pts = np.minimum(pts, hi - 1e-4 * span)
        return pts

    def validate(self) -> None:
        for x in self.probe_grid():
            x = float(x)
            w = float(self.F(x))
            back = float(self.F_inv(w))
            if abs(back - x) > 1e-10 * max(1.0, abs(x)):
                raise ValueError(
                    f"map '{self.name}' round-trip failed at x={x!r}: "
                    f"F_inv(F(x)) = {back!r}"
                )
            h = 1e-6 * max(abs(x), 1.0)
            lo, hi = self.domain
            if not (lo < x - h and x + h < hi):
                continue
            deriv = (float(self.F(x + h)) - float(self.F(x - h))) / (2.0 * h)
            prod = float(self.q(x)) * deriv
            if abs(prod - 1.0) > 1e-8 * max(1.0, abs(prod)):
                raise ValueError(
                    f"map '{self.name}' q*F' probe failed at x={x!r}: got {prod!r}"
                )


def log_map() -> CoordinateMap:
    """w = ln x on (0, inf); generator q(x) = x (pure dilation)."""
    return CoordinateMap(np.log, np.exp, lambda x: x * 1.0, (0.0, math.inf), "log")


def reflected_radial_map() -> CoordinateMap:
    """w = -x^2/2 on (0, inf): the radial map w = x^2/2 (generator 1/x,
    ascending shifts) with the decaying direction descending, so the
    Riemann-Liouville kernel applies."""
    return CoordinateMap(
        lambda x: -0.5 * x * x,
        lambda w: np.sqrt(-2.0 * w),
        lambda x: -1.0 / x,
        (0.0, math.inf),
        "reflected-radial",
    )


_LOG_MAP = log_map()
_REFLECTED_RADIAL_MAP = reflected_radial_map()
# w = -1/x, q = x^2: the moebius kernel's shift by s is x/(1 + s x)
_MOEBIUS_MAP = CoordinateMap(lambda x: -1.0 / x, lambda w: -1.0 / w,
                             lambda x: x * x, (0.0, math.inf), "moebius")


def _at_point(batch, what: str, lead: tuple, fs: tuple, x: float,
              tol: float) -> float:
    """Scalar entry shared by the kernels: ``batch`` at the single point x,
    with the scalar callables ``fs`` applied elementwise."""
    res = batch(*lead, *map(elementwise, fs), np.array([float(x)]), tol)
    return float(res.converged_values(what)[0])


def _shifted(cmap: CoordinateMap, g: Callable[[np.ndarray], np.ndarray],
             ws: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g(F_inv(w - s)) for every shift s (rows) and w in ``ws`` (columns),
    with g sampled on [lo, hi), lo included where it is finite: an argument
    that reaches lo (x e^-s underflowed to 0 on the log map, or F(x) = -inf
    at x = lo) takes g(lo), and one outside the domain gives 0 without a
    call of g.  A non-finite value of g raises QuadratureDomainError naming
    g's argument, not the node of the pass that reached it."""
    lo, hi = cmap.domain
    with np.errstate(all="ignore"):
        xi = np.asarray(cmap.F_inv(ws[None, :] - s[:, None]), dtype=float)
    if xi.min() > lo and xi.max() < hi:  # strictly inside; False on NaN
        return _sampled(g, xi)
    inside = ((xi >= lo) if math.isfinite(lo) else (xi > lo)) & (xi < hi)
    return _sampled(g, xi, inside)


def _sampled(g: Callable[[np.ndarray], np.ndarray], xi: np.ndarray,
             inside: np.ndarray | None = None) -> np.ndarray:
    """g(xi), refused with the first argument where it is not finite; given
    a mask ``inside``, g is called only there and the value is 0 elsewhere."""
    if inside is None or inside.all():
        vals = np.asarray(g(xi), dtype=float)
        _check_finite(xi, vals)
        return vals
    out = np.zeros_like(xi)
    if inside.any():
        out[inside] = _sampled(g, xi[inside])
    return out


def _zero_at_lo(lo: float, h: Callable) -> Callable:
    """h on arrays, 0 at ``lo`` (a map's lower end), where h is not called."""
    def g(xi):
        return h(xi) if xi.min() > lo else _sampled(g, xi, xi > lo)
    return g


def _weyl(cmap: CoordinateMap, nu: float, g: Callable, xs: np.ndarray):
    """(integrand, ws): ws = F(xs), computed once, and integrand(ts, ws) the
    shift of g by t^(1/nu), whose integral over t is Gamma(nu+1) I^nu g."""
    lo, hi = cmap.domain
    if not ((xs >= lo) & (xs < hi)).all():
        raise ValueError(f"arguments must lie in the domain [{lo}, {hi})")
    with np.errstate(divide="ignore"):  # F(lo) = -inf on the log map
        ws = np.asarray(cmap.F(xs), dtype=float)
    return (lambda ts, ws: _shifted(cmap, g, ws, ts ** (1.0 / nu))), ws


_NEAR_ZERO = math.exp(-700.0)  # about 1e-304, still a normal float64


def value_near_zero(f, xs) -> float:
    """max |f(x e^-700)| over ``xs`` (a float or an array), in one call of f:
    f next to 0.  NaN if f is NaN there, so a ``not value <= bound`` test
    refuses it; 0 for an empty ``xs``, where f is not called."""
    if not np.size(xs):
        return 0.0
    ys = np.asarray(f(np.multiply(xs, _NEAR_ZERO)), dtype=float)
    return float(np.max(np.abs(ys)))


def _probe_decay(f, tol: float) -> None:
    # Heuristic precondition check at three large abscissae; warn, never abort.
    vals = np.abs(np.asarray(f(np.array([8.0, 16.0, 32.0])), dtype=float))
    v0, v2 = float(vals[0]), float(vals[2])
    if not (v2 <= max(tol, 1e-10) or v2 < 1e-3 * max(v0, 1e-300)):
        warnings.warn(
            "profile does not visibly decay at large arguments; the half-power "
            "kernel result is best-effort", DecayWarning, stacklevel=3,
        )


# -- (x d/dx)^(-nu) ----------------------------------------------------------


def xd_negpow_batch(nu: float, f: Callable[[np.ndarray], np.ndarray],
                    xs: np.ndarray, tol: float = DEFAULT_TOL) -> BatchResult:
    """Negative fractional power applied at every x in ``xs`` at once.

    Uses (1/Gamma(nu+1)) int_0^inf f(x exp(-t^(1/nu))) dt, the s = t^(1/nu)
    substitution of the log-kernel form, which is singularity-free, as
    ``_weyl`` on the log map: f(0) is kept where x e^-s underflows.  A
    non-finite value of f raises QuadratureDomainError naming f's argument.
    """
    _check_positive(nu, "nu")
    xs = np.asarray(xs, dtype=float)
    if not ((xs > 0.0) & (xs < math.inf)).all():
        raise ValueError("arguments must be positive and finite")
    _check_positive(tol)  # before the probe, which is judged against tol
    probe = value_near_zero(f, xs)
    if not probe <= tol:
        raise DivergenceError(
            f"f does not vanish at 0 (probe at x*e^-700 gave {probe:.3g}); "
            "the spectral value at index 0 has no negative power"
        )
    pref = math.exp(-math.lgamma(nu + 1.0))
    integrand, ws = _weyl(_LOG_MAP, nu,
                          lambda xi: pref * np.asarray(f(xi), dtype=float), xs)
    return integrate_decaying_batch(integrand, ws, tol=tol)


def xd_negpow(nu: float, f: Callable[[float], float], x: float,
              tol: float = DEFAULT_TOL) -> float:
    """(x d/dx)^(-nu) f at a single point x > 0."""
    return _at_point(xd_negpow_batch, "xd_negpow", (nu,), (f,), x, tol)


# -- (2/sqrt(pi)) (x d/dx)^(1/2) --------------------------------------------


def half_sqrt_xd_batch(f_prime: Callable[[np.ndarray], np.ndarray],
                       xs: np.ndarray, tol: float = DEFAULT_TOL) -> BatchResult:
    """(4/pi) int_0^inf f'(x e^-v^2) x e^-v^2 dv for every x in ``xs``: the
    half-power kernel on the log map.  Entries equal to zero give zero (the
    kernel vanishes there for admissible f with f(0) = 0)."""
    return generalized_half_batch(_LOG_MAP, f_prime, xs, tol)


def half_sqrt_xd(f_prime: Callable[[float], float], x: float,
                 tol: float = DEFAULT_TOL) -> float:
    """(2/sqrt(pi)) (x d/dx)^(1/2) f at x > 0, from the derivative handle."""
    if not x > 0.0:
        raise ValueError("x must be positive")
    return _at_point(half_sqrt_xd_batch, "half_sqrt_xd", (), (f_prime,), x, tol)


# -- radial (ascending / Weyl direction) half power --------------------------


def weyl_half_radial_batch(f: Callable[[np.ndarray], np.ndarray],
                           f_prime: Callable[[np.ndarray], np.ndarray],
                           xs: np.ndarray, tol: float = DEFAULT_TOL) -> BatchResult:
    """Half power of -(1/x) d/dx against a decaying profile, batched:
    -(4/pi) int_0^inf p'(w + v^2) dv with w = x^2/2 and p(w) = f(sqrt(2w)),
    the half-power kernel on the reflected radial map; f is only probed for
    decay.  verify.radial_kernel_discrepancy compares the printed form."""
    _check_positive(tol)  # before the decay probe, which is judged against tol
    _probe_decay(f, tol)
    return generalized_half_batch(_REFLECTED_RADIAL_MAP, f_prime, xs, tol)


def weyl_half_radial(f: Callable[[float], float],
                     f_prime: Callable[[float], float], x: float,
                     tol: float = DEFAULT_TOL) -> float:
    return _at_point(weyl_half_radial_batch, "weyl_half_radial", (),
                     (f, f_prime), x, tol)


# -- generalized shift generators -------------------------------------------


def generalized_half_batch(cmap: CoordinateMap,
                           f_prime: Callable[[np.ndarray], np.ndarray],
                           xs: np.ndarray, tol: float = DEFAULT_TOL) -> BatchResult:
    """(2/sqrt(pi)) (q(x) d/dx)^(1/2) f, batched over ``xs``.

    Descending-kernel realization (4/pi) int_0^inf g'(F(x) - v^2) dv with
    g'(w) = f'(F_inv(w)) q(F_inv(w)): the pass ``_weyl`` of (4/pi) f' q
    at nu = 1/2.  The transported argument must stay in F's range as v
    grows; maps whose decaying direction is ascending should be passed
    reflected (F -> -F, q -> -q), cf. reflected_radial_map.

    ``xs`` must lie in [lo, hi) of ``cmap.domain``.  At x = lo the integral
    is taken if F(lo) is finite (reflected radial map at 0); if F(lo) = -inf
    (log map at 0) the value is 0.  f' is not called at lo: the kernel
    annihilates f(lo), and f'(lo) may be infinite (x^0.1 on the log map).
    """
    xs = np.asarray(xs, dtype=float)
    return integrate_decaying_batch(
        *_weyl(cmap, 0.5, _half_data(cmap, f_prime), xs), tol=tol)


def _half_data(cmap: CoordinateMap, f_prime: Callable) -> Callable:
    """g = (4/pi) f' q: the half-power kernel is ``_weyl`` of g at 1/2."""
    return _zero_at_lo(cmap.domain[0], lambda xi: _FOUR_OVER_PI * np.asarray(
        f_prime(xi), dtype=float) * np.asarray(cmap.q(xi), dtype=float))


def generalized_half(cmap: CoordinateMap, f: Callable[[float], float],
                     f_prime: Callable[[float], float], x: float,
                     tol: float = DEFAULT_TOL) -> float:
    """``generalized_half_batch`` at the single point x; f is not read (the
    kernel takes f' only)."""
    return _at_point(generalized_half_batch, "generalized_half", (cmap,),
                     (f_prime,), x, tol)
