"""Adaptive quadrature with singularity-removing substitutions.

The engine is a Gauss-Kronrod (7,15) bisection scheme that always refines the
subinterval with the largest error estimate.  Endpoint trouble is never handled
by brute refinement when the caller can say what it is:

* ``inverse_sqrt_lower`` / ``inverse_sqrt_upper``: the substitution
  u^2 = distance-to-endpoint turns 1/sqrt singularities into smooth integrands.
* ``log_power_upper(p)``: for kernels behaving like ln^p(b/x) at the upper
  endpoint, s = ln(b/x) followed by s = t^(1/(1+p)) removes the singularity
  (p > -1).
* semi-infinite ranges use y = a + t/(1-t) on (0,1); oscillatory integrands
  are instead summed over caller-supplied sign-constant segments (half-periods)
  with an Euler transform accelerating the alternating segment sums.

Tolerances are absolute.  Integrands are sampled only at interior points, but
substitutions may probe arguments that have underflowed to an endpoint value
(for example x*exp(-s) == 0.0 for huge s); integrands must tolerate that.

Every routine exists in a scalar form (the public contract) and a batch form
used by the operator kernels, where the integrand maps a node array of shape
(k,) to values of shape (k,) or (k, m) and all m components are driven below
tolerance in one adaptive pass.
"""

from __future__ import annotations

import enum
import heapq
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConvergenceError, DecayWarning, DivergenceError,
                     QuadratureDomainError)

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 1_000_000
_PROBE_START = 8.0  # first support cutoff tried by integrate_decaying_batch

# Gauss-Kronrod (7,15) nodes on [-1,1]; Gauss nodes are the odd indices.
_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478559,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478559, 0.16900472663926790, 0.14065325971552592,
    0.10479001032225018, 0.06309209262997855, 0.02293532201052922,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927664, 0.38183005050511894,
    0.41795918367346938, 0.38183005050511894, 0.27970539148927664,
    0.12948496616886969,
])

_DIVERGENCE_BOUND = 1e100
_ERR_FLOOR = 1e-300


class SingularityKind(enum.Enum):
    NONE = "none"
    INVERSE_SQRT_LOWER = "inverse_sqrt_lower"
    INVERSE_SQRT_UPPER = "inverse_sqrt_upper"
    LOG_POWER_UPPER = "log_power_upper"


@dataclass(frozen=True)
class SingularityHint:
    """Declares the endpoint behaviour of an integrand.

    ``exponent`` is only meaningful for LOG_POWER_UPPER and is the power p of
    the ln^p(b/x) factor; it must exceed -1 for integrability.
    """

    kind: SingularityKind = SingularityKind.NONE
    exponent: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, SingularityKind):
            raise ValueError(f"unknown singularity kind: {self.kind!r}")
        if self.kind is SingularityKind.LOG_POWER_UPPER and not self.exponent > -1.0:
            raise ValueError(
                f"log-power exponent must exceed -1, got {self.exponent}"
            )


NO_SINGULARITY = SingularityHint(SingularityKind.NONE)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class BatchResult:
    """Result of one adaptive pass over an array-valued integrand."""

    values: np.ndarray
    errors: np.ndarray
    evaluations: int
    converged: bool

    def converged_values(self, what: str) -> np.ndarray:
        """``values``, or ConvergenceError naming ``what`` if the pass stopped
        short of tolerance."""
        if not self.converged:
            raise ConvergenceError(
                f"{what}: quadrature error {float(self.errors.max()):.3g} "
                f"after {self.evaluations} evaluations"
            )
        return self.values


def elementwise(h: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Array callable applying the scalar callable ``h`` to every entry of an
    array of any shape, one call per entry."""
    def hv(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        flat = np.fromiter(map(h, xs.ravel()), dtype=float, count=xs.size)
        return flat.reshape(xs.shape)

    return hv


def vectorized(h: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """``h`` itself when it maps the probe array [0.5, 1.5] to two values,
    else ``elementwise(h)``."""
    try:
        if np.asarray(h(np.array([0.5, 1.5])), dtype=float).shape == (2,):
            return h
    except Exception:
        pass
    return elementwise(h)


def _check_finite(xs: np.ndarray, ys: np.ndarray) -> None:
    bad = ~np.isfinite(ys)
    if bad.any():
        idx = int(np.argwhere(bad)[0][0])  # node index, also the row for 2-d
        raise QuadratureDomainError(float(xs[idx]))


class _Panel:
    __slots__ = ("lo", "hi", "ik", "err")

    def __init__(self, lo, hi, ik, err):
        self.lo = lo
        self.hi = hi
        self.ik = ik
        self.err = err


def _eval_panel(fv, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid + half * _NODES
    ys = np.asarray(fv(xs), dtype=float)
    _check_finite(xs, ys)
    ik = half * (_WK @ ys)
    ig = half * (_WG @ ys[1::2])
    resabs = half * (_WK @ np.abs(ys))
    mean = ik / (hi - lo)
    resasc = half * (_WK @ np.abs(ys - mean))
    raw = np.abs(ik - ig)
    # QUADPACK-style sharpening of the raw |K-G| estimate.
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            raw,
        )
    err = np.maximum(scaled, 50.0 * np.finfo(float).eps * resabs)
    return _Panel(lo, hi, np.atleast_1d(ik), np.atleast_1d(err))


def _adaptive(fv, segments: Sequence[tuple[float, float]], tol: float,
              budget: int) -> BatchResult:
    """Drive all components of a vectorized integrand below ``tol``.

    ``segments`` is the initial panel list; refinement always bisects the
    panel whose worst component error is largest.
    """
    evals = 0
    heap: list[tuple[float, int, _Panel]] = []
    frozen: list[_Panel] = []
    seq = 0
    value = None
    err = None
    for lo, hi in segments:
        p = _eval_panel(fv, lo, hi)
        evals += 15
        heapq.heappush(heap, (-float(p.err.max()), seq, p))
        seq += 1
        value = p.ik.copy() if value is None else value + p.ik
        err = p.err.copy() if err is None else err + p.err

    while float(err.max()) > tol:
        if evals + 30 > budget or not heap:
            break
        _, _, worst = heapq.heappop(heap)
        width = worst.hi - worst.lo
        if width < 50.0 * np.finfo(float).eps * (abs(worst.lo) + abs(worst.hi) + 1.0):
            frozen.append(worst)  # cannot be refined further in float64
            continue
        mid = 0.5 * (worst.lo + worst.hi)
        left = _eval_panel(fv, worst.lo, mid)
        right = _eval_panel(fv, mid, worst.hi)
        evals += 30
        heapq.heappush(heap, (-float(left.err.max()), seq, left))
        seq += 1
        heapq.heappush(heap, (-float(right.err.max()), seq, right))
        seq += 1
        value = value - worst.ik + left.ik + right.ik
        err = err - worst.err + left.err + right.err
        if float(np.abs(value).max()) > _DIVERGENCE_BOUND:
            raise DivergenceError(
                "partial sums exceeded bound; integral appears divergent"
            )

    # Recompute the totals from the surviving panels; incremental updates are
    # only used to steer refinement.
    panels = [p for _, _, p in heap] + frozen
    value = np.sum(np.stack([p.ik for p in panels]), axis=0)
    err_final = np.maximum(np.sum(np.stack([p.err for p in panels]), axis=0),
                           _ERR_FLOOR)
    return BatchResult(value, err_final, evals,
                       bool(float(err_final.max()) <= tol))


def _to_scalar(res: BatchResult) -> QuadratureResult:
    return QuadratureResult(
        float(res.values[0]), float(res.errors[0]), res.evaluations, res.converged
    )


# -- scalar public API -------------------------------------------------------


def integrate_finite(f: Callable[[float], float], a: float, b: float,
                     hint: SingularityHint = NO_SINGULARITY,
                     tol: float = DEFAULT_TOL,
                     budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Integrate f over (a, b) with endpoint behaviour declared by ``hint``.

    Endpoints themselves are never sampled.  Raises QuadratureDomainError on a
    non-finite interior sample, DivergenceError when partial sums blow up, and
    returns converged=False on budget exhaustion.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got ({a}, {b})")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fv = elementwise(f)
    kind = hint.kind
    if kind is SingularityKind.NONE:
        res = _adaptive(fv, [(a, b)], tol, budget)
        return _to_scalar(res)
    if kind is SingularityKind.INVERSE_SQRT_LOWER:
        w = math.sqrt(b - a)

        def gv(us):
            xs = a + us * us
            return fv(xs) * 2.0 * us

        res = _adaptive(gv, [(0.0, w)], tol, budget)
        return _to_scalar(res)
    if kind is SingularityKind.INVERSE_SQRT_UPPER:
        w = math.sqrt(b - a)

        def gv(us):
            xs = b - us * us
            return fv(xs) * 2.0 * us

        res = _adaptive(gv, [(0.0, w)], tol, budget)
        return _to_scalar(res)
    # LOG_POWER_UPPER: s = ln(b/x), then s = t^c with c = 1/(1+p).
    if not b > 0.0 or a < 0.0:
        raise ValueError("log-power hint requires 0 <= a < b with b > 0")
    p = hint.exponent
    c = 1.0 / (1.0 + p)
    # Clip where b*exp(-s) underflows; f cannot be probed below that anyway.
    s_max = math.log(b) + 667.0
    if a > 0.0:
        s_max = min(s_max, math.log(b / a))
    t_max = s_max ** (1.0 + p)

    def gv(ts):
        ss = ts ** c
        xs = b * np.exp(-ss)
        with np.errstate(over="ignore"):
            jac = b * np.exp(-ss) * c * ts ** (c - 1.0)
        return fv(xs) * jac

    res = _adaptive(gv, [(0.0, t_max)], tol, budget)
    return _to_scalar(res)


def integrate_semi_infinite(f: Callable[[float], float], a: float = 0.0,
                            tol: float = DEFAULT_TOL,
                            budget: int = DEFAULT_BUDGET,
                            breakpoints: Sequence[float] | None = None,
                            alternating_tail: bool = False) -> QuadratureResult:
    """Integrate f over (a, inf).

    Without ``breakpoints`` the range is mapped to (0,1) by y = a + t/(1-t).
    For oscillatory integrands the caller supplies the sign-change abscissae as
    ``breakpoints`` (ascending, > a); the segment integrals are then summed
    directly, with the remainder handled by the mapped tail, or, when
    ``alternating_tail`` is set, by extending the segment ladder at the last
    spacing and Euler-accelerating the alternating partial sums.
    """
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fv = elementwise(f)
    if not breakpoints:
        res = _mapped_tail(fv, a, tol, budget)
        return _to_scalar(res)

    pts = [a] + sorted(float(b) for b in breakpoints)
    if pts[1] <= a:
        raise ValueError("breakpoints must exceed the lower limit")
    n_seg = len(pts) - 1
    seg_tol = tol / (2.0 * n_seg)
    value = 0.0
    err = 0.0
    evals = 0
    ok = True
    sums = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        r = _adaptive(fv, [(lo, hi)], seg_tol, budget - evals)
        value += float(r.values[0])
        err += float(r.errors[0])
        evals += r.evaluations
        ok = ok and r.converged
        sums.append(float(r.values[0]))

    if not alternating_tail:
        r = _mapped_tail(fv, pts[-1], tol / 2.0, budget - evals)
        value += float(r.values[0])
        err += float(r.errors[0])
        evals += r.evaluations
        ok = ok and r.converged
        return QuadratureResult(value, max(err, _ERR_FLOOR), evals, ok and err <= tol)

    # Extend the ladder at the last spacing; the partial sums of the segment
    # series (which include the pre-breakpoint head) alternate, so the Euler
    # transform estimates their limit.
    spacing = pts[-1] - pts[-2] if n_seg >= 2 else pts[-1] - pts[0]
    partials = [math.fsum(sums)]
    lo = pts[-1]
    tail_est = math.inf
    tail_val = partials[-1]
    for _ in range(4096):
        hi = lo + spacing
        r = _adaptive(fv, [(lo, hi)], seg_tol, budget - evals)
        evals += r.evaluations
        err += float(r.errors[0])
        partials.append(partials[-1] + float(r.values[0]))
        lo = hi
        if len(partials) >= 6:
            tail_val, tail_est = euler_transform(partials)
            if tail_est < tol / 2.0:
                break
        if evals + 30 > budget:
            ok = False
            break
    else:
        ok = False
    if math.isfinite(tail_est):
        value = tail_val
        err += tail_est
    else:
        value = partials[-1]
        ok = False
    err = max(err, _ERR_FLOOR)
    return QuadratureResult(value, err, evals, ok and err <= tol)


def euler_transform(partial_sums: Sequence[float]) -> tuple[float, float]:
    """Iterated-mean Euler transform of a sequence of partial sums.

    Returns (estimate, error_estimate).  Geometric for alternating tails.
    """
    row = np.asarray(partial_sums, dtype=float)
    if row.size == 0:
        raise ValueError("need at least one partial sum")
    if row.size == 1:
        return float(row[0]), math.inf
    ests = [float(row[-1])]
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
        ests.append(float(row[-1]))
    return ests[-1], abs(ests[-1] - ests[-2])


# -- batch API used by the operator kernels ----------------------------------


def integrate_finite_batch(f: Callable[[np.ndarray], np.ndarray], a: float,
                           b: float, tol: float = DEFAULT_TOL,
                           budget: int = DEFAULT_BUDGET) -> BatchResult:
    """Adaptive pass over an array-valued integrand on (a, b)."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got ({a}, {b})")
    return _adaptive(f, [(a, b)], tol, budget)


def integrate_semi_infinite_batch(f: Callable[[np.ndarray], np.ndarray],
                                  a: float = 0.0, tol: float = DEFAULT_TOL,
                                  budget: int = DEFAULT_BUDGET) -> BatchResult:
    """Mapped adaptive pass over an array-valued integrand on (a, inf)."""
    return _mapped_tail(f, a, tol, budget)


def integrate_decaying_batch(f: Callable[[np.ndarray], np.ndarray],
                             tol: float = DEFAULT_TOL,
                             budget: int = DEFAULT_BUDGET) -> BatchResult:
    """Adaptive pass over (0, inf) for integrands that decay to zero.

    The effective support is located by doubling a cutoff until probe samples
    fall below a fraction of tolerance; the remainder beyond the cutoff is
    still integrated through the rational map, so a misjudged cutoff costs
    panels rather than correctness.
    """
    cutoff = _PROBE_START
    scale = 1.0
    settled = False
    probes = 0
    for _ in range(40):
        xs = cutoff * np.array([0.7, 0.85, 1.0])
        ys = np.asarray(f(xs), dtype=float)
        probes += 3
        _check_finite(xs, ys)
        scale = max(scale, float(np.abs(ys).max()))
        if float(np.abs(ys).max()) <= 1e-3 * tol * scale / max(1.0, cutoff):
            settled = True
            break
        cutoff *= 2.0
    if not settled:
        warnings.warn(
            "integrand not visibly decayed at the probe cap; tail handled by "
            "the mapped panel only", DecayWarning, stacklevel=2,
        )
    body = _adaptive(f, [(0.0, cutoff)], tol * 0.5, budget)
    tail = _mapped_tail(f, cutoff, tol * 0.5, max(budget - body.evaluations, 450))
    return BatchResult(
        body.values + tail.values,
        body.errors + tail.errors,
        body.evaluations + tail.evaluations + probes,
        body.converged and tail.converged,
    )


def _mapped_tail(fv, a: float, tol: float, budget: int) -> BatchResult:
    def gv(ts):
        onemt = 1.0 - ts
        ys = a + ts / onemt
        vals = np.asarray(fv(ys), dtype=float)
        _check_finite(ys, vals)
        jac = 1.0 / (onemt * onemt)
        if vals.ndim == 2:
            jac = jac[:, None]
        return vals * jac

    return _adaptive(gv, [(0.0, 1.0)], tol, budget)
