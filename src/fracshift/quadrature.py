"""Adaptive Gauss-Kronrod quadrature that needs no singularity hints.

The engine is a Gauss-Kronrod (7,15) bisection scheme that always refines the
subinterval with the largest error estimate.  A pass that stalls at an end of
its range (an integrable endpoint singularity, or the algebraic decay that the
semi-infinite map y = a + t/(1-t) turns into one) is finished by Wynn-epsilon
extrapolation over the bisection levels towards that end, as in QUADPACK's
QAGS/QAGI; one that stalls inside the range stops unconverged (``_adaptive``).
Every integral over (a, inf) ends in one adaptive pass through that map, with
no search for the support; oscillatory integrands may first be split at
caller-supplied breakpoints (sign changes), the remainder beyond the last one
mapped too.

Tolerances are absolute.  Integrands are sampled only at interior points (a
panel whose halves would put a node on an end of the range is frozen instead
of bisected), but a caller's substitution may probe arguments that have
underflowed to an endpoint value (for example x*exp(-s) == 0.0 for huge s);
integrands must tolerate that.

Every routine exists in a scalar form (the public contract) and a batch form
used by the operator kernels.  A batch integrand is parametric: f(t, cols)
maps a node array of shape (k,) and column parameters (the x grid of a
kernel, or any 1-d array) to values of shape (k, len(cols)), or (k,) for one
column.  All columns share one adaptive pass, and a column whose summed
error falls to a hundredth of the goal retires from it: its value and error are
banked and the integrand is then called on the live columns only, so it
must accept any subset of the ``cols`` it was given.  A scalar pass is the
one-column case.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DivergenceError, QuadratureDomainError

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 1_000_000

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
_EPS = float(np.finfo(float).eps)
# A column whose summed error is at most _RETIRE times the goal leaves the
# pass.  Retired columns keep errors near this bound where the shared pass
# would have refined them further: at a tenth the residuals of the laplace
# family lost up to 0.11 decades of the benchmark's accuracy margin on 4 of
# 16 verify-sweep seeds, at a hundredth none moved.
_RETIRE = 0.01
# Endpoint extrapolation: over the last _LEVELS level differences each is at
# most _RATIO times the one before; a neighbourhood of a stalled end spans at
# least _NEAR_ULPS float64 spacings there (its nodes are placed to 1e-8 of its
# width); wynn_epsilon keeps the last _EPS_TERMS terms (QUADPACK's limexp).
_LEVELS = 8
_RATIO = 0.95
_NEAR_ULPS = 1e8
_EPS_TERMS = 50


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
    if math.isfinite(ys.sum()):  # one reduction; NaN and inf propagate
        return
    bad = ~np.isfinite(ys)
    if bad.any():  # else the sum overflowed
        idx = int(np.argwhere(bad)[0][0])  # node index, also the row for 2-d
        raise QuadratureDomainError(float(xs[idx]))


class _Panel:
    __slots__ = ("lo", "hi", "ik", "err")

    def __init__(self, lo, hi, ik, err):
        self.lo = lo
        self.hi = hi
        self.ik = ik
        self.err = err

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _eval_panel(fv, cols: np.ndarray, lo: float, hi: float) -> _Panel:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid + half * _NODES
    ys = np.asarray(fv(xs, cols), dtype=float)
    _check_finite(xs, ys)
    ik = half * (_WK @ ys)
    ig = half * (_WG @ ys[1::2])
    resabs = half * (_WK @ np.abs(ys))
    mean = ik / (hi - lo)
    resasc = half * (_WK @ np.abs(ys - mean))
    raw = np.abs(ik - ig)
    # QUADPACK-style sharpening of the raw |K-G| estimate.
    pos = resasc > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            pos,
            resasc * np.minimum(1.0, (200.0 * raw / np.where(pos, resasc, 1.0)) ** 1.5),
            raw,
        )
    err = np.maximum(scaled, 50.0 * _EPS * resabs)
    if ys.ndim == 1:  # one column given as values of shape (15,)
        ik, err = np.atleast_1d(ik), np.atleast_1d(err)
    return _Panel(lo, hi, ik, err)


def _reaches_end(lo: float, hi: float, a: float, b: float) -> bool:
    """Whether an outermost node of a half of (lo, hi) rounds onto a or b."""
    mid = 0.5 * (lo + hi)
    if lo == a:
        half = 0.5 * (mid - lo)
        if 0.5 * (mid + lo) + half * _NODES[0] <= a:
            return True
    if hi == b:
        half = 0.5 * (hi - mid)
        if 0.5 * (hi + mid) + half * _NODES[-1] >= b:
            return True
    return False


def _adaptive(fv, cols: np.ndarray, a: float, b: float, tol: float,
              budget: int) -> BatchResult:
    """Drive every column of the parametric integrand ``fv(t, cols)`` on
    (a, b) below ``tol``.

    Refinement always bisects the panel whose worst column error is
    largest.  Before each bisection, columns whose summed error is at most
    ``_RETIRE * tol`` retire: their sums over the panels are banked and their
    entries dropped from every panel, so panels, heap keys and level sums
    hold the live columns only, and ``fv`` is called on those.  A panel too
    narrow to bisect, or one whose halves would have a node on a or b, is
    frozen.  Once the frozen error alone exceeds ``tol`` the pass has stalled
    and can never converge by bisection.  At an interior panel it stops at
    once.  At an end, no more columns retire; the panels near that end are
    set aside, the others are refined to ``tol / 4`` (until ten bisections
    have settled nothing, QUADPACK's roundoff test), and the level sums
    (``_level_sums``) are extrapolated by ``wynn_epsilon``; the limit is
    taken when its error plus the panels' own is within ``tol``.
    """
    cols = np.asarray(cols)
    live = np.arange(len(cols))  # the columns still refined
    banked = np.zeros((2, len(cols)))  # values and errors of retired columns
    live_cols = cols

    def whole(live_part, retired_part):
        if len(live) == len(cols):
            return live_part
        out = retired_part.copy()
        out[live] = live_part
        return out

    p = _eval_panel(fv, cols, a, b)
    evals = 15
    heap: list[tuple[float, int, _Panel]] = [(-float(p.err.max()), 0, p)]
    seq = 1
    value = p.ik.copy()
    err = p.err.copy()
    frozen: list[_Panel] = []
    ferr = np.zeros_like(err)  # error of the panels in ``frozen``
    stalled: dict[float, int] = {}  # stalled end -> level of its neighbourhood
    aside: list[_Panel] = []  # panels inside those neighbourhoods
    goal = tol
    roundoff = 0

    while float(err.max()) > goal:
        if evals + 30 > budget or not heap:
            break
        if len(live) > 1 and not stalled and float(err.min()) <= _RETIRE * goal:
            keep = err > _RETIRE * goal
            kept = [h[2] for h in heap] + frozen
            n = len(kept)
            rows = np.array([q.ik for q in kept] + [q.err for q in kept])
            # every live column is banked; a kept one is banked again when it
            # retires, or overwritten by ``whole`` if it never does
            banked[:, live] = rows.reshape(2, n, -1).sum(axis=1)
            rows = rows[:, keep]
            for q, ik, er in zip(kept, rows[:n], rows[n:]):
                q.ik, q.err = ik, er
            keys = rows[n:n + len(heap)].max(axis=1).tolist()
            heap = [(-k, h[1], h[2]) for k, h in zip(keys, heap)]
            heapq.heapify(heap)
            value, err, ferr = np.array([value, err, ferr])[:, keep]
            live = live[keep]
            live_cols = cols[live]
        _, _, worst = heapq.heappop(heap)
        width = worst.hi - worst.lo
        if width < 50.0 * _EPS * (abs(worst.lo) + abs(worst.hi) + 1.0) or \
                (worst.lo == a or worst.hi == b) and \
                _reaches_end(worst.lo, worst.hi, a, b):
            # cannot be refined further in float64
            end = a if worst.lo == a else b if worst.hi == b else None
            if end is not None and (stalled or float((ferr + worst.err).max()) > tol):
                near = max(width, _NEAR_ULPS * _EPS * abs(end))
                stalled[end] = k = round(math.log2((b - a) / near))
                near = (b - a) * 0.5 ** k
                aside += [worst] + [q for q in frozen + [h[2] for h in heap]
                                    if abs(q.mid - end) < near]
                heap = [h for h in heap if abs(h[2].mid - end) > near]
                heapq.heapify(heap)
                frozen = [q for q in frozen if abs(q.mid - end) > near]
                ferr = sum((q.err for q in frozen), np.zeros_like(err))
                err = sum((h[2].err for h in heap), ferr)
                goal = 0.25 * tol
                if _level_sums([h[2] for h in heap] + frozen, stalled, a, b) is None:
                    break  # no limit at this end: finishing cannot help
            else:
                frozen.append(worst)
                ferr = ferr + worst.err
            if float(ferr.max()) > goal:
                break  # stalled at an interior panel
            continue
        mid = 0.5 * (worst.lo + worst.hi)
        left = _eval_panel(fv, live_cols, worst.lo, mid)
        right = _eval_panel(fv, live_cols, mid, worst.hi)
        evals += 30
        heapq.heappush(heap, (-float(left.err.max()), seq, left))
        seq += 1
        heapq.heappush(heap, (-float(right.err.max()), seq, right))
        seq += 1
        value = value - worst.ik + left.ik + right.ik
        err = err - worst.err + left.err + right.err
        if stalled:  # count bisections that settle nothing, as QUADPACK does
            pair = left.ik + right.ik
            if np.all(np.abs(pair - worst.ik) <= 1e-5 * np.abs(pair)) and \
                    float((left.err + right.err).max()) >= 0.99 * float(worst.err.max()):
                roundoff += 1
                if roundoff == 10:
                    break  # rounding, not the integrand, limits the error
        if float(np.abs(value).max()) > _DIVERGENCE_BOUND:
            raise DivergenceError(
                "partial sums exceeded bound; integral appears divergent"
            )

    # Recompute the totals from the surviving panels; incremental updates are
    # only used to steer refinement.
    panels = [p for _, _, p in heap] + frozen
    sums = _level_sums(panels, stalled, a, b) if stalled else None
    if sums is not None:
        limits = np.array([wynn_epsilon(s) for s in sums.T])
        errors = whole(limits[:, 1] + np.sum(np.stack([p.err for p in panels]),
                                             axis=0), banked[1])
        if float(errors.max()) <= tol:
            return BatchResult(whole(limits[:, 0], banked[0]), errors, evals, True)
    panels += aside
    value = whole(np.sum(np.stack([p.ik for p in panels]), axis=0), banked[0])
    err_final = np.maximum(
        whole(np.sum(np.stack([p.err for p in panels]), axis=0), banked[1]),
        _ERR_FLOOR)
    return BatchResult(value, err_final, evals,
                       bool(float(err_final.max()) <= tol))


def _level_sums(panels: list[_Panel], stalled: dict[float, int], a: float,
                b: float) -> np.ndarray | None:
    """Rows S_k, k = 1 .. the shallowest level in ``stalled``: the sums of the
    ``panels`` outside the neighbourhoods of width (b-a) 2^-k of the stalled
    ends (bisection is dyadic, so no panel straddles one).  None unless the
    level differences shrink by _RATIO over the last _LEVELS levels, since a
    divergent S_k has an epsilon-algorithm antilimit too."""
    depth = min(stalled.values())
    if depth <= _LEVELS:
        return None
    mids = np.array([p.mid for p in panels])
    dist = np.min([np.abs(mids - end) for end in stalled], axis=0) / (b - a)
    outside = dist > 0.5 ** np.arange(1, depth + 1)[:, None]
    sums = outside.astype(float) @ np.stack([p.ik for p in panels])
    steps = np.abs(np.diff(sums[-_LEVELS - 1:], axis=0))
    return sums if np.all(steps[1:] <= _RATIO * steps[:-1]) else None


def wynn_epsilon(partial_sums: Sequence[float]) -> tuple[float, float]:
    """(estimate, error) of the limit of a sequence by Wynn's epsilon
    algorithm.  Each prefix of the last _EPS_TERMS terms gives an estimate,
    its highest even column's entry; as in QUADPACK's qelg, its error is the
    distance to the three estimates before it.  The estimate with the
    smallest error is returned (error inf for fewer than four terms).  A row
    of the table stops where two entries agree to rounding."""
    seq = [float(s) for s in partial_sums][-_EPS_TERMS:]
    if not seq:
        raise ValueError("need at least one partial sum")
    eps = _EPS
    ests: list[float] = []
    best = (seq[-1], math.inf)
    prev: list[float] = []  # previous row: eps_k^(i-1-k) for k = 0, 1, ...
    for s in seq:
        row = [s]
        for k in range(1, len(prev) + 1):
            diff = row[k - 1] - prev[k - 1]
            if abs(diff) <= eps * max(abs(row[k - 1]), abs(prev[k - 1])):
                break
            row.append((prev[k - 2] if k >= 2 else 0.0) + 1.0 / diff)
        est = row[(len(row) - 1) // 2 * 2]
        if len(ests) >= 3:
            spread = max(sum(abs(est - e) for e in ests[-3:]), 5.0 * eps * abs(est))
            if spread <= best[1]:
                best = (est, spread)
        ests.append(est)
        prev = row
    return best


def _to_scalar(res: BatchResult) -> QuadratureResult:
    return QuadratureResult(
        float(res.values[0]), float(res.errors[0]), res.evaluations, res.converged
    )


_ONE_COLUMN = np.arange(1)  # the columns of a scalar pass


def _one_column(f: Callable[[float], float]):
    """The scalar callable f as the parametric integrand of a scalar pass."""
    fv = elementwise(f)
    return lambda ts, _: fv(ts)


# -- scalar public API -------------------------------------------------------


def integrate_finite(f: Callable[[float], float], a: float, b: float,
                     tol: float = DEFAULT_TOL,
                     budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Integrate f over (a, b).

    Endpoints themselves are never sampled; an integrable singularity at an
    endpoint is handled by extrapolation.  Raises QuadratureDomainError on a
    non-finite interior sample, DivergenceError when partial sums blow up, and
    returns converged=False on budget exhaustion or a stall.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got ({a}, {b})")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return _to_scalar(_adaptive(_one_column(f), _ONE_COLUMN, a, b, tol, budget))


def integrate_semi_infinite(f: Callable[[float], float], a: float = 0.0,
                            tol: float = DEFAULT_TOL,
                            budget: int = DEFAULT_BUDGET,
                            breakpoints: Sequence[float] | None = None) -> QuadratureResult:
    """Integrate f over (a, inf).

    The range beyond a (or beyond the last of the ``breakpoints``) is mapped
    to (0,1) by y = a + t/(1-t).  For oscillatory integrands the caller may
    supply the sign-change abscissae as ``breakpoints`` (ascending, > a); the
    segment integrals between them are summed directly and the mapped tail
    adds the remainder.
    """
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fv = _one_column(f)
    if not breakpoints:
        return _to_scalar(_mapped_tail(fv, _ONE_COLUMN, a, tol, budget))

    pts = [a] + sorted(float(b) for b in breakpoints)
    if pts[1] <= a:
        raise ValueError("breakpoints must exceed the lower limit")
    seg_tol = tol / (2.0 * (len(pts) - 1))
    value = 0.0
    err = 0.0
    evals = 0
    ok = True
    for lo, hi in zip(pts[:-1], pts[1:]):
        r = _adaptive(fv, _ONE_COLUMN, lo, hi, seg_tol, budget - evals)
        value += float(r.values[0])
        err += float(r.errors[0])
        evals += r.evaluations
        ok = ok and r.converged
    r = _mapped_tail(fv, _ONE_COLUMN, pts[-1], tol / 2.0, budget - evals)
    value += float(r.values[0])
    err += float(r.errors[0])
    evals += r.evaluations
    ok = ok and r.converged
    return QuadratureResult(value, max(err, _ERR_FLOOR), evals, ok and err <= tol)


# -- batch API used by the operator kernels ----------------------------------


def integrate_finite_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                           cols: np.ndarray, a: float, b: float,
                           tol: float = DEFAULT_TOL,
                           budget: int = DEFAULT_BUDGET) -> BatchResult:
    """Adaptive pass over the columns ``cols`` of f on (a, b)."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got ({a}, {b})")
    return _adaptive(f, cols, a, b, tol, budget)


def integrate_semi_infinite_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                                  cols: np.ndarray, a: float = 0.0,
                                  tol: float = DEFAULT_TOL,
                                  budget: int = DEFAULT_BUDGET) -> BatchResult:
    """Mapped adaptive pass over the columns ``cols`` of f on (a, inf)."""
    return _mapped_tail(f, cols, a, tol, budget)


def integrate_decaying_batch(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                             cols: np.ndarray, tol: float = DEFAULT_TOL,
                             budget: int = DEFAULT_BUDGET) -> BatchResult:
    """Mapped adaptive pass over the columns ``cols`` of f on (0, inf) at
    ``tol / 2``: the entry of the operator kernels and of the residual pass.

    No cutoff is searched for: the rational map and the endpoint
    extrapolation of ``_adaptive`` finish a decaying or algebraic tail, and a
    non-decaying integrand stalls at t -> 1 and returns converged=False.
    """
    return _mapped_tail(f, cols, 0.0, 0.5 * tol, budget)


def _mapped_tail(fv, cols: np.ndarray, a: float, tol: float,
                 budget: int) -> BatchResult:
    def gv(ts, live_cols):
        onemt = 1.0 - ts
        ys = a + ts / onemt
        vals = np.asarray(fv(ys, live_cols), dtype=float)
        _check_finite(ys, vals)
        jac = 1.0 / (onemt * onemt)
        if vals.ndim == 2:
            jac = jac[:, None]
        return vals * jac

    return _adaptive(gv, cols, 0.0, 1.0, tol, budget)
