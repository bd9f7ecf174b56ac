"""Adaptive Gauss-Kronrod quadrature that needs no singularity hints.

The engine is a Gauss-Kronrod (7,15) bisection scheme that always refines the
subinterval with the largest error estimate.  A pass that stalls at an end of
its range (an integrable endpoint singularity, or the algebraic decay that the
semi-infinite map y = a + t/(1-t) turns into one) is finished by Wynn-epsilon
extrapolation over the bisection levels towards that end, as in QUADPACK's
QAGS/QAGI; one that stalls inside the range stops unconverged (``_adaptive``).
Every integral over (a, inf) is one adaptive pass through that map, with no
search for the support and no split of the range.

Tolerances are absolute, with one floor: a column is done once its error is
within ``_REL_FLOOR`` = 100 eps of its integral of |f| (QUADPACK's resabs),
twice the rounding floor of a panel, so a large or cancelling integral stops
at rounding instead of spending the budget.
Integrands are sampled only at interior points (a panel whose halves would
put a node on an end of the range is frozen instead of bisected), but a
caller's substitution may probe arguments that have underflowed to an
endpoint value (for example x*exp(-s) == 0.0 for huge s); integrands must
tolerate that.

Every routine exists in a scalar form (the public contract) and a batch form
used by the operator kernels.  A batch integrand is parametric: f(t, cols)
maps a node array of shape (k,) and column parameters (the x grid of a
kernel, or any 1-d array) to values of shape (k, len(cols)), or (k,) for one
column.  All columns share one adaptive pass, and a column whose summed
error falls to a hundredth of the goal, or to its floor, retires from it: its
value and error are banked and the integrand is then called on the live
columns only, so it must accept any subset of the ``cols`` it was given.  A
scalar pass is the one-column case.
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
# A panel's error estimate is at least _PANEL_FLOOR times the integral of |f|
# over it (QUADPACK's rounding floor), and a column is done once its summed
# error is at most max(goal, _REL_FLOOR * its integral of |f|): twice that
# floor, which the sum of the panels' floors stays under.
_PANEL_FLOOR = 50.0 * _EPS
_REL_FLOOR = 2.0 * _PANEL_FLOOR
# A column whose summed error is at most max(_RETIRE * goal, its floor)
# leaves the pass.  Retired columns keep errors near this bound where the
# shared pass would have refined them further: at a tenth the residuals of
# the laplace family lost up to 0.11 decades of the benchmark's accuracy
# margin on 4 of 16 verify-sweep seeds, at a hundredth none moved.
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


def _eval_panel(fv, cols: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The rows of the panel (lo, hi): its Kronrod value, its error estimate
    and its integral of |f| (QUADPACK's resabs), one entry per column."""
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
    err = np.maximum(scaled, _PANEL_FLOOR * resabs)
    return np.array([ik, err, resabs]).reshape(3, -1)  # one column may be (15,)


def _mids(ends: list[tuple[float, float]], idx) -> np.ndarray:
    """Midpoints of the panels numbered ``idx``."""
    lohi = np.array([ends[r] for r in idx]).reshape(-1, 2)
    return 0.5 * (lohi[:, 0] + lohi[:, 1])


def _done(err: np.ndarray, absint: np.ndarray, goal: float) -> np.ndarray:
    """Per column: whether its error is at most max(goal, _REL_FLOOR times
    its integral of |f|)."""
    return err <= np.maximum(goal, _REL_FLOOR * absint)


def _settled(err: np.ndarray, absint: np.ndarray, goal: float,
             amax: float = math.inf) -> bool:
    """Whether every column is ``_done``; a bound amax >= max ``absint``
    lets the usual case skip the column test."""
    emax = float(err.max())
    if emax <= goal:
        return True
    if emax > _REL_FLOOR * amax:
        return False
    return bool(np.all(_done(err, absint, goal)))


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
    (a, b) below ``tol``, or below the rounding floor ``_REL_FLOOR`` times
    its integral of |f| where that is larger (``_done``).

    The panels are numbered in the order they are made: panel r spans
    ``ends[r]``, and ``rows[:, r]`` holds its Kronrod values, errors and
    integrals of |f| over the live columns.  A heap of (-worst column
    error, r) picks the panel to bisect, the number breaking ties.  Before
    each bisection, the columns that are ``_done`` at ``_RETIRE * tol``
    retire: their sums over the panels are banked and their entries sliced
    out of ``rows``, so heap keys and level sums hold the live columns only,
    and ``fv`` is called on those.  A panel too narrow to bisect, or one
    whose halves would have a node on a or b, is frozen.  Once the frozen
    error alone exceeds ``tol`` the pass has stalled and can never converge
    by bisection.  At an interior panel it stops at once.  At an end, no
    more columns retire; the panels near that end are set aside, the others
    are refined to ``tol / 4`` (until ten bisections have settled nothing,
    QUADPACK's roundoff test), and the level sums (``_level_sums``) are
    extrapolated by ``wynn_epsilon``; the limit is taken when its error plus
    the panels' own is ``_done`` at ``tol``.
    """
    cols = np.asarray(cols)
    if not len(cols):  # fv is not called
        return BatchResult(np.zeros(0), np.zeros(0), 0, True)
    live = np.arange(len(cols))  # the columns still refined
    banked = np.zeros((3, len(cols)))  # per column: value, error, |f| integral
    live_cols = cols

    rows = np.empty((3, 32, len(cols)))  # grown by doubling
    rows[:, 0] = _eval_panel(fv, cols, a, b)
    ends = [(a, b)]
    evals = 15
    heap: list[tuple[float, int]] = [(-float(rows[1, 0].max()), 0)]
    tot = rows[:, 0].copy()  # the rows summed over the live panels
    amax = float(tot[2].max())
    frozen: list[int] = []
    ferr = np.zeros(len(cols))  # error of the panels in ``frozen``
    stalled: dict[float, int] = {}  # stalled end -> level of its neighbourhood
    aside: list[int] = []  # panels inside those neighbourhoods
    goal = tol
    roundoff = 0

    while not _settled(tot[1], tot[2], goal, amax):
        if evals + 30 > budget or not heap:
            break
        # the least error against the largest floor first: usually no column
        # is done, and that one comparison says so
        if len(live) > 1 and not stalled and \
                float(tot[1].min()) <= max(_RETIRE * goal, _REL_FLOOR * amax) and \
                not (keep := ~_done(tot[1], tot[2], _RETIRE * goal)).all():
            held = [r for _, r in heap]
            # every live column is banked; a kept one is banked again when it
            # retires, or overwritten by the final totals if it never does
            banked[:, live] = rows[:, held + frozen].sum(axis=1)
            rows = rows[:, :, keep]
            keys = rows[1, held].max(axis=1).tolist()
            heap = [(-k, r) for k, r in zip(keys, held)]
            heapq.heapify(heap)
            tot, ferr = tot[:, keep], ferr[keep]
            live = live[keep]
            live_cols = cols[live]
        _, w = heapq.heappop(heap)
        lo, hi = ends[w]
        worst = rows[:, w]
        if hi - lo < 50.0 * _EPS * (abs(lo) + abs(hi) + 1.0) or \
                (lo == a or hi == b) and _reaches_end(lo, hi, a, b):
            # cannot be refined further in float64
            end = a if lo == a else b if hi == b else None
            if end is not None and (stalled or float((ferr + worst[1]).max()) > tol):
                near = max(hi - lo, _NEAR_ULPS * _EPS * abs(end))
                stalled[end] = k = round(math.log2((b - a) / near))
                near = (b - a) * 0.5 ** k
                held = frozen + [r for _, r in heap]
                dist = np.abs(_mids(ends, held) - end)
                aside += [w] + [r for r, d in zip(held, dist) if d < near]
                far = {r for r, d in zip(held, dist) if d > near}
                heap = [h for h in heap if h[1] in far]
                heapq.heapify(heap)
                frozen = [r for r in frozen if r in far]
                held = [r for _, r in heap]
                ferr = sum(rows[1, frozen], np.zeros(len(live)))
                tot[1] = sum(rows[1, held], ferr)
                goal = 0.25 * tol
                if _level_sums(rows, ends, held + frozen, stalled, a, b) is None:
                    break  # no limit at this end: finishing cannot help
            else:
                frozen.append(w)
                ferr = ferr + worst[1]
            if float(ferr.max()) > goal:
                break  # stalled at an interior panel
            continue
        mid = 0.5 * (lo + hi)
        left = _eval_panel(fv, live_cols, lo, mid)
        right = _eval_panel(fv, live_cols, mid, hi)
        evals += 30
        n = len(ends)
        if n + 2 > rows.shape[1]:
            rows = np.concatenate([rows, np.empty_like(rows)], axis=1)
        rows[:, n], rows[:, n + 1] = left, right
        ends += [(lo, mid), (mid, hi)]
        heapq.heappush(heap, (-float(left[1].max()), n))
        heapq.heappush(heap, (-float(right[1].max()), n + 1))
        tot = tot - worst + left + right
        if stalled:  # count bisections that settle nothing, as QUADPACK does
            pair = left + right
            if np.all(np.abs(pair[0] - worst[0]) <= 1e-5 * np.abs(pair[0])) and \
                    float(pair[1].max()) >= 0.99 * float(worst[1].max()):
                roundoff += 1
                if roundoff == 10:
                    break  # rounding, not the integrand, limits the error
        amax = float(tot[2].max())
        if amax > _DIVERGENCE_BOUND:
            raise DivergenceError(
                "partial sums exceeded bound; integral appears divergent"
            )

    # Recompute the totals from the surviving panels; incremental updates are
    # only used to steer refinement.
    panels = [r for _, r in heap] + frozen
    banked[2, live] = rows[2, panels + aside].sum(axis=0)
    sums = _level_sums(rows, ends, panels, stalled, a, b) if stalled else None
    if sums is not None:
        limits = np.array([wynn_epsilon(s) for s in sums.T])
        banked[0, live] = limits[:, 0]
        banked[1, live] = limits[:, 1] + rows[1, panels].sum(axis=0)
        if _settled(banked[1], banked[2], tol):
            return BatchResult(banked[0], banked[1], evals, True)
    panels += aside
    for i in range(2):  # row by row: a (2, n, 1) sum over n rounds otherwise
        banked[i, live] = rows[i, panels].sum(axis=0)
    values, errors = banked[0], np.maximum(banked[1], _ERR_FLOOR)
    return BatchResult(values, errors, evals, _settled(errors, banked[2], tol))


def _level_sums(rows: np.ndarray, ends: list[tuple[float, float]],
                idx: list[int], stalled: dict[float, int], a: float,
                b: float) -> np.ndarray | None:
    """Rows S_k, k = 1 .. the shallowest level in ``stalled``: the sums of
    the Kronrod values of the panels ``idx`` outside the neighbourhoods of
    width (b-a) 2^-k of the stalled ends (bisection is dyadic, so no panel
    straddles one).  None unless the level differences shrink by _RATIO over
    the last _LEVELS levels, since a divergent S_k has an epsilon-algorithm
    antilimit too.  The test is per column, and a difference at the panel
    rounding floor (_PANEL_FLOOR |S_k|) counts as shrinking, so a column
    that has already settled does not block the extrapolation of the
    others."""
    depth = min(stalled.values())
    if depth <= _LEVELS:
        return None
    mids = _mids(ends, idx)
    dist = np.min([np.abs(mids - end) for end in stalled], axis=0) / (b - a)
    outside = dist > 0.5 ** np.arange(1, depth + 1)[:, None]
    sums = outside.astype(float) @ rows[0, idx]
    last = sums[-_LEVELS - 1:]
    steps = np.abs(np.diff(last, axis=0))
    shrinks = (steps[1:] <= _RATIO * steps[:-1]) | \
        (steps[1:] <= _PANEL_FLOOR * np.abs(last[2:]))
    return sums if np.all(shrinks) else None


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
                            budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Integrate f over (a, inf) in one adaptive pass of the map
    y = a + t/(1-t) onto (0, 1)."""
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return _to_scalar(_mapped_tail(_one_column(f), _ONE_COLUMN, a, tol, budget))


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
