"""Gamma-function utilities, Bessel-Wright series, and Stirling numbers."""

from __future__ import annotations

import math
import warnings

from .errors import ConvergenceError, PrecisionWarning

BESSEL_WRIGHT_TERM_CAP = 500
STIRLING_EXACT_MAX_N = 40
STIRLING_FRAC_MAX_K = 60
_FRAC_CANCEL_GATE = 1e-6


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def recip_gamma(x: float) -> float:
    """1/Gamma(x) for x > 0 at full double precision below the Gamma overflow
    threshold (~171.6); log-domain beyond, where the result underflows anyway."""
    if not x > 0.0:
        raise ValueError(f"recip_gamma requires x > 0, got {x}")
    if x <= 171.0:
        return 1.0 / math.gamma(x)
    return math.exp(-math.lgamma(x))


def bessel_wright(n: int, mu: float, x: float, tol: float = 1e-14) -> float:
    """Sum_k (-x)^k / (k! Gamma(mu*k + n + 1)).

    Stops once three consecutive terms are below tol relative to the partial
    sum; raises ConvergenceError at the term cap.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    if x == 0.0:
        return math.exp(-math.lgamma(n + 1.0))
    s = -x
    log_abs_s = math.log(abs(s))
    total = 0.0
    small_streak = 0
    for k in range(BESSEL_WRIGHT_TERM_CAP):
        log_den = math.lgamma(k + 1) + math.lgamma(mu * k + n + 1)
        term = math.exp(k * log_abs_s - log_den)
        if s < 0.0 and k % 2:
            term = -term
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    raise ConvergenceError(
        f"Bessel-Wright series did not settle within {BESSEL_WRIGHT_TERM_CAP} terms"
    )


def _stirling_rows(max_n: int) -> tuple[tuple[int, ...], ...]:
    """Rows S(n, 0..n), n <= max_n, by S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    rows = [(1,)]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        rows.append((0, *(k * prev[k] + prev[k - 1] for k in range(1, n)), 1))
    return tuple(rows)


_STIRLING_ROWS = _stirling_rows(STIRLING_EXACT_MAX_N)


def stirling2(n: int, k: int) -> int:
    """Exact second-kind Stirling number via the triangular recurrence."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if n > STIRLING_EXACT_MAX_N:
        raise ValueError(f"exact range is n <= {STIRLING_EXACT_MAX_N}")
    return _STIRLING_ROWS[n][k] if k <= n else 0


def stirling2_frac(nu: float, k: int) -> float:
    """Finite-difference extension (1/k!) sum_j (-1)^(k-j) C(k,j) j^nu.

    0^nu is taken as 0.  Defined here for any real nu > 0 so that integer nu
    reproduces the exact table; the conjecture harness restricts its own nu
    to (0, 1).  Alternating cancellation grows with k; k > 60 is refused and
    an estimated relative cancellation above 1e-6 emits PrecisionWarning.
    """
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > STIRLING_FRAC_MAX_K:
        raise ValueError(f"k = {k} beyond the cancellation horizon {STIRLING_FRAC_MAX_K}")
    if k == 0:
        return 0.0
    terms = []
    for j in range(1, k + 1):
        sign = -1.0 if (k - j) % 2 else 1.0
        terms.append(sign * math.comb(k, j) * j ** nu)
    kfact = math.factorial(k)
    total = math.fsum(terms) / kfact
    abs_total = math.fsum(abs(t) for t in terms) / kfact
    cancel = abs_total * 2.3e-16 / max(abs(total), 1e-300)
    if total != 0.0 and cancel > _FRAC_CANCEL_GATE:
        warnings.warn(
            f"stirling2_frac(nu={nu}, k={k}) cancellation ~{cancel:.2g} relative",
            PrecisionWarning, stacklevel=2,
        )
    return total
