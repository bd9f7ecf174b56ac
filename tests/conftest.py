"""Independent reference implementations used as test oracles.

Nothing here imports from fracshift: the point is that expected values come
from a different algorithm (composite Simpson, a Stirling-series log-gamma,
direct series, brute-force set partitions), so agreement is evidence rather
than tautology.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest

_VERDICT_LINES: list[str] = []


@pytest.fixture
def verdict() -> Callable[[str, bool, str], None]:
    """Recorder for acceptance verdicts, echoed after the run summary.

    Capture swallows ordinary prints from passing tests, so the lines are
    replayed through the terminal reporter instead.
    """
    def record(tag: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
        _VERDICT_LINES.append(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICT_LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance verdicts", sep="-")
        for line in _VERDICT_LINES:
            terminalreporter.write_line(line)


def simpson(f: Callable[[float], float], a: float, b: float,
            n: int = 2000) -> float:
    """Composite Simpson on [a, b] with n panels (n even)."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(float(x)) for x in xs])
    h = (b - a) / n
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                            + 2.0 * ys[2:-2:2].sum()))


def simpson_decaying(f: Callable[[float], float], cut: float,
                     n: int = 4000) -> float:
    """Semi-infinite Simpson for integrands negligible beyond ``cut``."""
    return simpson(f, 0.0, cut, n)


# Stirling series with Bernoulli coefficients B_2k / (2k (2k-1)):
# 1/12, -1/360, 1/1260, -1/1680, 1/1188.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def lgamma_ref(x: float) -> float:
    """log Gamma(x) for x > 0 via upward shift and the Stirling series."""
    assert x > 0.0
    shift = 0.0
    z = x
    while z < 10.0:
        shift -= math.log(z)
        z += 1.0
    series = 0.0
    zp = z
    for c in _STIRLING_COEFFS:
        series += c / zp
        zp *= z * z
    return (z - 0.5) * math.log(z) - z + _HALF_LOG_TWO_PI + series + shift


def gamma_ratio_ref(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0 as exp(lgamma(a) - lgamma(b))."""
    return math.exp(math.lgamma(a) - math.lgamma(b))


def j0_ref(x: float) -> float:
    """Bessel J0 by direct series; adequate for |x| <= 8."""
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term *= q / (k * k)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def count_partitions(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks.

    Brute force: each element joins an existing block or opens a new one.
    """
    if n == 0:
        return 1 if k == 0 else 0

    def extend(partitions):
        out = []
        for blocks in partitions:
            for i in range(len(blocks)):
                out.append(blocks[:i] + (blocks[i] + 1,) + blocks[i + 1:])
            out.append(blocks + (1,))
        return out

    parts = [(1,)]
    for _ in range(n - 1):
        parts = extend(parts)
    return sum(1 for blocks in parts if len(blocks) == k)
