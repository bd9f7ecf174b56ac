"""Named generator functions for the command line interface.

Each entry bundles a callable, its derivative, and (when the entry is
polynomial) the coefficient sequence, so any solver family can be fed
from a single ``--f NAME`` argument.  Names with parameters use a colon,
e.g. ``monomial:3`` or ``poly:0,1,0,2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .series import PowerSeries

__all__ = ["FunctionCatalogEntry", "get", "available"]


@dataclass(frozen=True)
class FunctionCatalogEntry:
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    series: Optional[PowerSeries]


def _poly_entry(name: str, coeffs: tuple[float, ...]) -> FunctionCatalogEntry:
    # trailing zero keeps series evaluation from flagging a non-decayed tail
    padded = coeffs + (0.0,)
    series = PowerSeries(padded, label=name)
    rev = list(coeffs)[::-1]
    drev = [c * k for k, c in enumerate(coeffs)][:0:-1] or [0.0]

    def f(x, _rev=tuple(rev)):
        return np.polyval(_rev, np.asarray(x, dtype=float))

    def f_prime(x, _drev=tuple(drev)):
        return np.polyval(_drev, np.asarray(x, dtype=float))

    return FunctionCatalogEntry(name, f, f_prime, series)


def _gauss_pair_entry(beta: float) -> FunctionCatalogEntry:
    # Right-hand side whose radial-equation solution is exp(-beta x^2).
    amp = 0.5 * math.sqrt(math.pi / (2.0 * beta))

    def f(x, _a=amp, _b=beta):
        x = np.asarray(x, dtype=float)
        return _a * np.exp(-_b * x * x)

    def f_prime(x, _a=amp, _b=beta):
        x = np.asarray(x, dtype=float)
        return _a * (-2.0 * _b * x) * np.exp(-_b * x * x)

    return FunctionCatalogEntry(f"gauss-pair:{beta:g}", f, f_prime, None)


def _exp_decay() -> FunctionCatalogEntry:
    def f(x):
        return np.exp(-np.asarray(x, dtype=float))

    def f_prime(x):
        return -np.exp(-np.asarray(x, dtype=float))

    order = 64
    coeffs = tuple((-1.0) ** n / math.factorial(n) for n in range(order))
    series = PowerSeries(coeffs, label="exp-decay")
    return FunctionCatalogEntry("exp-decay", f, f_prime, series)


def _gauss() -> FunctionCatalogEntry:
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x)

    def f_prime(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x * np.exp(-x * x)

    return FunctionCatalogEntry("gauss", f, f_prime, None)


_FIXED = {
    "zero": _poly_entry("zero", (0.0,)),
    "exp-decay": _exp_decay(),
    "gauss": _gauss(),
}

_PARAMETRIC_HELP = (
    "monomial:N (x^N), poly:c0,c1,... (sum c_k x^k), gauss-pair:BETA"
)


def available() -> str:
    """One-line summary of accepted names, for help text and errors."""
    fixed = ", ".join(sorted(_FIXED))
    return f"{fixed}; parametric: {_PARAMETRIC_HELP}"


def get(name: str) -> FunctionCatalogEntry:
    """Resolve a catalog name, raising KeyError with guidance if unknown."""
    if name in _FIXED:
        return _FIXED[name]
    head, sep, arg = name.partition(":")
    if sep:
        if head == "monomial":
            try:
                n = int(arg)
            except ValueError:
                raise KeyError(f"monomial degree must be an integer, got {arg!r}")
            if n < 0:
                raise KeyError("monomial degree must be >= 0")
            coeffs = (0.0,) * n + (1.0,)
            return _poly_entry(name, coeffs)
        if head == "poly":
            try:
                coeffs = tuple(float(tok) for tok in arg.split(","))
            except ValueError:
                raise KeyError(f"poly coefficients must be numbers, got {arg!r}")
            return _poly_entry(name, coeffs)
        if head == "gauss-pair":
            try:
                beta = float(arg)
            except ValueError:
                raise KeyError(f"gauss-pair parameter must be a number, got {arg!r}")
            if not beta > 0.0:
                raise KeyError("gauss-pair parameter must be positive")
            return _gauss_pair_entry(beta)
    raise KeyError(f"unknown function {name!r}; available: {available()}")
