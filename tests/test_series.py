import math

import numpy as np
import pytest

from fracshift.errors import (
    PrecisionWarning,
    SeriesOverflowError,
    SpectralDomainError,
    TruncationWarning,
)
from fracshift.series import (
    PowerSeries,
    SpectralMultiplier,
    apply_multiplier,
    derivative,
    evaluate,
    from_coefficient_rule,
)


def geometric(order=40):
    return PowerSeries(tuple(1.0 for _ in range(order)), label="1/(1-x)")


def test_coeffs_read_only():
    s = PowerSeries((1.0, 2.0))
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError):
        PowerSeries((1.0, math.inf))


def test_order_is_degree():
    assert PowerSeries((1.0, 0.0, 3.0)).order == 2


def test_from_coefficient_rule():
    s = from_coefficient_rule(lambda n: 1.0 / math.factorial(n), order=20)
    assert s.order == 20
    assert s.coeffs[3] == pytest.approx(1.0 / 6.0, rel=1e-15)


@pytest.mark.parametrize("x", [0.0, 0.1, 0.5, -0.3])
def test_evaluate_geometric(x):
    res = evaluate(geometric(60), x)
    assert res.value == pytest.approx(1.0 / (1.0 - x), rel=1e-12)


def test_evaluate_matches_fsum():
    rng = np.random.default_rng(7)
    # trailing zero: exact polynomial, no truncation probe
    coeffs = tuple(rng.standard_normal(30)) + (0.0,)
    x = 0.8
    expect = math.fsum(a * x ** n for n, a in enumerate(coeffs))
    res = evaluate(PowerSeries(coeffs), x)
    assert res.value == pytest.approx(expect, abs=1e-15)


def test_cancellation_index_alternating():
    # e^{-30} by raw series: huge cancellation
    s = from_coefficient_rule(lambda n: (-1.0) ** n / math.factorial(n),
                              order=170)
    with pytest.warns(PrecisionWarning):
        res = evaluate(s, 30.0)
    assert res.cancellation_index > 1e6


def test_truncation_warning():
    with pytest.warns(TruncationWarning):
        evaluate(geometric(10), 0.9)


def test_overflow_reports_index():
    s = PowerSeries((1.0, 1.0, 1.0))
    with pytest.raises(SeriesOverflowError) as info:
        evaluate(s, 1e200)
    assert info.value.index == 2


def test_multiplier_diagonal_action():
    s = PowerSeries((0.0, 1.0, 1.0, 1.0, 0.0))
    m = SpectralMultiplier(lambda n: float(n) ** 2, 0.0, "n^2")
    out = apply_multiplier(m, s)
    assert tuple(out.coeffs) == (0.0, 1.0, 4.0, 9.0, 0.0)


def test_multiplier_skips_zero_coefficients():
    # phi undefined at 0 must not be probed where a_0 = 0
    m = SpectralMultiplier(lambda n: 1.0 / n, 0.5, "1/n")
    s = PowerSeries((0.0, 2.0, 3.0))
    out = apply_multiplier(m, s)
    assert tuple(out.coeffs) == (0.0, 2.0, 1.5)


def test_multiplier_domain_floor():
    m = SpectralMultiplier(lambda n: 1.0 / n, 0.5, "1/n")
    s = PowerSeries((1.0, 1.0))
    with pytest.raises(SpectralDomainError) as info:
        apply_multiplier(m, s)
    assert info.value.index == 0
    assert info.value.floor == 0.5


def test_multiplier_nonfinite_value():
    m = SpectralMultiplier(lambda n: math.inf, 0.0, "bad")
    with pytest.raises(ValueError):
        apply_multiplier(m, PowerSeries((1.0,)))


def test_multiplier_composition_commutes():
    phi1 = SpectralMultiplier(lambda n: n + 1.0, 0.0, "n+1")
    phi2 = SpectralMultiplier(lambda n: math.sqrt(n + 2.0), 0.0, "sqrt")
    s = PowerSeries((0.5, -1.0, 2.0, 0.25))
    a = apply_multiplier(phi1, apply_multiplier(phi2, s))
    b = apply_multiplier(phi2, apply_multiplier(phi1, s))
    assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_derivative_falling_factorial(k):
    # d^k/dx^k of x^5 at x = 1.3 is 5!/(5-k)! * 1.3^(5-k)
    s = PowerSeries((0.0,) * 5 + (1.0, 0.0))
    d = derivative(s, k)
    x = 1.3
    expect = (math.factorial(5) / math.factorial(5 - k)) * x ** (5 - k)
    assert evaluate(d, x).value == pytest.approx(expect, rel=1e-14)


def test_derivative_drops_constants():
    s = PowerSeries((4.0, 2.0, 1.0))
    assert tuple(derivative(s, 1).coeffs) == (2.0, 2.0)
    assert tuple(derivative(s, 3).coeffs) == (0.0,)


@pytest.mark.parametrize("call, fragment", [
    (lambda: PowerSeries(()), "non-empty"),
    (lambda: from_coefficient_rule(lambda n: 1.0, -1), "order must be >= 0"),
    (lambda: from_coefficient_rule(lambda n: math.inf if n == 2 else 1.0, 4),
     "non-finite value at n=2"),
])
def test_series_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
