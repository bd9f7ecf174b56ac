import math

import pytest

from fracshift.errors import PrecisionWarning
from fracshift.specfun import (
    STIRLING_FRAC_MAX_K,
    bessel_wright,
    log_gamma,
    recip_gamma,
    stirling2,
    stirling2_frac,
)

from conftest import count_partitions, j0_ref, lgamma_ref


@pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 3.7, 10.0, 41.0, 170.5])
def test_log_gamma_vs_stirling_series(x):
    assert log_gamma(x) == pytest.approx(lgamma_ref(x), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("x", [0.25, 1.0, 2.5, 41.0, 170.5])
def test_recip_gamma_inverts_gamma(x):
    assert recip_gamma(x) * math.gamma(x) == pytest.approx(1.0, rel=5e-15)


def test_recip_gamma_beyond_overflow():
    # Gamma overflows past ~171.6; the reciprocal must still come back finite
    v = recip_gamma(200.0)
    assert v == pytest.approx(math.exp(-lgamma_ref(200.0)), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.5, 4.0, 9.0])
def test_bessel_wright_is_j0_for_unit_step(x):
    # W_0(x | 1) = J0(2 sqrt x)
    assert bessel_wright(0, 1.0, x) == pytest.approx(
        j0_ref(2.0 * math.sqrt(x)), abs=1e-12)


def test_bessel_wright_direct_partial_sums():
    # mu = 2: compare against a short explicit sum (terms decay fast at x = 1)
    x = 1.0
    expect = math.fsum((-x) ** k / (math.factorial(k) * math.gamma(2 * k + 1))
                       for k in range(20))
    assert bessel_wright(0, 2.0, x) == pytest.approx(expect, rel=1e-13)


def test_bessel_wright_offset_index():
    # W_1(x | 1) = sum (-x)^k / (k! (k+1)!)
    x = 0.7
    expect = math.fsum((-x) ** k / (math.factorial(k) * math.factorial(k + 1))
                       for k in range(25))
    assert bessel_wright(1, 1.0, x) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("n,k,expect", [(3, 2, 3), (4, 2, 7)])
def test_stirling2_known(n, k, expect):
    assert stirling2(n, k) == expect


def test_stirling2_vs_brute_force():
    for n in range(0, 8):
        for k in range(0, n + 2):
            assert stirling2(n, k) == count_partitions(n, k), (n, k)


def test_stirling2_out_of_range():
    with pytest.raises(ValueError):
        stirling2(41, 3)
    assert stirling2(5, 7) == 0


def test_stirling2_frac_known_value():
    # S(1/2, 2) = (sqrt 2 - 2) / 2
    assert stirling2_frac(0.5, 2) == pytest.approx(
        (math.sqrt(2.0) - 2.0) / 2.0, rel=1e-14)


@pytest.mark.parametrize("nu", [1, 2, 3, 5])
def test_stirling2_frac_reproduces_integers(nu):
    for k in range(0, nu + 1):
        assert stirling2_frac(float(nu), k) == pytest.approx(
            float(stirling2(nu, k)), rel=1e-12, abs=1e-12)
    # above the diagonal the finite difference annihilates the monomial
    for k in range(nu + 1, nu + 4):
        assert abs(stirling2_frac(float(nu), k)) < 1e-10


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("m", [1, 2, 4, 7, 10])
def test_newton_series_diagonal_identity(nu, m):
    # sum_k S(nu, k) m!/(m-k)! = m^nu exactly once k reaches m
    total = math.fsum(
        stirling2_frac(nu, k) * math.factorial(m) / math.factorial(m - k)
        for k in range(0, m + 1)
    )
    assert total == pytest.approx(m ** nu, rel=1e-11, abs=1e-11)


def test_stirling2_frac_domain():
    with pytest.raises(ValueError):
        stirling2_frac(-0.5, 2)
    with pytest.raises(ValueError):
        stirling2_frac(0.5, STIRLING_FRAC_MAX_K + 1)


def test_stirling2_frac_cancellation_warning():
    # far out along the row the alternating sum loses digits and must say so
    with pytest.warns(PrecisionWarning):
        stirling2_frac(0.5, 55)


@pytest.mark.parametrize("call, fragment", [
    (lambda: log_gamma(0.0), "log_gamma requires x > 0"),
    (lambda: recip_gamma(-1.0), "recip_gamma requires x > 0"),
    (lambda: bessel_wright(-1, 1.0, 0.5), "n must be >= 0"),
    (lambda: bessel_wright(0, 0.0, 0.5), "mu must be positive"),
    (lambda: stirling2_frac(0.5, -1), "k must be >= 0"),
])
def test_specfun_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
