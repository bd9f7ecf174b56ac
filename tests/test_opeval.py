import math

import numpy as np
import pytest

from fracshift.errors import ConvergenceError, DivergenceError, SeriesOverflowError
from fracshift.opeval import (
    ExponentialProfile,
    MultiplierIntegral,
    eval_F,
    eval_F_quadrature,
    eval_F_series,
    eval_G,
    eval_I,
    eval_I_quadrature,
)
from fracshift.quadrature import BatchResult, QuadratureResult, integrate_semi_infinite
from fracshift.series import PowerSeries

from conftest import gamma_ratio_ref, simpson_decaying


def _slope(nu):
    # d F / d x at 0: (sqrt(pi)/2) Gamma(nu - 1/2) / Gamma(nu)
    return 0.5 * math.sqrt(math.pi) * gamma_ratio_ref(nu - 0.5, nu)


# -- F(x; nu) -----------------------------------------------------------------

def test_F_zero_is_zero():
    res = eval_F_series(0.0, 1.5)
    assert res.value == 0.0 and res.terms_used == 0
    assert eval_F_quadrature(0.0, 1.5).value == 0.0


@pytest.mark.parametrize("nu", [1.5, 4.1])
@pytest.mark.parametrize("x", [0.3, 1.0, 4.0, 9.5])
def test_F_series_matches_quadrature(nu, x):
    s = eval_F_series(x, nu).value
    q = eval_F_quadrature(x, nu, tol=1e-11).value
    assert s == pytest.approx(q, abs=1e-9)


@pytest.mark.parametrize("nu", [1.5, 2.0, 4.1])
def test_F_odd(nu):
    for x in (0.4, 2.2, 7.0):
        assert eval_F(-x, nu) == pytest.approx(-eval_F(x, nu), abs=1e-12)


@pytest.mark.parametrize("nu,expect", [(1.5, 1.0), (2.0, math.pi / 4.0)])
def test_F_small_x_slope(nu, expect):
    h = 1e-4
    assert eval_F(h, nu) / h == pytest.approx(expect, abs=1e-6)
    assert _slope(nu) == pytest.approx(expect, rel=1e-13)


def test_F_sine_integral_oracle():
    # direct Simpson of sin(x (1+t^2)^(-nu)) over a long window
    nu, x = 1.5, 2.0

    def integrand(t):
        return math.sin(x * (1.0 + t * t) ** -nu)

    # tail beyond T behaves like x t^(-2 nu); add its leading correction
    T = 400.0
    tail = x * T ** (1.0 - 2.0 * nu) / (2.0 * nu - 1.0)
    approx = simpson_decaying(integrand, T, 60000) + tail
    assert eval_F(x, nu) == pytest.approx(approx, abs=1e-6)


def test_F_domain_below_half():
    with pytest.raises(ValueError):
        eval_F(1.0, 0.3)
    with pytest.raises(ValueError):
        eval_F_series(1.0, 0.49)
    with pytest.raises(ValueError):
        eval_F_quadrature(1.0, 0.2)


def test_F_boundary_diverges():
    with pytest.raises(DivergenceError):
        eval_F(1.0, 0.5)


def test_F_series_overflow_index():
    with pytest.raises(SeriesOverflowError):
        eval_F_series(1e200, 1.5)


def test_F_dispatcher_large_x_uses_quadrature():
    nu, x = 1.5, 25.0
    ref = eval_F_quadrature(x, nu, tol=1e-11).value
    assert eval_F(x, nu) == pytest.approx(ref, abs=1e-9)


def test_F_far_low_nu_draw():
    # F(13.732..., 0.7252...) by the sine-moment series summed in 80-digit
    # arithmetic; at 1e-12 the sine-zero segments do not settle, so eval_F
    # refuses rather than answer
    x, nu, ref = 13.732286170732126, 0.7252230183435544, 15.66480845797576140
    res = eval_F_quadrature(x, nu, 1e-10)
    assert res.converged
    assert abs(res.value - ref) <= 1e-13
    with pytest.raises(ConvergenceError):
        eval_F(x, nu)


def test_F_quadrature_below_rounding_fails_fast():
    # tol 1e-12 on a tail worth ~224 is below float64 rounding: the pass
    # stops after a few bisections that settle nothing, not at the budget
    res = eval_F_quadrature(30.0, 0.55, 1e-12)
    assert not res.converged
    assert res.evaluations < 10_000


def test_F_dispatcher_refuses_unconverged_quadrature(monkeypatch):
    monkeypatch.setattr("fracshift.opeval.eval_F_quadrature",
                        lambda x, nu, tol: QuadratureResult(0.0, 0.05, 999975, False))
    with pytest.raises(ConvergenceError, match=r"F\(30\.0, 0\.55\).*0\.05"):
        eval_F(30.0, 0.55)


# -- moment-function symbol ---------------------------------------------------

def _moment(mu):
    # int_0^inf (1 + y^2)^(-mu) dy
    return 0.5 * math.sqrt(math.pi) * gamma_ratio_ref(mu - 0.5, mu)


def test_multiplier_integral_probe_accepts_truth():
    MultiplierIntegral(_moment, 0.5, lambda y: 1.0 / (1.0 + y * y))


def test_multiplier_integral_probe_rejects_wrong_moments():
    with pytest.raises(ValueError):
        MultiplierIntegral(lambda mu: _moment(mu) + 1e-3, 0.5,
                           lambda y: 1.0 / (1.0 + y * y))


def test_multiplier_integral_probe_refuses_unconverged_oracle(monkeypatch):
    # an unconverged probe proves nothing, even when its value agrees
    def unconverged(f, mus, a, tol):
        return BatchResult(np.array([_moment(mu) for mu in mus]),
                           np.full(len(mus), 0.05), 999975, False)

    monkeypatch.setattr("fracshift.quadrature.integrate_semi_infinite_batch",
                        unconverged)
    with pytest.raises(ConvergenceError, match="mu=0.75"):
        MultiplierIntegral(_moment, 0.5, lambda y: 1.0 / (1.0 + y * y))


_KERNELS = {
    "gauss": (lambda y: math.exp(-y * y), lambda mu: 0.5 * math.sqrt(math.pi / mu)),
    "lorentz": (lambda y: 1.0 / (1.0 + y * y), _moment),
}


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_multiplier_integral_probes_share_one_pass(name):
    # the three probe exponents are columns of one pass: g is called at
    # fewer points than three separate passes call it
    g, moment = _KERNELS[name]
    points = [0]

    def counted(y):
        points[0] += 1
        return g(y)

    MultiplierIntegral(moment, 0.5, counted)
    shared = points[0]
    points[0] = 0
    for mu in (0.75, 1.5, 3.0):
        res = integrate_semi_infinite(lambda y: counted(y) ** mu, 0.0, 1e-9)
        assert res.converged
    assert shared < points[0]
    with pytest.raises(ValueError, match="disagrees"):
        MultiplierIntegral(lambda mu: moment(mu) * (1.0 + 1e-6), 0.5, g)


def test_eval_G_linear_data():
    mi = MultiplierIntegral(_moment, 0.5)
    f = PowerSeries((0.0, 1.0, 0.0))
    # O(1) = (sqrt(pi)/2) Gamma(1/2) / Gamma(1) = pi/2
    assert eval_G(mi, f, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_eval_G_mixed_series():
    mi = MultiplierIntegral(_moment, 0.5)
    f = PowerSeries((0.0, 2.0, 0.0, -0.5, 0.0))
    x = 0.8
    expect = 2.0 * _moment(1.0) * x - 0.5 * _moment(3.0) * x ** 3
    assert eval_G(mi, f, x) == pytest.approx(expect, rel=1e-12)


# -- shifted-profile integral -------------------------------------------------

def test_profile_requires_positive_rates():
    with pytest.raises(ValueError):
        ExponentialProfile([(1.0, -2.0)])


def test_profile_value():
    p = ExponentialProfile([(1.0, 1.0), (0.5, 3.0)])
    w = 0.7
    assert p.value_at_w(w) == pytest.approx(
        math.exp(-w) + 0.5 * math.exp(-3.0 * w), rel=1e-15)


def _gauss_probe():
    # f = e^{-x^2} as a profile in w = x^2/2
    return ExponentialProfile([(1.0, 2.0)])


def _Q_sqrt(mu):
    return 0.5 * math.sqrt(math.pi / (-mu))


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0])
def test_eval_I_matches_quadrature(x):
    p = _gauss_probe()
    val = eval_I(p, _Q_sqrt, x)
    ref = eval_I_quadrature(p, lambda t: -t * t, x, tol=1e-12)
    assert ref.converged
    assert val == pytest.approx(ref.value, abs=1e-10)


def test_eval_I_closed_form():
    # single term: Q(-2) e^{-2 w} = (1/2) sqrt(pi/2) e^{-x^2}
    x = 1.3
    expect = 0.5 * math.sqrt(math.pi / 2.0) * math.exp(-x * x)
    assert eval_I(_gauss_probe(), _Q_sqrt, x) == pytest.approx(expect,
                                                              rel=1e-14)


def test_eval_I_rejects_raising_symbol():
    def Q(mu):
        raise ValueError("no value here")

    with pytest.raises(ValueError, match="spectral point"):
        eval_I(_gauss_probe(), Q, 1.0)


def test_eval_I_rejects_nonfinite_symbol():
    with pytest.raises(ValueError, match="non-finite"):
        eval_I(_gauss_probe(), lambda mu: math.inf, 1.0)


def test_series_refuses_nonpositive_tol():
    with pytest.raises(ValueError, match="tol must be positive"):
        eval_F_series(1.0, 1.5, tol=0.0)
