import math

import numpy as np
import pytest

from fracshift.errors import (
    DecayWarning,
    DivergenceError,
    QuadratureDomainError,
)
from fracshift.fracops import (
    CoordinateMap,
    generalized_half,
    generalized_half_batch,
    half_sqrt_xd,
    half_sqrt_xd_batch,
    log_map,
    reflected_radial_map,
    weyl_half_radial,
    weyl_half_radial_batch,
    xd_negpow,
    xd_negpow_batch,
)
from fracshift.quadrature import (
    integrate_decaying_batch,
    integrate_finite_batch,
    integrate_semi_infinite_batch,
)
from fracshift.series import PowerSeries
from fracshift.solvers import (
    EquationSpec,
    Family,
    solve_gaussian_dilation,
    solve_generalized_shift,
    solve_laplace_dilation,
    solve_moebius,
    solve_radial,
)

from conftest import simpson_decaying


# -- negative fractional power of the scale derivative ----------------------

def test_negpow_worked_example_quartic():
    # (x d/dx)^(-1/2) x^4 at x = 2: 4^(-1/2) * 16 = 8
    val = xd_negpow(0.5, lambda t: t ** 4, 2.0)
    assert val == pytest.approx(8.0, abs=1e-9)


def test_negpow_integer_order_identity():
    # order one on x is plain antiderivative of the scale action: 1^(-1) x = x
    assert xd_negpow(1.0, lambda t: t, 3.0) == pytest.approx(3.0, abs=1e-9)


def test_negpow_two_term_polynomial():
    val = xd_negpow(0.3, lambda t: t + t * t, 1.0)
    assert val == pytest.approx(1.0 + 2.0 ** -0.3, abs=1e-9)


@pytest.mark.parametrize("nu", [0.25, 1.5])
@pytest.mark.parametrize("n", [0.1, 0.3, 1, 3, 6])
def test_negpow_spectral_action(nu, n):
    x = 1.7
    val = xd_negpow(nu, lambda t, _n=n: t ** _n, x)
    assert val == pytest.approx(n ** (-nu) * x ** n, rel=1e-8)


def test_negpow_vs_simpson():
    # independent check of the substituted integral for f = x^2, nu = 0.7
    nu, x = 0.7, 1.3
    pref = 1.0 / math.gamma(nu + 1.0)

    def integrand(t):
        return (x * math.exp(-t ** (1.0 / nu))) ** 2

    expect = pref * simpson_decaying(integrand, 12.0, 8000)
    assert xd_negpow(nu, lambda t: t * t, x) == pytest.approx(expect, abs=1e-8)


def test_negpow_rejects_constant_tail():
    with pytest.raises(DivergenceError):
        xd_negpow(0.5, lambda t: 1.0, 1.0)


def test_zero_probe_refuses_nan():
    # NaN next to 0 is no evidence that f vanishes there
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1e-100, np.nan, t)

    with pytest.raises(DivergenceError):
        xd_negpow(0.5, f, 1.0)
    with pytest.raises(ValueError, match="vanish"):
        EquationSpec(Family.GAUSSIAN_DILATION, f=f, f_prime=np.ones_like)


@pytest.mark.parametrize("nu", [0.5, 1.5])
@pytest.mark.parametrize("c", [1e-12, 1e-11])
def test_negpow_keeps_a_constant_below_the_probe(nu, c):
    # the zero probe admits f(0) = c <= tol, but where x e^-s underflows onto
    # 0 the integrand is f(0), so the constant is not dropped: the pass
    # cannot converge, rather than return the value for x^2
    res = xd_negpow_batch(nu, lambda t: t * t + c, np.array([0.5, 1.0, 2.0]),
                          tol=1e-10)
    assert not res.converged


@pytest.mark.parametrize("fp, evals", [
    (lambda t: 2.0 * t, 195),
    (lambda t: (2.0 * t - t * t) * np.exp(-t), 255),
    (lambda t: (np.cos(t) - np.sin(t)) * np.exp(-t), 225),
], ids=["x^2", "x^2 e^-x", "sin x e^-x"])
def test_negpow_half_is_the_half_power_kernel(fp, evals):
    # (x d/dx)^(-1/2) of (2/sqrt(pi)) x f' is (2/sqrt(pi)) (x d/dx)^(1/2) f:
    # both kernels are the Weyl integral of order 1/2 on the log map, one
    # shift, so they agree to rounding with equal evaluations
    xs = np.geomspace(0.1, 5.0, 25)
    c = 2.0 / math.sqrt(math.pi)
    neg = xd_negpow_batch(0.5, lambda t: c * t * fp(t), xs, 1e-10)
    half = generalized_half_batch(log_map(), fp, xs, 1e-10)
    assert neg.evaluations == half.evaluations == evals
    assert np.all(np.abs(neg.values - half.values)
                  <= 1e-14 * np.maximum(1.0, np.abs(half.values)))


def test_negpow_linearity():
    nu, x = 0.6, 0.9
    a = xd_negpow(nu, lambda t: t, x)
    b = xd_negpow(nu, lambda t: t ** 3, x)
    both = xd_negpow(nu, lambda t: 2.0 * t + 0.5 * t ** 3, x)
    assert both == pytest.approx(2.0 * a + 0.5 * b, abs=1e-9)


def test_negpow_domain():
    with pytest.raises(ValueError):
        xd_negpow(-0.5, lambda t: t, 1.0)
    with pytest.raises(ValueError):
        xd_negpow(0.5, lambda t: t, -1.0)


def test_negpow_batch_matches_scalar():
    xs = np.array([0.5, 1.0, 2.0])
    res = xd_negpow_batch(0.8, lambda t: t * t, xs)
    for x, v in zip(xs, res.values):
        assert v == pytest.approx(xd_negpow(0.8, lambda t: t * t, float(x)),
                                  abs=1e-10)


# -- half power --------------------------------------------------------------

def test_half_power_linear():
    # (2/sqrt(pi)) sqrt(x d/dx) x = (2/sqrt(pi)) x
    assert half_sqrt_xd(lambda t: 1.0, 1.0) == pytest.approx(
        2.0 / math.sqrt(math.pi), rel=1e-9)


@pytest.mark.parametrize("x", [1.0, 3.0])
def test_half_power_sqrt_tail_underflow(x):
    # f = sqrt(x): the mapped tail reaches x e^-v^2 == 0.0, where f' is
    # infinite; an argument that has left (0, inf) contributes 0
    val = half_sqrt_xd(lambda t: 0.5 * t ** -0.5, x)
    assert abs(val - (2.0 / math.sqrt(math.pi)) * math.sqrt(0.5 * x)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 5])
def test_half_power_monomials(n):
    x = 1.2
    val = half_sqrt_xd(lambda t, _n=n: _n * t ** (_n - 1), x)
    expect = (2.0 / math.sqrt(math.pi)) * math.sqrt(n) * x ** n
    assert val == pytest.approx(expect, rel=1e-9)


def test_half_power_batch_zero_entry():
    res = half_sqrt_xd_batch(lambda t: 1.0 + 0.0 * t, np.array([0.0, 1.0]))
    assert res.values[0] == 0.0
    assert res.values[1] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-9)


def test_half_power_rejects_negative():
    with pytest.raises(ValueError):
        half_sqrt_xd(lambda t: 1.0, -0.5)


# -- coordinate maps ---------------------------------------------------------

def test_builtin_maps_validate():
    for built in (log_map, reflected_radial_map):
        m = built()
        m.validate()


def test_map_detects_wrong_inverse():
    with pytest.raises(ValueError, match="round-trip"):
        CoordinateMap(math.log, lambda w: math.exp(w) + 0.01, lambda x: x,
                      (0.0, math.inf), name="broken")


def test_map_detects_wrong_generator_profile():
    with pytest.raises(ValueError, match="probe failed"):
        CoordinateMap(math.log, math.exp, lambda x: 2.0 * x,
                      (0.0, math.inf), name="badq")


def test_map_rejects_empty_domain():
    with pytest.raises(ValueError):
        CoordinateMap(math.log, math.exp, lambda x: x, (2.0, 1.0))


# -- radial half-power kernels ------------------------------------------------

def _pair(beta):
    amp = 0.5 * math.sqrt(math.pi / (2.0 * beta))

    def f(xi):
        xi = np.asarray(xi, dtype=float)
        return amp * np.exp(-beta * xi * xi)

    def fp(xi):
        xi = np.asarray(xi, dtype=float)
        return amp * (-2.0 * beta * xi) * np.exp(-beta * xi * xi)

    return f, fp


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("x", [0.0, 0.7, 2.0])
def test_radial_transported_recovers_gaussian(beta, x):
    f, fp = _pair(beta)
    val = weyl_half_radial(f, fp, x)
    assert val == pytest.approx(math.exp(-beta * x * x), abs=1e-9)


def test_radial_rejects_negative_x():
    f, fp = _pair(1.0)
    with pytest.raises(ValueError):
        weyl_half_radial(f, fp, -1.0)


def test_radial_batch_matches_scalar():
    f, fp = _pair(2.0)
    xs = np.array([0.0, 0.5, 1.5])
    res = weyl_half_radial_batch(f, fp, xs)
    for x, v in zip(xs, res.values):
        assert v == pytest.approx(weyl_half_radial(f, fp, float(x)),
                                  abs=1e-12)


def test_radial_decay_probe_warns():
    # data growing along the profile cannot be integrated; the probe says so
    def f(xi):
        return np.asarray(xi, dtype=float) ** 2

    def fp(xi):
        return 2.0 * np.asarray(xi, dtype=float)

    with pytest.warns(DecayWarning):
        try:
            weyl_half_radial_batch(f, fp, np.array([1.0]))
        except (DivergenceError, ArithmeticError):
            pass


# -- generalized shift kernel -------------------------------------------------

def test_generalized_log_map_is_dilatation_path():
    def fp(t):
        return 3.0 * np.asarray(t, dtype=float) ** 2

    for x in (0.5, 1.0, 2.0):
        a = generalized_half(log_map(), lambda t: np.asarray(t) ** 3, fp, x)
        b = half_sqrt_xd(fp, x)
        exact = (2.0 / math.sqrt(math.pi)) * math.sqrt(3.0) * x ** 3
        assert a == pytest.approx(b, rel=1e-11)
        assert a == pytest.approx(exact, rel=1e-11)


def test_generalized_reflected_map_is_radial_path():
    f, fp = _pair(1.0)
    cmap = reflected_radial_map()
    for x in (0.5, 1.2):
        a = generalized_half(cmap, f, fp, x)
        b = weyl_half_radial(f, fp, x)
        assert a == pytest.approx(b, rel=1e-10)
        assert a == pytest.approx(math.exp(-x * x), rel=1e-10)


def test_generalized_reflected_map_takes_lower_end():
    # F(0) = 0 is finite, so x = 0 is in the domain and the integral is taken
    beta = 1.3
    f, fp = _pair(beta)
    xs = np.array([0.0, 0.7])
    res = generalized_half_batch(reflected_radial_map(), fp, xs)
    assert res.converged
    assert res.values == pytest.approx(np.exp(-beta * xs * xs), abs=1e-9)


def test_generalized_log_map_is_zero_at_lower_end():
    # F(0) = -inf: the value is 0 and f' never sees the x = 0 point; the
    # x = 1 column's nodes that underflow to 0 are masked out of the 1-d calls
    shapes = []
    zeros = []

    def fp(t):
        t = np.asarray(t, dtype=float)
        shapes.append(t.shape)
        zeros.append(int(np.count_nonzero(t == 0.0)))
        return 3.0 * t ** 2

    res = generalized_half_batch(log_map(), fp, np.array([0.0, 1.0]))
    assert res.converged
    assert res.values[0] == 0.0
    assert res.values[1] == pytest.approx(
        (2.0 / math.sqrt(math.pi)) * math.sqrt(3.0), rel=1e-9)
    assert shapes and all(s[1:] in ((1,), ()) for s in shapes)
    assert sum(zeros) == 0


def test_generalized_rejects_point_outside_domain():
    with pytest.raises(ValueError):
        generalized_half(log_map(), lambda t: t, lambda t: 1.0, -2.0)


def _broken_beyond(t0):
    """Scalar data exp(-t^2) whose derivative is NaN from t0 on."""
    f = lambda t: math.exp(-t * t)
    fp = lambda t: -2.0 * t * math.exp(-t * t) if t < t0 else math.nan
    return f, fp


# (kernel call, the range of data arguments at which f' is NaN); the
# descending kernels at x = 3 reach [2, 3), the ascending one at x = 1
# reaches [2, inf); xd_negpow reads f, and the moebius series f' at
# 3/(1 + k) and f, both NaN from 2 on
_BROKEN_DATA = {
    "half_sqrt_xd": (lambda f, fp: half_sqrt_xd(fp, 3.0), (2.0, 3.0)),
    "weyl_half_radial": (lambda f, fp: weyl_half_radial(f, fp, 1.0),
                         (2.0, math.inf)),
    "generalized_half": (lambda f, fp: generalized_half(log_map(), f, fp, 3.0),
                         (2.0, 3.0)),
    "handle eval_batch": (
        lambda f, fp: solve_gaussian_dilation(
            lambda t: t, lambda t: 1.0 if t < 2.0 else math.nan,
        ).eval_batch(np.array([3.0])), (2.0, 3.0)),
    "xd_negpow": (lambda f, fp: xd_negpow(
        0.5, lambda t: t if t < 2.0 else math.nan, 3.0), (2.0, 3.0)),
    "moebius eval_batch": (
        lambda f, fp: solve_moebius(
            lambda t: t if t < 2.0 else math.nan,
            lambda t: 1.0 if t < 2.0 else math.nan, 1.0,
        ).eval_batch(np.array([3.0])), (2.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(_BROKEN_DATA))
def test_nonfinite_data_names_its_argument(name):
    # the refusal names the argument at which f' failed, not the mapped
    # node of the pass that reached it
    run, (lo, hi) = _BROKEN_DATA[name]
    with pytest.raises(QuadratureDomainError) as err:
        run(*_broken_beyond(2.0))
    assert lo <= err.value.abscissa <= hi
    assert repr(err.value.abscissa) in str(err.value)


def test_generalized_batch_matches_scalar():
    def f(t):
        return np.asarray(t, dtype=float)

    def fp(t):
        return np.ones_like(np.asarray(t, dtype=float))

    xs = np.array([0.5, 1.0, 3.0])
    res = generalized_half_batch(log_map(), fp, xs)
    for x, v in zip(xs, res.values):
        assert v == pytest.approx(generalized_half(log_map(), f, fp,
                                                   float(x)), rel=1e-11)


def _counted(calls):
    """x^2 and its derivative, each call recorded in ``calls``."""
    def f(x):
        calls.append("f")
        return np.asarray(x, dtype=float) ** 2

    def fp(x):
        calls.append("fp")
        return 2.0 * np.asarray(x, dtype=float)
    return f, fp


_EMPTY_CALLS = {
    "gaussian handle": lambda f, fp: solve_gaussian_dilation(f, fp).eval_batch,
    "laplace handle": lambda f, fp: solve_laplace_dilation(
        PowerSeries([0.0, 1.0]), 1.0).eval_batch,
    "radial handle": lambda f, fp: solve_radial(
        lambda x: np.exp(-np.square(x)), fp).eval_batch,
    "genshift handle": lambda f, fp: solve_generalized_shift(
        log_map(), f, fp).eval_batch,
    "moebius handle": lambda f, fp: solve_moebius(f, fp, 1.0).eval_batch,
    "xd_negpow_batch": lambda f, fp: lambda xs: xd_negpow_batch(0.5, f, xs),
    "half_sqrt_xd_batch": lambda f, fp: lambda xs: half_sqrt_xd_batch(fp, xs),
    "weyl_half_radial_batch":  # its decay probe samples f whatever xs holds
        lambda f, fp: lambda xs: weyl_half_radial_batch(
            lambda x: np.exp(-np.square(x)), fp, xs),
    "generalized_half_batch":
        lambda f, fp: lambda xs: generalized_half_batch(log_map(), fp, xs),
    "integrate_finite_batch":
        lambda f, fp: lambda xs: integrate_finite_batch(
            lambda t, c: f(np.outer(t, c)), xs, 0.0, 1.0),
    "integrate_semi_infinite_batch":
        lambda f, fp: lambda xs: integrate_semi_infinite_batch(
            lambda t, c: f(np.outer(t, c)), xs),
    "integrate_decaying_batch":
        lambda f, fp: lambda xs: integrate_decaying_batch(
            lambda t, c: f(np.outer(t, c)), xs),
}


@pytest.mark.parametrize("name", sorted(_EMPTY_CALLS))
def test_empty_arguments_give_empty_result(name):
    calls = []
    run = _EMPTY_CALLS[name](*_counted(calls))  # solvers may probe the data
    calls.clear()
    out = run(np.array([]))
    values = getattr(out, "values", out)
    assert np.shape(values) == (0,)
    if hasattr(out, "converged"):
        assert out.converged and out.evaluations == 0
    assert calls == []
