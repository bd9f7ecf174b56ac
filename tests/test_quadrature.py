import math

import numpy as np
import pytest

from fracshift.errors import DivergenceError, QuadratureDomainError
from fracshift.fracops import reflected_radial_map
from fracshift.quadrature import (
    integrate_decaying_batch,
    integrate_finite,
    integrate_finite_batch,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
    wynn_epsilon,
)
from fracshift.solvers import EquationSpec, Family, solve
from fracshift.verify import residual

from conftest import simpson


def test_polynomial_exact():
    res = integrate_finite(lambda x: x, 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 0.5) < 1e-13


def test_smooth_vs_simpson():
    f = lambda x: math.exp(-x) * math.cos(3.0 * x)
    res = integrate_finite(f, 0.0, 2.0, tol=1e-12)
    assert abs(res.value - simpson(f, 0.0, 2.0, 4000)) < 1e-10


# Endpoint singularities need no declaration: a pass that stalls at an end
# of its range extrapolates over the bisection levels towards it.

def test_inverse_sqrt_lower_hint():
    res = integrate_finite(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 2.0) < 1e-10


def test_inverse_sqrt_upper_hint():
    res = integrate_finite(lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 2.0) < 1e-10


def test_log_power_upper_hint():
    # int_0^1 (-ln x)^(-1/2) dx = Gamma(1/2) = sqrt(pi)
    res = integrate_finite(lambda x: (-math.log(x)) ** -0.5, 0.0, 1.0)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-9


def _algebraic_moment(p):
    # int_0^inf (1+y^2)^-p dy = (sqrt(pi)/2) Gamma(p - 1/2) / Gamma(p)
    return 0.5 * math.sqrt(math.pi) * math.gamma(p - 0.5) / math.gamma(p)


CALIBRATION = (
    [(f"x^{al}", lambda x, al=al: x ** al, 1.0 / (1.0 + al), "finite")
     for al in (-0.5, -0.7, -0.9)]
    + [(f"(1-x)^{al}", lambda x, al=al: (1.0 - x) ** al, 1.0 / (1.0 + al),
        "finite") for al in (-0.5, -0.7, -0.9)]
    + [("(-lnx)^-0.5", lambda x: (-math.log(x)) ** -0.5, math.sqrt(math.pi),
        "finite"),
       ("x^-0.5(1-x)^-0.5", lambda x: (x * (1.0 - x)) ** -0.5, math.pi,
        "finite")]
    + [(f"{pre}(1+y^2)^-{p}", lambda y, p=p: (1.0 + y * y) ** -p,
        _algebraic_moment(p), kind)
       for pre, kind in (("", "semi"), ("decaying ", "decaying"))
       for p in (0.55, 0.6, 0.75, 0.9)]
)
MUST_CONVERGE = ("x^-0.5", "(1-x)^-0.5", "(1+y^2)^-0.75",
                 "decaying (1+y^2)^-0.75")


@pytest.mark.parametrize("name,f,exact,kind", CALIBRATION,
                         ids=[c[0] for c in CALIBRATION])
def test_endpoint_extrapolation_is_calibrated(name, f, exact, kind):
    # every converged=True result lies within tol of the closed form
    tol = 1e-10 if kind == "finite" else 1e-9
    if kind == "decaying":
        res = integrate_decaying_batch(lambda y, _: f(y), [0], tol=tol)
        value = float(res.values[0])
    else:
        res = integrate_semi_infinite(f, 0.0, tol) if kind == "semi" \
            else integrate_finite(f, 0.0, 1.0, tol=tol)
        value = res.value
    assert res.evaluations < 10_000
    if res.converged:
        assert abs(value - exact) <= tol
    assert res.converged or name not in MUST_CONVERGE


# The same passes measured before column retirement: a one-column pass keeps
# its panels, so its value, error and evaluation count (bit-identical on the
# reference machine; rounding-level slack for other libm builds).
ONE_COLUMN_BEFORE = {
    "x^-0.5": (1.9999999999999993, 1.7311956843799034e-13, 1425),
    "x^-0.7": (3.333333333333332, 8.555617073577052e-13, 1425),
    "x^-0.9": (9.999999999999995, 6.463320027493543e-12, 1425),
    "(1-x)^-0.5": (2.0, 1.7316693196107988e-13, 1365),
    "(1-x)^-0.7": (3.333333333333333, 8.530305974993197e-13, 1365),
    "(1-x)^-0.9": (10.000000000000009, 5.573151842587803e-12, 1365),
    "(-lnx)^-0.5": (1.7724538509055376, 1.448037779453306e-11, 2175),
    "x^-0.5(1-x)^-0.5": (3.1415926535897927, 2.759044854879e-13, 2745),
    "(1+y^2)^-0.55": (10.67672466625085, 2.395602826060092e-11, 1365),
    "(1+y^2)^-0.6": (5.661543487608489, 1.6092385087694735e-11, 1365),
    "(1+y^2)^-0.75": (2.6220575542921223, 3.672256995867543e-11, 1365),
    "(1+y^2)^-0.9": (1.839546990196844, 8.377074895946849e-10, 1065),
    "decaying (1+y^2)^-0.55": (10.67672466625085, 2.3956030726489483e-11, 1365),
    "decaying (1+y^2)^-0.6": (5.661543487608489, 1.6092387501687757e-11, 1365),
    "decaying (1+y^2)^-0.75": (2.6220575542921223, 3.672257466578818e-11, 1365),
    "decaying (1+y^2)^-0.9": (1.8395469902009265, 3.309070525648284e-10, 1125),
}


@pytest.mark.parametrize("name,f,exact,kind", CALIBRATION,
                         ids=[c[0] for c in CALIBRATION])
def test_one_column_pass_is_unchanged(name, f, exact, kind):
    tol = 1e-10 if kind == "finite" else 1e-9
    if kind == "decaying":
        res = integrate_decaying_batch(lambda y, _: f(y), [0], tol=tol)
        got = (float(res.values[0]), float(res.errors[0]), res.evaluations)
    else:
        res = integrate_semi_infinite(f, 0.0, tol) if kind == "semi" \
            else integrate_finite(f, 0.0, 1.0, tol=tol)
        got = (res.value, res.abs_error_estimate, res.evaluations)
    value, error, evals = ONE_COLUMN_BEFORE[name]
    assert got[2] == evals
    assert got[0] == pytest.approx(value, rel=1e-15, abs=0.0)
    assert got[1] == pytest.approx(error, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("b", [0.5, 3.0, 7.0])
def test_upper_end_singularity_away_from_one(b):
    # near b != 1 the outer Kronrod node of a half panel rounds onto b before
    # the panel is too narrow to bisect; such a panel is frozen instead
    tol = 1e-10
    res = integrate_finite(lambda x: (b - x) ** -0.5, 0.0, b, tol=tol)
    assert res.converged
    assert abs(res.value - 2.0 * math.sqrt(b)) <= tol


AMPLITUDES = np.array([1.0, 1e-6, 1e-12])
RUNGE_EXACT = 0.4 * math.atan(5.0)  # int_-1^1 dx / (1 + 25 x^2)


def _runge_columns(points):
    def f(x, amps):
        points.append(x.size * amps.size)
        return np.outer(1.0 / (1.0 + 25.0 * x * x), amps)
    return f


def test_retired_columns_keep_their_accuracy():
    # the small columns retire early and are banked; each stays within tol of
    # its exact value and its reported error bounds the true one
    tol = 1e-12
    res = integrate_finite_batch(_runge_columns([]), AMPLITUDES, -1.0, 1.0,
                                 tol=tol)
    assert res.converged
    true_err = np.abs(res.values - AMPLITUDES * RUNGE_EXACT)
    assert np.all(true_err <= tol)
    assert np.all(res.errors <= tol)
    assert np.all(true_err <= res.errors)


def test_retired_columns_are_not_evaluated():
    # the integrand sees fewer column-points than 15 per panel per column
    points = []
    res = integrate_finite_batch(_runge_columns(points), AMPLITUDES, -1.0, 1.0,
                                 tol=1e-12)
    assert sum(points) < res.evaluations * len(AMPLITUDES)


DIVERGENT = [
    ("x^-1", lambda x: 1.0 / x, False),
    ("x^-1.5", lambda x: x ** -1.5, False),
    ("(1-x)^-1", lambda x: 1.0 / (1.0 - x), False),
    ("(1+y)^-1", lambda y: 1.0 / (1.0 + y), True),
    ("(1+y)^-0.9", lambda y: (1.0 + y) ** -0.9, True),
]


@pytest.mark.parametrize("name,f,semi", DIVERGENT, ids=[d[0] for d in DIVERGENT])
def test_divergent_endpoint_never_converges(name, f, semi):
    # Wynn's epsilon has an antilimit for these; it must not be reported
    try:
        res = integrate_semi_infinite(f, 0.0) if semi \
            else integrate_finite(f, 0.0, 1.0)
    except DivergenceError:
        return
    assert not res.converged
    assert res.evaluations < 10_000


def test_interior_singularity_fails_fast():
    # bisection freezes at x = 1/3 with the error above tol: stop there
    res = integrate_finite(lambda x: abs(x - 1.0 / 3.0) ** -0.5, 0.0, 1.0)
    assert not res.converged
    assert res.evaluations < 10_000


def test_nonfinite_integrand_reports_abscissa():
    def f(x):
        return math.nan if x > 0.5 else 1.0

    with pytest.raises(QuadratureDomainError) as info:
        integrate_finite(f, 0.0, 1.0)
    assert 0.5 < info.value.abscissa <= 1.0


def test_semi_infinite_values():
    res = integrate_semi_infinite(lambda y: math.exp(-y), 0.0, tol=1e-12)
    assert abs(res.value - 1.0) < 1e-10
    res = integrate_semi_infinite(lambda y: (1.0 + y * y) ** -2, 0.0,
                                  tol=1e-12)
    assert abs(res.value - math.pi / 4.0) < 1e-10
    res = integrate_semi_infinite(lambda y: math.exp(-2.0 * y * y), 0.0,
                                  tol=1e-12)
    assert abs(res.value - 0.5 * math.sqrt(math.pi / 2.0)) < 1e-10


def test_semi_infinite_shifted_origin():
    res = integrate_semi_infinite(lambda y: math.exp(-y), 2.0, tol=1e-12)
    assert abs(res.value - math.exp(-2.0)) < 1e-10


def test_divergence_detected():
    with pytest.raises(DivergenceError):
        integrate_semi_infinite(math.exp, 0.0)


def test_wynn_epsilon_alternating():
    # partial sums of log(2) = sum (-1)^(k+1)/k
    partial = []
    s = 0.0
    for k in range(1, 20):
        s += (-1.0) ** (k + 1) / k
        partial.append(s)
    est, err = wynn_epsilon(partial)
    assert abs(est - math.log(2.0)) < 1e-7
    assert err < 1e-5


def test_finite_batch_matches_scalar():
    # batch integrands are node-major: shape (len(x), len(cols)), here with
    # column indices as the column parameters
    def fb(x, cols):
        x = np.asarray(x)
        return np.stack([np.exp(-x), np.cos(x)], axis=1)[:, cols]

    res = integrate_finite_batch(fb, np.arange(2), 0.0, 1.5, tol=1e-12)
    one = integrate_finite(lambda x: math.exp(-x), 0.0, 1.5, tol=1e-12)
    two = integrate_finite(lambda x: math.cos(x), 0.0, 1.5, tol=1e-12)
    assert np.all(res.converged)
    assert abs(res.values[0] - one.value) < 1e-12
    assert abs(res.values[1] - two.value) < 1e-12


def test_semi_infinite_batch_matches_scalar():
    def fb(y, cols):
        y = np.asarray(y)
        return np.stack([np.exp(-y), np.exp(-2.0 * y * y)], axis=1)[:, cols]

    res = integrate_semi_infinite_batch(fb, np.arange(2), 0.0, tol=1e-11)
    assert np.all(res.converged)
    assert abs(res.values[0] - 1.0) < 1e-9
    assert abs(res.values[1] - 0.5 * math.sqrt(math.pi / 2.0)) < 1e-9


def test_decaying_batch_gaussian_components():
    rates = np.array([0.5, 1.0, 3.0])

    def fb(v, rates):
        return np.exp(-np.outer(np.atleast_1d(v) ** 2, rates))

    res = integrate_decaying_batch(fb, rates, tol=1e-11)
    expect = 0.5 * np.sqrt(np.pi / rates)
    assert np.all(np.abs(res.values - expect) < 1e-9)


@pytest.mark.parametrize("g", [lambda v: np.exp(-v / 10.0),
                               lambda v: np.exp(-v * v)],
                         ids=["exp-decay", "gauss"])
def test_decaying_batch_counts_every_point(g):
    # the evaluation count is every point the integrand was called on
    seen = []

    def f(v, _):
        seen.append(v.size)
        return g(v)

    res = integrate_decaying_batch(f, [0], tol=1e-10)
    assert res.converged
    assert res.evaluations == sum(seen)


def test_budget_exhaustion_flags_not_converged():
    # nastily oscillatory with a tiny budget: must not pretend convergence
    f = lambda x: math.sin(1000.0 * x)
    res = integrate_finite(f, 0.0, 1.0, tol=1e-14, budget=200)
    assert not res.converged


def test_decaying_batch_stays_within_budget():
    # a non-decaying integrand keeps to a budget below its stall
    res = integrate_decaying_batch(lambda v, _: np.cos(v), [0], budget=3000)
    assert res.evaluations <= 3000
    assert not res.converged


@pytest.mark.parametrize("g", [np.cos, lambda v: 0.0 * v + 1.0,
                               lambda v: v * v, lambda v: 1.0 / (1.0 + v)],
                         ids=["cos", "constant", "v^2", "1/(1+v)"])
def test_decaying_batch_fails_fast_without_decay(g):
    # the mapped pass stalls at t -> 1 instead of spending the budget
    res = integrate_decaying_batch(lambda v, _: g(v), [0])
    assert not res.converged
    assert res.evaluations < 5_000


def test_gaussian_residual_point_count():
    # counted f' points of one fixed residual; a change that re-grows the
    # count fails here (243,542 before columns retired from the batch pass)
    points = []

    def fp(x):
        x = np.asarray(x, dtype=float)
        points.append(x.size)
        return 2.0 * x

    spec = EquationSpec(Family.GAUSSIAN_DILATION, f=lambda x: x * x,
                        f_prime=fp)
    rep = residual(spec, solve(spec), np.geomspace(0.1, 3.0, 12))
    assert rep.quad_failures == 0
    assert rep.max_abs < 1e-12
    assert sum(points) <= 189_990


def test_unsolvable_residual_fails_fast():
    # x^2 grows along the reflected radial map, so every inner solution pass
    # stalls, after 1,365 evaluations: once on the shared pass's 75
    # arguments, then once per point of the retry on 15, about 205,000 points
    points = []

    def fp(x):
        x = np.asarray(x, dtype=float)
        points.append(x.size)
        return 2.0 * x

    spec = EquationSpec(Family.GENERALIZED_SHIFT, f=lambda x: x * x,
                        f_prime=fp, cmap=reflected_radial_map())
    rep = residual(spec, solve(spec), np.linspace(0.5, 2.5, 5))
    assert rep.quad_failures == 5
    assert sum(points) < 250_000
