import math

import numpy as np
import pytest

from fracshift.errors import DivergenceError, QuadratureDomainError
from fracshift.fracops import (
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
    _NODES,
    integrate_decaying_batch,
    integrate_finite,
    integrate_finite_batch,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
    wynn_epsilon,
)
from fracshift.opeval import eval_F_series
from fracshift.series import PowerSeries
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
# reference machine; rounding-level slack for other libm builds).  The mapped
# ones were measured again once the mapped pass started from _TAIL_SPANS.
ONE_COLUMN_BEFORE = {
    "x^-0.5": (1.9999999999999993, 1.7311956843799034e-13, 1425),
    "x^-0.7": (3.333333333333332, 8.555617073577052e-13, 1425),
    "x^-0.9": (9.999999999999995, 6.463320027493543e-12, 1425),
    "(1-x)^-0.5": (2.0, 1.7316693196107988e-13, 1365),
    "(1-x)^-0.7": (3.333333333333333, 8.530305974993197e-13, 1365),
    "(1-x)^-0.9": (10.000000000000009, 5.573151842587803e-12, 1365),
    "(-lnx)^-0.5": (1.7724538509055376, 1.448037779453306e-11, 2175),
    "x^-0.5(1-x)^-0.5": (3.1415926535897927, 2.759044854879e-13, 2745),
    "(1+y^2)^-0.55": (10.67672466625073, 1.6443243643910917e-11, 1365),
    "(1+y^2)^-0.6": (5.661543487608596, 2.181094203600111e-12, 1365),
    "(1+y^2)^-0.75": (2.62205755429212, 1.4815439908159245e-13, 1365),
    "(1+y^2)^-0.9": (1.8395469901968442, 7.562945607720743e-10, 1065),
    "decaying (1+y^2)^-0.55": (10.67672466625073, 1.644324610979948e-11, 1365),
    "decaying (1+y^2)^-0.6": (5.661543487608596, 2.1810966175931333e-12, 1365),
    "decaying (1+y^2)^-0.75": (2.62205755429212, 1.4815910619434437e-13, 1365),
    "decaying (1+y^2)^-0.9": (1.8395469901994426, 4.343909826153316e-10, 1095),
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


def test_mixed_tail_columns_extrapolate_together():
    # an algebraic-tail column and a fast-decaying one share the stalled
    # pass; the settled fast column does not block the extrapolation
    ps = np.array([0.55, 2.0])
    tol = 1e-9
    res = integrate_decaying_batch(
        lambda y, p: (1.0 + y[:, None] ** 2) ** -p[None, :], ps, tol=tol)
    assert res.converged
    exact = np.array([_algebraic_moment(p) for p in ps])
    assert np.all(np.abs(res.values - exact) <= tol)


def test_large_integral_stops_at_rounding():
    # about 1.08e5: its rounding floor is above the absolute tol, so the
    # pass accepts an error within 100 eps of the value instead of
    # spending the budget
    k, a, b = 3.39, 0.84, 3.78
    exact = (math.exp(k * b) - math.exp(k * a)) / k
    res = integrate_finite(lambda x: math.exp(k * x), a, b)
    assert res.converged
    assert res.evaluations < 1_000
    assert abs(res.value - exact) <= 100.0 * np.finfo(float).eps * exact



def test_column_settled_at_its_floor_retires():
    # the e^{3.39x} column settles at its rounding floor long before the
    # absolute tol; it retires there, so the narrow peak of the other column
    # is refined alone and the shared pass costs no more than the two apart
    k, a, b = 3.39, 0.84, 3.78
    parts = [lambda x: np.exp(k * x),
             lambda x: 1.0 / (1.0 + 1e6 * (x - 1.5) ** 2)]
    exact = np.array([(math.exp(k * b) - math.exp(k * a)) / k,
                      (math.atan(1e3 * (b - 1.5)) - math.atan(1e3 * (a - 1.5)))
                      / 1e3])
    res = integrate_finite_batch(
        lambda x, c: np.stack([g(x) for g in parts], axis=1)[:, c],
        np.arange(2), a, b)
    apart = [integrate_finite(g, a, b).evaluations for g in parts]
    assert res.converged
    assert res.evaluations <= sum(apart)
    floor = 100.0 * np.finfo(float).eps * np.abs(exact)
    assert np.all(np.abs(res.values - exact) <= np.maximum(1e-10, floor))


def test_cancelling_integral_stops_at_rounding():
    # 1e6 sin(t) e^{-t/10}: the value is about 1e6, the integral of |f|
    # about 6e6, and the rounding floor of the panels is judged against the
    # latter, so the oscillating tail settles instead of spending the budget
    res = integrate_semi_infinite(
        lambda t: 1e6 * math.sin(t) * math.exp(-t / 10.0), 0.0, 1e-10)
    true_err = abs(res.value - 1e6 / 1.01)
    assert res.converged
    assert res.evaluations < 10_000
    assert true_err <= res.abs_error_estimate
    assert true_err <= 100.0 * np.finfo(float).eps * 1e7  # 1e7 > int |f|

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



# Multi-column passes measured before the panels became rows of one store
# (the mapped ones again with _TAIL_SPANS): evaluations exactly, values to
# 1e-15 and errors to 1e-12 relative.
MULTI_COLUMN = {
    "runge": lambda: integrate_finite_batch(
        _runge_columns([]), AMPLITUDES, -1.0, 1.0, tol=1e-12),
    "tails": lambda: integrate_decaying_batch(
        lambda y, p: (1.0 + y[:, None] ** 2) ** -p[None, :],
        np.array([0.55, 2.0]), tol=1e-9),
    "damped": lambda: integrate_decaying_batch(
        lambda y, c: np.exp(-np.outer(y, c)) * np.cos(np.outer(y, c)),
        np.linspace(0.1, 5.0, 25), tol=1e-11),
    "singular": lambda: integrate_finite_batch(
        lambda x, c: np.abs(np.outer(x, c)) ** -0.5,
        np.linspace(0.5, 3.0, 12), 0.0, 1.0),
}
MULTI_COLUMN_BEFORE = {
    "runge": (225,
        [0.5493603067780065, 5.493603067780065e-07, 5.493602980136991e-13],
        [1.4513953526200412e-13, 3.267194468684744e-16, 1.084349313302256e-15]),
    "tails": (1365,
        [10.67672466625073, 0.7853981633974485],
        [1.644324610979948e-11, 1.091500781529115e-14]),
    "damped": (555,
        [5.000000000000001, 1.643835616438356, 0.9836065573770492,
         0.7017543859649122, 0.5454545454545455, 0.4460966542750929,
         0.37735849056603765, 0.32697547683923706, 0.2884615384615385,
         0.2580645161290323, 0.23346303501945526, 0.21314387211367672,
         0.19607843137254904, 0.18154311649016638, 0.1690140845070422,
         0.15810276679841898, 0.1485148514851485, 0.1400233372228705,
         0.13245033112582777, 0.1256544502617801, 0.11952191235059759,
         0.11396011396011395, 0.10889292196007261, 0.10425716768027804, 0.1],
        [1.052479786019286e-12, 5.814816537476661e-13, 1.0630991187998668e-12,
         3.2191251045149516e-13, 3.5678491292152777e-13,
         4.442234310560755e-14, 3.4559271852605736e-13, 6.289176293083579e-13,
         4.594321312706486e-13, 5.333847087556759e-13, 6.862126418679054e-13,
         1.5671130773434145e-13, 1.2177692907142306e-12,
         8.892053975629495e-14, 1.1339322256697296e-12, 9.95826756256471e-14,
         8.680512083276399e-13, 1.7223105449340643e-13,
         1.3001232083193318e-12, 8.48254326162864e-13, 1.1184644110897905e-12,
         6.296821127462474e-13, 1.6720381667036655e-13, 8.080582306619286e-13,
         2.0880687088629673e-12]),
    "singular": (1425,
        [2.8284271247461894, 2.3452078799117144, 2.047065262876635,
         1.8397324220156002, 1.6848470783484637, 1.563471919941143,
         1.4650397480664592, 1.383128149616249, 1.3135791548583706,
         1.2535663410560172, 1.2010923989517508, 1.154700538379251],
        [2.448167287601602e-13, 2.03001554567756e-13, 1.7718824582492246e-13,
         1.5924512057824193e-13, 1.4583448094324992e-13,
         1.3533215467485447e-13, 1.2681892931513745e-13,
         1.1972476433096534e-13, 1.1370435927063204e-13,
         1.0850984349955477e-13, 1.0396516786565608e-13, 9.995319460107085e-14]),
}


@pytest.mark.parametrize("name", list(MULTI_COLUMN))
def test_multi_column_pass_is_unchanged(name):
    res = MULTI_COLUMN[name]()
    evals, values, errors = MULTI_COLUMN_BEFORE[name]
    assert res.converged
    assert res.evaluations == evals
    assert res.values == pytest.approx(values, rel=1e-15, abs=0.0)
    assert res.errors == pytest.approx(errors, rel=1e-12, abs=0.0)

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


# -- the start panels of the mapped pass ---------------------------------------

def test_mapped_pass_starts_from_three_panels():
    # the first integrand calls of a one-column pass on (a, inf) sample the
    # 45 Kronrod nodes of t in (0, 1/4), (1/4, 1/2), (1/2, 1), y = a + t/(1-t)
    a = 0.5
    seen = []

    def f(y, _):
        seen.append(np.array(y))
        return np.exp(-y)

    res = integrate_semi_infinite_batch(f, [0], a)
    assert res.converged
    assert [v.size for v in seen[:3]] == [15, 15, 15]
    ts = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES
                         for lo, hi in ((0.0, 0.25), (0.25, 0.5), (0.5, 1.0))])
    np.testing.assert_allclose(np.concatenate(seen[:3]), a + ts / (1.0 - ts),
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("g", [math.exp, np.exp], ids=["math.exp", "np.exp"])
def test_growing_integrand_is_refused_before_overflow(g):
    # the start panels reach y = 467 at most, where e^y is finite; their
    # integral of |f| is past the divergence bound, so the pass refuses
    # before a bisection of (1/2, 1) samples y ~ 937, where e^y overflows
    seen = []

    def f(y):
        seen.append(y)
        return g(y)

    with pytest.raises(DivergenceError):
        integrate_semi_infinite(f, 0.0)
    assert len(seen) == 45
    assert max(seen) < 468.0


def _calibration_draw(rng):
    """(label, vectorized f, lower limit, closed form of int_lo^inf f)."""
    kind = rng.integers(4)
    if kind == 0:
        k, c = rng.uniform(0.0, 4.0), rng.uniform(0.5, 3.0)
        return (f"y^{k:.3g} e^-{c:.3g}y", lambda y: y ** k * np.exp(-c * y),
                0.0, math.gamma(k + 1.0) / c ** (k + 1.0))
    if kind == 1:
        c = rng.uniform(0.2, 5.0)
        return (f"e^-{c:.3g}y^2", lambda y: np.exp(-c * y * y), 0.0,
                0.5 * math.sqrt(math.pi / c))
    if kind == 2:
        c, p = rng.uniform(0.2, 5.0), rng.uniform(0.6, 3.0)
        return (f"(1+{c:.3g}y^2)^-{p:.3g}", lambda y: (1.0 + c * y * y) ** -p,
                0.0, _algebraic_moment(p) / math.sqrt(c))
    c, w, lo = rng.uniform(0.2, 2.0), rng.uniform(0.5, 5.0), rng.uniform(0.0, 3.0)
    exact = math.exp(-c * lo) * (c * math.cos(w * lo) - w * math.sin(w * lo)) \
        / (c * c + w * w)
    return (f"e^-{c:.3g}y cos({w:.3g}y) from {lo:.3g}",
            lambda y: np.exp(-c * y) * np.cos(w * y), lo, exact)


def test_mapped_pass_is_calibrated_on_closed_forms():
    # every converged mapped pass lies within max(tol, its estimate) of the
    # closed form, over seeded draws of four decaying forms and tolerances
    rng = np.random.default_rng(2024)
    wrong, converged = [], 0
    for _ in range(120):
        label, f, lo, exact = _calibration_draw(rng)
        tol = 10.0 ** rng.uniform(-12.0, -7.0)
        res = integrate_semi_infinite_batch(lambda y, _: f(y), [0], lo, tol)
        if res.converged:
            converged += 1
            if abs(res.values[0] - exact) > max(tol, res.errors[0]):
                wrong.append((label, tol, res.values[0] - exact))
    assert not wrong
    assert converged == 120


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
    # count fails here (243,542 before columns retired from the batch pass,
    # 189,990 before the mapped pass started from _TAIL_SPANS, 131,738
    # before half-power handles answered from an interpolant)
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
    assert sum(points) <= 126


def test_radial_residual_point_count():
    # counted f' points of one fixed residual: the solver's two-point probe
    # of f' and one build
    # (13,592 before the half-power handle certified its data and took the
    # half integral in closed form)
    points = []

    def fp(x):
        x = np.asarray(x, dtype=float)
        points.append(x.size)
        return -2.0 * x * np.exp(-x * x)

    spec = EquationSpec(Family.RADIAL, f=lambda x: np.exp(-np.square(x)),
                        f_prime=fp)
    rep = residual(spec, solve(spec), np.linspace(0.0, 3.0, 13))
    assert rep.quad_failures == 0
    assert rep.max_abs < 1e-12
    assert sum(points) <= 129


def test_moebius_residual_point_count():
    # counted f' points of one fixed residual (55,153 before the moebius
    # handle answered from an interpolant)
    points = []

    def fp(x):
        x = np.asarray(x, dtype=float)
        points.append(x.size)
        return 2.0 * x

    spec = EquationSpec(Family.MOEBIUS, f=lambda x: x * x, f_prime=fp, a=1.0)
    rep = residual(spec, solve(spec), np.geomspace(0.1, 3.0, 12))
    assert rep.quad_failures == 0
    assert rep.max_abs < 1e-12
    assert sum(points) <= 16_639


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


@pytest.mark.parametrize("call, fragment", [
    (lambda: integrate_finite(math.exp, 1.0, 1.0), "need finite a < b"),
    (lambda: integrate_finite(math.exp, 0.0, math.inf), "need finite a < b"),
    (lambda: integrate_finite(math.exp, 0.0, 1.0, tol=0.0), "tol must be positive"),
    (lambda: integrate_semi_infinite(math.exp, -math.inf),
     "lower limit must be finite"),
    (lambda: integrate_semi_infinite(math.exp, 0.0, tol=-1.0), "tol must be positive"),
    (lambda: integrate_finite_batch(lambda x, c: x, [1.0], 2.0, 1.0),
     "need finite a < b"),
    (lambda: integrate_semi_infinite_batch(lambda y, c: np.exp(-y), [1.0],
                                           math.inf),
     "limit must be finite"),
])
def test_bad_range_or_tol_is_refused(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def _counted(calls, h):
    def g(x):
        calls.append(np.size(x))
        return h(x)
    return g


def _exp_decay(x):
    return np.exp(-np.asarray(x, dtype=float))


def _x_exp_decay(x):
    x = np.asarray(x, dtype=float)
    return x * np.exp(-x)


def _spec(family):
    """A valid equation of ``family``; its callables are not counted."""
    sq = lambda x: np.square(np.asarray(x, dtype=float))
    dsq = lambda x: 2.0 * np.asarray(x, dtype=float)
    gauss = lambda x: np.exp(-np.square(np.asarray(x, dtype=float)))
    dgauss = lambda x: -2.0 * np.asarray(x, dtype=float) * gauss(x)
    return {
        "gaussian": EquationSpec(Family.GAUSSIAN_DILATION, f=sq, f_prime=dsq),
        "laplace": EquationSpec(Family.LAPLACE_DILATION, f=dsq,
                                f_series=PowerSeries((0.0, 2.0)), mu=1.0),
        "radial": EquationSpec(Family.RADIAL, f=gauss, f_prime=dgauss),
        "genshift": EquationSpec(Family.GENERALIZED_SHIFT, f=sq, f_prime=dsq,
                                 cmap=log_map()),
        "moebius": EquationSpec(Family.MOEBIUS, f=sq, f_prime=dsq, a=1.0),
    }[family]


# (name, call(tol, calls)): every user callable is wrapped to count into calls
BAD_TOL_CALLS = [
    ("integrate_finite", lambda tol, calls: integrate_finite(
        _counted(calls, math.exp), 0.0, 1.0, tol=tol)),
    ("integrate_semi_infinite", lambda tol, calls: integrate_semi_infinite(
        _counted(calls, math.exp), 0.0, tol=tol)),
    ("integrate_finite_batch", lambda tol, calls: integrate_finite_batch(
        lambda x, c: _counted(calls, _exp_decay)(x), [0], 0.0, 1.0, tol=tol)),
    ("integrate_semi_infinite_batch",
     lambda tol, calls: integrate_semi_infinite_batch(
         lambda y, c: _counted(calls, _exp_decay)(y), [0], 0.0, tol=tol)),
    ("integrate_decaying_batch", lambda tol, calls: integrate_decaying_batch(
        lambda y, c: _counted(calls, _exp_decay)(y), [0], tol=tol)),
    ("xd_negpow", lambda tol, calls: xd_negpow(
        0.5, _counted(calls, _x_exp_decay), 1.0, tol=tol)),
    ("xd_negpow_batch", lambda tol, calls: xd_negpow_batch(
        0.5, _counted(calls, _x_exp_decay), np.array([1.0]), tol=tol)),
    ("half_sqrt_xd", lambda tol, calls: half_sqrt_xd(
        _counted(calls, _exp_decay), 1.0, tol=tol)),
    ("half_sqrt_xd_batch", lambda tol, calls: half_sqrt_xd_batch(
        _counted(calls, _exp_decay), np.array([1.0]), tol=tol)),
    ("weyl_half_radial", lambda tol, calls: weyl_half_radial(
        _counted(calls, _exp_decay), _counted(calls, _exp_decay), 1.0,
        tol=tol)),
    ("weyl_half_radial_batch", lambda tol, calls: weyl_half_radial_batch(
        _counted(calls, _exp_decay), _counted(calls, _exp_decay),
        np.array([1.0]), tol=tol)),
    ("generalized_half_batch", lambda tol, calls: generalized_half_batch(
        reflected_radial_map(), _counted(calls, _exp_decay), np.array([1.0]),
        tol=tol)),
    ("eval_F_series", lambda tol, calls: eval_F_series(1.0, 1.5, tol)),
] + [
    (f"solve {family}", lambda tol, calls, family=family: solve(
        _spec(family), tol)) for family in
    ("gaussian", "laplace", "radial", "genshift", "moebius")
] + [
    (f"residual {family}", lambda tol, calls, family=family: residual(
        _spec(family), _counted(calls, _exp_decay), [1.0], quad_tol=tol))
    for family in ("gaussian", "laplace", "moebius")
]


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("name, call", BAD_TOL_CALLS,
                         ids=[c[0] for c in BAD_TOL_CALLS])
def test_invalid_tol_is_refused_before_any_evaluation(name, call, tol):
    # a NaN tol used to spend the whole budget, and 0 or -1 passed silently
    calls = []
    with pytest.raises(ValueError, match="tol must be positive"):
        call(tol, calls)
    assert calls == []
