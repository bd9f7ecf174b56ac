import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from fracshift.errors import (
    ConvergenceError,
    PrecisionWarning,
    QuadratureDomainError,
)
from fracshift.fracops import (
    CoordinateMap,
    generalized_half_batch,
    log_map,
    reflected_radial_map,
)
from fracshift.series import PowerSeries, evaluate, from_coefficient_rule
from fracshift.solvers import (
    _BUILD_AFTER,
    FAMILIES,
    _InterpolatingBatch,
    _map_descends_at_zero,
    EquationSpec,
    Family,
    moebius_partial_sum,
    solve,
    solve_gaussian_dilation,
    solve_generalized_shift,
    solve_laplace_dilation,
    solve_moebius,
    solve_radial,
)
from fracshift.specfun import bessel_wright

from conftest import simpson_decaying


def _identity(x):
    return np.asarray(x, dtype=float)


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


# -- spec validation ----------------------------------------------------------

def test_spec_laplace_needs_series():
    with pytest.raises(ValueError):
        EquationSpec(Family.LAPLACE_DILATION, f=_identity, f_prime=_one)


def test_spec_laplace_needs_positive_mu():
    s = PowerSeries((0.0, 1.0))
    with pytest.raises(ValueError):
        EquationSpec(Family.LAPLACE_DILATION, f_series=s, mu=0.0)


def test_spec_moebius_needs_window():
    with pytest.raises(ValueError):
        EquationSpec(Family.MOEBIUS, f=_identity, f_prime=_one)


@pytest.mark.parametrize("family", [Family.MOEBIUS, Family.GAUSSIAN_DILATION,
                                    Family.GENERALIZED_SHIFT],
                         ids=["moebius", "gaussian", "genshift-log"])
def test_spec_moebius_rejects_nonvanishing_data(family):
    f = lambda x: np.exp(-np.asarray(x, dtype=float))
    fp = lambda x: -np.exp(-np.asarray(x, dtype=float))
    with pytest.raises(ValueError, match="vanish"):
        EquationSpec(family, f=f, f_prime=fp, a=1.0, cmap=log_map())


def test_spec_genshift_checks_the_descending_end():
    # on the reflected radial map F(0) = 0 is finite and the kernel descends
    # towards x -> inf, so data with f(0) != 0 stays admissible
    f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    fp = lambda x: -2.0 * np.asarray(x, dtype=float) * f(x)
    EquationSpec(Family.GENERALIZED_SHIFT, f=f, f_prime=fp,
                 cmap=reflected_radial_map())


@pytest.mark.parametrize("solver", [
    solve_gaussian_dilation,
    lambda f, fp: solve_generalized_shift(log_map(), f, fp),
], ids=["gaussian", "genshift-log"])
def test_direct_solvers_refuse_nonvanishing_data(solver):
    # 1 + x^2 has the same derivative as x^2, so without the check the
    # solution for x^2 would come back for it
    with pytest.raises(ValueError, match=r"f\(0\) must vanish"):
        solver(lambda x: 1.0 + np.square(x), lambda x: 2.0 * _identity(x))


@pytest.mark.parametrize("solver", [
    solve_radial,
    lambda f, fp: solve_generalized_shift(reflected_radial_map(), f, fp),
], ids=["radial", "genshift-rr"])
def test_direct_solvers_keep_data_nonzero_at_origin(solver):
    # f = A exp(-x^2), A = sqrt(pi/8), whose radial solution is exp(-x^2)
    amp = 0.5 * math.sqrt(math.pi / 2.0)
    u = solver(lambda x: amp * np.exp(-np.square(x)),
               lambda x: -2.0 * amp * _identity(x) * np.exp(-np.square(x)))
    assert u(0.5) == pytest.approx(math.exp(-0.25), rel=1e-9)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: solve_laplace_dilation(PowerSeries((0.0, 1.0)), 0.0),
     ValueError, "needs mu > 0"),
    (lambda: solve_moebius(_identity, _one, 0.0), ValueError, "needs a > 0"),
    (lambda: solve_moebius(_identity, _one, 1.0, tol=0.0),
     ValueError, "tol must be positive"),
    (lambda: solve_moebius(_identity, _one, 1.0).eval_batch(np.array([-1.0])),
     ValueError, "arguments must be >= 0"),
    # f = x sin(1/x): the terms h(x_k) oscillate and decay like 1/k
    (lambda: solve_moebius(lambda x: x * np.sin(1.0 / x),
                           lambda x: np.sin(1.0 / x) - np.cos(1.0 / x) / x, 1.0),
     ConvergenceError, "cap K=131072"),
])
def test_solver_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_spec_genshift_needs_map():
    with pytest.raises(ValueError):
        EquationSpec(Family.GENERALIZED_SHIFT, f=_identity, f_prime=_one)


_VALID_FIELDS = {
    "f": _identity,
    "f_prime": _one,
    "f_series": PowerSeries((0.0, 1.0)),
    "mu": 1.0,
    "a": 1.0,
    "cmap": log_map(),
}


@pytest.mark.parametrize(
    "family,field",
    [(fam, field) for fam in Family for field in FAMILIES[fam].requires],
    ids=lambda v: v.value if isinstance(v, Family) else v,
)
def test_spec_refuses_each_missing_field(family, field):
    fields = {name: _VALID_FIELDS[name] for name in FAMILIES[family].requires}
    EquationSpec(family, **fields)
    fields[field] = None
    with pytest.raises(ValueError, match=rf"needs {field}\b"):
        EquationSpec(family, **fields)


def test_spec_rhs_from_series():
    s = PowerSeries((1.0, 2.0, 0.0))
    spec = EquationSpec(Family.LAPLACE_DILATION, f_series=s, mu=1.0)
    assert spec.rhs(0.5) == pytest.approx(2.0)


# -- gaussian dilation --------------------------------------------------------

def test_gaussian_linear_solution():
    u = solve_gaussian_dilation(_identity, _one)
    # int_0^inf u(x e^{-y^2}) dy = x requires u = (2/sqrt(pi)) x
    for x in (0.3, 1.0, 4.0):
        assert u(x) == pytest.approx(2.0 / math.sqrt(math.pi) * x, rel=1e-9)


def test_gaussian_solution_satisfies_equation():
    f = lambda x: np.asarray(x, dtype=float) ** 3
    fp = lambda x: 3.0 * np.asarray(x, dtype=float) ** 2
    u = solve_gaussian_dilation(f, fp)
    x = 1.4

    def lhs(y):
        return u.eval(x * math.exp(-y * y))

    assert simpson_decaying(lhs, 8.0, 4000) == pytest.approx(x ** 3, abs=1e-7)


def _x2(x):
    return np.asarray(x, dtype=float) ** 2


def _x2_prime(x):
    return 2.0 * np.asarray(x, dtype=float)


def _gauss(x):
    # radial data whose solution is exp(-x^2)
    return 0.5 * math.sqrt(math.pi / 2.0) * np.exp(-_x2(x))


def _gauss_prime(x):
    return -2.0 * np.asarray(x, dtype=float) * _gauss(x)


def _agreement_spec(family):
    exp_series = from_coefficient_rule(
        lambda n: (-1.0) ** n / math.factorial(n), order=30)
    return {
        Family.GAUSSIAN_DILATION: dict(f=_x2, f_prime=_x2_prime),
        Family.LAPLACE_DILATION: dict(f_series=exp_series, mu=1.0),
        Family.RADIAL: dict(f=_gauss, f_prime=_gauss_prime),
        Family.GENERALIZED_SHIFT: dict(f=_x2, f_prime=_x2_prime,
                                       cmap=log_map()),
        Family.MOEBIUS: dict(f=_identity, f_prime=_one, a=1.0),
    }[family]


@pytest.mark.parametrize("family", list(Family), ids=lambda fam: fam.value)
def test_batch_agrees_with_scalar(family):
    # laplace checks its own compensated scalar path; the others the scalar
    # call SolutionFn derives from eval_batch
    u = solve(EquationSpec(family, **_agreement_spec(family)))
    xs = np.array([0.2, 1.0, 2.5])
    vals = u.eval_batch(xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(u.eval(float(x)), abs=1e-12)
        assert u(float(x)) == u.eval(float(x))


# -- laplace dilation ---------------------------------------------------------

def test_laplace_exp_gives_squared_factorials():
    f = from_coefficient_rule(lambda n: (-1.0) ** n / math.factorial(n),
                              order=40)
    u = solve_laplace_dilation(f, mu=1.0)
    for n in range(41):
        expect = (-1.0) ** n / math.factorial(n) ** 2
        assert u.series.coeffs[n] == pytest.approx(expect, rel=1e-14)


def test_laplace_solution_is_bessel_like():
    f = from_coefficient_rule(lambda n: (-1.0) ** n / math.factorial(n),
                              order=40)
    u = solve_laplace_dilation(f, mu=1.0)
    for x in (0.5, 1.0, 3.0):
        assert u(x) == pytest.approx(bessel_wright(0, 1.0, x), rel=1e-12)


def test_laplace_mu2_matches_wright_series():
    f = from_coefficient_rule(lambda n: (-1.0) ** n / math.factorial(n),
                              order=40)
    u = solve_laplace_dilation(f, mu=2.0)
    for x in (0.5, 1.0, 3.0):
        assert u(x) == pytest.approx(bessel_wright(0, 2.0, x), abs=1e-12)


def test_laplace_equation_residual_simpson():
    # independent: e^{-y} u(x y) integrated by Simpson reproduces e^{-x}.
    # The sweep crosses zeros of the solution, where the cancellation
    # diagnostic fires; relative loss there is harmless under the e^{-y}
    # weight, so the warning is silenced for the oracle pass only.
    f = from_coefficient_rule(lambda n: (-1.0) ** n / math.factorial(n),
                              order=40)
    u = solve_laplace_dilation(f, mu=1.0)
    x = 1.0

    def lhs(y):
        return math.exp(-y) * u.eval(x * y)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        val = simpson_decaying(lhs, 45.0, 6000)
    assert val == pytest.approx(math.exp(-x), abs=1e-8)


# -- radial -------------------------------------------------------------------

@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_radial_recovers_gaussian(beta):
    amp = 0.5 * math.sqrt(math.pi / (2.0 * beta))
    f = lambda x: amp * np.exp(-beta * np.asarray(x, dtype=float) ** 2)
    fp = lambda x: amp * (-2.0 * beta * np.asarray(x, dtype=float)
                          * np.exp(-beta * np.asarray(x, dtype=float) ** 2))
    u = solve_radial(f, fp)
    for x in (0.0, 1.0, 2.5):
        assert u(x) == pytest.approx(math.exp(-beta * x * x), abs=1e-9)


def test_radial_evaluation_makes_no_probe_calls():
    # the decay probe runs once, in solve_radial; eval_batch calls f' only
    calls = []

    def f(x):
        calls.append("f")
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    def fp(x):
        calls.append("fp")
        return -2.0 * np.asarray(x, dtype=float) * np.exp(-np.asarray(x, dtype=float) ** 2)

    u = solve_radial(f, fp)
    assert calls.count("f") == 2  # the array probe and the decay probe
    calls.clear()
    u.eval_batch(np.array([0.5, 1.0]))
    assert "f" not in calls


# -- interpolating handles: the kernel, then a certified interpolant -----------

def _counted_prime(fp, points):
    def g(x):
        points.append(np.size(x))
        return fp(x)
    return g


def _counting(points):
    """Wrapper that counts every call of a data callable into ``points``."""
    return lambda g: _counted_prime(g, points)


def _arr(x):
    return np.asarray(x, dtype=float)


# f' of data on the log map, and of Gaussian pairs on the reflected radial map
_LOG_DATA = {
    "x^2": lambda x: 2.0 * _arr(x),
    "x^2 e^-x": lambda x: (2.0 * _arr(x) - _arr(x) ** 2) * np.exp(-_arr(x)),
    "sin x e^-x": lambda x: (np.cos(x) - np.sin(x)) * np.exp(-_arr(x)),
    "x^0.1": lambda x: 0.1 * _arr(x) ** -0.9,
    "x^5": lambda x: 5.0 * _arr(x) ** 4,
}
_RADIAL_DATA = {
    "gauss-pair 1": lambda x: -2.0 * _arr(x) * np.exp(-_arr(x) ** 2),
    "gauss-pair 1 + 0.5 at 2.5": lambda x: -2.0 * _arr(x) * (
        np.exp(-_arr(x) ** 2) + 1.25 * np.exp(-2.5 * _arr(x) ** 2)),
}


def _moebius_power(m, a):
    """(f, f') whose moebius solution on (0, a) is x^m:
    f = x^(m-1) (1 - (1 + a x)^(1-m)) / (m - 1)."""
    def f(x):
        x = _arr(x)
        return -x ** (m - 1.0) * np.expm1((1.0 - m) * np.log1p(a * x)) \
            / (m - 1.0)

    def fp(x):
        x = _arr(x)
        return -x ** (m - 2.0) * np.expm1((1.0 - m) * np.log1p(a * x)) \
            + a * x ** (m - 1.0) * (1.0 + a * x) ** -m
    return f, fp


class _Case(NamedTuple):
    """A handle from data, each callable it reads passed through ``wrap``;
    the kernel behind it alone, from data passed the same way; its grid."""

    make: Callable  # (wrap, tol) -> SolutionFn
    kernel: Callable  # (wrap, tol) -> (xs -> the kernel's values)
    grid: Callable  # n -> n arguments


def _log_grid(n):
    return np.geomspace(0.1, 5.0, n)


def _shift_case(cmap, fp):
    def make(wrap, tol):
        return solve_generalized_shift(cmap, lambda x: 0.0 * _arr(x),
                                       wrap(fp), tol)

    def kernel(wrap, tol):
        return lambda xs: generalized_half_batch(cmap, wrap(fp), xs,
                                                 tol).values

    grid = _log_grid if cmap.name == "log" else \
        (lambda n: np.linspace(0.0, 3.0, n))
    return _Case(make, kernel, grid)


def _moebius_case(f, fp, a):
    # the kernel is the shift series of a second handle, called directly
    def make(wrap, tol):
        return solve_moebius(wrap(f), wrap(fp), a, tol)
    return _Case(make, lambda wrap, tol: make(wrap, tol).eval_batch.kernel,
                 _log_grid)


_HANDLES = {
    **{k: _shift_case(log_map(), fp) for k, fp in _LOG_DATA.items()},
    **{k: _shift_case(reflected_radial_map(), fp)
       for k, fp in _RADIAL_DATA.items()},
    **{f"moebius {k}, a = {a:g}": _moebius_case(*data, a)
       for a in (0.5, 2.0)
       for k, data in {
           "f = x": (_identity, _one),
           "f = x^2": (np.square, lambda x: 2.0 * _arr(x)),
           **{f"u = x^{m:g}": _moebius_power(m, a) for m in (1.5, 2.5, 4.0)},
       }.items()},
}


def _same(g):
    return g


@pytest.mark.parametrize("name", sorted(_HANDLES))
def test_interpolant_agrees_with_kernel(name):
    # 200 points are past the build threshold, so the handle builds; all but
    # x^0.1 certify by N = 256 (its gap is still 1.8e-9 there) and then
    # answer from the interpolant
    case = _HANDLES[name]
    u = case.make(_same, 1e-10)
    xs = case.grid(200)
    got = u.eval_batch(xs)
    ref = case.kernel(_same, 1e-10)(xs)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    assert (u.eval_batch.nodes is None) == (name == "x^0.1")


@pytest.mark.parametrize("name", sorted(_HANDLES))
def test_handle_below_threshold_is_the_kernel(name):
    # one point short of the threshold, in three calls: every value, and
    # every call of the data with its number of points, is the kernel's own
    case = _HANDLES[name]
    seen, want = [], []
    u = case.make(_counting(seen), 1e-10)
    kernel = case.kernel(_counting(want), 1e-10)
    seen.clear()
    want.clear()
    xs = case.grid(_BUILD_AFTER - 1)
    for part in (xs[:9], xs[9:10], xs[10:]):
        assert np.array_equal(u.eval_batch(part), kernel(part))
    assert seen == want
    assert u.eval_batch.nodes is None


def _check_costs(case):
    """A handle of ``case`` against its kernel alone and one build."""
    build, seen, direct = [], [], []
    first = case.make(_counting(build), 1e-10)
    u = case.make(_counting(seen), 1e-10)
    kernel = case.kernel(_counting(direct), 1e-10)
    build.clear()
    seen.clear()
    direct.clear()
    first.eval_batch(np.full(_BUILD_AFTER, 5.0))
    calls = [np.geomspace(0.1, 5.0, 9), np.array([1.0]),
             np.geomspace(0.2, 4.0, 60), np.geomspace(0.1, 5.0, 300),
             np.array([6.0, 7.0]), np.geomspace(0.1, 7.0, 500)]
    for xs in calls:
        got, ref = u.eval_batch(xs), kernel(xs)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        assert sum(seen) <= sum(direct) + sum(build)
    assert u.eval_batch.nodes is not None


def test_handle_costs_at_most_kernel_plus_one_build():
    # ski rental: after every call of a sequence, the handle has spent no
    # more data points than the kernel alone on the same calls plus one
    # build (a fresh handle asked for the largest argument as many times as
    # the threshold, which builds and answers from the interpolant)
    for name in ("x^2 e^-x", "moebius u = x^2.5, a = 2"):
        _check_costs(_HANDLES[name])


@pytest.mark.parametrize("name", ["x^2 e^-x", "x^5", "gauss-pair 1",
                                  "moebius u = x^4, a = 0.5"])
def test_interpolant_is_scale_covariant(name):
    # c f takes the path and N of f and gives c u: the certificate is
    # relative.  The kernel's tolerance is absolute, so it scales with c.
    case = _HANDLES[name]
    xs = case.grid(200)
    runs = {}
    for c in (1e-8, 1.0, 1e8):
        u = case.make(lambda g, c=c: (lambda x: c * g(x)), c * 1e-10)
        vals = u.eval_batch(xs)
        nodes = u.eval_batch.nodes
        runs[c] = (None if nodes is None else len(nodes[0]), vals / c)
    n1, base = runs[1.0]
    assert n1 is not None
    for n, vals in runs.values():
        assert n == n1
        assert np.all(np.abs(vals - base)
                      <= 1e-12 * np.maximum(1.0, np.abs(base)))


def test_kinked_data_keeps_the_kernel():
    # f = x |x - 1| has a kink at 1, so no interpolant certifies once x = 2
    # has been asked; the handle answers from the kernel, without error (the
    # arguments below 1 keep the kernel passes short)
    f = lambda x: _arr(x) * np.abs(_arr(x) - 1.0)
    fp = lambda x: np.where(_arr(x) > 1.0, 2.0 * _arr(x) - 1.0,
                            1.0 - 2.0 * _arr(x))
    u = solve_gaussian_dilation(f, fp)
    for xs in (np.linspace(0.5, 0.95, _BUILD_AFTER - 1), np.array([2.0]),
               np.array([0.7, 1.5])):
        ref = generalized_half_batch(log_map(), fp, xs).values
        assert np.array_equal(u.eval_batch(xs), ref)
    assert u.eval_batch.kernel_only and u.eval_batch.nodes is None


_IDENTITY_MAP = CoordinateMap(lambda x: x * 1.0, lambda w: w * 1.0,
                              lambda x: 1.0 + 0.0 * x, (0.0, math.inf),
                              "identity")


@pytest.mark.parametrize("cmap, descends, kernel_only, w_top", [
    (log_map(), True, False, -math.inf),
    (reflected_radial_map(), False, False, 0.0),
    (_IDENTITY_MAP, False, True, -math.inf),
    (None, False, None, None),
], ids=["log", "reflected-radial", "identity", "laplace"])
def test_map_ends_decide_admission_and_interpolation(cmap, descends,
                                                     kernel_only, w_top):
    # F at the domain ends decides the f(0) rule (F = -inf at 0) and whether
    # a handle can interpolate, and from which top
    assert _map_descends_at_zero(cmap) is descends
    if cmap is not None:
        batch = _InterpolatingBatch(cmap, lambda xs: xs)
        assert batch.kernel_only is kernel_only
        assert batch.w_top == w_top


def test_map_without_minus_infinity_keeps_the_kernel():
    # F(x) = x on (0, inf) reaches -inf at neither end: u need not vanish
    # anywhere, so the handle never builds
    cmap = _IDENTITY_MAP
    fp = lambda x: 3.0 * _arr(x) ** 2
    seen, want = [], []
    u = solve_generalized_shift(cmap, lambda x: _arr(x) ** 3,
                                _counted_prime(fp, seen))
    seen.clear()
    xs = np.linspace(0.0, 3.0, _BUILD_AFTER)
    got = u.eval_batch(xs)
    ref = generalized_half_batch(cmap, _counted_prime(fp, want), xs)
    assert np.array_equal(got, ref.values)
    assert sum(seen) == sum(want)
    assert u.eval_batch.kernel_only


# -- moebius ------------------------------------------------------------------

def test_moebius_linear_data_gives_zeta_two():
    u = solve_moebius(_identity, _one, a=1.0)
    # sum_k x_k^2 f'(x_k) at x = 1 telescopes to sum 1/(1+k)^2
    assert u(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-9)


def test_moebius_quadratic_data_gives_zeta_three():
    f = lambda x: np.asarray(x, dtype=float) ** 2
    fp = lambda x: 2.0 * np.asarray(x, dtype=float)
    u = solve_moebius(f, fp, a=1.0)
    zeta3 = 1.2020569031595943
    assert u(1.0) == pytest.approx(2.0 * zeta3, abs=1e-9)


def test_moebius_reports_truncation():
    u = solve_moebius(_identity, _one, a=0.5)
    assert u.truncation is not None and u.truncation >= 64
    assert u.error_estimate < 1e-10 * 10.0


def test_moebius_doubling_agreement():
    xs = np.array([0.1, 1.0, 3.0])
    k = 128
    base = moebius_partial_sum(_identity, _one, 1.0, xs, k)
    double = moebius_partial_sum(_identity, _one, 1.0, xs, 2 * k)
    assert np.max(np.abs(base - double)) < 1e-10


def test_moebius_evaluation_makes_no_probe_calls():
    # f and f' are probed once, in solve_moebius, not at every cutoff tried
    calls = []

    def f(x):
        calls.append(np.array(x, dtype=float))
        return calls[-1] ** 2

    def fp(x):
        calls.append(np.array(x, dtype=float))
        return 2.0 * calls[-1]

    u = solve_moebius(f, fp, 1.0)
    calls.clear()
    u(2.0)
    probes = [c for c in calls if np.array_equal(c, [0.5, 1.5])]
    assert (len(calls), len(probes)) == (4, 0)


def test_moebius_evaluates_each_row_once():
    # the doubling K -> 2K reuses the rows k <= K+2: at x = 2 the pass
    # settles at K = 64, so f' sees the rows k = 0 .. 2K+2 once each
    points = []

    def fp(x):
        points.append(np.size(x))
        return 2.0 * np.asarray(x, dtype=float)

    u = solve_moebius(lambda x: np.asarray(x, dtype=float) ** 2, fp, 1.0)
    points.clear()
    u(2.0)
    assert sum(points) == 2 * 64 + 3


def test_moebius_nonfinite_data_fails_at_first_rows():
    # f' is NaN above 2.5: the first rows name the argument, where the series
    # used to double K to its cap on NaN differences (3,276,875 f' points)
    points = []

    def fp(x):
        x = np.asarray(x, dtype=float)
        points.append(x.size)
        return np.where(x > 2.5, np.nan, 1.0)

    u = solve_moebius(_identity, fp, 1.0)
    points.clear()
    with pytest.raises(QuadratureDomainError) as err:
        u.eval_batch(np.linspace(0.1, 3.0, 25))
    assert 2.5 < err.value.abscissa <= 3.0
    assert sum(points) == 25 * 67  # the rows k <= 66 of the first sum


def test_moebius_vanishes_at_origin():
    u = solve_moebius(_identity, _one, a=1.0)
    assert u(0.0) == 0.0


def test_moebius_solution_satisfies_equation():
    a = 0.5
    u = solve_moebius(_identity, _one, a=a)
    x = 2.0

    def lhs(y):
        return u.eval(x / (1.0 + x * y))

    from conftest import simpson
    assert simpson(lhs, 0.0, a, 4000) == pytest.approx(x, abs=1e-7)


# -- dispatcher ---------------------------------------------------------------

def test_solve_dispatch_all_families():
    f_ser = from_coefficient_rule(lambda n: (-1.0) ** n / math.factorial(n),
                                  order=30)
    cases = [
        EquationSpec(Family.GAUSSIAN_DILATION, f=_identity, f_prime=_one),
        EquationSpec(Family.LAPLACE_DILATION, f_series=f_ser, mu=1.0),
        EquationSpec(Family.MOEBIUS, f=_identity, f_prime=_one, a=1.0),
        EquationSpec(Family.GENERALIZED_SHIFT, f=_identity, f_prime=_one,
                     cmap=log_map()),
    ]
    for spec in cases:
        u = solve(spec)
        assert u.family is spec.family
        assert math.isfinite(u(0.7))
