import math
import warnings

import numpy as np
import pytest

from fracshift.errors import ConvergenceError, PrecisionWarning
from fracshift.fracops import log_map, reflected_radial_map
from fracshift.series import PowerSeries, evaluate, from_coefficient_rule
from fracshift.solvers import (
    FAMILIES,
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
