import io
import math
import warnings

import numpy as np
import pytest

from fracshift.errors import PrecisionWarning
from fracshift import verify
from fracshift.fracops import log_map
from fracshift.quadrature import DEFAULT_TOL
from fracshift.series import PowerSeries, from_coefficient_rule
from fracshift.solvers import EquationSpec, Family, SolutionFn, solve
from fracshift.verify import (
    conjecture_check,
    radial_kernel_discrepancy,
    residual,
)


def _identity(x):
    return np.asarray(x, dtype=float)


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _gauss_pair(beta):
    amp = 0.5 * math.sqrt(math.pi / (2.0 * beta))
    f = lambda x: amp * np.exp(-beta * np.asarray(x, dtype=float) ** 2)
    fp = lambda x: amp * (-2.0 * beta * np.asarray(x, dtype=float)
                          * np.exp(-beta * np.asarray(x, dtype=float) ** 2))
    return f, fp


# -- residual harness ---------------------------------------------------------

def test_residual_known_solution_is_small():
    spec = EquationSpec(Family.GAUSSIAN_DILATION, f=_identity, f_prime=_one)
    c = 2.0 / math.sqrt(math.pi)
    exact = lambda x: c * np.asarray(x, dtype=float)
    rep = residual(spec, exact, np.geomspace(0.1, 5.0, 9))
    assert rep.quad_failures == 0
    assert rep.max_abs < 1e-9
    assert rep.label == "gaussian"


def test_residual_flags_wrong_candidate():
    spec = EquationSpec(Family.GAUSSIAN_DILATION, f=_identity, f_prime=_one)
    wrong = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    rep = residual(spec, wrong, np.array([1.0, 2.0]))
    assert rep.max_abs > 0.5


def test_residual_accepts_scalar_callable():
    spec = EquationSpec(Family.GAUSSIAN_DILATION, f=_identity, f_prime=_one)
    c = 2.0 / math.sqrt(math.pi)
    rep = residual(spec, lambda x: c * x, np.array([0.5, 1.0]))
    assert rep.max_abs < 1e-9


def test_residual_all_families_on_solver_output():
    f_ser = from_coefficient_rule(lambda n: (-1.0) ** n / math.factorial(n),
                                  order=40)
    fr, frp = _gauss_pair(1.0)
    fx2 = lambda x: np.asarray(x, dtype=float) ** 2
    fx2p = lambda x: 2.0 * np.asarray(x, dtype=float)
    cases = [
        (EquationSpec(Family.GAUSSIAN_DILATION, f=fx2, f_prime=fx2p),
         np.geomspace(0.1, 5.0, 7), 1e-6),
        (EquationSpec(Family.LAPLACE_DILATION, f_series=f_ser, mu=1.0),
         np.geomspace(0.5, 3.0, 5), 1e-7),
        (EquationSpec(Family.RADIAL, f=fr, f_prime=frp),
         np.linspace(0.0, 3.0, 7), 1e-6),
        (EquationSpec(Family.GENERALIZED_SHIFT, f=fx2, f_prime=fx2p,
                      cmap=log_map()),
         np.geomspace(0.1, 5.0, 7), 1e-6),
        (EquationSpec(Family.MOEBIUS, f=_identity, f_prime=_one, a=1.0),
         np.geomspace(0.1, 3.0, 5), 1e-5),
    ]
    for spec, grid, bound in cases:
        rep = residual(spec, solve(spec), grid)
        assert rep.quad_failures == 0, spec.family
        assert rep.max_abs < bound, (spec.family, rep.max_abs)


def test_residual_at_the_log_map_end_is_silent():
    # F(0) = log 0 = -inf: every shifted argument is 0, where the handle
    # gives u(0) = 0, so the LHS is 0 there, and taking F must not warn
    fx2 = lambda x: np.asarray(x, dtype=float) ** 2
    fx2p = lambda x: 2.0 * np.asarray(x, dtype=float)
    spec = EquationSpec(Family.GENERALIZED_SHIFT, f=fx2, f_prime=fx2p,
                        cmap=log_map())
    u = solve(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = residual(spec, u, [0.0, 1.0, 2.0])
    assert rep.quad_failures == 0
    assert rep.max_abs <= 1e-12


# Eigenfunctions of the two kernels that are not a shift on a map
# (tests/test_shift.py has those): the defining integral maps x^n to
# Gamma(mu n + 1) x^n for laplace (a mapped pass), and e^(-beta/x) to
# (1 - e^(-a beta))/beta e^(-beta/x) for moebius (a finite pass), so the
# closed-form solution closes the residual to rounding.

@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mu", [0.5, 1.0, 1.7, 2.5])
def test_laplace_eigenfunction_closes_the_residual(mu, n):
    symbol = math.gamma(mu * n + 1.0)
    coeffs = np.zeros(n + 1)
    coeffs[n] = symbol

    def u(x):
        return np.asarray(x, dtype=float) ** n

    # rhs reads f, which is exact; the series is the family's required field
    spec = EquationSpec(Family.LAPLACE_DILATION, f=lambda x: symbol * u(x),
                        f_series=PowerSeries(coeffs), mu=mu)
    exact = SolutionFn(None, "closed form", None, 0.0, spec.family, u)
    rep = residual(spec, exact, np.geomspace(0.1, 3.0, 6))
    assert rep.quad_failures == 0
    assert rep.max_rel <= 1e-12, rep.max_rel


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_moebius_eigenfunction_closes_the_residual(beta, a):
    symbol = -math.expm1(-a * beta) / beta

    def u(x):
        return np.exp(-beta / np.asarray(x, dtype=float))

    def up(x):
        x = np.asarray(x, dtype=float)
        return beta / (x * x) * np.exp(-beta / x)

    spec = EquationSpec(Family.MOEBIUS, f=lambda x: symbol * u(x),
                        f_prime=lambda x: symbol * up(x), a=a)
    exact = SolutionFn(None, "closed form", None, 0.0, spec.family, u)
    rep = residual(spec, exact, np.geomspace(0.1, 3.0, 6))
    assert rep.quad_failures == 0
    assert rep.max_rel <= 1e-12, rep.max_rel


def _count_lhs_passes(monkeypatch):
    from fracshift import verify
    calls = []
    real = verify._lhs_pass

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "_lhs_pass", counting)
    return calls


def test_residual_one_point_failure_is_not_retried(monkeypatch):
    # a pointwise retry of a one-point grid would repeat the failed pass
    calls = _count_lhs_passes(monkeypatch)
    spec = EquationSpec(Family.GAUSSIAN_DILATION, f=_identity, f_prime=_one)
    rep = residual(spec, lambda x: math.nan, [1.0])
    assert len(calls) == 1
    assert rep.quad_failures == 1


def test_residual_failure_stays_local_on_larger_grids(monkeypatch):
    # the gaussian LHS samples u on (0, x]; u is NaN only above 1.5, so the
    # shared pass fails and the pointwise retry keeps x = 1 intact
    calls = _count_lhs_passes(monkeypatch)
    spec = EquationSpec(Family.GAUSSIAN_DILATION, f=_identity, f_prime=_one)
    c = 2.0 / math.sqrt(math.pi)
    rep = residual(spec, lambda x: c * x if x <= 1.5 else math.nan, [1.0, 2.0])
    assert [len(xs) for xs in calls] == [2, 1, 1]
    assert rep.quad_failures == 1
    assert rep.residuals[0] < 1e-9 and math.isnan(rep.residuals[1])


def test_residual_csv_roundtrip():
    spec = EquationSpec(Family.GAUSSIAN_DILATION, f=_identity, f_prime=_one)
    c = 2.0 / math.sqrt(math.pi)
    rep = residual(spec, lambda x: c * np.asarray(x, dtype=float),
                   np.array([0.5, 1.0, 2.0]))
    buf = io.StringIO()
    rep.to_csv(buf, header_lines=["demo run"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# demo run"
    assert any(line.startswith("x,lhs,rhs,abs_residual") for line in lines)
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 3
    first = data[0].split(",")
    assert float(first[0]) == 0.5
    # full 17 significant digits survive the round trip
    assert float(first[2]) == rep.rhs[0]


# -- fractional coefficient sum ----------------------------------------------

@pytest.mark.parametrize("nu", [0.25, 0.75])
@pytest.mark.parametrize("m", [1, 3, 6])
def test_conjecture_monomial_exact_at_degree(nu, m):
    s = PowerSeries((0.0,) * m + (1.0, 0.0), label=f"x^{m}")
    rep = conjecture_check(nu, s, 1.3, K=m)
    assert rep.abs_errors[-1] < 1e-9
    assert rep.target == pytest.approx(m ** nu * 1.3 ** m, rel=1e-13)
    assert not rep.constant_term_excluded


def test_conjecture_truncation_below_degree_is_off():
    s = PowerSeries((0.0,) * 5 + (1.0, 0.0))
    rep = conjecture_check(0.5, s, 1.3, K=3)
    assert rep.abs_errors[-1] > 1e-3


def test_conjecture_entire_function_converges():
    # truncated e^x - 1; the partial sums settle well before K = 40.  The
    # high-k coefficients sit near the cancellation horizon and honestly
    # warn about lost digits; those terms are ~1e-40 absolute here.
    s = from_coefficient_rule(
        lambda n: 0.0 if n == 0 else 1.0 / math.factorial(n), order=12)
    with pytest.warns(PrecisionWarning):
        rep = conjecture_check(0.5, s, 0.5, K=40)
    assert rep.abs_errors[-1] < 1e-6
    assert rep.K_values[-1] == 40


def test_conjecture_flags_constant_term():
    s = PowerSeries((2.0, 1.0, 0.0))
    rep = conjecture_check(0.5, s, 1.0, K=3)
    assert rep.constant_term_excluded


def test_conjecture_domain_checks():
    s = PowerSeries((0.0, 1.0))
    with pytest.raises(ValueError):
        conjecture_check(1.5, s, 1.0, K=3)
    with pytest.raises(ValueError):
        conjecture_check(0.5, s, -1.0, K=3)
    with pytest.raises(ValueError):
        conjecture_check(0.5, s, 1.0, K=61)


# -- radial kernel comparison -------------------------------------------------

def test_radial_plain_kernel_at_origin():
    # the printed closed form gives 1/2 instead of 1 at x = 0
    f, fp = _gauss_pair(1.0)
    res = verify._plain_radial(fp, np.array([0.0]), DEFAULT_TOL)
    assert res.values[0] == pytest.approx(0.5, abs=1e-9)


def test_radial_kernel_discrepancy_pair():
    f, fp = _gauss_pair(1.0)
    grid = np.linspace(0.0, 3.0, 7)
    cmp = radial_kernel_discrepancy(f, fp, grid)
    assert cmp.transported.max_abs < 1e-6
    assert cmp.plain.residuals[0] >= 0.1  # defect at x = 0
    assert cmp.transported.label == "radial/transported"
    assert cmp.plain.label == "radial/plain"


def test_residual_refuses_empty_grid():
    spec = EquationSpec(Family.GAUSSIAN_DILATION, f=_identity, f_prime=_one)
    with pytest.raises(ValueError, match="grid must be a non-empty"):
        residual(spec, _identity, [])
