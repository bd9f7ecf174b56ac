"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Verdict lines are collected by the `verdict` fixture and echoed in a summary
section after the run; every bound asserted here is the released tolerance,
not a padded one.
"""

import math
import time
import warnings

import numpy as np
import pytest

from fracshift.errors import PrecisionWarning
from fracshift.fracops import log_map, xd_negpow
from fracshift.opeval import (
    ExponentialProfile,
    eval_F,
    eval_F_quadrature,
    eval_F_series,
    eval_I,
    eval_I_quadrature,
)
from fracshift.quadrature import DEFAULT_TOL, integrate_semi_infinite
from fracshift.series import PowerSeries, from_coefficient_rule
from fracshift.solvers import (
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
from fracshift.specfun import gamma_ratio
from fracshift.verify import (
    conjecture_check,
    radial_kernel_discrepancy,
    residual,
)


def _poly(coeff_map):
    deg = max(coeff_map)

    def f(x):
        x = np.asarray(x, dtype=float)
        return sum(c * x ** n for n, c in coeff_map.items())

    def fp(x):
        x = np.asarray(x, dtype=float)
        return sum(n * c * x ** (n - 1) for n, c in coeff_map.items())

    return f, fp


def _gauss_pair(beta):
    amp = 0.5 * math.sqrt(math.pi / (2.0 * beta))

    def f(x):
        x = np.asarray(x, dtype=float)
        return amp * np.exp(-beta * x * x)

    def fp(x):
        x = np.asarray(x, dtype=float)
        return amp * (-2.0 * beta * x) * np.exp(-beta * x * x)

    return f, fp


EXP_ALT = from_coefficient_rule(lambda n: (-1.0) ** n / math.factorial(n),
                                order=40, label="exp(-x)")


def test_curve_tabulation_series_vs_quadrature(verdict):
    start = time.perf_counter()
    xs = np.linspace(0.0, 10.0, 201)
    worst = 0.0
    curves = {}
    for nu in (1.5, 4.1):
        vals = np.empty_like(xs)
        for i, x in enumerate(xs):
            s = eval_F_series(float(x), nu).value
            q = eval_F_quadrature(float(x), nu, tol=1e-10).value
            worst = max(worst, abs(s - q))
            vals[i] = s
        curves[nu] = vals

    odd_ok = all(
        abs(eval_F(-x, nu) + eval_F(x, nu)) < 1e-12
        for nu in (1.5, 4.1) for x in (0.7, 3.3, 8.0)
    )
    zero_ok = curves[1.5][0] == 0.0 and curves[4.1][0] == 0.0

    # one dominant positive arch: no sign change over the window, peak in
    # the interior (undulations ride on top, the curve never dips to zero)
    shape_ok = True
    for nu, vals in curves.items():
        imax = int(np.argmax(vals))
        positive = bool(np.all(vals[1:] > 0.0))
        shape_ok = shape_ok and positive and 0 < imax < len(vals) - 1
    # larger nu starts shallower and stays below near the origin
    small_x = slice(1, 21)
    order_ok = np.all(curves[4.1][small_x] < curves[1.5][small_x]) \
        and curves[4.1][1] / xs[1] < 0.6 * (curves[1.5][1] / xs[1])

    elapsed = time.perf_counter() - start
    ok = (worst <= 1e-7 and odd_ok and zero_ok and shape_ok
          and bool(order_ok) and elapsed < 30.0)
    verdict("curve tabulation", ok,
            f"max |series-quad| {worst:.3g} (<=1e-7), odd {odd_ok}, "
            f"F(0)=0 {zero_ok}, arch shape {shape_ok}, "
            f"shallower start at larger order {bool(order_ok)}, "
            f"{elapsed:.1f}s (<30s)")


def test_gaussian_dilation_solver(verdict):
    start = time.perf_counter()
    grid = np.geomspace(0.1, 5.0, 25)
    cases = {
        "x": {1: 1.0},
        "x^2": {2: 1.0},
        "x^3": {3: 1.0},
        "x+x^3": {1: 1.0, 3: 1.0},
    }
    worst = 0.0
    for label, cmap in cases.items():
        f, fp = _poly(cmap)
        u = solve_gaussian_dilation(f, fp)
        spec = EquationSpec(Family.GAUSSIAN_DILATION, f=f, f_prime=fp)
        rep = residual(spec, u, grid)
        assert rep.quad_failures == 0, label
        worst = max(worst, rep.max_abs)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    verdict("gaussian dilation", ok,
            f"4 data sets, 25-point geometric grid, max residual "
            f"{worst:.3g} (<1e-6), {elapsed:.1f}s (<10s)")


def test_inverse_gamma_spectral_solver(verdict):
    u = solve_laplace_dilation(EXP_ALT, mu=1.0)
    coeff_err = max(
        abs(u.series.coeffs[n] - (-1.0) ** n / math.factorial(n) ** 2)
        / (1.0 / math.factorial(n) ** 2)
        for n in range(41)
    )

    spec = EquationSpec(Family.LAPLACE_DILATION, f_series=EXP_ALT, mu=1.0)
    rep = residual(spec, u, np.array([0.5, 1.0, 3.0]))

    u2 = solve_laplace_dilation(EXP_ALT, mu=2.0)
    wright_err = 0.0
    for x in (0.5, 1.0, 3.0):
        partial = math.fsum(
            (-x) ** k / (math.factorial(k) * math.factorial(2 * k))
            for k in range(21)
        )
        wright_err = max(wright_err, abs(u2(x) - partial))

    ok = (coeff_err <= 1e-14 and rep.quad_failures == 0
          and rep.max_abs < 1e-7 and wright_err <= 1e-12)
    verdict("inverse-gamma spectral solver", ok,
            f"coeff rel err {coeff_err:.3g} (<=1e-14), residual "
            f"{rep.max_abs:.3g} (<1e-7), step-2 series match "
            f"{wright_err:.3g} (<=1e-12)")


def test_radial_solver_and_kernel_discrepancy(verdict):
    grid = np.linspace(0.0, 3.0, 13)
    worst = 0.0
    for beta in (1.0, 2.0):
        f, fp = _gauss_pair(beta)
        u = solve_radial(f, fp)
        point_err = max(
            abs(u(float(x)) - math.exp(-beta * float(x) ** 2)) for x in grid
        )
        spec = EquationSpec(Family.RADIAL, f=f, f_prime=fp)
        rep = residual(spec, u, grid)
        assert rep.quad_failures == 0
        worst = max(worst, rep.max_abs, point_err)

    f, fp = _gauss_pair(1.0)
    cmp = radial_kernel_discrepancy(f, fp, grid)
    plain_defect = cmp.plain.residuals[0]
    ok = (worst < 1e-6 and plain_defect >= 0.1
          and cmp.transported.max_abs < 1e-6)
    verdict("radial solver", ok,
            f"exact-pair recovery max err {worst:.3g} (<1e-6), plain-kernel "
            f"defect at 0 {plain_defect:.3g} (>=0.1), repaired kernel "
            f"residual {cmp.transported.max_abs:.3g} (<1e-6)")


def test_generalized_shift_reduces_to_dilatation(verdict):
    grid = np.geomspace(0.1, 5.0, 25)
    worst = 0.0
    worst_exact = 0.0
    for cmap_coeffs in ({2: 1.0}, {1: 1.0, 3: 1.0}):
        f, fp = _poly(cmap_coeffs)
        direct = solve_gaussian_dilation(f, fp)
        general = solve_generalized_shift(log_map(), f, fp)
        values = general.eval_batch(grid)
        # (2/sqrt(pi)) sqrt(x d/dx) x^n = (2/sqrt(pi)) sqrt(n) x^n
        exact = sum(c * (2.0 / math.sqrt(math.pi)) * math.sqrt(n) * grid ** n
                    for n, c in cmap_coeffs.items())
        diff = np.max(np.abs(values - direct.eval_batch(grid)))
        worst = max(worst, float(diff))
        worst_exact = max(worst_exact, float(np.max(np.abs(values - exact))))
    ok = worst <= 1e-8 and worst_exact <= 1e-8
    verdict("generalized shift reduction", ok,
            f"log-coordinate path vs dilatation solver, max pointwise "
            f"diff {worst:.3g} (<=1e-8), vs closed form {worst_exact:.3g} "
            f"(<=1e-8)")


def test_moebius_solver(verdict):
    grid = np.geomspace(0.1, 3.0, 15)
    worst = 0.0
    details = []
    for coeffs in ({1: 1.0}, {2: 1.0}):
        for a in (0.5, 1.0):
            f, fp = _poly(coeffs)
            u = solve_moebius(f, fp, a=a)
            assert u.truncation is not None and u.truncation > 0
            spec = EquationSpec(Family.MOEBIUS, f=f, f_prime=fp, a=a)
            rep = residual(spec, u, grid)
            assert rep.quad_failures == 0
            worst = max(worst, rep.max_abs)
            # tail control: doubling the cutoff moves nothing beyond tol
            base = moebius_partial_sum(f, fp, a, grid, u.truncation)
            double = moebius_partial_sum(f, fp, a, grid, 2 * u.truncation)
            tail_move = float(np.max(np.abs(base - double)))
            details.append(tail_move)
            assert tail_move < DEFAULT_TOL, (coeffs, a)
    ok = worst < 1e-5
    verdict("moebius solver", ok,
            f"4 instances, residual {worst:.3g} (<1e-5), truncation "
            f"reported, doubled-cutoff shift {max(details):.3g} "
            f"(<{DEFAULT_TOL:g})")


def test_fractional_coefficient_sum(verdict):
    worst_mono = 0.0
    for m in range(1, 11):
        series = PowerSeries((0.0,) * m + (1.0, 0.0))
        for nu in (0.25, 0.5, 0.75):
            for x in (0.7, 1.3):
                rep = conjecture_check(nu, series, x, K=m)
                worst_mono = max(worst_mono, rep.abs_errors[-1])

    # order well past K so the K=40 partial sum carries a genuine tail gap
    entire = from_coefficient_rule(
        lambda n: 0.0 if n == 0 else 1.0 / math.factorial(n), order=60)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        rep = conjecture_check(0.5, entire, 0.5, K=40)
    entire_err = rep.abs_errors[-1]
    ok = worst_mono <= 1e-9 and entire_err < 1e-6
    verdict("fractional coefficient sum", ok,
            f"monomials m<=10 max err {worst_mono:.3g} (<=1e-9), truncated "
            f"exponential err at K=40 {entire_err:.3g} (<1e-6)")


def test_operator_spectral_suite(verdict):
    x = 1.1
    worst_spec = 0.0
    for nu in (0.25, 0.5, 1.5):
        for n in range(1, 9):
            val = xd_negpow(nu, lambda t, _n=n: t ** _n, x)
            worst_spec = max(worst_spec,
                             abs(val - n ** (-nu) * x ** n))

    # order invariance: scale derivative applied before or after the
    # half-integral gives the same half power of f = x + x^3
    def f(t):
        return t + t ** 3

    def tf_prime(t):
        return t * (1.0 + 3.0 * t * t)

    worst_order = 0.0
    h = 1e-4
    for x0 in (0.5, 1.0, 1.6):
        after = x0 * (xd_negpow(0.5, f, x0 + h)
                      - xd_negpow(0.5, f, x0 - h)) / (2.0 * h)
        before = xd_negpow(0.5, tf_prime, x0)
        expect = x0 + math.sqrt(3.0) * x0 ** 3
        worst_order = max(worst_order, abs(after - before),
                          abs(before - expect))

    worst_gamma = 0.0
    for mu in (1.0, 1.5, 2.0, 4.1, 7.0):
        res = integrate_semi_infinite(
            lambda y, _m=mu: (1.0 + y * y) ** -_m, 0.0, tol=1e-12)
        claimed = 0.5 * math.sqrt(math.pi) * gamma_ratio(mu - 0.5, mu)
        worst_gamma = max(worst_gamma, abs(res.value - claimed))

    ok = worst_spec <= 1e-8 and worst_order <= 1e-7 and worst_gamma <= 1e-10
    verdict("operator spectral suite", ok,
            f"diagonal action err {worst_spec:.3g} (<=1e-8), order "
            f"invariance {worst_order:.3g} (<=1e-7), moment identity "
            f"{worst_gamma:.3g} (<=1e-10)")


def test_shifted_profile_oracle(verdict):
    profile = ExponentialProfile([(1.0, 2.0)])

    def Q(mu):
        return 0.5 * math.sqrt(math.pi / (-mu))

    worst = 0.0
    for x in (0.0, 0.5, 1.0, 2.0):
        closed = eval_I(profile, Q, x)
        ref = eval_I_quadrature(profile, lambda t: -t * t, x, tol=1e-11)
        assert ref.converged
        worst = max(worst, abs(closed - ref.value))
    ok = worst <= 1e-8
    verdict("shifted profile oracle", ok,
            f"closed form vs direct quadrature, max diff {worst:.3g} "
            f"(<=1e-8)")
