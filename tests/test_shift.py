"""Closed-form checks of the generalized shift u(F_inv(F(x) - y^2)).

The gaussian family is the shift on the log map and the radial family the
shift on the reflected radial map; the generalized-shift family takes either
map explicitly.  Two identities of the kernels give oracles that do not
depend on the code under test:

- dilation covariance: with f_c(x) = f(cx) the solution of the rescaled
  equation is u_c(x) = u(cx) on the log map, and u_c(x) = c u(cx) on the
  radial map (substitute y -> cy in the defining integral);
- eigenfunctions: the defining integral maps x^p to (sqrt(pi)/2) p^(-1/2) x^p
  on the log map, and e^(-p x^2) to (1/2) sqrt(pi/(2p)) e^(-p x^2) on the
  radial map, so the closed-form solution closes the residual to rounding.
"""

import math
import random

import numpy as np
import pytest

from fracshift.fracops import log_map, reflected_radial_map
from fracshift.solvers import EquationSpec, Family, SolutionFn, solve
from fracshift.verify import residual

# (family, map keyword, map kind)
CASES = {
    "gaussian": (Family.GAUSSIAN_DILATION, None, "log"),
    "genshift-log": (Family.GENERALIZED_SHIFT, log_map(), "log"),
    "radial": (Family.RADIAL, None, "radial"),
    "genshift-rr": (Family.GENERALIZED_SHIFT, reflected_radial_map(), "radial"),
}


def _spec(case, f, fp):
    family, cmap, _ = CASES[case]
    return EquationSpec(family, f=f, f_prime=fp, cmap=cmap)


def _log_data(rng):
    """a x^p + b x/(1 + x): increasing, so u > 0, and not an eigenfunction."""
    a, p, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.2, 1.0)

    def f(x):
        x = np.asarray(x, dtype=float)
        return a * x ** p + b * x / (1.0 + x)

    def fp(x):
        x = np.asarray(x, dtype=float)
        return a * p * x ** (p - 1.0) + b / (1.0 + x) ** 2

    return f, fp


def _radial_data(rng):
    """a e^(-b x^2)/(1 + x^2): decreasing, so u > 0."""
    a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)

    def f(x):
        x = np.asarray(x, dtype=float)
        return a * np.exp(-b * x * x) / (1.0 + x * x)

    def fp(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * a * x * np.exp(-b * x * x) * (
            b / (1.0 + x * x) + 1.0 / (1.0 + x * x) ** 2)

    return f, fp


def _dilated(h, c, chain):
    return lambda x: chain * h(c * np.asarray(x, dtype=float))


@pytest.mark.parametrize("draw", range(6))
@pytest.mark.parametrize("case", list(CASES))
def test_dilation_covariance(case, draw):
    rng = random.Random(f"{case}-{draw}")
    radial = CASES[case][2] == "radial"
    f, fp = (_radial_data if radial else _log_data)(rng)
    c = rng.uniform(0.5, 2.0)
    # u stays far above the absolute tolerance at c x, so rtol measures the
    # identity rather than the quadrature's absolute error
    xs = np.linspace(0.0, 1.2, 7) if radial else np.geomspace(0.2, 3.0, 7)
    u = solve(_spec(case, f, fp), tol=1e-12)
    u_c = solve(_spec(case, _dilated(f, c, 1.0), _dilated(fp, c, c)), tol=1e-12)
    expect = (c if radial else 1.0) * u.eval_batch(c * xs)
    np.testing.assert_allclose(u_c.eval_batch(xs), expect, rtol=1e-9, atol=0.0)


def _eigenpair(kind, p):
    """(u, u', symbol): an eigenfunction of the map's shift kernel, its
    derivative, and its eigenvalue under the defining integral."""
    if kind == "log":
        return (lambda x: np.asarray(x, dtype=float) ** p,
                lambda x: p * np.asarray(x, dtype=float) ** (p - 1.0),
                0.5 * math.sqrt(math.pi / p))
    return (lambda x: np.exp(-p * np.asarray(x, dtype=float) ** 2),
            lambda x: -2.0 * p * np.asarray(x, dtype=float)
            * np.exp(-p * np.asarray(x, dtype=float) ** 2),
            0.5 * math.sqrt(math.pi / (2.0 * p)))


@pytest.mark.parametrize("p", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("case", list(CASES))
def test_eigenfunction_closes_the_residual(case, p):
    family, _, kind = CASES[case]
    u, up, symbol = _eigenpair(kind, p)
    spec = _spec(case, lambda x: symbol * u(x), lambda x: symbol * up(x))
    grid = np.linspace(0.0, 2.5, 6) if kind == "radial" \
        else np.geomspace(0.1, 3.0, 6)
    exact = SolutionFn(None, "closed form", None, 0.0, family, u)
    rep = residual(spec, exact, grid)
    assert rep.quad_failures == 0
    assert rep.max_abs <= 1e-12, rep.max_abs


def _x2e(x):
    x = np.asarray(x, dtype=float)
    return x * x * np.exp(-x)


def _x2e_prime(x):
    x = np.asarray(x, dtype=float)
    return (2.0 * x - x * x) * np.exp(-x)


def test_gaussian_is_genshift_on_the_log_map():
    # one equation written two ways gives one residual, bit for bit: u = 1 + x
    # keeps u(0) = 1 where x e^-y^2 underflows onto 0, so the LHS diverges
    # under both names and every point is a quadrature failure
    specs = [_spec(case, _x2e, _x2e_prime)
             for case in ("gaussian", "genshift-log")]
    grid = np.geomspace(0.1, 5.0, 25)
    candidates = {
        "linear": lambda x: 2.0 / math.sqrt(math.pi) * x,
        "1 + x": lambda x: 1.0 + x,
    }
    for name, u in candidates.items():
        a, b = (residual(spec, u, grid) for spec in specs)
        assert np.array_equal(a.lhs, b.lhs, equal_nan=True), name
        assert a.quad_failures == b.quad_failures, name
    assert a.quad_failures == 25
    a, b = (residual(spec, solve(spec), grid) for spec in specs)
    assert np.array_equal(a.lhs, b.lhs)
    assert a.quad_failures == b.quad_failures == 0


@pytest.mark.parametrize("u", [lambda x: 1.0 + x, lambda x: 0.3],
                         ids=["1 + x", "0.3"])
def test_genshift_log_residual_keeps_a_constant(u):
    rep = residual(_spec("genshift-log", _x2e, _x2e_prime), u, [0.5, 1.0, 2.0])
    assert rep.quad_failures == 3
