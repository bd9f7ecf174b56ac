"""Program side of the benchmark: one function per case kind.

Each takes the case parameters and a context holding the freshly
imported fracshift package, constructs the program-side inputs (specs,
coordinate maps, counted callables), and returns ``(run, check)``:

* ``run()`` performs the timed operation through fracshift's public names
  (the names in ``fracshift.__all__``, plus ``fracshift.cli.main``, the
  console entry point);
* ``check(out, ref)`` compares the output with the oracle's reference, or
  with a property the method must have, and returns ``(ok, margins)``.
  A margin is log10(tolerance / error) of a numeric result that passed,
  with the error floored at double-precision rounding.

``run`` returns ``Raised(exc)`` instead of raising, so checks can expect a
typed refusal.  Callables handed to fracshift go through a ``Meter``, which
counts the points at which the program evaluates them.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from types import SimpleNamespace

import numpy as np

import cases as cases_mod
from oracle import moment, moment_kernel

EPS = float(np.finfo(float).eps)


class Raised:
    """An exception raised by an operation, kept as its output."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"Raised({type(self.exc).__name__}: {self.exc})"


class Meter:
    """Counts the points at which the program evaluates benchmark callables."""

    def __init__(self):
        self.points = 0

    def scalar(self, f):
        def counted(x):
            y = f(x)
            self.points += 1
            return y
        return counted

    def vector(self, f):
        def counted(x):
            y = f(x)
            self.points += getattr(x, "size", 1)
            return y
        return counted


# -- checks --------------------------------------------------------------------

def margin(err, tol):
    return math.log10(tol / max(err, EPS))


def close(got, want, rtol, scale=None):
    """All values within rtol * max(1, |want|, scale); one margin for the
    worst.  ``scale`` is the size of the terms a result is summed from,
    below which rounding makes no promise."""
    if isinstance(got, Raised):
        return False, []
    g = np.atleast_1d(np.asarray(got, dtype=float))
    w = np.atleast_1d(np.asarray(want, dtype=float))
    if g.shape != w.shape:
        return False, []
    size = np.maximum(1.0, np.abs(w))
    if scale is not None:
        size = np.maximum(size, np.asarray(scale, dtype=float))
    err = np.abs(g - w) / size
    if not np.isfinite(err).all() or float(err.max()) > rtol:
        return False, []
    return True, [margin(float(err.max()), rtol)]


def same_grid(got, want):
    """The abscissae a command printed are the ones asked for (no margin:
    they are inputs, not results)."""
    return close(got, want, 1e-14)[0], []


def both(*results):
    ok = all(r[0] for r in results)
    return ok, [m for r in results for m in r[1]] if ok else []


def residual_ok(rep, bound):
    """A residual report passes when no point failed and max |LHS - f| is
    within the family bound; its margin is log10(bound / max abs)."""
    if rep.quad_failures or not rep.max_abs <= bound:
        return False, []
    return True, [margin(rep.max_abs, bound)]


def refused(out, types):
    return isinstance(out, Raised) and isinstance(out.exc, types), []


def guard(run):
    def guarded():
        try:
            return run()
        except Exception as exc:  # the check decides whether it was expected
            return Raised(exc)
    return guarded


# -- callables handed to the program -------------------------------------------

def power_callables(meter, terms):
    """f = sum c x^s and f', broadcasting over arrays."""
    cs = np.array([t[0] for t in terms])
    ss = np.array([t[1] for t in terms])

    def f(x):
        x = np.asarray(x, dtype=float)
        return (cs * x[..., None] ** ss).sum(axis=-1)

    def fp(x):
        x = np.asarray(x, dtype=float)
        return (cs * ss * x[..., None] ** (ss - 1.0)).sum(axis=-1)

    return meter.vector(f), meter.vector(fp)


def radial_callables(meter, pairs):
    """f = sum c A(beta) exp(-beta x^2) with radial solution sum c exp(-beta x^2)."""
    cs = np.array([c * 0.5 * math.sqrt(math.pi / (2.0 * b)) for c, b in pairs])
    bs = np.array([b for _, b in pairs])

    def f(x):
        x = np.asarray(x, dtype=float)[..., None]
        return (cs * np.exp(-bs * x * x)).sum(axis=-1)

    def fp(x):
        x = np.asarray(x, dtype=float)[..., None]
        return (-2.0 * bs * cs * x * np.exp(-bs * x * x)).sum(axis=-1)

    return meter.vector(f), meter.vector(fp)


def moebius_callables(meter, m, a, offset=0.0):
    """Datum with moebius solution x^m (plus a constant ``offset``)."""
    def f(x):
        x = np.asarray(x, dtype=float)
        return offset - x ** (m - 1.0) * np.expm1((1.0 - m) * np.log1p(a * x)) \
            / (m - 1.0)

    def fp(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            d = -x ** (m - 2.0) * np.expm1((1.0 - m) * np.log1p(a * x)) \
                + a * x ** (m - 1.0) * (1.0 + a * x) ** -m
        return np.where(x > 0.0, d, 0.0)

    return meter.vector(f), meter.vector(fp)


def gauss_scalar(meter, beta):
    """Scalar-only exp(-beta t^2) and its derivative (math module)."""
    return (meter.scalar(lambda t: math.exp(-beta * t * t)),
            meter.scalar(lambda t: -2.0 * beta * t * math.exp(-beta * t * t)))


def power_scalar(meter, s):
    """Scalar-only t^s and its derivative (math module)."""
    return (meter.scalar(lambda t: math.pow(t, s)),
            meter.scalar(lambda t: s * math.pow(t, s - 1.0)))


# -- CLI -------------------------------------------------------------------------

def call_cli(ctx, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctx.fs.cli.main(list(argv))
    return rc, out.getvalue()


def csv_table(text):
    rows = [ln.split(",") for ln in text.splitlines()
            if ln and not ln.startswith("#")]
    return rows[0], np.array(rows[1:], dtype=float)


_VERIFY_LINE = re.compile(r"max abs (\S+),.*quad failures (\d+)\s+bound (\S+): (\w+)",
                          re.S)


# -- case kinds ----------------------------------------------------------------
# Relative tolerances are set from the tolerance each call is asked for
# (1e-10 absolute by default) with room for its error estimate to be
# pessimistic or optimistic by a decade or two; see README.

SOLVER_RTOL = 1e-8
QUAD_RTOL = 1e-8
SERIES_RTOL = 1e-10


_FAMILIES = {"gaussian": "GAUSSIAN_DILATION", "laplace": "LAPLACE_DILATION",
             "radial": "RADIAL", "genshift-log": "GENERALIZED_SHIFT",
             "genshift-rr": "GENERALIZED_SHIFT", "moebius": "MOEBIUS"}


def _family_solve(p, ctx):
    """solve, evaluate u on the grid against u*, and residual-check it."""
    fs, key = ctx.fs, ctx.kind
    family = getattr(fs.Family, _FAMILIES[key])
    if key == "laplace":
        spec = fs.EquationSpec(family, f_series=fs.PowerSeries(p["coeffs"]),
                               mu=p["mu"])
    else:
        if key in ("gaussian", "genshift-log"):
            f, fp = power_callables(ctx.meter, p["terms"])
        elif key in ("radial", "genshift-rr"):
            f, fp = radial_callables(ctx.meter, p["pairs"])
        else:
            f, fp = moebius_callables(ctx.meter, p["m"], p["a"])
        extra = {"genshift-log": {"cmap": ctx.maps["log"]},
                 "genshift-rr": {"cmap": ctx.maps["rr"]},
                 "moebius": {"a": p.get("a")}}.get(key, {})
        spec = fs.EquationSpec(family, f=f, f_prime=fp, **extra)
    grid = np.array(cases_mod.grid_points(p["grid"]))
    bound = cases_mod.FAMILY_BOUND[key.split("-")[0]]
    rtol = SERIES_RTOL if key == "laplace" else SOLVER_RTOL

    def run():
        u = fs.solve(spec)
        return u.eval_batch(grid), fs.residual(spec, u, grid)

    def check(out, ref):
        if isinstance(out, Raised):
            return False, []
        return both(close(out[0], ref, rtol), residual_ok(out[1], bound))
    return run, check


def _cli_verify(p, ctx):
    bound = cases_mod.FAMILY_BOUND[p["argv"][1]]

    def run():
        return call_cli(ctx, p["argv"])

    def check(out, ref):
        if isinstance(out, Raised) or out[0] != 0:
            return False, []
        m = _VERIFY_LINE.search(out[1])
        if not m or m.group(4) != "pass" or int(m.group(2)) != 0:
            return False, []
        max_abs = float(m.group(1))
        return max_abs <= bound, [margin(max_abs, bound)]
    return run, check


def _cli_solve(p, ctx):
    def run():
        return call_cli(ctx, p["argv"])

    def check(out, ref):
        if isinstance(out, Raised) or out[0] != 0:
            return False, []
        head, data = csv_table(out[1])
        if head != ["x", "u"]:
            return False, []
        return both(same_grid(data[:, 0], ref["x"]),
                    close(data[:, 1], ref["u"], SOLVER_RTOL))
    return run, check


def _scalar_fracop(p, ctx):
    fs, k = ctx.fs, ctx.kind
    if k == "xd_negpow":
        f, _ = power_scalar(ctx.meter, p["s"])
        run = lambda: fs.xd_negpow(p["nu"], f, p["x"])
    elif k == "half_sqrt_xd":
        _, fp = power_scalar(ctx.meter, p["s"])
        run = lambda: fs.half_sqrt_xd(fp, p["x"])
    elif k == "weyl_half_radial":
        f, fp = gauss_scalar(ctx.meter, p["beta"])
        run = lambda: fs.weyl_half_radial(f, fp, p["x"])
    elif k == "ghalf-log":
        f, fp = power_scalar(ctx.meter, p["s"])
        run = lambda: fs.generalized_half(ctx.maps["log"], f, fp, p["x"])
    else:
        f, fp = gauss_scalar(ctx.meter, p["beta"])
        run = lambda: fs.generalized_half(ctx.maps["rr"], f, fp, p["x"])
    return run, lambda out, ref: close(out, ref, SOLVER_RTOL)


def solution_handles(ctx, handles):
    """SolutionFn handles solved once from scalar-only data."""
    fs, out = ctx.fs, []
    for h in handles:
        if h["family"] == "gaussian":
            f, fp = power_scalar(ctx.meter, h["s"])
            out.append(fs.solve_gaussian_dilation(f, fp))
        elif h["family"] == "radial":
            f, fp = gauss_scalar(ctx.meter, h["beta"])
            out.append(fs.solve_radial(f, fp))
        else:
            m, a = h["m"], h["a"]
            f = ctx.meter.scalar(lambda t: -math.pow(t, m - 1.0)
                                 * math.expm1((1.0 - m) * math.log1p(a * t)) / (m - 1.0))
            fp = ctx.meter.scalar(
                lambda t: -math.pow(t, m - 2.0) * math.expm1((1.0 - m) * math.log1p(a * t))
                + a * math.pow(t, m - 1.0) * (1.0 + a * t) ** -m if t > 0.0 else 0.0)
            out.append(fs.solve_moebius(f, fp, a))
    return out


def _solution_call(p, ctx):
    u = ctx.handles[p["handle"]]
    return (lambda: u(p["x"])), (lambda out, ref: close(out, ref, SOLVER_RTOL))


def _integrate_finite(p, ctx):
    k = p["k"]
    body = {"cos": lambda t: math.cos(k * t), "exp-decay": lambda t: math.exp(-k * t),
            "lorentz": lambda t: 1.0 / (1.0 + (k * t) ** 2)}[p["form"]]
    f = ctx.meter.scalar(body)

    def run():
        return ctx.fs.integrate_finite(f, p["a"], p["b"])
    return run, _quad_check


def _integrate_semi_infinite(p, ctx):
    c, k = p["c"], p["k"]
    body = {"exp": lambda t: math.exp(-c * t),
            "gamma": lambda t: t ** k * math.exp(-c * t),
            "damped-cos": lambda t: math.exp(-c * t) * math.cos(k * t)}[p["form"]]
    f = ctx.meter.scalar(body)

    def run():
        return ctx.fs.integrate_semi_infinite(f, p["a"])
    return run, _quad_check


def _quad_check(out, ref):
    """A QuadratureResult passes when it says it converged and is right."""
    if isinstance(out, Raised) or not out.converged:
        return False, []
    return close(out.value, ref, QUAD_RTOL)


def _eval_F_quadrature(p, ctx):
    return (lambda: ctx.fs.eval_F_quadrature(p["x"], p["nu"])), _quad_check


# -- spectral case kinds ----------------------------------------------------------

def _coefficient_rule(ctx, rule, order):
    if rule["kind"] == "exp":
        c = rule["c"]
        body = lambda n: (-c) ** n / math.factorial(n)
    else:
        coeffs = rule["coeffs"]
        body = lambda n: coeffs[n] if n < len(coeffs) else 0.0
    return ctx.meter.scalar(body)


def _laplace_table(p, ctx):
    fs = ctx.fs
    rule = _coefficient_rule(ctx, p["rule"], p["order"])
    grid = np.array(cases_mod.grid_points(p["grid"]))

    def run():
        series = fs.from_coefficient_rule(rule, p["order"])
        u = fs.solve_laplace_dilation(series, p["mu"])
        return u.eval_batch(grid)
    return run, lambda out, ref: close(out, ref, SERIES_RTOL)


def _F_column(p, ctx):
    xs = cases_mod.grid_points(p["grid"])

    def run():
        return [ctx.fs.eval_F(x, p["nu"]) for x in xs]

    def check(out, ref):
        ok, ms = close(out, ref["value"], SERIES_RTOL, ref["scale"])
        # F is odd in x and the grid is symmetric about 0
        odd = all(out[i] == -out[-1 - i] for i in range(len(out)))
        return (ok and odd), (ms if odd else [])
    return run, check


def _G_table(p, ctx):
    fs, g = ctx.fs, p["g"]
    mi = fs.MultiplierIntegral(ctx.meter.scalar(lambda mu: moment(g, mu)), 1.0)
    rule = _coefficient_rule(ctx, {"kind": "poly", "coeffs": p["coeffs"]}, 0)
    order = len(p["coeffs"]) - 1
    xs = cases_mod.grid_points(p["grid"])

    def run():
        series = fs.from_coefficient_rule(rule, order)
        return [fs.eval_G(mi, series, x) for x in xs]
    return run, lambda out, ref: close(out, ref, SERIES_RTOL)


def _I_table(p, ctx):
    fs = ctx.fs
    profile = fs.ExponentialProfile([tuple(t) for t in p["terms"]])
    if p["shift"] == "square":
        Q = ctx.meter.scalar(lambda mu: 0.5 * math.sqrt(math.pi / -mu))
    else:
        Q = ctx.meter.scalar(lambda mu: -1.0 / mu)
    xs = cases_mod.grid_points(p["grid"])

    def run():
        return [fs.eval_I(profile, Q, x) for x in xs]
    return run, lambda out, ref: close(out, ref, SERIES_RTOL)


def _conjecture(p, ctx):
    fs = ctx.fs
    series = fs.PowerSeries(p["coeffs"])
    has_const = p["coeffs"][0] != 0.0

    def run():
        return fs.conjecture_check(p["nu"], series, p["x"], K=p["K"])

    def check(out, ref):
        if isinstance(out, Raised) or out.constant_term_excluded != has_const:
            return False, []
        # exact once K reaches the degree: the Newton series of n^nu stops
        return both(close(out.target, ref, SERIES_RTOL),
                    close(out.partial_sums[-1], ref, 1e-9))
    return run, check


def _stirling(p, ctx):
    fs, n = ctx.fs, p["n"]

    def run():
        return ([fs.stirling2(n, k) for k in range(n + 1)],
                [fs.stirling2_frac(float(n), k) for k in range(n + 1)])

    def check(out, ref):
        if isinstance(out, Raised) or list(out[0]) != list(ref):
            return False, []
        return close(out[1], ref, SERIES_RTOL)
    return run, check


def _fig1(p, ctx):
    def run():
        return call_cli(ctx, p["argv"])

    def check(out, ref):
        if isinstance(out, Raised) or out[0] != 0:
            return False, []
        head, data = csv_table(out[1])
        if head[0] != "x" or len(head) != 1 + len(ref["F"][0]):
            return False, []
        return both(same_grid(data[:, 0], ref["x"]),
                    close(data[:, 1:], ref["F"], SERIES_RTOL, ref["scale"]))
    return run, check


# -- hard-inputs case kinds -------------------------------------------------------

def _const_datum(p, ctx):
    """f(0) != 0 for a family whose generator annihilates constants: the
    equation has no solution, so the only right answer is a refusal."""
    fs = ctx.fs
    if p["family"] == "gaussian":
        f = ctx.meter.vector(lambda x: np.exp(-np.asarray(x) ** 2))
        fp = ctx.meter.vector(lambda x: -2.0 * np.asarray(x) * np.exp(-np.asarray(x) ** 2))
    else:
        f = ctx.meter.vector(lambda x: np.exp(-np.asarray(x)))
        fp = ctx.meter.vector(lambda x: -np.exp(-np.asarray(x)))

    def run():
        if p["family"] == "gaussian":
            spec = fs.EquationSpec(fs.Family.GAUSSIAN_DILATION, f=f, f_prime=fp)
        else:
            spec = fs.EquationSpec(fs.Family.GENERALIZED_SHIFT, f=f, f_prime=fp,
                                   cmap=ctx.maps["log"])
        return fs.solve(spec).eval_batch(np.array([1.0, 2.0]))
    return run, lambda out, ref: refused(out, (ValueError, ArithmeticError))


def _cli_refuse(p, ctx):
    """The command must exit with status 1 (numeric failure or refusal)."""
    def run():
        return call_cli(ctx, p["argv"])
    return run, lambda out, ref: (not isinstance(out, Raised) and out[0] == 1, [])


def _algebraic_tail(p, ctx):
    q = p["p"]
    f = ctx.meter.scalar(lambda y: (1.0 + y * y) ** -q)

    def run():
        return ctx.fs.integrate_semi_infinite(f, 0.0, p["tol"])
    return run, _quad_check


def _inv_sqrt_finite(p, ctx):
    f = ctx.meter.scalar(lambda x: 1.0 / math.sqrt(x))
    return (lambda: ctx.fs.integrate_finite(f, 0.0, 1.0)), _quad_check


def _power_finite(p, ctx):
    k = p["k"]
    f = ctx.meter.scalar(lambda x: math.pow(x, k))
    return (lambda: ctx.fs.integrate_finite(f, 0.0, 1.0)), _quad_check


def _eval_F(p, ctx):
    """eval_F must return the right number; where ``refusal_ok`` is set, a
    typed ConvergenceError (an honest refusal) also passes."""
    def run():
        return ctx.fs.eval_F(p["x"], p["nu"])

    def check(out, ref):
        if isinstance(out, Raised):
            return p.get("refusal_ok", False) and \
                isinstance(out.exc, ctx.fs.ConvergenceError), []
        return close(out, ref, SOLVER_RTOL)
    return run, check


def _moment_probe(p, ctx):
    """MultiplierIntegral with g_direct: accept the right moments, refuse
    moments off by a relative ``offset``."""
    g, off = p["g"], p["offset"]
    O = ctx.meter.scalar(lambda mu: moment(g, mu) * (1.0 + off))
    gd = ctx.meter.scalar(moment_kernel(g))

    def run():
        return ctx.fs.MultiplierIntegral(O, 0.5, g_direct=gd)

    def check(out, ref):
        if off:
            return refused(out, ValueError)
        return not isinstance(out, Raised), []
    return run, check


def _power_datum(p, ctx):
    fs = ctx.fs
    f, fp = power_callables(ctx.meter, [[1.0, p["s"]]])
    fam = fs.Family.GAUSSIAN_DILATION if p["family"] == "gaussian" \
        else fs.Family.GENERALIZED_SHIFT
    extra = {} if p["family"] == "gaussian" else {"cmap": ctx.maps["log"]}
    grid = np.array(p["grid"])

    def run():
        spec = fs.EquationSpec(fam, f=f, f_prime=fp, **extra)
        return fs.solve(spec).eval_batch(grid)
    return run, lambda out, ref: close(out, ref, SOLVER_RTOL)


def _moebius_point(p, ctx):
    f, fp = moebius_callables(ctx.meter, p["m"], p["a"])

    def run():
        return ctx.fs.solve_moebius(f, fp, p["a"])(p["x"])
    return run, lambda out, ref: close(out, ref, SOLVER_RTOL)


def _xd_negpow_constant(p, ctx):
    c = p["c"]
    f = ctx.meter.scalar(lambda t: c)
    return ((lambda: ctx.fs.xd_negpow(p["nu"], f, 1.0)),
            lambda out, ref: refused(out, ctx.fs.DivergenceError))


def _eval_F_nu_half(p, ctx):
    return ((lambda: ctx.fs.eval_F(p["x"], 0.5)),
            lambda out, ref: refused(out, ctx.fs.DivergenceError))


def _moebius_offset(p, ctx):
    fs = ctx.fs
    f, fp = moebius_callables(ctx.meter, p["m"], 1.0, offset=p["c"])

    def run():
        return fs.EquationSpec(fs.Family.MOEBIUS, f=f, f_prime=fp, a=1.0)
    return run, lambda out, ref: refused(out, ValueError)


KINDS = {
    "gaussian": _family_solve,
    "laplace": _family_solve,
    "radial": _family_solve,
    "genshift-log": _family_solve,
    "genshift-rr": _family_solve,
    "moebius": _family_solve,
    "cli-verify": _cli_verify,
    "cli-solve": _cli_solve,
    "xd_negpow": _scalar_fracop,
    "half_sqrt_xd": _scalar_fracop,
    "weyl_half_radial": _scalar_fracop,
    "ghalf-log": _scalar_fracop,
    "ghalf-rr": _scalar_fracop,
    "solution-call": _solution_call,
    "integrate_finite": _integrate_finite,
    "integrate_semi_infinite": _integrate_semi_infinite,
    "eval_F_quadrature": _eval_F_quadrature,
    "laplace-table": _laplace_table,
    "F-column": _F_column,
    "G-table": _G_table,
    "I-table": _I_table,
    "conjecture": _conjecture,
    "stirling": _stirling,
    "fig1": _fig1,
    "const-datum": _const_datum,
    "cli-refuse": _cli_refuse,
    "algebraic-tail": _algebraic_tail,
    "inv-sqrt-finite": _inv_sqrt_finite,
    "power-finite": _power_finite,
    "eval_F": _eval_F,
    "moment-probe": _moment_probe,
    "power-datum": _power_datum,
    "moebius-point": _moebius_point,
    "xd_negpow-constant": _xd_negpow_constant,
    "eval_F-nu-half": _eval_F_nu_half,
    "moebius-offset": _moebius_offset,
}


def build_all(fs, meter, cases, extra):
    """Program-side inputs for every case: a list of (case, run, check)."""
    ctx = SimpleNamespace(fs=fs, meter=meter, kind=None,
                          maps={"log": fs.log_map(), "rr": fs.reflected_radial_map()})
    ctx.handles = solution_handles(ctx, extra.get("handles", ()))
    built = []
    for c in cases:
        ctx.kind = c["kind"]
        run, check = KINDS[c["kind"]](c["p"], ctx)
        built.append((c, guard(run), check))
    return built
