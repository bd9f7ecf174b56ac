"""Reference values for the benchmark, computed without fracshift.

Every expected value comes from a closed form evaluated with ``math``, from
mpmath at raised precision, from scipy, or from brute force.  This module
never imports fracshift, and the benchmark runs it in a process of its own,
so the program under test and its oracle share nothing but the case list.

Run as a script it prints the references of one workload as JSON:

    python3 bench/oracle.py --workload spectral --seed 3

and ``python3 bench/oracle.py --selftest`` checks every closed-form pair
against its defining integral with ``scipy.integrate.quad``.  No reference
value is stored on disk; the command above regenerates all of them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import cases as cases_mod

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


# -- closed-form pairs (u*, f) ----------------------------------------------------

def power_u(terms, x):
    """Gaussian dilation / log-shift solution of f = sum c x^s."""
    return math.fsum(c * _TWO_OVER_SQRT_PI * math.sqrt(s) * x ** s
                     for c, s in terms)


def power_f(terms, x):
    return math.fsum(c * x ** s for c, s in terms)


def radial_amp(beta):
    """f = radial_amp(beta) * exp(-beta x^2) has radial solution exp(-beta x^2)."""
    return 0.5 * math.sqrt(math.pi / (2.0 * beta))


def radial_u(pairs, x):
    return math.fsum(c * math.exp(-b * x * x) for c, b in pairs)


def radial_f(pairs, x):
    return math.fsum(c * radial_amp(b) * math.exp(-b * x * x) for c, b in pairs)


def moebius_f(m, a, x):
    """Moebius datum whose solution is x^m: x^(m-1)(1-(1+ax)^(1-m))/(m-1)."""
    return -x ** (m - 1.0) * math.expm1((1.0 - m) * math.log1p(a * x)) / (m - 1.0)


def moebius_monomial_u(n, a, x):
    """Moebius solution for f = x^n: n a^(-n-1) zeta(n+1, 1/(a x)) (Hurwitz)."""
    import mpmath
    with mpmath.workdps(30):
        return float(n * mpmath.mpf(a) ** (-n - 1)
                     * mpmath.zeta(n + 1, 1 / (mpmath.mpf(a) * x)))


def laplace_u(coeffs, mu, x):
    """sum a_n x^n / Gamma(mu n + 1) at 30 digits."""
    import mpmath
    with mpmath.workdps(30):
        xm = mpmath.mpf(x)
        return float(mpmath.fsum(mpmath.mpf(c) * xm ** n
                                 * mpmath.rgamma(mu * n + 1)
                                 for n, c in enumerate(coeffs) if c))


def j0_sqrt(x):
    """J0(2 sqrt(x)): the laplace solution for f = exp(-x) at mu = 1."""
    from scipy.special import j0
    return float(j0(2.0 * math.sqrt(x)))


def exp_coeffs(c, order):
    return [(-c) ** n / math.factorial(n) for n in range(order + 1)]


def algebraic_tail(p):
    """int_0^inf (1+y^2)^-p dy = sqrt(pi) Gamma(p-1/2) / (2 Gamma(p))."""
    return math.sqrt(math.pi) * math.gamma(p - 0.5) / (2.0 * math.gamma(p))


def moment(g, mu):
    """O(mu) = int_0^inf g(t)^mu dt for the three moment kernels."""
    if g == "exp":
        return 1.0 / mu
    if g == "gauss":
        return 0.5 * math.sqrt(math.pi / mu)
    return algebraic_tail(mu)


def moment_kernel(g):
    return {"exp": lambda t: math.exp(-t),
            "gauss": lambda t: math.exp(-t * t),
            "lorentz": lambda t: 1.0 / (1.0 + t * t)}[g]


def shift_kernel(shift):
    """g(t) of eval_I: -t^2 ("square") or -t ("linear")."""
    return (lambda t: -t * t) if shift == "square" else (lambda t: -t)


def shift_symbol(shift, mu):
    """Q(mu) = int_0^inf exp(mu g(t)) dt for mu < 0."""
    return 0.5 * math.sqrt(math.pi / -mu) if shift == "square" else -1.0 / mu


def F_series(x, nu, with_scale=False):
    """F(x; nu) = int_0^inf sin(x (1+t^2)^-nu) dt by its moment series in
    mpmath, with working precision raised by the size of the largest term.

    With ``with_scale`` also returns (sqrt(pi)/2) sum |term|: a double
    precision sum of this series cannot be trusted below eps times that.
    """
    import mpmath
    if x == 0.0:
        return (0.0, 0.0) if with_scale else 0.0
    dps = 25 + int(abs(x) / math.log(10.0)) + 5
    with mpmath.workdps(dps):
        xm, nm = mpmath.mpf(x), mpmath.mpf(nu)
        total = abs_total = mpmath.mpf(0)
        eps = mpmath.mpf(10) ** (-(dps - 5))
        n = 0
        while True:
            k = 2 * n + 1
            m = k * nm
            term = (-1) ** n * xm ** k / mpmath.factorial(k) \
                * mpmath.gamma(m - mpmath.mpf(0.5)) * mpmath.rgamma(m)
            total += term
            abs_total += abs(term)
            if k > abs(x) and abs(term) <= eps * max(abs(total), eps):
                break
            n += 1
        half = mpmath.sqrt(mpmath.pi) / 2
        value = float(half * total)
        return (value, float(half * abs_total)) if with_scale else value


def F_table(xs, nu):
    """{"value": [F], "scale": [sum |term|]} on a grid."""
    pairs = [F_series(x, nu, with_scale=True) for x in xs]
    return {"value": [p[0] for p in pairs], "scale": [p[1] for p in pairs]}


def diagonal_target(nu, coeffs, x):
    """sum_{n>=1} n^nu a_n x^n, the value the fractional-coefficient sum
    should reach."""
    import mpmath
    with mpmath.workdps(30):
        return float(mpmath.fsum(mpmath.mpf(n) ** nu * c * mpmath.mpf(x) ** n
                                 for n, c in enumerate(coeffs) if n and c))


def partition_counts(n):
    """[S(n, k) for k = 0..n] by enumerating set partitions of an n-set as
    restricted growth strings."""
    counts = [0] * (n + 1)
    if n == 0:
        return [1]

    def grow(i, blocks):
        if i == n:
            counts[blocks] += 1
            return
        for b in range(blocks + 1):
            grow(i + 1, max(blocks, b + 1))

    grow(1, 1)
    return counts


def quad_inf(fn):
    from scipy.integrate import quad
    val, _ = quad(fn, 0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def G_direct(g, coeffs, x):
    """G(x) = int_0^inf f(x g(t)) dt for f = sum a_n t^n with a_0 = 0."""
    kern = moment_kernel(g)
    return quad_inf(lambda t: math.fsum(
        c * (x * kern(t)) ** n for n, c in enumerate(coeffs) if c))


def I_direct(shift, terms, x):
    """I(x) = int_0^inf f(sqrt(x^2 - 2 g(t))) dt for the profile
    f = sum c exp(-beta w), w = x^2/2."""
    gk = shift_kernel(shift)
    w0 = 0.5 * x * x
    return quad_inf(lambda t: math.fsum(
        c * math.exp(-b * (w0 - gk(t))) for c, b in terms))


# -- CLI arguments -> reference table ------------------------------------------

def parse_cli_grid(text):
    parts = text.split(":")
    if parts[0] == "geom":
        return cases_mod.grid_points(["geom", float(parts[1]), float(parts[2]), int(parts[3])])
    return cases_mod.grid_points(["lin", float(parts[0]), float(parts[1]), int(parts[2])])


def _opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def cli_solution(argv):
    """Expected x,u table of a `fracshift solve` command."""
    family = argv[1]
    fname = _opt(argv, "--f")
    xs = parse_cli_grid(_opt(argv, "--grid"))
    head, _, arg = fname.partition(":")
    if head == "monomial" and family in ("gaussian", "genshift"):
        n = int(arg)
        u = [power_u([[1.0, n]], x) for x in xs]
    elif head == "gauss-pair":
        b = float(arg)
        u = [math.exp(-b * x * x) for x in xs]
    elif family == "laplace" and fname == "exp-decay":
        mu = float(_opt(argv, "--mu", "1"))
        if mu == 1.0:
            u = [j0_sqrt(x) for x in xs]
        else:
            coeffs = exp_coeffs(1.0, 63)
            u = [laplace_u(coeffs, mu, x) for x in xs]
    elif family == "moebius" and head == "monomial":
        a = float(_opt(argv, "--a", "1"))
        u = [moebius_monomial_u(int(arg), a, x) for x in xs]
    else:
        raise ValueError(f"no oracle for {argv!r}")
    return {"x": xs, "u": u}


def fig1_table(argv):
    nus = [float(v) for v in _opt(argv, "--nu").split(",")]
    xs = cases_mod.grid_points(["lin", 0.0, float(_opt(argv, "--x-max")),
                      int(_opt(argv, "--samples"))])
    cols = [F_table(xs, nu) for nu in nus]
    return {"x": xs, "F": [[c["value"][i] for c in cols] for i in range(len(xs))],
            "scale": [[c["scale"][i] for c in cols] for i in range(len(xs))]}


# -- per-kind references ----------------------------------------------------------

def reference(c, extra):
    """Expected output of one case, or None where the check is a property
    (an expected refusal, a residual bound)."""
    k, p = c["kind"], c["p"]
    if k in ("gaussian", "genshift-log"):
        return [power_u(p["terms"], x) for x in cases_mod.grid_points(p["grid"])]
    if k in ("radial", "genshift-rr"):
        return [radial_u(p["pairs"], x) for x in cases_mod.grid_points(p["grid"])]
    if k == "laplace":
        return [laplace_u(p["coeffs"], p["mu"], x) for x in cases_mod.grid_points(p["grid"])]
    if k == "moebius":
        return [x ** p["m"] for x in cases_mod.grid_points(p["grid"])]
    if k == "cli-solve":
        return cli_solution(p["argv"])
    if k == "xd_negpow":
        return p["s"] ** -p["nu"] * p["x"] ** p["s"]
    if k in ("half_sqrt_xd", "ghalf-log"):
        return power_u([[1.0, p["s"]]], p["x"])
    if k in ("weyl_half_radial", "ghalf-rr"):
        return math.exp(-p["beta"] * p["x"] ** 2) / radial_amp(p["beta"])
    if k == "solution-call":
        h = extra["handles"][p["handle"]]
        if h["family"] == "gaussian":
            return power_u([[1.0, h["s"]]], p["x"])
        if h["family"] == "radial":
            return math.exp(-h["beta"] * p["x"] ** 2) / radial_amp(h["beta"])
        return p["x"] ** h["m"]
    if k == "integrate_finite":
        a, b, kk = p["a"], p["b"], p["k"]
        if p["form"] == "cos":
            return (math.sin(kk * b) - math.sin(kk * a)) / kk
        if p["form"] == "exp-decay":
            return (math.exp(-kk * a) - math.exp(-kk * b)) / kk
        return (math.atan(kk * b) - math.atan(kk * a)) / kk
    if k == "integrate_semi_infinite":
        cc, kk = p["c"], p["k"]
        if p["form"] == "exp":
            return math.exp(-cc * p["a"]) / cc
        if p["form"] == "gamma":
            return math.factorial(kk) / cc ** (kk + 1)
        return cc / (cc * cc + kk * kk)
    if k in ("eval_F_quadrature", "eval_F"):
        return F_series(p["x"], p["nu"])
    if k == "laplace-table":
        xs = cases_mod.grid_points(p["grid"])
        r = p["rule"]
        if r["kind"] == "exp" and r["c"] == 1.0 and p["mu"] == 1.0:
            return [j0_sqrt(x) for x in xs]
        coeffs = exp_coeffs(r["c"], p["order"]) if r["kind"] == "exp" \
            else r["coeffs"]
        return [laplace_u(coeffs, p["mu"], x) for x in xs]
    if k == "F-column":
        return F_table(cases_mod.grid_points(p["grid"]), p["nu"])
    if k == "G-table":
        return [G_direct(p["g"], p["coeffs"], x) for x in cases_mod.grid_points(p["grid"])]
    if k == "I-table":
        return [I_direct(p["shift"], p["terms"], x) for x in cases_mod.grid_points(p["grid"])]
    if k == "conjecture":
        return diagonal_target(p["nu"], p["coeffs"], p["x"])
    if k == "stirling":
        return partition_counts(p["n"])
    if k == "fig1":
        return fig1_table(p["argv"])
    if k == "algebraic-tail":
        return algebraic_tail(p["p"])
    if k == "inv-sqrt-finite":
        return 2.0            # int_0^1 x^-1/2 dx
    if k == "power-datum":
        return [power_u([[1.0, p["s"]]], x) for x in p["grid"]]
    if k == "power-finite":
        return 1.0 / (p["k"] + 1.0)
    if k == "moebius-point":
        return p["x"] ** p["m"]
    return None


def references(workload, seed, smoke=False):
    cases, extra = cases_mod.build(workload, seed, smoke)
    refs = {}
    for c in cases:
        if c["id"] not in refs:      # hard-inputs repeats its fast cases
            refs[c["id"]] = reference(c, extra)
    return refs


# -- self-test: each pair against its defining integral ---------------------------

def selftest():
    """Check every closed form used above against scipy.integrate.quad of the
    integral that defines it.  Returns a list of (name, abs error, bound)."""
    from scipy.integrate import quad
    out = []

    def record(name, got, want, bound):
        out.append((name, abs(got - want), bound))

    terms = [[0.7, 1.3], [-0.4, 2.6]]
    for x in (0.3, 1.7):
        lhs = quad_inf(lambda y: power_u(terms, x * math.exp(-y * y)))
        record(f"gaussian pair x={x}", lhs, power_f(terms, x), 1e-10)
    pairs = [[1.1, 0.8], [0.5, 2.2]]
    for x in (0.0, 1.4):
        lhs = quad_inf(lambda y: radial_u(pairs, math.sqrt(x * x + 2 * y * y)))
        record(f"radial pair x={x}", lhs, radial_f(pairs, x), 1e-10)
    for m, a, x in ((2.5, 1.3, 0.7), (3.7, 0.6, 2.2)):
        lhs, _ = quad(lambda y: (x / (1.0 + x * y)) ** m, 0.0, a,
                      epsabs=1e-13, epsrel=1e-13)
        record(f"moebius pair m={m}", lhs, moebius_f(m, a, x), 1e-10)
    for n, a, x in ((1, 1.0, 0.8), (2, 0.5, 1.9)):
        lhs, _ = quad(lambda y: moebius_monomial_u(n, a, x / (1.0 + x * y)),
                      0.0, a, epsabs=1e-12, epsrel=1e-12)
        record(f"moebius monomial n={n}", lhs, x ** n, 1e-9)
    coeffs = [0.3, -0.8, 0.5, 0.2]
    for mu, x in ((0.7, 1.2), (2.0, 2.5)):
        lhs = quad_inf(lambda y: math.exp(-y) * laplace_u(coeffs, mu, x * y ** mu))
        want = math.fsum(c * x ** n for n, c in enumerate(coeffs))
        record(f"laplace pair mu={mu}", lhs, want, 1e-9)
    for x in (0.4, 3.0):
        lhs = quad_inf(lambda y: math.exp(-y) * j0_sqrt(x * y))
        record(f"J0(2 sqrt x) x={x}", lhs, math.exp(-x), 1e-10)
        record(f"J0 vs series x={x}", j0_sqrt(x),
               laplace_u(exp_coeffs(1.0, 40), 1.0, x), 1e-13)
    for p in (0.75, 1.6):
        record(f"algebraic tail p={p}",
               quad_inf(lambda y: (1 + y * y) ** -p), algebraic_tail(p), 1e-9)
    for g in ("exp", "gauss", "lorentz"):
        kern = moment_kernel(g)
        record(f"moment {g}", quad_inf(lambda t: kern(t) ** 1.7),
               moment(g, 1.7), 1e-10)
        cs = [0.0, 0.6, -0.3, 0.25]
        record(f"eval_G {g}", G_direct(g, cs, 1.3),
               math.fsum(c * moment(g, n) * 1.3 ** n
                         for n, c in enumerate(cs) if c), 1e-10)
    for shift in ("square", "linear"):
        ts = [[0.8, 1.5], [-0.3, 0.7]]
        x = 1.1
        record(f"eval_I {shift}", I_direct(shift, ts, x),
               math.fsum(c * shift_symbol(shift, -b) * math.exp(-b * x * x / 2)
                         for c, b in ts), 1e-10)
    for x, nu in ((2.0, 1.5), (-3.0, 2.2), (7.0, 1.0)):
        lhs, _ = quad(lambda t: math.sin(x * (1 + t * t) ** -nu), 0.0, math.inf,
                      epsabs=1e-12, epsrel=1e-12, limit=400)
        record(f"F series x={x} nu={nu}", F_series(x, nu), lhs, 1e-8)
    for s, nu, x in ((1.5, 0.5, 0.9), (2.3, 1.7, 1.6)):
        lhs = quad_inf(lambda t: x ** s * math.exp(-s * t) * t ** (nu - 1.0)) \
            / math.gamma(nu)
        record(f"negpow s={s} nu={nu}", lhs, s ** -nu * x ** s, 1e-9)
    for b, x in ((0.9, 0.6), (2.4, 1.3)):
        # weyl half power: u = exp(-b x^2)/amp solves the radial equation for
        # f = exp(-b x^2)
        u = lambda r: math.exp(-b * r * r) / radial_amp(b)
        lhs = quad_inf(lambda y: u(math.sqrt(x * x + 2 * y * y)))
        record(f"weyl pair b={b}", lhs, math.exp(-b * x * x), 1e-10)
    for n in range(1, 8):
        brute = partition_counts(n)
        formula = [sum((-1) ** (k - j) * math.comb(k, j) * j ** n
                       for j in range(k + 1)) // math.factorial(k)
                   for k in range(n + 1)]
        record(f"partitions n={n}", float(sum(abs(a - b) for a, b in
                                              zip(brute, formula))), 0.0, 0.5)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=cases_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        bad = 0
        for name, err, bound in selftest():
            ok = err <= bound
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: |diff| {err:.2e} "
                  f"(bound {bound:g})")
        return 1 if bad else 0
    if args.workload is None:
        ap.error("--workload or --selftest is required")
    json.dump(references(args.workload, args.seed, args.smoke), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
