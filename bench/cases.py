"""Seeded operation lists for the four benchmark workloads.

A case is plain data: an id, a kind, the parameters the kind needs and, for
the named faults kept in ``hard-inputs``, a label.  Both the program side
(``ops.py``) and the oracle side (``oracle.py``) rebuild the same list from
the workload name and the seed, so neither process ever sees the other's
callables.  Nothing here imports fracshift.

Inputs of the named faults do not depend on the seed; every other input
does.  The make-up of a list (how many cases of each kind, grid sizes) is the
same for every seed, so a run's share of failed operations is a constant.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-sweep", "pointwise", "spectral", "hard-inputs")

# Named faults in hard-inputs.  COUNTED_FAILED are the ones whose operations
# fail on the current program; SLOW_CORRECT return the right verdict after
# using up the quadrature budget.
COUNTED_FAILED = ("silent-constant", "algebraic-tail", "silent-fallback")
SLOW_CORRECT = ("slow-refusal", "unchecked-probe")
FAST_REFUSAL = "fast-refusal"

# Residual acceptance bound per family, as printed by `fracshift verify`.
FAMILY_BOUND = {"gaussian": 1e-6, "laplace": 1e-7, "radial": 1e-6,
                "genshift": 1e-6, "moebius": 1e-5}


def grid_points(spec):
    """``["lin"|"geom"|"sym", lo, hi, n]`` -> list of floats, endpoints
    inclusive; "sym" mirrors a linear grid on [0, hi] about 0."""
    kind, lo, hi, n = spec
    if kind == "sym":      # n points symmetric about 0 on [-hi, hi], n odd
        half = grid_points(["lin", 0.0, hi, (n + 1) // 2])
        return [-x for x in half[:0:-1]] + half
    if n == 1:
        return [float(lo)]
    if kind == "lin":
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    r = math.log(hi / lo)
    return [lo * math.exp(r * i / (n - 1)) for i in range(n)]


def case(cid, kind, label=None, **p):
    return {"id": cid, "kind": kind, "label": label, "p": p}


def _r(x, nd=4):
    return round(x, nd)


def _lhs(rng, n, **ranges):
    """n parameter sets on a Latin hypercube: each parameter's range is cut
    into n strata and every stratum is used once, in a seeded order.  So the
    hard and the cheap ends of every range appear on every seed, and the
    cost of a round drifts little from seed to seed."""
    cols = {}
    for name, (lo, hi) in ranges.items():
        order = list(range(n))
        rng.shuffle(order)
        cols[name] = [_r(lo + (hi - lo) * (k + rng.random()) / n) for k in order]
    return [{name: cols[name][i] for name in ranges} for i in range(n)]


def _power_terms(rng, i, s0):
    """1 + i % 3 terms c*x^s of a gaussian/genshift-log datum f, the first
    with exponent s0."""
    terms = [[_r(rng.choice((-1, 1)) * rng.uniform(0.3, 1.0)),
              _r(rng.uniform(1.0, 3.5))] for _ in range(1 + i % 3)]
    terms[0][1] = s0
    return terms


def _gauss_pairs(rng, i, beta0):
    """1 + i % 2 terms c*exp(-beta x^2) of a radial solution u*, the first
    with rate beta0."""
    pairs = [[_r(rng.uniform(0.3, 1.5)), _r(rng.uniform(0.5, 3.0))]
             for _ in range(1 + i % 2)]
    pairs[0][1] = beta0
    return pairs


def _poly(rng, deg, const=False):
    """Degree-``deg`` polynomial coefficients; the degree comes from the case
    index, not the seed, so evaluation counts do not drift with the seed."""
    coeffs = [_r(rng.uniform(-1.0, 1.0)) for _ in range(deg + 1)]
    if not const:
        coeffs[0] = 0.0
    coeffs[-1] = coeffs[-1] or 0.5
    return coeffs


def _interleave(groups):
    """Round-robin over the kind groups, so a truncated smoke list and the
    full list start with the same mix."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


# -- verify-sweep --------------------------------------------------------------

def _verify_sweep(rng):
    g = {k: [] for k in ("gaussian", "laplace", "radial", "genshift-log",
                         "genshift-rr", "moebius", "cli-verify", "cli-solve")}
    for fam, n in (("gaussian", 16), ("genshift-log", 12)):
        for i, q in enumerate(_lhs(rng, n, s0=(1.0, 3.5), lo=(0.1, 0.3), hi=(2.0, 4.0))):
            g[fam].append(case(f"{fam}-{i}", fam, terms=_power_terms(rng, i, q["s0"]),
                               grid=["geom", q["lo"], q["hi"], 12]))
    for i, q in enumerate(_lhs(rng, 14, mu=(0.5, 2.5), c=(0.5, 1.5), hi=(1.5, 3.0))):
        if i % 2:
            coeffs = _poly(rng, 3 + i % 4, const=True)
        else:
            coeffs = [(-q["c"]) ** n / math.factorial(n) for n in range(25)]
        g["laplace"].append(case(f"laplace-{i}", "laplace", coeffs=coeffs,
                                 mu=q["mu"], grid=["geom", 0.1, q["hi"], 10]))
    for fam, n, lo in (("radial", 16, (0.0, 0.0)), ("genshift-rr", 14, (0.05, 0.2))):
        for i, q in enumerate(_lhs(rng, n, beta0=(0.5, 3.0), lo=lo, hi=(2.0, 3.5))):
            g[fam].append(case(f"{fam}-{i}", fam, pairs=_gauss_pairs(rng, i, q["beta0"]),
                               grid=["lin", q["lo"], q["hi"], 12]))
    for i, q in enumerate(_lhs(rng, 16, m=(1.5, 4.0), a=(0.5, 2.0), hi=(1.5, 3.0))):
        g["moebius"].append(case(f"moebius-{i}", "moebius", m=q["m"], a=q["a"],
                                 grid=["geom", 0.1, q["hi"], 10]))
    hi = f"{_r(rng.uniform(2.0, 3.0), 2):g}"
    beta = f"{_r(rng.uniform(0.5, 3.0), 2):g}"
    mu = f"{_r(rng.uniform(0.5, 2.5), 2):g}"
    a = f"{_r(rng.uniform(0.5, 2.0), 2):g}"
    n = rng.randint(1, 3)
    for i, argv in enumerate((
            ["verify", "gaussian", "--f", f"monomial:{n}", "--grid", f"geom:0.1:{hi}:9"],
            ["verify", "radial", "--f", f"gauss-pair:{beta}", "--grid", f"0:{hi}:9"],
            ["verify", "laplace", "--f", "exp-decay", "--mu", mu, "--grid", f"geom:0.1:{hi}:9"],
            ["verify", "moebius", "--f", f"monomial:{n}", "--a", a, "--grid", f"geom:0.1:{hi}:9"],
            ["verify", "genshift", "--f", f"monomial:{n}", "--map", "log",
             "--grid", f"geom:0.1:{hi}:9"],
            ["verify", "genshift", "--f", f"gauss-pair:{beta}", "--map",
             "reflected-radial", "--grid", f"geom:0.1:{hi}:9"])):
        g["cli-verify"].append(case(f"cli-verify-{i}", "cli-verify", argv=argv))
    for i, argv in enumerate((
            ["solve", "gaussian", "--f", f"monomial:{n}", "--grid", f"geom:0.1:{hi}:9"],
            ["solve", "radial", "--f", f"gauss-pair:{beta}", "--grid", f"0:{hi}:9"],
            ["solve", "laplace", "--f", "exp-decay", "--mu", "1", "--grid", f"0:{hi}:9"],
            ["solve", "laplace", "--f", "exp-decay", "--mu", mu, "--grid", f"0:{hi}:9"],
            ["solve", "genshift", "--f", f"gauss-pair:{beta}", "--map",
             "reflected-radial", "--grid", f"geom:0.1:{hi}:9"],
            ["solve", "moebius", "--f", f"monomial:{n}", "--a", a,
             "--grid", f"geom:0.1:{hi}:9"])):
        g["cli-solve"].append(case(f"cli-solve-{i}", "cli-solve", argv=argv))
    return _interleave(list(g.values()))


# -- pointwise -----------------------------------------------------------------

# xd_negpow's zero probe compares |f(x e^-40)| with tol, so it refuses x^s for
# s below about 0.58 although the power exists; exponents start at 0.6.

def _pointwise(rng):
    g = {k: [] for k in ("xd_negpow", "half_sqrt_xd", "weyl_half_radial",
                         "ghalf-log", "ghalf-rr", "solution-call",
                         "integrate_finite", "integrate_semi_infinite",
                         "eval_F_quadrature")}
    for kind, n, ranges in (
            ("xd_negpow", 14, {"nu": (0.3, 2.5), "s": (0.6, 3.0), "x": (0.2, 3.0)}),
            ("half_sqrt_xd", 14, {"s": (1.0, 3.0), "x": (0.2, 3.0)}),
            ("weyl_half_radial", 12, {"beta": (0.5, 3.0), "x": (0.0, 2.5)}),
            ("ghalf-log", 10, {"s": (1.0, 3.0), "x": (0.2, 3.0)}),
            ("ghalf-rr", 10, {"beta": (0.5, 3.0), "x": (0.1, 2.5)}),
            ("eval_F_quadrature", 8, {"x": (10.5, 60.0), "nu": (1.0, 3.0)})):
        for i, q in enumerate(_lhs(rng, n, **ranges)):
            g[kind].append(case(f"{kind}-{i}", kind, **q))
    # SolutionFn.__call__ on handles solved once at set-up from scalar data.
    handles = [
        {"family": "gaussian", "s": _r(rng.uniform(1.0, 3.0))},
        {"family": "radial", "beta": _r(rng.uniform(0.5, 3.0))},
        {"family": "moebius", "m": _r(rng.uniform(1.5, 4.0)),
         "a": _r(rng.uniform(0.5, 2.0))},
    ]
    for h, lo in enumerate((0.1, 0.0, 0.1)):
        for i, q in enumerate(_lhs(rng, 6, x=(lo, 2.5))):
            g["solution-call"].append(case(
                f"solution-call-{h}-{i}", "solution-call", handle=h, x=q["x"]))
    for i, q in enumerate(_lhs(rng, 14, k=(0.5, 4.0), a=(-1.0, 1.0), w=(0.5, 3.0))):
        g["integrate_finite"].append(case(
            f"integrate_finite-{i}", "integrate_finite",
            form=("cos", "exp-decay", "lorentz")[i % 3], k=q["k"], a=q["a"],
            b=_r(q["a"] + q["w"])))
    for i, q in enumerate(_lhs(rng, 14, c=(0.5, 2.0), k=(0.5, 3.0), a=(0.0, 1.0))):
        form = ("exp", "gamma", "damped-cos")[i % 3]
        g["integrate_semi_infinite"].append(case(
            f"integrate_semi_infinite-{i}", "integrate_semi_infinite", form=form,
            c=q["c"], k=1 + i % 4 if form == "gamma" else q["k"],
            a=q["a"] if form == "exp" else 0.0))
    return _interleave(list(g.values())), handles


# -- spectral ------------------------------------------------------------------

def _spectral(rng):
    g = {k: [] for k in ("laplace-table", "F-column", "G-table", "I-table",
                         "conjecture", "stirling", "fig1")}
    for i, q in enumerate(_lhs(rng, 6, c=(0.5, 1.5), mu=(0.5, 2.5), hi=(2.0, 4.0))):
        if i % 3 == 0:     # exp(-x) at mu = 1: u = J0(2 sqrt(x)), checked by scipy
            rule, mu = {"kind": "exp", "c": 1.0}, 1.0
        elif i % 3 == 1:
            rule, mu = {"kind": "exp", "c": q["c"]}, q["mu"]
        else:
            rule, mu = {"kind": "poly", "coeffs": _poly(rng, 3 + i, const=True)}, q["mu"]
        g["laplace-table"].append(case(
            f"laplace-table-{i}", "laplace-table", rule=rule, order=40, mu=mu,
            grid=["lin", 0.0, q["hi"], 41]))
    for i, q in enumerate(_lhs(rng, 6, nu=(1.0, 4.5), xmax=(6.0, 10.0))):
        g["F-column"].append(case(f"F-column-{i}", "F-column", nu=q["nu"],
                                  grid=["sym", 0.0, q["xmax"], 21]))
    for i, q in enumerate(_lhs(rng, 6, hi=(1.0, 2.0))):
        g["G-table"].append(case(
            f"G-table-{i}", "G-table", g=("exp", "gauss", "lorentz")[i % 3],
            coeffs=_poly(rng, 2 + i % 5), grid=["lin", 0.1, q["hi"], 11]))
    for i, q in enumerate(_lhs(rng, 6, hi=(1.5, 3.0))):
        terms = [[_r(rng.uniform(-1.0, 1.0) or 0.5), _r(rng.uniform(0.5, 3.0))]
                 for _ in range(1 + i % 3)]
        g["I-table"].append(case(
            f"I-table-{i}", "I-table", shift=("square", "linear")[i % 2],
            terms=terms, grid=["lin", 0.0, q["hi"], 11]))
    for i, q in enumerate(_lhs(rng, 6, nu=(0.1, 0.9), x=(0.3, 2.0))):
        g["conjecture"].append(case(
            f"conjecture-{i}", "conjecture", nu=q["nu"],
            coeffs=_poly(rng, 2 + i, const=bool(i % 2)), x=q["x"], K=40))
    for i in range(3):
        g["stirling"].append(case(f"stirling-{i}", "stirling", n=rng.randint(4, 9)))
    for i, q in enumerate(_lhs(rng, 3, nu1=(1.0, 2.5), nu2=(2.5, 5.0), xmax=(6.0, 10.0))):
        g["fig1"].append(case(
            f"fig1-{i}", "fig1",
            argv=["fig1", "--nu", f"{q['nu1']:.2f},{q['nu2']:.2f}",
                  "--x-max", f"{q['xmax']:.2f}", "--samples", "41"]))
    return _interleave(list(g.values()))


# -- hard-inputs ---------------------------------------------------------------

def _hard_inputs(rng):
    # The named faults: inputs fixed, so they fail (or are slow) on every seed.
    faults = [
        case("silent-constant-gaussian", "const-datum", "silent-constant",
             family="gaussian"),
        case("silent-constant-genshift", "const-datum", "silent-constant",
             family="genshift-log"),
        case("silent-constant-cli", "cli-refuse", "silent-constant",
             argv=["solve", "gaussian", "--f", "gauss", "--grid", "1:2:2"]),
        case("algebraic-tail-semi", "algebraic-tail", "algebraic-tail",
             p=0.75, tol=1e-9),
        case("algebraic-tail-finite", "inv-sqrt-finite", "algebraic-tail"),
        case("silent-fallback-eval_F", "eval_F", "silent-fallback",
             x=30.0, nu=0.55, refusal_ok=True),
        case("slow-refusal-cli", "cli-refuse", "slow-refusal",
             argv=["verify", "radial", "--f", "monomial:2", "--grid", "1:1:1"]),
        case("unchecked-probe", "moment-probe", "unchecked-probe",
             g="lorentz", offset=0.0),
    ]
    # Admissible neighbours of the same calls, near the limits.
    nb = []
    for i, q in enumerate(_lhs(rng, 10, s=(1.0, 1.3))):
        nb.append(case(f"power-datum-{i}", "power-datum",
                       family=("gaussian", "genshift-log")[i % 2], s=q["s"],
                       grid=[0.5, 1.0, 2.0]))
    for i, q in enumerate(_lhs(rng, 4, hi=(1.5, 3.0))):
        nb.append(case(f"cli-solve-{i}", "cli-solve", argv=[
            "solve", "gaussian", "--f", f"monomial:{1 + i % 3}",
            "--grid", f"1:{q['hi']:.2f}:2"]))
    for i, q in enumerate(_lhs(rng, 10, p=(1.5, 3.0))):
        nb.append(case(f"algebraic-tail-{i}", "algebraic-tail", p=q["p"], tol=1e-9))
    for i, q in enumerate(_lhs(rng, 10, k=(0.5, 3.0))):
        nb.append(case(f"power-finite-{i}", "power-finite", k=q["k"]))
    for i, q in enumerate(_lhs(rng, 10, x=(10.5, 60.0), nu=(1.0, 3.0))):
        nb.append(case(f"eval_F-far-{i}", "eval_F", **q))
    for i, q in enumerate(_lhs(rng, 10, x=(0.5, 8.0), nu=(0.6, 0.95))):
        nb.append(case(f"eval_F-low-nu-{i}", "eval_F", **q))
    for i, q in enumerate(_lhs(rng, 4, beta=(0.5, 3.0), x=(0.5, 2.0))):
        nb.append(case(f"cli-verify-{i}", "cli-verify", argv=[
            "verify", "radial", "--f", f"gauss-pair:{q['beta']:.2f}",
            "--grid", f"{q['x']:.2f}:2:1"]))
    for i in range(4):
        nb.append(case(f"moment-probe-{i}", "moment-probe", g="gauss", offset=0.0))
    for i, q in enumerate(_lhs(rng, 4, offset=(1e-3, 1e-2))):
        nb.append(case(f"moment-probe-wrong-{i}", "moment-probe", g="gauss",
                       offset=q["offset"]))
    for i, q in enumerate(_lhs(rng, 6, m=(1.5, 4.0), a=(0.5, 2.0), x=(0.2, 2.0))):
        nb.append(case(f"moebius-{i}", "moebius-point", **q))
    for i, q in enumerate(_lhs(rng, 8, nu=(0.2, 2.0), s=(0.6, 3.0), x=(0.2, 3.0))):
        nb.append(case(f"xd_negpow-{i}", "xd_negpow", **q))
    # Fast typed refusals.
    rf = []
    for i, q in enumerate(_lhs(rng, 4, c=(0.5, 2.0), nu=(0.3, 2.0), x=(0.5, 10.0),
                               m=(1.5, 3.0))):
        rf.append(case(f"refuse-constant-{i}", "xd_negpow-constant", FAST_REFUSAL,
                       c=q["c"], nu=q["nu"]))
        rf.append(case(f"refuse-nu-half-{i}", "eval_F-nu-half", FAST_REFUSAL, x=q["x"]))
        rf.append(case(f"refuse-moebius-{i}", "moebius-offset", FAST_REFUSAL,
                       c=q["c"], m=q["m"]))
    # Each named fault follows its own three copies of the fast block, so the
    # fast cases are timed in windows spread over the ~30 s round.  Timed in
    # one window, their latency percentiles moved by a quarter between runs
    # with the machine's speed at that moment.
    block = _interleave([nb, rf])
    return [c for fault in faults for c in block * 3 + [fault]]


def build(workload: str, seed: int, smoke: bool = False):
    """The case list of one workload, and the set-up data it needs.

    Returns (cases, extra) where ``extra`` holds data shared by several
    cases (the solution handles of ``pointwise``).  ``smoke`` keeps a few
    cases of every kind and, on hard-inputs, every named fault.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    rng = random.Random(f"fracshift-bench:{workload}:{int(seed)}")
    extra = {}
    if workload == "verify-sweep":
        cases = _verify_sweep(rng)
    elif workload == "pointwise":
        cases, extra["handles"] = _pointwise(rng)
    elif workload == "spectral":
        cases = _spectral(rng)
    else:
        cases = _hard_inputs(rng)
    if smoke:
        cases = _smoke(cases)
    return cases, extra


def _smoke(cases):
    kept, seen = [], {}
    for c in cases:
        key = (c["kind"], c["label"])
        if c["label"] or seen.get(key, 0) < 1:
            kept.append(c)
            seen[key] = seen.get(key, 0) + 1
    return kept
