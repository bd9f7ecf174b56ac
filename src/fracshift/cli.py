"""Command line front end.

Subcommands:
  solve       solve one equation family for a catalog generator, emit x,u CSV
  verify      solve and then residual-check against the defining integral
  fig1        tabulate the odd operator integral F(x; nu) over [0, x-max]
  conjecture  compare fractional-coefficient partial sums with the target sum

Exit status: 0 on success, 1 on numerical failure (divergence, lost
convergence, residual above the family bound), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Sequence

import numpy as np

from . import catalog
from .errors import (
    ConvergenceError,
    DivergenceError,
    QuadratureDomainError,
    SeriesOverflowError,
    SpectralDomainError,
)
from .fracops import log_map, reflected_radial_map
from .opeval import eval_F, eval_F_quadrature
from .quadrature import DEFAULT_TOL
from .solvers import FAMILIES, EquationSpec, Family, solve
from .verify import DEFAULT_QUAD_TOL, _write_table, conjecture_check, residual

_NUMERIC_ERRORS = (
    ConvergenceError,
    DivergenceError,
    QuadratureDomainError,
    SeriesOverflowError,
    SpectralDomainError,
)

_MAPS = {"log": log_map, "reflected-radial": reflected_radial_map}

# How the command line supplies each EquationSpec field, and the header line
# echoing each parameter.
_SPEC_FIELDS = {
    "f": lambda args, entry: entry.f,
    "f_prime": lambda args, entry: entry.f_prime,
    "f_series": lambda args, entry: entry.series,
    "mu": lambda args, entry: args.mu,
    "a": lambda args, entry: args.a,
    "cmap": lambda args, entry: _MAPS[args.map](),
}
_PARAM_HEADER = {"mu": "mu = {0.mu:g}", "a": "a = {0.a:g}",
                 "cmap": "map = {0.map}"}

_FIG1_CROSSCHECK_BOUND = 1e-7


def _positive(text: str) -> float:
    """argparse type of a parameter value: a finite float > 0."""
    with contextlib.suppress(ValueError):
        if 0.0 < float(text) < math.inf:
            return float(text)
    raise argparse.ArgumentTypeError(f"must be positive and finite: {text}")


def parse_grid(text: str) -> np.ndarray:
    """``start:stop:count`` -> linspace, ``geom:a:b:n`` -> geomspace.

    Endpoints are inclusive and finite.  Raises ValueError on malformed input.
    """
    parts = text.split(":")
    geom = parts[0] == "geom"
    if geom and len(parts) != 4:
        raise ValueError(f"geometric grid needs geom:a:b:n, got {text!r}")
    if not geom and len(parts) != 3:
        raise ValueError(f"grid needs start:stop:count or geom:a:b:n, got {text!r}")
    a, b, n = float(parts[-3]), float(parts[-2]), int(parts[-1])
    if n < 1:
        raise ValueError("grid needs at least one point")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("grid endpoints must be finite")
    if not geom:
        return np.linspace(a, b, n)
    if not (a > 0.0 and b > 0.0):
        raise ValueError("geometric grid endpoints must be positive")
    return np.geomspace(a, b, n)


@contextlib.contextmanager
def _out_stream(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _build_spec(args, parser: argparse.ArgumentParser) -> EquationSpec:
    family = Family(args.family)
    entry = catalog.get(args.f)
    requires = FAMILIES[family].requires
    if "f_series" in requires and entry.series is None:
        parser.error(f"{entry.name} has no power-series form; "
                     "the spectral solver needs one")
    return EquationSpec(family, **{name: _SPEC_FIELDS[name](args, entry)
                                   for name in requires})


def _spec_header(args, spec: EquationSpec) -> list[str]:
    return [f"family = {spec.family.value}", f"f = {args.f}"] + [
        _PARAM_HEADER[name].format(args)
        for name in FAMILIES[spec.family].requires if name in _PARAM_HEADER]


def _parse_grid_or_usage(text: str, parser) -> np.ndarray:
    try:
        return parse_grid(text)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_solve(args, parser) -> int:
    spec = _build_spec(args, parser)
    grid = _parse_grid_or_usage(args.grid, parser)
    u = solve(spec, tol=args.tol)
    values = np.asarray(u.eval_batch(grid), dtype=float)
    header = ["fracshift solve", *_spec_header(args, spec),
              f"grid = {args.grid}", f"tol = {args.tol:g}",
              f"method = {u.method}"]
    if u.truncation is not None:
        header.append(f"truncation = {u.truncation}")
    header.append(f"error_estimate = {u.error_estimate:.3g}")
    with _out_stream(args.output) as stream:
        _write_table(stream, header, ["x", "u"],
                     np.column_stack([grid, values]))
    return 0


def _cmd_verify(args, parser) -> int:
    spec = _build_spec(args, parser)
    fam = FAMILIES[spec.family]
    grid_text = args.grid or fam.grid
    grid = _parse_grid_or_usage(grid_text, parser)
    u = solve(spec, tol=args.tol)
    report = residual(spec, u, grid, quad_tol=args.quad_tol)
    print(report.summary())
    bound = fam.bound
    ok = report.quad_failures == 0 and report.max_abs <= bound
    print(f"bound {bound:g}: {'pass' if ok else 'FAIL'}")
    if args.output is not None:
        header = ["fracshift verify", *_spec_header(args, spec),
                  f"grid = {grid_text}", f"tol = {args.tol:g}",
                  f"quad_tol = {args.quad_tol:g}", f"bound = {bound:g}"]
        with open(args.output, "w") as fh:
            report.to_csv(fh, header)
    return 0 if ok else 1


def _cmd_fig1(args, parser) -> int:
    try:
        nus = [float(tok) for tok in args.nu.split(",") if tok]
    except ValueError:
        parser.error(f"--nu needs a comma-separated float list, got {args.nu!r}")
    if not nus:
        parser.error("--nu needs at least one value")
    for nu in nus:
        if not 0.5 <= nu < math.inf:
            parser.error(f"nu must be >= 0.5 and finite, got {nu:g}")
    if args.samples < 2:
        parser.error("--samples must be at least 2")
    if not 0.0 < args.x_max < math.inf:
        parser.error("--x-max must be positive and finite")

    xs = np.linspace(0.0, args.x_max, args.samples)
    cols = np.empty((len(xs), len(nus)))
    for j, nu in enumerate(nus):
        for i, x in enumerate(xs):
            cols[i, j] = eval_F(float(x), nu, tol=args.tol)

    if args.verify:
        worst = 0.0
        unconverged = False
        for j, nu in enumerate(nus):
            for i, x in enumerate(xs):
                ref = eval_F_quadrature(float(x), nu, tol=1e-10)
                if not ref.converged:
                    unconverged = True
                    print(f"reference quadrature did not converge at "
                          f"x={x:g}, nu={nu:g} (error estimate "
                          f"{ref.abs_error_estimate:.3g})", file=sys.stderr)
                    continue
                worst = max(worst, abs(cols[i, j] - ref.value))
        print(f"cross-check max |series - quadrature| = {worst:.3g}",
              file=sys.stderr)
        if worst > _FIG1_CROSSCHECK_BOUND:
            print(f"cross-check FAILED (bound {_FIG1_CROSSCHECK_BOUND:g})",
                  file=sys.stderr)
        if unconverged or worst > _FIG1_CROSSCHECK_BOUND:
            return 1

    header = ["fracshift fig1",
              "nu = " + ",".join(f"{nu:g}" for nu in nus),
              f"x_max = {args.x_max:g}", f"samples = {args.samples}",
              f"tol = {args.tol:g}"]
    names = ["x"] + [f"F(nu={nu:g})" for nu in nus]
    with _out_stream(args.output) as stream:
        _write_table(stream, header, names, np.column_stack([xs, cols]))
    return 0


def _cmd_conjecture(args, parser) -> int:
    entry = catalog.get(args.f)
    if entry.series is None:
        parser.error(f"{entry.name} has no power-series form")
    report = conjecture_check(args.nu, entry.series, args.x, K=args.K)
    print(f"conjecture check: nu={report.nu:g} x={report.x:g} "
          f"f={args.f} target={report.target:.17g}")
    if report.constant_term_excluded:
        print("note: nonzero constant term excluded on both sides")
    for K, s, e in zip(report.K_values, report.partial_sums,
                       report.abs_errors):
        print(f"  K={K:3d}  partial={s: .17g}  abs_err={e:.3g}")
    final = report.abs_errors[-1]
    ok = final <= 1e-6
    print(f"final abs error {final:.3g}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracshift",
        description="Dilatation and shift-kernel equation solvers with "
                    "quadrature-backed verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = [fam.value for fam in Family]

    def add_common(p, with_grid_default: str | None):
        p.add_argument("--f", required=True, metavar="NAME",
                       help=f"generator; one of {catalog.available()}")
        if with_grid_default is None:
            p.add_argument("--grid", required=True,
                           help="start:stop:count (linear) or geom:a:b:n")
        else:
            p.add_argument("--grid", default=None,
                           help="start:stop:count (linear) or geom:a:b:n "
                                "(default: per family)")
        p.add_argument("--mu", type=_positive, default=1.0,
                       help="laplace step exponent (default %(default)s)")
        p.add_argument("--a", type=_positive, default=1.0,
                       help="moebius window length (default %(default)s)")
        p.add_argument("--map", choices=sorted(_MAPS), default="log",
                       help="genshift coordinate map (default %(default)s)")
        p.add_argument("--tol", type=_positive, default=DEFAULT_TOL,
                       help="solver tolerance (default %(default)g)")

    p_solve = sub.add_parser("solve", help="solve one family, emit x,u CSV")
    p_solve.add_argument("family", choices=families)
    add_common(p_solve, with_grid_default=None)
    p_solve.add_argument("--output", metavar="PATH",
                         help="write CSV here instead of stdout")

    p_verify = sub.add_parser("verify",
                              help="solve, then residual-check the "
                                   "defining integral")
    p_verify.add_argument("family", choices=families)
    add_common(p_verify, with_grid_default="per-family")
    p_verify.add_argument("--quad-tol", type=_positive, default=DEFAULT_QUAD_TOL,
                          help="residual quadrature tolerance "
                               "(default %(default)g)")
    p_verify.add_argument("--output", metavar="PATH",
                          help="write the residual table here")

    p_fig = sub.add_parser("fig1",
                           help="tabulate F(x; nu) on [0, x-max]")
    p_fig.add_argument("--nu", default="1.5,4.1",
                       help="comma-separated exponents, each >= 0.5 "
                            "(default %(default)s)")
    p_fig.add_argument("--x-max", type=float, default=10.0,
                       help="upper end of the x range (default %(default)g)")
    p_fig.add_argument("--samples", type=int, default=201,
                       help="number of grid points (default %(default)s)")
    p_fig.add_argument("--tol", type=_positive, default=1e-14,
                       help="series tolerance (default %(default)g)")
    p_fig.add_argument("--verify", action="store_true",
                       help="cross-check every value against direct "
                            "quadrature before writing")
    p_fig.add_argument("--output", metavar="PATH",
                       help="write CSV here instead of stdout")

    p_conj = sub.add_parser("conjecture",
                            help="fractional-coefficient partial sums vs "
                                 "the diagonal target")
    p_conj.add_argument("--nu", type=float, required=True,
                        help="fractional order in (0, 1)")
    p_conj.add_argument("--f", required=True, metavar="NAME",
                        help="generator with a power-series form")
    p_conj.add_argument("--x", type=float, required=True,
                        help="evaluation point, > 0")
    p_conj.add_argument("--K", type=int, default=40,
                        help="truncation order (default %(default)s)")

    p_solve.set_defaults(func=_cmd_solve)
    p_verify.set_defaults(func=_cmd_verify)
    p_fig.set_defaults(func=_cmd_fig1)
    p_conj.set_defaults(func=_cmd_conjecture)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
