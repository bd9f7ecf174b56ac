"""Traced run: spans around each layer's public entry points.

The layers are fracshift's modules plus ``userfn``, the callables the
benchmark hands the program.  From the benchmark's own files, ``Tracer``
replaces every name through which one layer reaches another's entry point
(``fracops.integrate_decaying_batch`` and ``verify.integrate_decaying_batch``
are patched separately), wraps each returned ``SolutionFn`` again through
``dataclasses.replace``, and restores everything on ``uninstall``.  A name a
refactor has renamed or removed is reported as absent instead of failing.

A span records name, layer, start, end, parent span and operation id.  Spans
stay in memory (up to MAX_SPANS; later ones are only aggregated) and are
written out when the run ends.  Calls into ``userfn`` are leaves counted in
the millions, so they are rolled up into one record per parent span.  A
span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import ops

MAX_SPANS = 200_000

# Where each layer's entry points are looked up: (owner, attribute, layer).
PATCHES = (
    ("fracshift", "integrate_finite", "quadrature"),
    ("fracshift", "integrate_semi_infinite", "quadrature"),
    ("fracshift.quadrature", "integrate_finite_batch", "quadrature"),
    ("fracshift.quadrature", "integrate_decaying_batch", "quadrature"),
    ("fracshift.quadrature", "integrate_semi_infinite_batch", "quadrature"),
    ("fracshift.fracops", "integrate_decaying_batch", "quadrature"),
    ("fracshift.verify", "integrate_decaying_batch", "quadrature"),
    ("fracshift.verify", "integrate_finite_batch", "quadrature"),
    ("fracshift.opeval", "integrate_semi_infinite", "quadrature"),
    ("fracshift", "xd_negpow", "fracops"),
    ("fracshift", "half_sqrt_xd", "fracops"),
    ("fracshift", "weyl_half_radial", "fracops"),
    ("fracshift", "generalized_half", "fracops"),
    ("fracshift.fracops", "xd_negpow_batch", "fracops"),
    ("fracshift.fracops", "half_sqrt_xd_batch", "fracops"),
    ("fracshift.fracops", "weyl_half_radial_batch", "fracops"),
    ("fracshift.fracops", "generalized_half_batch", "fracops"),
    ("fracshift.verify", "weyl_half_radial_batch", "fracops"),
    ("fracshift", "solve", "solvers"),
    ("fracshift", "solve_gaussian_dilation", "solvers"),
    ("fracshift", "solve_laplace_dilation", "solvers"),
    ("fracshift", "solve_radial", "solvers"),
    ("fracshift", "solve_generalized_shift", "solvers"),
    ("fracshift", "solve_moebius", "solvers"),
    ("fracshift.solvers", "solve_gaussian_dilation", "solvers"),
    ("fracshift.solvers", "solve_laplace_dilation", "solvers"),
    ("fracshift.solvers", "solve_radial", "solvers"),
    ("fracshift.solvers", "solve_generalized_shift", "solvers"),
    ("fracshift.solvers", "solve_moebius", "solvers"),
    ("fracshift.cli", "solve", "solvers"),
    ("fracshift", "residual", "verify"),
    ("fracshift", "conjecture_check", "verify"),
    ("fracshift", "radial_kernel_discrepancy", "verify"),
    ("fracshift.verify", "residual", "verify"),
    ("fracshift.cli", "residual", "verify"),
    ("fracshift.cli", "conjecture_check", "verify"),
    ("fracshift", "eval_F", "opeval"),
    ("fracshift", "eval_F_quadrature", "opeval"),
    ("fracshift", "eval_F_series", "opeval"),
    ("fracshift", "eval_G", "opeval"),
    ("fracshift", "eval_I", "opeval"),
    ("fracshift", "eval_I_quadrature", "opeval"),
    ("fracshift.opeval", "eval_F_series", "opeval"),
    ("fracshift.opeval", "eval_F_quadrature", "opeval"),
    ("fracshift.opeval.MultiplierIntegral", "__post_init__", "opeval"),
    ("fracshift.cli", "eval_F", "opeval"),
    ("fracshift.cli", "eval_F_quadrature", "opeval"),
    ("fracshift", "apply_multiplier", "series"),
    ("fracshift", "evaluate", "series"),
    ("fracshift", "derivative", "series"),
    ("fracshift", "from_coefficient_rule", "series"),
    ("fracshift.series", "derivative", "series"),
    ("fracshift.solvers", "apply_multiplier", "series"),
    ("fracshift.solvers", "evaluate", "series"),
    ("fracshift.opeval", "apply_multiplier", "series"),
    ("fracshift.opeval", "evaluate", "series"),
    ("fracshift", "bessel_wright", "specfun"),
    ("fracshift", "stirling2", "specfun"),
    ("fracshift", "stirling2_frac", "specfun"),
    ("fracshift.opeval", "log_gamma", "specfun"),
    ("fracshift.solvers", "recip_gamma", "specfun"),
    ("fracshift.verify", "stirling2_frac", "specfun"),
    ("fracshift.cli", "main", "cli"),
)

# (name, unit, better) -- kept in step with BENCHMARK.json by test_bench.py.
# Counts and times are per operation of the traced run.
PER_LAYER = (
    ("quadrature.calls", "calls/op", "lower"),
    ("quadrature.evals", "evals/op", "lower"),
    ("quadrature.unconverged", "passes/op", "lower"),
    ("quadrature.budget_frac_max", "fraction", "lower"),
    ("quadrature.self_ms", "ms/op", "lower"),
    ("userfn.calls", "calls/op", "lower"),
    ("userfn.points", "points/op", "lower"),
    ("userfn.points_per_call", "points/call", "higher"),
    ("userfn.self_ms", "ms/op", "lower"),
    ("fracops.calls", "calls/op", "lower"),
    ("fracops.points", "points/op", "lower"),
    ("fracops.self_ms", "ms/op", "lower"),
    ("solvers.solve_calls", "calls/op", "lower"),
    ("solvers.eval_calls", "calls/op", "lower"),
    ("solvers.eval_points", "points/op", "lower"),
    ("solvers.moebius_K", "terms", "lower"),
    ("solvers.self_ms", "ms/op", "lower"),
    ("verify.residual_calls", "calls/op", "lower"),
    ("verify.lhs_passes", "passes/residual", "lower"),
    ("verify.self_ms", "ms/op", "lower"),
    ("opeval.calls", "calls/op", "lower"),
    ("opeval.quad_fallbacks", "calls/op", "lower"),
    ("opeval.self_ms", "ms/op", "lower"),
    ("series.calls", "calls/op", "lower"),
    ("series.self_ms", "ms/op", "lower"),
    ("specfun.calls", "calls/op", "lower"),
    ("specfun.self_ms", "ms/op", "lower"),
    ("cli.calls", "calls/op", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("cli.bytes_out", "bytes/op", "lower"),
    ("bench.self_ms", "ms/op", "lower"),
    ("traced.ops_per_s", "ops/s", "higher"),
    ("traced.absent_entries", "count", "lower"),
)


class _Frame:
    __slots__ = ("sid", "layer", "name", "start", "child", "parent", "nested",
                 "mark")

    def __init__(self, sid, layer, name, start, parent, nested):
        self.sid, self.layer, self.name, self.start = sid, layer, name, start
        self.child, self.parent, self.nested, self.mark = 0.0, parent, nested, 0


def _arg(fn, name):
    """Getter for argument ``name`` of ``fn`` from (args, kwargs), with the
    declared default; None if fn has no such parameter."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for i, p in enumerate(params):
        if p.name == name:
            default = None if p.default is inspect.Parameter.empty else p.default

            def get(args, kwargs, _i=i, _d=default):
                if name in kwargs:
                    return kwargs[name]
                return args[_i] if len(args) > _i else _d
            return get
    return None


class TracedMeter(ops.Meter):
    """Meter whose counted callables also report to the tracer as leaves."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def scalar(self, f):
        def counted(x):
            t0 = time.perf_counter()
            y = f(x)
            self.tracer.leaf(1, t0, time.perf_counter() - t0)
            self.points += 1
            return y
        return counted

    def vector(self, f):
        def counted(x):
            t0 = time.perf_counter()
            y = f(x)
            n = getattr(x, "size", 1)
            self.tracer.leaf(n, t0, time.perf_counter() - t0)
            self.points += n
            return y
        return counted


class Tracer:
    def __init__(self):
        self.patched = []     # (owner, attr, original)
        self.absent = []
        self.reset()

    def reset(self):
        self.spans = []
        self.rollups = {}     # parent sid -> [op, first start, last end, calls, points]
        self.stack = []
        self.stats = defaultdict(float)
        self.dropped = 0
        self.op = None

    def meter(self):
        return TracedMeter(self)

    # -- spans -----------------------------------------------------------------

    def _enter(self, layer, name):
        parent = self.stack[-1] if self.stack else None
        nested = parent is not None and parent.layer == layer
        if not nested:
            self.stats[layer + ".calls"] += 1
        if len(self.spans) < MAX_SPANS:
            sid = len(self.spans)
            self.spans.append(None)
        else:
            sid = -1
            self.dropped += 1
        frame = _Frame(sid, layer, name, time.perf_counter(), parent, nested)
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        self.stats[frame.layer + ".self_s"] += dur - frame.child
        parent = frame.parent
        if parent is not None:
            parent.child += dur
        if frame.sid >= 0:
            self.spans[frame.sid] = (frame.name, frame.layer, frame.start, end,
                                     parent.sid if parent is not None else -1,
                                     self.op)

    def begin_op(self, op_id):
        self.op = op_id
        self._enter("bench", op_id)

    def end_op(self):
        self._exit(self.stack[-1])

    def leaf(self, points, start, dur):
        st = self.stats
        st["userfn.calls"] += 1
        st["userfn.points"] += points
        st["userfn.self_s"] += dur
        if not self.stack:
            return
        parent = self.stack[-1]
        parent.child += dur
        r = self.rollups.get(parent.sid)
        if r is None:
            self.rollups[parent.sid] = [self.op, start, start + dur, 1, points]
        else:
            r[2] = start + dur
            r[3] += 1
            r[4] += points

    # -- patching --------------------------------------------------------------

    def install(self, fs):
        for owner_path, attr, layer in PATCHES:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            wrapped = self.wrap(layer, f"{owner_path}.{attr}", original)
            setattr(owner, attr, wrapped)
            self.patched.append((owner, attr, original))
        for name in self.absent:
            print(f"trace: entry point {name} is absent", file=sys.stderr)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    def wrap(self, layer, site, fn):
        hook = getattr(self, "_after_" + layer, None)
        args_of = {k: _arg(fn, k) for k in ("budget", "xs", "x")}
        short = site.rsplit(".", 1)[-1]
        lhs_pass = layer == "quadrature" and site.startswith("fracshift.verify.")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if lhs_pass:          # counted on entry: a pass may raise
                tracer.stats["verify.lhs_passes"] += 1
            frame = tracer._enter(layer, short)
            if layer == "cli":
                frame.mark = sys.stdout.tell() if sys.stdout.seekable() else 0
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                out = hook(frame, site, args_of, args, kwargs, out)
            return out
        traced.bench_traced = True
        return traced

    # -- per-layer counters ------------------------------------------------------

    def _after_quadrature(self, frame, site, args_of, args, kwargs, out):
        st = self.stats
        st["quadrature.evals"] += out.evaluations
        st["quadrature.unconverged"] += not out.converged
        get = args_of["budget"]
        budget = get(args, kwargs) if get else None
        if budget:
            st["quadrature.budget_frac_max"] = max(
                st["quadrature.budget_frac_max"], out.evaluations / budget)
        return out

    def _after_fracops(self, frame, site, args_of, args, kwargs, out):
        if not frame.nested:
            for key in ("xs", "x"):
                get = args_of[key]
                if get is not None:
                    self.stats["fracops.points"] += _size(get(args, kwargs))
                    break
        return out

    def _after_solvers(self, frame, site, args_of, args, kwargs, out):
        st = self.stats
        if frame.name in ("eval_batch", "eval"):
            st["solvers.eval_calls"] += 1
            st["solvers.eval_points"] += _size(args[0]) if args else 0
            return out
        if not frame.nested:
            st["solvers.solve_calls"] += 1
        if getattr(getattr(out, "family", None), "value", None) == "moebius" \
                and out.truncation is not None:
            st["solvers.moebius_K"] = max(st["solvers.moebius_K"], out.truncation)
        batch = getattr(out, "eval_batch", None)
        if batch is None or getattr(batch, "bench_traced", False):
            return out
        return dataclasses.replace(
            out, eval=self.wrap("solvers", "SolutionFn.eval", out.eval),
            eval_batch=self.wrap("solvers", "SolutionFn.eval_batch", batch))

    def _after_verify(self, frame, site, args_of, args, kwargs, out):
        if frame.name == "residual":
            self.stats["verify.residual_calls"] += 1
        return out

    def _after_opeval(self, frame, site, args_of, args, kwargs, out):
        p = frame.parent
        if frame.name == "eval_F_quadrature" and p is not None \
                and p.layer == "opeval" and p.name == "eval_F":
            self.stats["opeval.quad_fallbacks"] += 1
        return out

    def _after_cli(self, frame, site, args_of, args, kwargs, out):
        if sys.stdout.seekable():
            self.stats["cli.bytes_out"] += sys.stdout.tell() - frame.mark
        return out

    # -- results -----------------------------------------------------------------

    def metrics(self, n_ops, wall):
        st = self.stats
        vals = {}
        for name, _, _ in PER_LAYER:
            if name.endswith(".self_ms"):
                vals[name] = 1e3 * st[name.replace(".self_ms", ".self_s")] / n_ops
            else:
                vals[name] = st[name] / n_ops
        vals["quadrature.budget_frac_max"] = st["quadrature.budget_frac_max"]
        vals["solvers.moebius_K"] = st["solvers.moebius_K"]
        vals["userfn.points_per_call"] = (st["userfn.points"] / st["userfn.calls"]
                                          if st["userfn.calls"] else 0.0)
        vals["verify.lhs_passes"] = (st["verify.lhs_passes"] / st["verify.residual_calls"]
                                     if st["verify.residual_calls"] else 0.0)
        vals["traced.ops_per_s"] = n_ops / wall
        vals["traced.absent_entries"] = float(len(self.absent))
        return {name: {"value": vals[name], "unit": unit}
                for name, unit, _ in PER_LAYER}

    def write(self, path, workload, seed):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "workload": workload, "seed": seed, "absent": self.absent,
            "dropped_spans": self.dropped,
            "span_fields": ["name", "layer", "start", "end", "parent", "op"],
            "spans": [s for s in self.spans if s is not None],
            "userfn_fields": ["parent", "op", "first_start", "last_end", "calls",
                              "points"],
            "userfn": [[sid] + r for sid, r in self.rollups.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _size(x):
    return getattr(x, "size", 1) if not isinstance(x, (list, tuple)) else len(x)


def _resolve(path):
    """Module ``path``, or attribute of a module for ``module.Class``."""
    mod = sys.modules.get(path)
    if mod is not None:
        return mod
    head, _, tail = path.rpartition(".")
    return getattr(sys.modules.get(head), tail, None)
