"""fracshift benchmark: one workload per process, seeded, oracle-checked.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and nowhere else, so a directory without ``src/fracshift`` exits
with status 2.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

A run goes:

1. the oracle (``bench/oracle.py``) computes the references in a child
   process that never imports fracshift;
2. set-up, timed SETUP_REPEATS times: import fracshift (numpy already
   imported), build the program-side inputs of every case, run one warm-up
   operation; ``setup_s`` is the median;
3. whole rounds of the case list until ``--seconds`` have passed and at least
   MIN_OPS operations ran; each operation is timed alone and checked against
   its reference after the clock stops.

``--smoke`` keeps a few cases of each kind (and every named fault) and runs
one round, for the benchmark's own tests.
"""

from __future__ import annotations

import os

# One thread per process, BLAS included; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import cases as cases_mod  # noqa: E402
import ops  # noqa: E402  (imports numpy, so set-up time excludes it)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
MIN_OPS = 100          # op_p90_ms needs at least ten samples beyond it
ORACLE_TIMEOUT_S = 120

# (name, unit, better) -- kept in step with BENCHMARK.json by test_bench.py
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("fevals_per_op", "points/op", "lower"),
    ("accuracy_margin_dec", "decades", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def oracle_references(workload, seed, smoke):
    cmd = [sys.executable, str(BENCH_DIR / "oracle.py"), "--workload", workload,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=ORACLE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)


def fresh_import():
    """Import fracshift from src/ as if for the first time in this process."""
    for name in [n for n in sys.modules if n == "fracshift" or n.startswith("fracshift.")]:
        del sys.modules[name]
    fs = importlib.import_module("fracshift")
    importlib.import_module("fracshift.cli")
    if Path(fs.__file__).resolve().parent != SRC / "fracshift":
        raise ImportError(f"fracshift imported from {fs.__file__}, not {SRC}")
    return fs


def set_up(fs, meter, cases, extra):
    """Build every case's program-side inputs and run one warm-up case."""
    built = ops.build_all(fs, meter, cases, extra)
    warm = next(b for b in built if b[0]["label"] is None)
    warm[1]()
    return built


class Outcome:
    __slots__ = ("case", "ok", "seconds", "margins", "out")

    def __init__(self, case, ok, seconds, margins, out):
        self.case, self.ok, self.seconds = case, ok, seconds
        self.margins, self.out = margins, out


def run_rounds(built, refs, seconds, min_ops, one_round, tracer=None):
    """Whole rounds of the case list; returns outcomes and wall time."""
    outcomes = []
    clock = time.perf_counter
    t_start = clock()
    while True:
        for case, run, check in built:
            if tracer is not None:
                tracer.begin_op(case["id"])
            t0 = clock()
            out = run()
            dt = clock() - t0
            if tracer is not None:
                tracer.end_op()
            ok, margins = check(out, refs[case["id"]])
            # outputs are kept only for failures, so memory does not grow
            # with the length of the run
            outcomes.append(Outcome(case, bool(ok), dt, margins,
                                    None if ok else out))
        elapsed = clock() - t_start
        if one_round or (elapsed >= seconds and len(outcomes) >= min_ops):
            return outcomes, elapsed


def summarize(outcomes):
    """correct/attempted/failed; failures outside the named faults make the
    run incorrect."""
    failed = [o for o in outcomes if not o.ok]
    unexpected = [o for o in failed if o.case["label"] not in cases_mod.COUNTED_FAILED]
    for o in unexpected[:20]:
        print(f"unexpected failure: {o.case['id']} ({o.case['kind']}): {o.out!r}",
              file=sys.stderr)
    return {"correct": not unexpected, "attempted": len(outcomes),
            "failed": len(failed)}


def end_to_end(outcomes, wall, setup_times, points):
    lat_ms = [o.seconds * 1e3 for o in outcomes]
    by_kind = {}
    for o in outcomes:
        if o.ok and o.margins:
            by_kind.setdefault(o.case["kind"], []).append(min(o.margins))
    vals = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(outcomes) / wall,
        "op_p50_ms": statistics.median(lat_ms),
        "fevals_per_op": points / len(outcomes),
        # the kind whose typical result is least accurate; the minimum over
        # single results swings with the draw of the hardest case (README)
        "accuracy_margin_dec": min(statistics.median(v) for v in by_kind.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(lat_ms) >= MIN_OPS:
        vals["op_p90_ms"] = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    return {name: {"value": vals[name], "unit": unit}
            for name, unit, _ in END_TO_END if name in vals}


def main(argv=None):
    ap = argparse.ArgumentParser(description="fracshift benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few cases per kind, one round")
    args = ap.parse_args(argv)

    if not (SRC / "fracshift" / "__init__.py").is_file():
        print(f"error: no fracshift sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in cases_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(cases_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    cases, extra = cases_mod.build(args.workload, args.seed, args.smoke)
    refs = oracle_references(args.workload, args.seed, args.smoke)

    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")

    if args.trace:
        import tracing
        fs = fresh_import()
        tracer = tracing.Tracer()
        tracer.install(fs)
        try:
            built = set_up(fs, tracer.meter(), cases, extra)
            tracer.reset()
            outcomes, wall = run_rounds(built, refs, args.seconds, MIN_OPS,
                                        args.smoke, tracer)
        finally:
            tracer.uninstall()
        result = summarize(outcomes)
        result["metrics"] = tracer.metrics(len(outcomes), wall)
        tracer.write(BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.json",
                     args.workload, args.seed)
    else:
        setup_times = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            t0 = time.perf_counter()
            meter = ops.Meter()
            built = set_up(fresh_import(), meter, cases, extra)
            setup_times.append(time.perf_counter() - t0)
        meter.points = 0
        outcomes, wall = run_rounds(built, refs, args.seconds, MIN_OPS, args.smoke)
        result = summarize(outcomes)
        result["metrics"] = end_to_end(outcomes, wall, setup_times, meter.points)
    if args.smoke:
        for o in outcomes:
            print(f"op {o.case['id']} {o.case['label'] or '-'} "
                  f"{'pass' if o.ok else 'FAIL'} {o.seconds * 1e3:.3f}ms "
                  f"margin {min(o.margins, default=float('nan')):.2f}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
