"""Tests of the benchmark itself (not collected by the tier-1 suite):

    python3 -m pytest -q bench/test_bench.py

The hard-inputs smoke test takes about 30 s: its named faults are slow by
definition, and it runs each of them once.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cases
import oracle
import run
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _op_lines(proc):
    """{case id: (label, passed)} from the smoke run's per-operation lines."""
    out = {}
    for line in proc.stderr.splitlines():
        if line.startswith("op "):
            _, cid, label, verdict = line.split()[:4]
            out[cid] = (None if label == "-" else label, verdict == "pass")
    return out


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_oracle_pairs_against_their_defining_integrals():
    bad = [(name, err, bound) for name, err, bound in oracle.selftest()
           if not err <= bound]
    assert not bad


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_case_lists_are_seeded_with_a_fixed_make_up(workload):
    a, _ = cases.build(workload, 7)
    assert a == cases.build(workload, 7)[0]
    b, _ = cases.build(workload, 8)
    assert a != b
    assert [(c["kind"], c["label"]) for c in a] == \
        [(c["kind"], c["label"]) for c in b]
    named = [c for c in a if c["label"] in cases.COUNTED_FAILED + cases.SLOW_CORRECT]
    assert named == [c for c in b if c["label"] in cases.COUNTED_FAILED + cases.SLOW_CORRECT]


@pytest.mark.parametrize("workload", ["verify-sweep", "pointwise", "spectral"])
def test_smoke_runs_clean(workload):
    res = _result(_run_bench("--workload", workload, "--seed", "3", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {"setup_s", "ops_per_s", "fevals_per_op"} <= set(res["metrics"])


def test_hard_inputs_faults_are_counted_as_labelled():
    proc = _run_bench("--workload", "hard-inputs", "--seed", "3", "--smoke")
    res = _result(proc)
    ops = _op_lines(proc)
    labels = {label for label, _ in ops.values()}
    assert set(cases.COUNTED_FAILED + cases.SLOW_CORRECT) <= labels
    for cid, (label, passed) in ops.items():
        assert passed == (label not in cases.COUNTED_FAILED), cid
    assert res["correct"]
    assert res["failed"] == sum(not p for _, p in ops.values())


def test_traced_smoke_reports_every_layer_metric():
    out = BENCH / "out" / "trace-spectral-3.json"
    res = _result(_run_bench("--workload", "spectral", "--seed", "3", "--smoke",
                             "--trace", "1"))
    assert [m for m in res["metrics"]] == [m[0] for m in tracing.PER_LAYER]
    assert res["metrics"]["traced.absent_entries"]["value"] == 0
    doc = json.loads(out.read_text())
    assert doc["spans"] and doc["absent"] == []


def test_tracer_reports_a_missing_entry_point(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    fs = run.fresh_import()
    monkeypatch.setattr(tracing, "PATCHES",
                        tracing.PATCHES + (("fracshift", "no_such_entry", "opeval"),))
    tracer = tracing.Tracer()
    tracer.install(fs)
    try:
        assert tracer.absent == ["fracshift.no_such_entry"]
        assert fs.eval_F(1.0, 1.5) == pytest.approx(oracle.F_series(1.0, 1.5), abs=1e-12)
    finally:
        tracer.uninstall()
    assert tracer.stats["opeval.calls"] == 1
    assert not hasattr(fs.eval_F, "bench_traced")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run_bench("--workload", "spectral", "--seed", "1", "--seconds", "1",
                      cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
