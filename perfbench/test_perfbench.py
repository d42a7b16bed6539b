"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
They run each workload at its benchmark size, so they take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import ROOT, Bench  # noqa: E402
from tracer import COUNT_METRICS, _union_ns, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_outputs, oracle_gate  # noqa: E402

SEED = 7


def _bench(name: str, tmp_path: Path) -> Bench:
    bench = Bench(name, SEED, seconds=0, work=tmp_path / name)
    bench.prepare()
    return bench


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_two_traced_runs(name, tmp_path):
    bench = _bench(name, tmp_path)
    first, second = bench.rep(trace=True), bench.rep(trace=True)
    assert first is not None and second is not None
    assert bench.failed == 0, bench.check_log
    assert [c[0] for c in first["checks"]] == bench.wl.expected_checks(bench.raw)
    assert {k: first["layers"][k] for k in COUNT_METRICS} == \
        {k: second["layers"][k] for k in COUNT_METRICS}
    assert first["output_hash"] == second["output_hash"]


@pytest.mark.parametrize("name", [n for n, w in sorted(WORKLOADS.items())
                                  if w.command == "certify"])
def test_certify_bytes_identical_across_thread_counts(name, tmp_path):
    bench = _bench(name, tmp_path)
    one = bench.rep(threads=1)
    one_bytes = (bench.out / "certify.json").read_bytes()
    two = bench.rep(threads=2)
    assert one is not None and two is not None and bench.failed == 0
    assert (bench.out / "certify.json").read_bytes() == one_bytes
    assert one["output_hash"] == two["output_hash"]


def test_handoff_leaves_cli_output_unchanged(tmp_path):
    """The benchmark's pre-built pipeline gives the bytes a plain CLI call gives."""
    bench = _bench("sign_drift_certify", tmp_path)
    assert bench.rep() is not None and bench.failed == 0
    plain = tmp_path / "plain"
    argv = bench.wl.argv(bench.config, plain, SEED)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "sdedensity.cli", *argv], cwd=ROOT, env=env,
                   check=True, timeout=300)
    for p in sorted(bench.out.iterdir()):
        assert (plain / p.name).read_bytes() == p.read_bytes(), p.name


def test_oracle_gate_records_the_certify_verdict_and_gates_gross_errors(tmp_path):
    """density_vs_oracle is gated at the benchmark's oracle gate, not the shipped tolerance."""
    from types import SimpleNamespace

    sys.path.insert(0, str(ROOT / "src"))
    from sdedensity.config import PRESETS

    wl = WORKLOADS["gaussian_certify"]
    raw = wl.config(PRESETS)
    gate = oracle_gate(wl, raw)
    assert gate == pytest.approx(2.5 * 5e-3)
    assert oracle_gate(WORKLOADS["gbm_density"], WORKLOADS["gbm_density"].config(PRESETS)) \
        == pytest.approx(2.5 * 1e-2 * 2)
    pipe = SimpleNamespace(cfg=SimpleNamespace(raw=raw, hash="h"))
    for err, ok in [(5.3e-3, True), (0.1, False)]:   # a seed's noise tail; a gross error
        checks = {name: {"value": 0.0, "tolerance": 1.0, "pass": True}
                  for name in raw["certify"]["checks"]}
        checks["density_vs_oracle"] = {"value": err, "tolerance": 5e-3, "pass": False}
        (tmp_path / "certify.json").write_text(json.dumps(
            {"config_hash": "h", "seed": SEED, "checks": checks, "all_pass": False}))
        got = {name: (passed, value) for name, passed, value in
               check_outputs(wl, 1, tmp_path, pipe, SEED)[0]}
        assert got["certify.density_vs_oracle"][0] is ok
        assert got["certify.density_vs_oracle"][1]["program_pass"] is False
        assert got["certify.exit_code"][0] and got["certify.seed"][0]


def test_self_time_subtracts_union_of_overlapping_children():
    ms = 1_000_000
    spans = [
        (1, 0, "charfn.estimate_localized", 1, 0, 100 * ms, 10, {"key": 1.0}),
        (2, 1, "lamperti.forward", 1, 10 * ms, 40 * ms, 5, None),
        (3, 1, "cutoff.phi", 2, 30 * ms, 60 * ms, 5, None),   # overlaps span 2
        (4, 3, "cutoff.phi", 2, 35 * ms, 45 * ms, 5, None),   # nested, same layer
    ]
    m = layer_metrics(spans)
    assert m["charfn.s"] == pytest.approx(0.050)
    assert m["cutoff.s"] == pytest.approx(0.030)
    assert m["lamperti.forward_s"] == pytest.approx(0.030)
    assert m["charfn.calls"] == 1 and m["charfn.distinct_t"] == 1
    assert _union_ns([(0, 5), (3, 8), (10, 12)], 1, 11) == 8


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in PER_LAYER]
    spans = [(1, 0, "simulate.simulate", 1, 0, 1, 1, {})]
    layer_names = set(layer_metrics(spans))
    computed_in_run = {"simulate.states_mb", "simulate.thread_speedup", "simulate.noise_floor_s",
                       "trace.overhead_frac", "certify.oracle_err", "certify.check_fail_frac"}
    assert layer_names | computed_in_run == {m.name for m in PER_LAYER}


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gbm_density",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
