"""Smoke test of the benchmark; run with ``python3 -m pytest bench/test_smoke.py``.

Each workload runs with ``--seconds 0``, the fewest whole cycles that give
the tail its samples, in each mode; the test asserts that every metric the
benchmark defines is printed with its unit, that the result line matches
BENCHMARK.json, that the traced spans nest, and that the benchmark refuses
to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every metric named in the benchmark's definition, by mode, with its unit
METRICS = {
    0: {
        "ops_per_s": "1/s",
        "op_ms_p50": "ms",
        "op_ms_tail": "ms",
        "op_ms_tail_pct": "%",
        "op_ms_tail_n": "count",
        "setup_s": "s",
        "peak_rss_mb": "MB",
        "fail_frac": "frac",
    },
    1: {
        "jets.ring_build_s": "s",
        "jets.ring_builds": "count",
        "jets.table_build_s": "s",
        "jets.multiply_s": "s",
        "jets.multiply_calls": "count",
        "jets.ring_monomials_max": "count",
        "jets.table_pairs_max": "count",
        "jets.table_fill": "frac",
        "jets.mat_inverse_s": "s",
        "jets.mat_inverse_calls": "count",
        "jets.mat_inv_sqrt_s": "s",
        "geometry.level_representative_jet_s": "s",
        "geometry.jet_point_s": "s",
        "geometry.eval_function_s": "s",
        "geometry.eval_function_calls": "count",
        "star.derivative_tensor_s": "s",
        "star.derivative_tensor_entries": "count",
        "star.pairing_s": "s",
        "center.lambda_series_s": "s",
        "star.jet_series_s": "s",
        "star.associativity_s": "s",
        "tensor_action.projector_s": "s",
        "tensor_action.projector_calls": "count",
        "tensor_action.projector_dim_max": "count",
        "characters.character_s": "s",
        "partitions.permutations_s": "s",
        "cli.import_s": "s",
        "cli.main_self_s": "s",
        "trace.overhead_frac": "frac",
        "trace.nesting_violations": "count",
        "trace.self_min_s": "s",
    },
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            float(value)
            printed[name] = unit
    for name, unit in METRICS[trace].items():
        assert printed.get(name) == unit, name
    if trace:
        # the layer self times split each op's traced wall time: every span
        # lies within its parent and no self time is negative
        metrics = json.loads(lines[-2])["bench"]["metrics"]
        assert metrics["trace.nesting_violations"]["value"] == 0
        assert metrics["trace.self_min_s"]["value"] >= 0.0


def test_nesting_check_finds_a_span_outside_its_parent():
    sys.path.insert(0, str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.recording = True
    with tracer.op_span(0) as root:
        with tracer.span("inner"):
            pass
    assert tracer.nesting_violations() == 0
    start, end = tracer.spans[root][1:3]
    # a grafted child-process span that ends after the op did
    tracer.add_child_spans(root, [["child", start, end + 1.0, -1, None]])
    assert tracer.nesting_violations() == 1
    assert min(tracer.self_times()) < 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "star-series", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
