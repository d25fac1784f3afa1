"""grastar benchmark: named closed-loop workloads against the public API and the CLI.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  One client sends each op only
after the previous one returned (a closed loop), from one process with at
most one child at a time, and BLAS is pinned to one thread.  An op of an
API workload is one ``star_eval`` call; an op of ``verify-cli`` is one
fresh ``grastar verify`` process.  Ops cycle through the workload's sizes
and a phase always ends on a whole cycle.  Every op's output is checked
by an oracle outside the timed region; an op that raises or fails its
oracle counts as failed.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
per-layer metrics: it runs half of ``--seconds`` untraced and half with
every layer's functions wrapped by tracer.py, and reports self times per
cycle of sizes.  stdout gets one ``metric NAME VALUE UNIT`` line per
metric, one JSON line with the environment, per-size figures and every
metric, and last the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for the metric definitions.
"""

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    # before NumPy loads BLAS, here and in every child (they inherit it)
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

if not (SRC / "grastar" / "__init__.py").is_file():
    sys.exit(f"error: no grastar sources in {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import grastar  # noqa: E402
import workloads  # noqa: E402
from child import SPANS_MARKER  # noqa: E402
from tracer import Tracer  # noqa: E402

if Path(grastar.__file__).resolve().parent != SRC / "grastar":
    sys.exit(f"error: grastar imported from {grastar.__file__}, not from {SRC}")

MIN_OPS = 11  # the tail percentile needs ten samples beyond it
PHASE_CAP_S = 100.0  # no phase runs longer, whatever --seconds says
CHILD_TIMEOUT_S = 150.0
CLI_ENTRY = "import sys; from grastar.cli import main; sys.exit(main())"  # as the console script

# Metrics of the result line, by name and unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
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
    "jets.mat_inv_sqrt_calls": "count",
    "geometry.jet_point_s": "s",
    "geometry.eval_function_s": "s",
    "geometry.eval_function_calls": "count",
    "star.derivative_tensor_s": "s",
    "star.derivative_tensor_entries": "count",
    "star.pairing_s": "s",
    "tensor_action.projector_s": "s",
    "tensor_action.projector_calls": "count",
    "tensor_action.projector_dim_max": "count",
    "characters.character_s": "s",
    "partitions.permutations_s": "s",
    "bench.op_self_s": "s",
    "trace.overhead_frac": "frac",
}
# Printed on the metric lines and in the JSON line only: fail_frac is 0 at
# a correct commit, the tail's percentile and count label op_ms_tail, the
# layer times below are 0 on every run of some workload, and the last two
# are checks of the trace.
END_TO_END_EXTRA = {"fail_frac": "frac", "op_ms_tail_pct": "%", "op_ms_tail_n": "count"}
PER_LAYER_EXTRA = {
    "jets.mat_inv_sqrt_s": "s",
    "geometry.level_representative_jet_s": "s",
    "center.lambda_series_s": "s",
    "star.jet_series_s": "s",
    "star.associativity_s": "s",
    "star.verify_suite_s": "s",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "trace.nesting_violations": "count",
    "trace.self_min_s": "s",
}

# metric -> span: summed self seconds, or call count, over one op of each size
LAYER_SELF = {
    "jets.ring_build_s": "jets.ring_build",
    "jets.table_build_s": "jets.table_build",
    "jets.multiply_s": "jets.multiply",
    "jets.mat_inverse_s": "jets.mat_inverse",
    "jets.mat_inv_sqrt_s": "jets.mat_inv_sqrt",
    "geometry.level_representative_jet_s": "geometry.level_representative_jet",
    "geometry.jet_point_s": "geometry.jet_point",
    "geometry.eval_function_s": "geometry.eval_function",
    "star.derivative_tensor_s": "star.derivative_tensor",
    "star.pairing_s": "star.star_eval",
    "center.lambda_series_s": "center.lambda_series",
    "star.jet_series_s": "star.jet_series",
    "star.associativity_s": "star.associativity",
    "star.verify_suite_s": "star.verify_suite",
    "tensor_action.projector_s": "tensor_action.projector",
    "characters.character_s": "characters.character",
    "partitions.permutations_s": "partitions.permutations",
    "cli.import_s": "cli.import",
    "cli.main_self_s": "cli.main",
    "bench.op_self_s": "bench.op",
}
LAYER_CALLS = {
    "jets.ring_builds": "jets.ring_build",
    "jets.multiply_calls": "jets.multiply",
    "jets.mat_inverse_calls": "jets.mat_inverse",
    "jets.mat_inv_sqrt_calls": "jets.mat_inv_sqrt",
    "geometry.eval_function_calls": "geometry.eval_function",
    "tensor_action.projector_calls": "tensor_action.projector",
}
# Work a cold process does once and then caches: on an API workload it
# happens in the traced cold set-up, whose totals are added.
ONCE_PER_PROCESS = {"tensor_action.projector", "characters.character", "partitions.permutations"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def child_spans(stderr: str) -> list:
    for line in reversed(stderr.splitlines()):
        if line.startswith(SPANS_MARKER):
            return json.loads(line[len(SPANS_MARKER):])
    return []


class Runner:
    """Closed-loop client; keeps ``(phase, size index, seconds, error)`` per op."""

    def __init__(self, workload, seed: int, tracer: Tracer):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.ops: list[tuple] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def cycle(self, phase: str) -> None:
        """One op of every size."""
        for i in range(len(self.wl.sizes)):
            self.run_op(phase, i)

    def phase(self, name: str, seconds: float) -> None:
        """Whole cycles until ``seconds`` have passed and at least MIN_OPS ran."""
        start = time.perf_counter()
        done = 0
        while True:
            self.cycle(name)
            done += 1
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and done * len(self.wl.sizes) >= MIN_OPS) or elapsed >= PHASE_CAP_S:
                return

    def run_op(self, phase: str, i: int) -> None:
        op = len(self.ops)
        size = self.wl.sizes[i]
        if self.wl.cli:
            seconds, error = self._cli_op(op, size)
        else:
            input_op = workloads.SETUP_OP + i if phase == "setup" else op
            seconds, error = self._api_op(op, size, input_op)
        self.ops.append((phase, i, seconds, error))

    def _api_op(self, op: int, size, input_op: int):
        cfg, z, f, g = workloads.api_inputs(self.seed, input_op, size)
        error = None
        with self.tracer.op_span(op):
            start = time.perf_counter()
            try:
                result = workloads.api_op(size, cfg, z, f, g)
            except Exception as exc:  # a failed op: counted and reported
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if error is None:
            recording, self.tracer.recording = self.tracer.recording, False
            try:
                error = workloads.check_api(size, cfg, z, f, g, result)
            except Exception as exc:  # an oracle that cannot run fails the op
                error = f"oracle raised {type(exc).__name__}: {exc}"
            finally:
                self.tracer.recording = recording
        return seconds, error

    def _cli_op(self, op: int, size):
        argv = size.verify_argv(workloads.cli_seed(self.seed, op))
        if self.tracer.recording:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        with self.tracer.op_span(op) as root:
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                proc = None
            seconds = time.perf_counter() - start
        if proc is None:
            return seconds, f"timed out after {CHILD_TIMEOUT_S} s"
        if root is not None:
            self.tracer.add_child_spans(root, child_spans(proc.stderr))
        return seconds, workloads.check_verify(proc.returncode, proc.stdout)

    def setup_seconds(self, samples: int) -> list[float]:
        """Cold set-ups in fresh processes: from spawn until the child is ready."""
        out = []
        for _ in range(samples):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), "setup", self.wl.name, str(self.seed)],
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise BenchError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            out.append(float(proc.stdout.split()[-1]) - start)
        return out

    def phase_ops(self, phase: str) -> list[list[int]]:
        """Op indices of a phase, grouped by size."""
        groups = [[] for _ in self.wl.sizes]
        for op, (ph, i, _, _) in enumerate(self.ops):
            if ph == phase:
                groups[i].append(op)
        return groups

    def ops_per_s(self, phase: str) -> float:
        """Ops per second with every size equally represented."""
        groups = self.phase_ops(phase)
        return len(groups) / sum(statistics.fmean(self.ops[op][2] for op in ops) for ops in groups)


def end_to_end(runner: Runner, setup: list[float], rss_mb: float) -> dict:
    # failed ops are timed too; the result line reports them as failed
    ms = [[runner.ops[op][2] * 1e3 for op in ops] for ops in runner.phase_ops("measure")]
    medians = [statistics.median(group) for group in ms]
    # per-size medians averaged over the cycle: the sizes differ by 100x,
    # so a pooled median would sit on the step between two sizes
    p50 = statistics.fmean(medians)
    # each op relative to its size's median, so that every size can reach
    # the tail; the highest percentile with at least ten samples beyond it
    ratios = sorted(x / median for group, median in zip(ms, medians) for x in group)
    n = len(ratios)
    ratio, tail_pct = (ratios[n - 11], 100.0 * (n - 10) / n) if n > 10 else (ratios[-1], 100.0)
    attempted = len(runner.ops)
    failed = sum(1 for op in runner.ops if op[3] is not None)
    return {
        "ops_per_s": runner.ops_per_s("measure"),
        "op_ms_p50": p50,
        "op_ms_tail": ratio * p50,
        "op_ms_tail_pct": tail_pct,
        "op_ms_tail_n": n,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "fail_frac": failed / attempted,
    }


def per_layer(runner: Runner) -> tuple[dict, list]:
    tracer = runner.tracer
    self_times = tracer.self_times()
    # op -> span name -> [self seconds, calls, derivative-tensor entries]
    per_op = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
    monomials_max = projector_dim = 0
    table = (0, 1)
    for index, (name, start, end, parent, op, info) in enumerate(tracer.spans):
        acc = per_op[op][name]
        acc[0] += self_times[index]
        acc[1] += 1
        if not info:
            continue
        acc[2] += info.get("entries", 0)
        monomials_max = max(monomials_max, info.get("monomials", 0))
        projector_dim = max(projector_dim, info.get("dim", 0))
        if info.get("pairs", 0) > table[0]:
            table = (info["pairs"], info["size"])
    setup_ops = [op for group in runner.phase_ops("setup") for op in group]
    traced = runner.phase_ops("traced")

    def value(span: str, field: int) -> float:
        cycle = sum(statistics.fmean(per_op[op][span][field] for op in ops) for ops in traced)
        if span in ONCE_PER_PROCESS:
            cycle += sum(per_op[op][span][field] for op in setup_ops)
        return cycle

    out = {metric: value(span, 0) for metric, span in LAYER_SELF.items()}
    out.update({metric: value(span, 1) for metric, span in LAYER_CALLS.items()})
    out["star.derivative_tensor_entries"] = value("star.derivative_tensor", 2)
    out["jets.ring_monomials_max"] = monomials_max
    out["jets.table_pairs_max"] = table[0]
    out["jets.table_fill"] = table[0] / table[1] ** 2
    out["tensor_action.projector_dim_max"] = projector_dim
    out["trace.overhead_frac"] = runner.ops_per_s("plain") / runner.ops_per_s("traced") - 1.0
    # The self times of an op's spans add up to its root span's duration by
    # definition; they split the op's wall time only if every span lies
    # within its parent (grafted child-process spans too) and no self time
    # is negative.
    out["trace.nesting_violations"] = tracer.nesting_violations()
    out["trace.self_min_s"] = min(self_times, default=0.0)
    # per size, the distinct values a count took over the traced ops: a
    # single value is a count that repeats exactly
    counted = {
        "derivative_tensor_entries": ("star.derivative_tensor", 2),
        "ring_builds": ("jets.ring_build", 1),
        "multiply_calls": ("jets.multiply", 1),
        "mat_inverse_calls": ("jets.mat_inverse", 1),
        "eval_function_calls": ("geometry.eval_function", 1),
    }
    counts = [
        {key: sorted({per_op[op][span][field] for op in ops}) for key, (span, field) in counted.items()}
        for ops in traced
    ]
    return out, counts


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    runner = Runner(wl, args.seed, tracer)
    record = {"environment": environment(args), "excluded": list(workloads.EXCLUDED)}
    if args.trace == 0:
        # set-up is cheap and noisy for the CLI (an import), so take more samples
        setup = runner.setup_seconds(5 if wl.cli else 3)
        if not wl.cli:
            runner.cycle("setup")
        runner.phase("measure", args.seconds)
        # the largest child: a cold set-up process (import and one op of every
        # size) or a grastar verify process; the warm loop's own heap grows
        # by fragmentation that depends on the order of earlier ops
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        values = end_to_end(runner, setup, rss_mb)
        record["setup_samples_s"] = setup
        units, extra = END_TO_END, END_TO_END_EXTRA
    else:
        if not wl.cli:
            with tracer.tracing():
                runner.cycle("setup")
        runner.phase("plain", args.seconds / 2)
        with tracer.tracing():
            runner.phase("traced", args.seconds / 2)
        values, counts = per_layer(runner)
        record["counts_per_size"] = dict(zip((s.label for s in wl.sizes), counts))
        units, extra = PER_LAYER, PER_LAYER_EXTRA
    record["per_size"] = {
        size.label: {
            "ops": len(ops),
            "median_ms": statistics.median(runner.ops[op][2] for op in ops) * 1e3,
        }
        for size, ops in zip(wl.sizes, runner.phase_ops("measure" if args.trace == 0 else "traced"))
    }
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in {**units, **extra}.items()}
    record["failures"] = [op[3] for op in runner.ops if op[3] is not None][:10]
    failed = sum(1 for op in runner.ops if op[3] is not None)
    record["result"] = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {name: record["metrics"][name] for name in units},
    }
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in record["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    detail = {key: val for key, val in record.items() if key != "result"}
    print(json.dumps({"bench": detail}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
