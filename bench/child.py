"""Child processes of the grastar benchmark (started by run.py, never alone).

    child.py setup <workload> <seed>
        A cold set-up: import, then for an API workload one op of every
        size; for verify-cli only the import of grastar.cli.  Prints the
        CLOCK_MONOTONIC time at which it was ready.
    child.py cli <grastar arguments...>
        ``grastar <arguments>`` with spans recorded; the CLI's JSON goes to
        stdout and the spans to the last line of stderr after SPANS_MARKER.
"""

import json
import sys
import time

SPANS_MARKER = "BENCH_SPANS "


def setup(workload_name: str, seed: int) -> None:
    if workload_name == "verify-cli":
        import grastar.cli  # noqa: F401
    else:
        import workloads

        wl = workloads.WORKLOADS[workload_name]
        for i, size in enumerate(wl.sizes):
            workloads.api_op(size, *workloads.api_inputs(seed, workloads.SETUP_OP + i, size))
    print(repr(time.perf_counter()), flush=True)


def traced_cli(argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("cli.import"):
        import grastar.cli
    with tracer.tracing():
        code = grastar.cli.main(argv)
    sys.stdout.flush()
    spans = [[name, start, end, parent, info] for name, start, end, parent, _, info in tracer.spans]
    sys.stderr.write("\n" + SPANS_MARKER + json.dumps(spans) + "\n")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
