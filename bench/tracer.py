"""Span tracer that wraps grastar's module attributes at run time.

Each wrapped call records a span ``[name, start, end, parent, op, info]``
in memory: ``parent`` is the index of the enclosing span (-1 for a root),
``op`` the benchmark op the span belongs to and ``info`` an optional dict
of sizes read from the call.  Times come from ``time.perf_counter``, which
on Linux is CLOCK_MONOTONIC and therefore comparable between a parent and
its child processes.  A span's self time is its duration minus the
durations of its direct children, so the self times of one op's spans add
up to the duration of its root span; they split it into layers only if
every span lies within its parent, which ``nesting_violations`` checks.

Nothing in the package is edited: ``install`` rebinds the attributes in
every namespace that calls them and ``uninstall`` restores the originals.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


def _ring_info(args, result):
    return {"monomials": int(args[0].size)}


def _table_info(args, result):
    ring = args[0]
    return {"pairs": int(len(ring._table[0])), "size": int(ring.size)}


def _table_missing(args):
    return args[0]._table is None


def _tensor_info(args, result):
    _, n, p, r = args[:4]
    return {"entries": int(n**r * p**r)}


def _projector_info(args, result):
    return {"dim": int(result.dim)}


# (span name, [(module, attribute path), ...], info(args, result), when(args))
# A function bound by ``from ... import`` in several modules is wrapped in
# each namespace that calls it.
TARGETS = (
    ("jets.ring_build", [("grastar.jets", "JetRing.__init__")], _ring_info, None),
    # the table is built lazily inside multiply; later calls only read it
    ("jets.table_build", [("grastar.jets", "JetRing._mult_table")], _table_info, _table_missing),
    ("jets.multiply", [("grastar.jets", "JetRing.multiply")], None, None),
    ("jets.mat_inverse", [("grastar.jets", "mat_inverse"), ("grastar.geometry", "mat_inverse")], None, None),
    ("jets.mat_inv_sqrt", [("grastar.jets", "mat_inv_sqrt"), ("grastar.geometry", "mat_inv_sqrt")], None, None),
    ("geometry.level_representative_jet", [("grastar.star", "level_representative_jet")], None, None),
    (
        "geometry.jet_point",
        [
            ("grastar.geometry", "holomorphic_jet_point"),
            ("grastar.geometry", "antiholomorphic_jet_point"),
            ("grastar.star", "holomorphic_jet_point"),
            ("grastar.star", "antiholomorphic_jet_point"),
        ],
        None,
        None,
    ),
    ("geometry.eval_function", [("grastar.geometry", "eval_function"), ("grastar.star", "eval_function")], None, None),
    ("star.derivative_tensor", [("grastar.star", "derivative_tensor")], _tensor_info, None),
    ("star.star_eval", [("grastar.star", "star_eval"), ("grastar.cli", "star_eval")], None, None),
    ("center.lambda_series", [("grastar.star", "lambda_coefficient_series")], None, None),
    ("star.jet_series", [("grastar.star", "star_jet_series")], None, None),
    ("star.associativity", [("grastar.star", "associativity_residuals")], None, None),
    ("star.verify_suite", [("grastar.cli", "verify_suite")], None, None),
    ("tensor_action.projector", [("grastar.star", "projector")], _projector_info, None),
    ("characters.character", [("grastar.tensor_action", "character")], None, None),
    ("partitions.permutations", [("grastar.tensor_action", "permutations_of")], None, None),
    ("cli.main", [("grastar.cli", "main")], None, None),
)


class Tracer:
    """In-memory span recorder; wrapped calls record only while ``recording`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, info=None, when=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span[5] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, yielding its index."""
        index = len(self.spans)
        span = self._open(name)
        try:
            yield index
        finally:
            self._close(span)

    @contextmanager
    def op_span(self, op):
        """Root span ``bench.op`` of one benchmark op, yielding its index.

        Yields None and records nothing while not recording.
        """
        if not self.recording:
            yield None
            return
        self.op = op
        try:
            with self.span("bench.op") as index:
                yield index
        finally:
            self.op = None

    def add_child_spans(self, root: int, spans: list) -> None:
        """Graft spans ``[name, start, end, parent, info]`` of a child process
        under the span at index ``root``."""
        offset = len(self.spans)
        op = self.spans[root][4]
        for name, start, end, parent, info in spans:
            parent = root if parent < 0 else parent + offset
            self.spans.append([name, start, end, parent, op, info])

    @contextmanager
    def tracing(self):
        """Wrap the layers and record spans for the duration of a block."""
        self.install()
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False
            self.uninstall()

    def install(self) -> None:
        """Wrap every target whose module is already imported and that exists."""
        for name, bindings, info, when in TARGETS:
            for module_name, path in bindings:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # gone at this commit: the layer's metrics read 0
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, info, when))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def nesting_violations(self) -> int:
        """The number of spans that do not lie within their parent."""
        spans = self.spans
        return sum(
            1
            for _, start, end, parent, _, _ in spans
            if parent >= 0 and not spans[parent][1] <= start <= end <= spans[parent][2]
        )

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out
