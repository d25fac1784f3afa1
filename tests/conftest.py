"""Fixtures shared by the test modules."""

import pytest

from grastar import geometry


@pytest.fixture
def k_builds(monkeypatch):
    """The variable count of the ring of every build of K, the chart coordinate, in order.

    ``geometry._chart_table`` builds K's jets when it extends the rows it
    keeps on a ring for (p, mu) past the constant monomial.
    """
    builds = []
    table = geometry._chart_table

    def counting(ring, p, mu, small, degree):
        (kept,) = ring.kept.get((p, mu), ((),))
        rows = table(ring, p, mu, small, degree)
        if len(kept) <= 1 < len(rows):
            builds.append(ring.nvars)
        return rows

    monkeypatch.setattr(geometry, "_chart_table", counting)
    return builds
