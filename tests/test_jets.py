"""Jet arithmetic: truncated Taylor expansions and matrix routines."""

import gc
import itertools
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest

import grastar.jets
from grastar.errors import ConvergenceError, RangeError
from grastar.geometry import PointZ, SpaceConfig, holomorphic_jet_point, sample_point
from grastar.jets import (
    MEMORY_BUDGET,
    Jet,
    JetRing,
    MatrixJet,
    check_memory,
    extract_partial,
    mat_inverse,
    shared_ring,
    sorted_tuples,
)


def test_ring_axioms_random():
    ring = JetRing(3, 4)
    rng = np.random.default_rng(0)
    a, b, c = (
        Jet(ring, rng.standard_normal(ring.size) + 1j * rng.standard_normal(ring.size))
        for _ in range(3)
    )
    assert np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs)
    assert np.allclose((a * b).coeffs, (b * a).coeffs)
    assert np.allclose((a * (b + c)).coeffs, (a * b + a * c).coeffs)
    one = ring.const(1.0)
    assert np.allclose((a * one).coeffs, a.coeffs)


def test_partials_of_polynomial():
    # f(x, y) = x^2 y + x^2 at (2, 0.5)
    ring = JetRing(2, 3)
    x = ring.var(0, 2.0)
    y = ring.var(1, 0.5)
    f = x * x * y + x * x
    assert abs(extract_partial(f, (2, 0)) - (2 * 0.5 + 2)) < 1e-14
    assert abs(extract_partial(f, (1, 1)) - 2 * 2) < 1e-14
    assert abs(extract_partial(f, (2, 1)) - 2) < 1e-14
    assert abs(f.value() - (4 * 0.5 + 4)) < 1e-14


def test_partials_match_finite_differences():
    # a rational composite function, differentiated two ways
    def func(x, y):
        return (x * x + 3 * y) / (1.0 + x * y)

    x0, y0 = 0.7, -0.3
    ring = JetRing(2, 2)
    x = ring.var(0, x0)
    y = ring.var(1, y0)
    denom = MatrixJet(ring, [[(ring.const(1.0) + x * y).coeffs]])
    inv = mat_inverse(denom)[0, 0]
    f = (x * x + 3 * y) * inv
    h = 1e-5
    fd_x = (func(x0 + h, y0) - func(x0 - h, y0)) / (2 * h)
    fd_xy = (
        func(x0 + h, y0 + h)
        - func(x0 + h, y0 - h)
        - func(x0 - h, y0 + h)
        + func(x0 - h, y0 - h)
    ) / (4 * h * h)
    assert abs(extract_partial(f, (1, 0)) - fd_x) < 1e-8
    assert abs(extract_partial(f, (1, 1)) - fd_xy) < 1e-5


def test_mat_inverse_residual():
    rng = np.random.default_rng(3)
    ring = JetRing(4, 3)
    base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
    M = MatrixJet.from_numeric(ring, base)
    for k in range(4):
        M[k % 3, (k + 1) % 3] = M[k % 3, (k + 1) % 3] + ring.var(k)
    X = M @ mat_inverse(M)
    I = MatrixJet.identity(ring, 3)
    assert max(
        np.max(np.abs(X[i, j].coeffs - I[i, j].coeffs))
        for i in range(3)
        for j in range(3)
    ) < 1e-12


@pytest.mark.parametrize("order", [3, 8])
@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
def test_mat_inverse_of_gram_jet_at_any_scale(scale, order):
    # at the point s z the Gram jet's constant term is ~s^2 and its linear
    # terms ~s, so the inverse's order-k coefficients grow like s^-(k+2)
    z = sample_point(SpaceConfig(2, 1), 13)
    _, Z, Zbar = holomorphic_jet_point(PointZ(scale * z.z), order)
    M = Zbar @ Z
    X = mat_inverse(M)
    resid = (M @ X - MatrixJet.identity(M.ring, 2)).max_abs()
    assert resid / (M.max_abs() * X.max_abs()) < 1e-12


def test_mat_inverse_frees_its_work_before_the_residual():
    # the last degree's T, an identity jet and M X - 1 beside M X held the
    # peak at five jet matrices of M's size; M X alone, with X and the
    # (X0 T) of one degree before it, holds three
    ring = shared_ring(16, 4)
    rng = np.random.default_rng(4)
    M = MatrixJet.from_numeric(ring, np.eye(4) + 0.1 * rng.standard_normal((4, 4)))
    M = M + MatrixJet.variables(ring, np.arange(16).reshape(4, 4))
    mat_inverse(M)  # the table and the work buffers, untraced
    tracemalloc.start()
    try:
        X = mat_inverse(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * M.coeffs.nbytes
    assert (M @ X - MatrixJet.identity(ring, 4)).max_abs() < 1e-12 * M.max_abs() * X.max_abs()


def test_mat_inverse_rejects_singular():
    ring = JetRing(1, 2)
    M = MatrixJet.from_numeric(ring, np.zeros((2, 2)))
    with pytest.raises(ConvergenceError):
        mat_inverse(M)


def test_sparse_and_table_paths_agree():
    ring_a = JetRing(3, 3)
    ring_b = JetRing(3, 3).warm()
    rng = np.random.default_rng(5)
    c1 = np.zeros(ring_a.size, dtype=complex)
    c2 = np.zeros(ring_a.size, dtype=complex)
    c1[rng.choice(ring_a.size, 4, replace=False)] = rng.standard_normal(4)
    c2[rng.choice(ring_a.size, 4, replace=False)] = rng.standard_normal(4)
    assert np.allclose(ring_a.multiply(c1, c2), ring_b.multiply(c1, c2))


def _brute_force_table(ring):
    """Every (i, j, k) with monos[i] + monos[j] == monos[k], over all size^2 pairs."""
    width = ring.monos.itemsize * ring.nvars
    index = {m.tobytes(): k for k, m in enumerate(ring.monos)}
    out = set()
    for i, mi in enumerate(ring.monos):
        sums = (mi + ring.monos).tobytes()
        for j in range(ring.size):
            k = index.get(sums[j * width : (j + 1) * width])
            if k is not None:
                out.add((i, j, k))
    return out


# (40, 2) is the associativity ring of (p, q, N) = (4, 1, 2), which
# exponents packed as digits in base N + 1 could not index below 2^62
_INDEX_RINGS = [JetRing(3, 3), JetRing(8, 2), JetRing(2, 0), JetRing(0, 2), JetRing(40, 2)]


@pytest.mark.parametrize("ring", _INDEX_RINGS, ids=repr)
def test_mult_table_matches_brute_force(ring):
    ti, tj, tk = ring.warm()._table
    triples = set(zip(ti.tolist(), tj.tolist(), tk.tolist()))
    assert len(triples) == len(ti)
    assert triples == _brute_force_table(ring)


@pytest.mark.parametrize("ring", _INDEX_RINGS, ids=repr)
def test_index_of_inverts_the_basis(ring):
    assert ring.size == comb(ring.nvars + ring.order, ring.order) == len(ring.monos)
    assert [ring.index_of(m) for m in ring.monos] == list(range(ring.size))
    # graded: the constant first, degrees ascending
    assert ring.index_of((0,) * ring.nvars) == 0
    assert np.array_equal(ring.degree, ring.monos.sum(axis=1))
    assert np.all(np.diff(ring.degree) >= 0)
    if ring.nvars:
        for bad in [(ring.order + 1,) + (0,) * (ring.nvars - 1), (-1,) + (0,) * (ring.nvars - 1)]:
            with pytest.raises(KeyError):
                ring.index_of(bad)


@pytest.mark.parametrize("ring", _INDEX_RINGS, ids=repr)
def test_index_map_matches_brute_force(ring):
    # the index of m x_v for every monomial m and variable v, or KeyError
    index = {tuple(int(d) for d in m): k for k, m in enumerate(ring.monos)}
    expect = np.full((ring.size, ring.nvars), -1)
    for k, m in enumerate(ring.monos):
        for v in range(ring.nvars):
            up = tuple(int(d) + (w == v) for w, d in enumerate(m))
            expect[k, v] = index.get(up, -1)
    start = np.flatnonzero(ring.degree < ring.order)
    assert np.all(expect[start] >= 0)
    assert np.all(expect[ring.degree == ring.order] == -1)
    got = ring.multiset_indices(1, 1, ring.nvars, 0, start)[0]
    assert np.array_equal(got.T, expect[start])
    if ring.nvars:
        with pytest.raises(KeyError):
            ring.multiset_indices(1, 1, ring.nvars, 0, [ring.size - 1])


@pytest.mark.parametrize("ring", _INDEX_RINGS, ids=repr)
def test_degree_shift_matches_brute_force(ring):
    # the block (d - 1, 1) of a product with the linear x_v, the one table
    # product per degree of K's Neumann series, moves the coefficient of each
    # monomial m of degree d - 1 to m x_v
    index = {tuple(int(d) for d in m): k for k, m in enumerate(ring.monos)}
    c = (1 + np.arange(ring.size)) * (1 + 1j)
    for v in range(ring.nvars):
        x = np.eye(1, 1 + ring.nvars, 1 + v, dtype=complex)  # x_v by its coefficients of degree <= 1
        for d in range(1, ring.order + 1):
            got = ring._matmul(c[None, None], x[None], [(d - 1, 1, 1)])[0, 0]
            expect = np.zeros(ring.size, dtype=complex)
            for k in np.flatnonzero(ring.degree == d - 1):
                up = tuple(int(e) + (w == v) for w, e in enumerate(ring.monos[k]))
                expect[index[up]] = c[k]
            assert np.array_equal(got, expect)
    if ring.order:
        # the degree-1 monomials are the variables, in order: x_v is monomial 1 + v
        assert np.array_equal(ring.monos[1 : 1 + ring.nvars], np.eye(ring.nvars, dtype=int))


@pytest.mark.parametrize("ring", _INDEX_RINGS, ids=repr)
def test_lower_orders_are_prefixes(ring):
    for order in range(ring.order + 1):
        low = shared_ring(ring.nvars, order)
        assert np.array_equal(low.monos, ring.monos[: low.size])
        assert np.array_equal(low.dfact, ring.dfact[: low.size])
    # the monomials in the first k variables, in the order of a ring of k
    for k in range(1, ring.nvars + 1, max(1, ring.nvars // 4)):
        sub = JetRing(k, ring.order)
        lead = ring.leading(k, ring.order)
        assert np.array_equal(ring.monos[lead, :k], sub.monos)
        assert not ring.monos[lead, k:].any()


def test_slot_tuple_indices_are_lexicographic():
    # every ordered tuple: the column tuples of the one row of a 1 x 3 matrix
    ring = JetRing(3, 3)
    idx = ring.multiset_indices(2, 1, 3)
    expect = [ring.index_of(np.bincount([a, b], minlength=3)) for a in range(3) for b in range(3)]
    assert idx[0].tolist() == expect
    assert ring.multiset_indices(2, 1, 3) is idx  # cached on the ring
    assert ring.multiset_indices(0, 1, 3)[0].tolist() == [0]
    assert ring.multiset_indices(1, 1, 2, 1)[0].tolist() == [2, 3]
    with pytest.raises(KeyError):
        ring.multiset_indices(4, 1, 3)


def test_multiset_indices_read_sorted_row_tuples():
    # a 3 x 2 matrix of variables 1 ... 6 in a ring of 7
    ring = JetRing(7, 3)
    rows, weights = sorted_tuples(3, 2)
    assert rows.tolist() == [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]]
    assert weights.tolist() == [1, 2, 2, 1, 2, 1]
    assert sorted_tuples(3, 0)[1].tolist() == [1]

    def index(extra, a, b, i, j):
        return ring.index_of(ring.monos[extra] + np.bincount([1 + 2 * a + i, 1 + 2 * b + j], minlength=7))

    idx = ring.multiset_indices(2, 3, 2, first=1)
    assert idx.tolist() == [[index(0, a, b, i, j) for i in range(2) for j in range(2)] for a, b in rows]
    assert ring.multiset_indices(2, 3, 2, first=1) is idx  # cached on the ring
    assert ring.multiset_indices(0, 3, 2).tolist() == [[0]]
    # with ``start`` the monomials m run along a third axis
    start = np.flatnonzero(ring.degree <= 1)
    got = ring.multiset_indices(2, 3, 2, first=1, start=start)
    expect = [[[index(m, a, b, i, j) for m in start] for i in range(2) for j in range(2)] for a, b in rows]
    assert got.tolist() == expect
    with pytest.raises(KeyError):
        ring.multiset_indices(2, 3, 2, first=1, start=[ring.size - 1])
    with pytest.raises(KeyError):
        ring.multiset_indices(4, 3, 2)


def test_check_memory_estimates_before_allocating():
    check_memory(40, 2, 1000)
    # C(133, 5) ~ 3.3e8 table pairs at 40 bytes each
    with pytest.raises(RangeError, match="budget"):
        check_memory(64, 5)
    with pytest.raises(RangeError, match="budget"):
        check_memory(2, 2, MEMORY_BUDGET)
    with pytest.raises(RangeError):
        JetRing(64, 5)
    with pytest.raises(ValueError):
        check_memory(-1, 2)


def test_mult_table_of_associativity_ring():
    # a pair of monomials with summed degree <= N is one monomial in 2n
    # variables of degree <= N, so the table of JetRing(n, N) has
    # C(2n + N, N) pairs; JetRing(16, 3) is the (p, q, N) = (2, 2, 3)
    # associativity ring
    for nvars, order in [(0, 2), (2, 0), (3, 3), (5, 2), (16, 3)]:
        ring = JetRing(nvars, order).warm()
        assert ring.size == comb(nvars + order, order)
        assert len(ring._table[0]) == comb(2 * nvars + order, order)
    assert (comb(16 + 3, 3), comb(2 * 16 + 3, 3)) == (969, 6_545)


def _brute_force_product(ring, c1, c2):
    """c1 * c2 summed over every valid pair of the brute-force table."""
    out = np.zeros(ring.size, dtype=complex)
    for i, j, k in _brute_force_table(ring):
        out[k] += c1[i] * c2[j]
    return out


def _factor(ring, kind, rng):
    """A random coefficient vector occupying only the degrees ``kind`` names."""
    c = rng.standard_normal(ring.size) + 1j * rng.standard_normal(ring.size)
    if kind == "zero":
        keep = np.zeros(ring.size, dtype=bool)
    elif kind == "constant":
        keep = ring.degree == 0
    elif kind == "affine":
        keep = ring.degree <= 1
    elif kind.startswith("degree "):
        keep = ring.degree == int(kind.split()[1])
    else:
        keep = np.ones(ring.size, dtype=bool)
    return np.where(keep, c, 0)


_KINDS = ["zero", "constant", "affine", "degree 1", "degree 2", "full"]
_RINGS = [JetRing(3, 3), JetRing(8, 2), JetRing(2, 0), JetRing(0, 2)]


@pytest.mark.parametrize("ring", _RINGS, ids=repr)
def test_block_product_matches_brute_force(ring):
    rng = np.random.default_rng(11)
    for kind1, kind2 in itertools.product(_KINDS, repeat=2):
        c1, c2 = _factor(ring, kind1, rng), _factor(ring, kind2, rng)
        expect = _brute_force_product(ring, c1, c2)
        got = ring.multiply(c1, c2)
        assert np.allclose(got, expect, rtol=0, atol=1e-12 * max(1.0, np.abs(expect).max())), (kind1, kind2)


@pytest.mark.parametrize("ring", _RINGS, ids=repr)
def test_matrix_product_matches_brute_force(ring):
    # entries of mixed degree ranges, so the rectangle spans several kinds
    rng = np.random.default_rng(12)
    for kinds_a, kinds_b in [
        (["affine", "constant", "zero", "degree 1"], ["full", "degree 2", "full", "constant", "zero", "full"]),
        (["full", "degree 2", "full", "full"], ["constant", "constant", "zero", "constant", "constant", "constant"]),
    ]:
        A = np.array([_factor(ring, k, rng) for k in kinds_a]).reshape(2, 2, ring.size)
        B = np.array([_factor(ring, k, rng) for k in kinds_b]).reshape(2, 3, ring.size)
        got = MatrixJet(ring, A) @ MatrixJet(ring, B)
        for i in range(2):
            for j in range(3):
                expect = sum(_brute_force_product(ring, A[i, k], B[k, j]) for k in range(2))
                assert np.allclose(got[i, j].coeffs, expect, rtol=0, atol=1e-12 * max(1.0, np.abs(expect).max()))


def test_products_on_a_shared_ring_keep_their_results():
    ring = shared_ring(3, 3)
    rng = np.random.default_rng(13)
    c1, c2, c3, c4 = (_factor(ring, "full", rng) for _ in range(4))
    first = ring.multiply(c1, c2)
    kept = first.copy()
    A = MatrixJet(ring, np.array([c1, c2, c3, c4]).reshape(2, 2, ring.size))
    P = A @ A
    kept_P = P.coeffs.copy()
    ring.multiply(c3, c4)
    A @ MatrixJet.identity(ring, 2).scale(2.0)
    assert np.array_equal(first, kept)
    assert np.array_equal(P.coeffs, kept_P)


def test_mat_inverse_of_full_matrix_in_associativity_ring():
    # the shape of star_jet_series's ring, with a matrix of every degree
    nz, order = 4, 2
    ring = JetRing(2 * nz, order)
    rng = np.random.default_rng(14)
    coeffs = rng.standard_normal((3, 3, ring.size)) + 1j * rng.standard_normal((3, 3, ring.size))
    M = MatrixJet(ring, coeffs) + MatrixJet.identity(ring, 3).scale(4.0)
    X = mat_inverse(M)
    identity = MatrixJet.identity(ring, 3)
    scale = M.max_abs() * X.max_abs()
    assert (M @ X - identity).max_abs() / scale < 1e-12
    assert (X @ M - identity).max_abs() / scale < 1e-12


def test_shared_ring_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(grastar.jets, "_rings", {})
    ring = shared_ring(1, 0)
    assert shared_ring(1, 0) is ring
    for order in range(1, 20):
        shared_ring(1, order)
    assert list(grastar.jets._rings) == [(1, order) for order in range(12, 20)]
    # the oldest shape was evicted and is built afresh
    assert shared_ring(1, 0) is not ring


def test_ring_nbytes_counts_what_it_builds():
    # held follows every build and every kept part; nbytes recounts them
    ring = JetRing(4, 3)
    maps = ring.nbytes
    assert maps == sum(a.nbytes for a in (ring._up, ring._parent, ring._last, ring.degree, ring.dfact))
    assert ring.held == maps
    ring.warm()
    table = sum(a.nbytes for a in ring._table) + ring._offsets.nbytes + ring._targets.nbytes
    assert ring.nbytes == ring.held == maps + table
    idx = ring.multiset_indices(2, 2, 2)
    # the one gather of orders 0 ... 3 with its weights, of which the
    # indices of one order are a view
    gather, weights, _, _ = ring.multiset_gather(2, 2)
    assert gather.size == weights.size == 1 + 2 * 2 + 3 * 4 + 4 * 8 and np.shares_memory(idx, gather)
    built = maps + table + gather.nbytes + weights.nbytes
    assert ring.nbytes == ring.held == built
    ring.monos
    assert ring.nbytes == ring.held == built + ring.monos.nbytes
    # a kept part replaces what was kept under its key; a kept ring counts whole
    small = JetRing(2, 2).warm()
    ring.keep("part", (small, np.zeros(5)))
    assert ring.nbytes == ring.held == built + ring.monos.nbytes + small.nbytes + 40
    ring.keep("part", (np.zeros(2),))
    assert ring.nbytes == ring.held == built + ring.monos.nbytes + 16


def test_table_multiply_allocates_only_its_result():
    ring = JetRing(6, 6).warm()
    rng = np.random.default_rng(6)
    c1 = rng.standard_normal(ring.size) + 1j * rng.standard_normal(ring.size)
    c2 = rng.standard_normal(ring.size) + 1j * rng.standard_normal(ring.size)
    expect = ring.multiply(c1, c2)
    tracemalloc.start()
    try:
        got = ring.multiply(c1, c2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expect)
    # the result is 16 bytes per monomial; one product per pair would be 16 per pair
    assert len(ring._table[0]) > 10 * ring.size
    assert peak < 2 * 16 * ring.size


def test_var_at_order_zero_is_constant():
    ring = JetRing(2, 0)
    x = ring.var(1, 2.5)
    assert ring.size == 1
    assert x.value() == 2.5


def test_var_out_of_range():
    ring = JetRing(2, 2)
    with pytest.raises(RangeError):
        ring.var(2)


def test_ring_freed_without_cyclic_gc():
    # a ring, with its table and work buffers, must not wait for a cyclic
    # collection
    gc.disable()
    try:
        ring = JetRing(4, 3).warm()
        ref = weakref.ref(ring)
        del ring
        assert ref() is None
    finally:
        gc.enable()
