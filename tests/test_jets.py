"""Jet arithmetic: truncated Taylor expansions and matrix routines."""

import gc
import itertools
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest

from grastar.errors import ConvergenceError, RangeError
from grastar.geometry import PointZ, SpaceConfig, holomorphic_jet_point, sample_point
from grastar.jets import (
    Jet,
    JetRing,
    MatrixJet,
    extract_partial,
    mat_inverse,
    shared_ring,
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
    index = {tuple(int(d) for d in m): k for k, m in enumerate(ring.monos)}
    return {
        (i, j, index[tuple(int(d) for d in mi + mj)])
        for i, mi in enumerate(ring.monos)
        for j, mj in enumerate(ring.monos)
        if tuple(int(d) for d in mi + mj) in index
    }


@pytest.mark.parametrize(
    "ring",
    [JetRing(3, 3), JetRing(8, 2), JetRing(2, 0), JetRing(0, 2)],
    ids=repr,
)
def test_mult_table_matches_brute_force(ring):
    ti, tj, tk = ring.warm()._table
    triples = set(zip(ti.tolist(), tj.tolist(), tk.tolist()))
    assert len(triples) == len(ti)
    assert triples == _brute_force_table(ring)


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


def test_shared_ring_cache_is_bounded():
    ring = shared_ring(1, 0)
    assert shared_ring(1, 0) is ring
    for order in range(1, 20):
        shared_ring(1, order)
    info = shared_ring.cache_info()
    assert info.currsize <= info.maxsize == 8
    # the oldest shape was evicted and is built afresh
    assert shared_ring(1, 0) is not ring


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
    # a ring, with its table, shift map and work buffers, must not wait for
    # a cyclic collection
    gc.disable()
    try:
        ring = JetRing(4, 3).warm()
        ring.degree_shift()
        ref = weakref.ref(ring)
        del ring
        assert ref() is None
    finally:
        gc.enable()
