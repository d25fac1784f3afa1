"""Commuting symmetric group / linear group actions on tensor powers."""

from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np
import pytest

from grastar.center import CentralElement, c_power_element, s_coeffs
from grastar.errors import RangeError
from grastar.partitions import (
    Frame,
    Permutation,
    class_size,
    conj_classes_of,
    cycle_type,
    dim_gl,
    dim_symmetric,
    partitions_of,
    permutations_of,
)
from grastar.tensor_action import (
    TensorOperator,
    d_power,
    frobenius_trace,
    perm_index_map,
    power_traces,
    projector,
    rho_central,
    rho_perm,
    schur_character,
)


def test_rho_is_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(5):
        sigma = Permutation(tuple(rng.permutation(4)))
        tau = Permutation(tuple(rng.permutation(4)))
        left = rho_perm(sigma, 2) @ rho_perm(tau, 2)
        right = rho_perm(sigma * tau, 2)
        assert left == right


def test_rho_of_swap_on_basis():
    # swap of two slots sends e_0 x e_1 to e_1 x e_0
    swap = rho_perm(Permutation((1, 0)), 2)
    vec = np.zeros(4)
    vec[0 * 2 + 1] = 1.0
    out = swap.to_complex().entries @ vec
    assert out[1 * 2 + 0] == 1.0 and np.count_nonzero(out) == 1


def test_rho_commutes_with_kronecker_power():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    D = d_power(A, 3)
    for sigma in permutations_of(3):
        R = rho_perm(sigma, 2).to_complex()
        assert (R @ D).allclose(D @ R, 1e-12)


def test_projectors_exact_properties():
    for s in (1, 2, 3):
        for r in (2, 3):
            frames = partitions_of(r)
            projs = [projector(f, s) for f in frames]
            total = TensorOperator.zero(s, r)
            for f, P in zip(frames, projs):
                assert P @ P == P
                tr = P.trace()
                assert tr == dim_symmetric(f) * dim_gl(f, s)
                if f.num_rows > s:
                    assert P == TensorOperator.zero(s, r)
                total = total + P
            assert total == TensorOperator.identity(s, r)
            for (P1, P2) in combinations(projs, 2):
                assert P1 @ P2 == TensorOperator.zero(s, r)


def test_rho_central_linearity():
    r, s = 3, 2
    alpha = conj_classes_of(r)[1]
    u = CentralElement.class_sum(alpha)
    direct = TensorOperator.zero(s, r)
    for sigma in permutations_of(r):
        if cycle_type(sigma) == alpha:
            direct = direct + rho_perm(sigma, s)
    assert rho_central(u, s) == direct


def test_central_inverse_is_identity_operator():
    # at r = 4 the class numerators of c = (10^6 + 3)/7 pass 2^63
    for s in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for c in (Fraction(7, 2), Fraction(10**6 + 3, 7)):
                u = rho_central(c_power_element(r, c), s)
                v = rho_central(CentralElement(r, s_coeffs(r, c)), s)
                assert u @ v == TensorOperator.identity(s, r)


def test_frobenius_power_trace_identity():
    rng = np.random.default_rng(7)
    for r in (2, 3, 4):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        traces = power_traces(A, r)
        for sigma in permutations_of(r):
            expect = 1.0 + 0j
            for k, mult in enumerate(cycle_type(sigma).alpha, start=1):
                expect *= traces[k - 1] ** mult
            got = frobenius_trace(A, sigma)
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


def bialternant(rows, xs):
    """Schur polynomial at eigenvalues xs by the determinant ratio."""
    s = len(xs)
    rows = list(rows) + [0] * (s - len(rows))
    num = np.array(
        [[x ** (rows[j] + s - 1 - j) for j in range(s)] for x in xs], dtype=complex
    )
    den = np.array([[x ** (s - 1 - j) for j in range(s)] for x in xs], dtype=complex)
    return np.linalg.det(num) / np.linalg.det(den)


def test_schur_character_vs_bialternant():
    xs = [1.3 + 0.2j, 0.7 - 0.5j, -1.1 + 0.9j]
    A = np.diag(xs)
    for r in range(1, 6):
        for frame in partitions_of(r):
            if frame.num_rows > 3:
                continue
            got = schur_character(frame, A)
            expect = bialternant(frame.rows, xs)
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def test_schur_character_known_value():
    # [1,1] at diag(2,3) is the elementary symmetric function e_2 = 6
    assert abs(schur_character(Frame((1, 1)), np.diag([2.0, 3.0])) - 6) < 1e-12


def test_dimension_cap():
    with pytest.raises(RangeError):
        rho_perm(Permutation.identity(7), 4)


def test_perm_index_map_matches_operator():
    sigma = Permutation((2, 0, 1))
    R = rho_perm(sigma, 3).to_complex().entries
    for src, dst in enumerate(perm_index_map(sigma, 3)):
        assert R[dst, src] == 1.0
