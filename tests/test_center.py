"""Center of the group algebra: coefficient polynomials and their inverses."""

from fractions import Fraction
from math import factorial

import pytest

from grastar.center import (
    CentralElement,
    LambdaSeries,
    RationalPoly,
    c_power_element,
    e_to_k,
    invert_central_direct,
    k_to_e,
    lambda_coefficient_series,
    multiply_central,
    s_coeffs,
    t_from_characters,
    t_poly,
    t_values_at,
)
from grastar.errors import GrastarError, PoleError
from grastar.partitions import Frame, class_size, conj_classes_of, partitions_of


def rising(y, r):
    acc = Fraction(1)
    for s in range(r):
        acc *= y + s
    return acc


def test_t_poly_equals_character_sum():
    for r in range(1, 8):
        for frame in partitions_of(r):
            assert t_poly(frame, frame.num_rows) == t_from_characters(frame)


def test_t_poly_row_cap():
    with pytest.raises(ValueError):
        t_poly(Frame((1, 1, 1)), 2)


def test_t_value_single_row_is_rising_factorial():
    for r in range(1, 7):
        c = Fraction(9, 2)
        assert t_poly(Frame((r,)), 1).eval(c) == rising(c, r)


def test_sum_of_s_coefficients():
    # weighted by class sizes the inverse coefficients sum to 1/[c]_r
    for r in range(1, 7):
        # non-integer values keep clear of the polynomial roots
        for c in (Fraction(7, 2), Fraction(-13, 3), Fraction(22, 7)):
            s = s_coeffs(r, c)
            total = sum(class_size(a) * s[a] for a in conj_classes_of(r))
            assert total == 1 / rising(c, r)


def test_s_inverts_c_power_element():
    for r in range(1, 5):
        c = Fraction(11, 4)
        u = c_power_element(r, c)
        v = CentralElement(r, s_coeffs(r, c))
        assert multiply_central(u, v) == CentralElement.identity(r)


def test_invert_central_direct_matches_s_coeffs():
    for r in range(1, 6):
        for c in (Fraction(9, 2), Fraction(-9, 5)):
            direct = invert_central_direct(r, c)
            assert direct == CentralElement(r, s_coeffs(r, c))


def test_structure_constants_vs_eigenvalue_product():
    for r in range(2, 5):
        u = c_power_element(r, Fraction(2, 3))
        v = CentralElement(r, s_coeffs(r, Fraction(5)))
        assert multiply_central(u, v, method="structure") == multiply_central(
            u, v, method="eigenvalues"
        )


def test_central_multiplication_commutes():
    r = 4
    u = c_power_element(r, Fraction(3))
    v = CentralElement(r, {a: Fraction(i + 1) for i, a in enumerate(conj_classes_of(r))})
    assert multiply_central(u, v) == multiply_central(v, u)


def test_basis_round_trip():
    for r in range(1, 6):
        u = CentralElement(
            r, {a: Fraction(2 * i - 3, 7) for i, a in enumerate(conj_classes_of(r))}
        )
        assert e_to_k(k_to_e(u), r) == u


def test_pole_error_names_frame():
    # c = 1 annihilates the polynomial of [1,1]: factors c, c-1
    with pytest.raises(PoleError) as err:
        s_coeffs(2, Fraction(1))
    assert err.value.frame == Frame((1, 1))


def test_singular_center_rejected():
    with pytest.raises((GrastarError, PoleError)):
        invert_central_direct(2, Fraction(1))


def test_t_values_at():
    vals = t_values_at(3, Fraction(2))
    assert vals[Frame((3,))] == 2 * 3 * 4
    assert vals[Frame((1, 1, 1))] == 2 * 1 * 0


def test_lambda_series_against_polynomial_identity():
    # series * prod over boxes of (mu + a*lambda) == mu^r * lambda^r, truncated
    mu = Fraction(3, 2)
    order = 6
    for r in range(1, 4):
        for frame in partitions_of(r):
            p = frame.num_rows + 1
            ser = lambda_coefficient_series(frame, mu, p, order)
            prod = LambdaSeries.constant(Fraction(1), order)
            for i, m_i in enumerate(frame.rows, start=1):
                for j in range(m_i):
                    a = Fraction(p - i + 1 + j)
                    lin = LambdaSeries(order)
                    lin.coeffs[0] = mu
                    lin.coeffs[1] = a
                    prod = prod * lin
            combined = ser * prod
            expect = [Fraction(0)] * (order + 1)
            if 2 * r <= order:
                # truncation keeps mu^r lambda^r plus tail terms above order
                expect[r] = mu**r
                assert combined.coeffs[: r + 1] == expect[: r + 1]


def test_lambda_series_leading_coefficient():
    # the series starts exactly at lambda^r with coefficient 1
    mu = Fraction(2)
    for r in range(1, 4):
        for frame in partitions_of(r):
            ser = lambda_coefficient_series(frame, mu, frame.num_rows, 5)
            assert all(ser.coeffs[k] == 0 for k in range(r))
            assert ser.coeffs[r] == 1


def test_lambda_series_known_expansions():
    # single box with p=1: mu/(mu+lambda) shifted by one
    ser = lambda_coefficient_series(Frame((1,)), Fraction(1), 1, 3)
    assert ser.coeffs == [0, 1, -1, 1]
    # two boxes in a row, p=1: factors a=1 and a=2
    ser = lambda_coefficient_series(Frame((2,)), Fraction(1), 1, 3)
    assert ser.coeffs == [0, 0, 1, -3]


def test_rational_poly_arithmetic():
    x = RationalPoly.variable()
    p = (x + RationalPoly.const(1)) * (x - RationalPoly.const(1))
    assert p.eval(Fraction(3)) == 8
    assert p == x * x - RationalPoly.const(1)
