"""The reduced star product: coefficients, evaluation, identities."""

import itertools
import tracemalloc
from fractions import Fraction
from functools import cache
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import grastar.center
import grastar.characters
import grastar.geometry
import grastar.jets
import grastar.partitions
import grastar.star
import grastar.tensor_action
from grastar.center import LambdaSeries, c_power_element, lambda_coefficient_series, t_value
from grastar.characters import character
from grastar.errors import PoleError, RangeError
from grastar.geometry import (
    FunctionExpr,
    PointZ,
    SpaceConfig,
    antiholomorphic_jet_point,
    base_chart,
    base_point,
    eval_function,
    frame,
    holomorphic_jet_point,
    level_representative,
    poisson_bracket,
    random_function_expr,
    rotate,
    sample_point,
    wick_product,
)
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
from grastar.partitions import (
    Frame,
    Permutation,
    conj_classes_of,
    cycle_type,
    dim_symmetric,
    partitions_of,
)
from grastar.star import (
    _check_memory,
    _derivative_tensors_at,
    _frames,
    _memory_terms,
    _check_poles,
    _fixed_weights,
    _isotypic_projectors,
    _series_weights,
    associativity_residuals,
    coefficient_operator,
    derivative_tensor,
    multiset_tensors,
    projective_star_eval,
    slot_coefficient_matrix,
    star_eval,
    star_jet_series,
    verify_suite,
)
from grastar.tensor_action import (
    proj_outer_power,
    proj_sandwich_power,
    proj_scalar_power,
    projector,
    rho_central,
    tensor_power,
    unsandwich,
)


def test_t_value_matches_box_description():
    # frame [2,1]: boxes contribute c, c+1, c-1
    c = Fraction(5, 3)
    assert t_value(Frame((2, 1)), c) == c * (c + 1) * (c - 1)


def test_coefficient_operator_paths_agree():
    for r in range(1, 5):
        for c in (Fraction(13, 2), Fraction(-7, 2)):
            assert coefficient_operator(r, c) == coefficient_operator(
                r, c, method="classes"
            )


def test_coefficient_operator_pole():
    with pytest.raises(PoleError):
        coefficient_operator(2, Fraction(1))


def test_derivative_tensor_on_polynomial():
    # f = tr(B Pi) for p = 1: gradient against an explicit finite difference
    cfg = SpaceConfig(1, 1, Fraction(1))
    z = sample_point(cfg, 0)
    rng = np.random.default_rng(0)
    f = random_function_expr(cfg, rng)
    from grastar.geometry import holomorphic_jet_point

    ring, Z, Zbar = holomorphic_jet_point(z, 2)
    jf = eval_function(f, Z, Zbar)
    DF1 = derivative_tensor(jf, cfg.n, cfg.p, 1)
    h = 1e-6
    for A in range(cfg.n):
        dz = z.z.copy()
        dz[A, 0] += h
        plus = eval_function(f, dz, z.zbar)
        dz[A, 0] -= 2 * h
        minus = eval_function(f, dz, z.zbar)
        fd = (plus - minus) / (2 * h)
        assert abs(DF1[A, 0] - fd) < 1e-6


def _derivative_tensor_reference(jet, n, p, r):
    """One extract_partial per slot tuple; slot A*p + i is matrix entry (A, i)."""
    out = np.zeros((n**r, p**r), dtype=complex)
    for tup in itertools.product(range(n * p), repeat=r):
        md = [0] * jet.ring.nvars
        a = i = 0
        for s in tup:
            md[s] += 1
            a = a * n + s // p
            i = i * p + s % p
        out[a, i] = extract_partial(jet, md)
    return out


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1)])
def test_derivative_tensor_matches_per_tuple_reference(p, q):
    cfg = SpaceConfig(p, q, Fraction(1))
    z = sample_point(cfg, 3)
    f = random_function_expr(cfg, np.random.default_rng(3))
    _, Z, Zbar = holomorphic_jet_point(z, 3)
    jf = eval_function(f, Z, Zbar)
    for r in range(4):
        D = derivative_tensor(jf, cfg.n, p, r)
        assert D.shape == (cfg.n**r, p**r)
        assert np.array_equal(D, _derivative_tensor_reference(jf, cfg.n, p, r))
    assert D.any()
    # beyond the truncation: the slot-tuple monomials of degree r > order
    _, Z1, Zbar1 = holomorphic_jet_point(z, 1)
    j1 = eval_function(f, Z1, Zbar1)
    for r in (2, 3):
        with pytest.raises(KeyError):
            derivative_tensor(j1, cfg.n, p, r)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_multiset_tensors_are_rows_of_the_full_tensor(p, q):
    # for every permutation sigma of the r positions, row sigma A of the
    # full tensor is the sorted row A with its column slots permuted by sigma
    cfg = SpaceConfig(p, q, Fraction(1))
    n = cfg.n
    f = random_function_expr(cfg, np.random.default_rng(p + 3 * q))
    _, Z, Zbar = holomorphic_jet_point(sample_point(cfg, p + 3 * q), 4)
    jf = eval_function(f, Z, Zbar)
    for r, D in enumerate(multiset_tensors(jf, n, p, 4)):
        full = derivative_tensor(jf, n, p, r)
        rows, weights = sorted_tuples(n, r)
        assert D.shape == (len(rows), p**r)
        assert weights.sum() == n**r
        cols = np.array(list(itertools.product(range(p), repeat=r)), dtype=int).reshape(p**r, r)
        for A, row in zip(rows, D):
            for sigma in map(list, itertools.permutations(range(r))):
                a = np.ravel_multi_index(A[sigma], (n,) * r) if r else 0
                I = np.ravel_multi_index(cols[:, sigma].T, (p,) * r) if r else [0]
                assert np.array_equal(full[a, I], row)
    assert D.any()


def _full_tensors(jet, n, p, order):
    return [derivative_tensor(jet, n, p, r) for r in range(order + 1)]


def _oracle_series_matrices(r, p, mu, order):
    """The lambda^r ... lambda^order coefficients of the order-r element.

    Read from the oracle projectors, weighted by ``lambda_coefficient_series``.
    """
    return [
        _projector_sum(
            r, p, lambda frame: float(lambda_coefficient_series(frame, mu, p, order).coeffs[t])
        )
        for t in range(r, order + 1)
    ]


def _reference_series(DFs, DGs, p, mu, order):
    """The formal series paired over every row tuple."""
    out = np.zeros(order + 1, dtype=complex)
    for r in range(order + 1):
        gram = DFs[r].T @ DGs[r]
        for t, M in enumerate(_oracle_series_matrices(r, p, Fraction(mu), order), start=r):
            out[t] += np.sum(M * gram) / factorial(r)
    return out


def _reference_star_eval(f, g, cfg, z, order, lam=None):
    """star_eval with the full tensors of ``derivative_tensor``, every row tuple read.

    g is read at ``antiholomorphic_jet_point``, from its own chart, and not
    as the conjugate of g.conjugate() at the holomorphic point as star_eval
    reads it, so that this reference checks that identity too.
    """
    n, p, mu = cfg.n, cfg.p, Fraction(cfg.mu)
    zeta = level_representative(z, mu)
    tensors = []
    for point, fn in ((holomorphic_jet_point, f), (antiholomorphic_jet_point, g)):
        _, Z, Zbar = point(zeta, order)
        tensors.append(_full_tensors(eval_function(fn, Z, Zbar), n, p, order))
    DFs, DGs = tensors
    if lam is None:
        return _reference_series(DFs, DGs, p, mu, order)
    c = mu / lam + p if isinstance(lam, Fraction) else complex(mu) / lam + p
    mats = [
        _projector_sum(r, p, lambda frame: complex(mu**r / t_value(frame, c)))
        for r in range(order + 1)
    ]
    return sum(complex(np.sum(C * (DFs[r].T @ DGs[r]))) / factorial(r) for r, C in enumerate(mats))


def _reference_star_jet_series(f, g, zeta0, cfg, order, outer_holomorphic):
    """star_jet_series with every (row tuple, column tuple) of inner slots read."""
    n, p = cfg.n, cfg.p
    nz = n * p
    mu = Fraction(cfg.mu)
    slots = np.arange(nz).reshape(n, p)
    R_out, total = shared_ring(nz, order), shared_ring(2 * nz, order)
    zeta = MatrixJet.from_numeric(total, zeta0.z)
    Zbpt = MatrixJet.from_numeric(total, zeta0.zbar)
    if outer_holomorphic:
        zeta = zeta + MatrixJet.variables(total, slots)
    else:
        Zbpt = Zbpt + MatrixJet.variables(total, slots.T)
    zetabar = mat_inverse(Zbpt @ zeta).scale(float(mu)) @ Zbpt
    jf = eval_function(f, zeta + MatrixJet.variables(total, nz + slots), zetabar)
    jg = eval_function(g, zeta, zetabar + MatrixJet.variables(total, nz + slots.T))
    out = [np.zeros(R_out.size, dtype=complex) for _ in range(order + 1)]
    for r in range(order + 1):
        outer = total.leading(nz, order - r)
        tidx = total.multiset_indices(r, 1, nz, nz, outer)[0]
        w_in = R_out.dfact[R_out.multiset_indices(r, 1, nz)[0]][:, None]
        # (slot tuple, outer monomial) -> (row tuple, column tuple, outer monomial)
        axes = tuple(range(0, 2 * r, 2)) + tuple(range(1, 2 * r, 2)) + (2 * r,)
        DF, DG = (
            (jet.coeffs[tidx] * w_in).reshape((n, p) * r + (-1,)).transpose(axes).reshape(n**r, p**r, -1)
            for jet in (jf, jg)
        )
        for t, M in enumerate(_oracle_series_matrices(r, p, mu, order), start=r):
            ring = shared_ring(nz, order - t)
            k = ring.size
            for A in range(n**r):
                for I in range(p**r):
                    MG = M[I] @ DG[A, :, :k]
                    out[t][:k] += ring.multiply(DF[A, I, :k], MG) / factorial(r)
    return out


def _reference_associations(f, g, h, cfg, z, order):
    """(f*g)*h and f*(g*h) per lambda order, from the full tensors.

    The third factor h of the left association is read at
    ``antiholomorphic_jet_point``, independently of the one chart from
    which associativity_residuals reads h.conjugate() and f.
    """
    n, p = cfg.n, cfg.p
    zeta0 = level_representative(z, cfg.mu)

    def associate(a, b, c, left):
        ab = _reference_star_jet_series(a, b, zeta0, cfg, order, outer_holomorphic=left)
        _, Z, Zbar = (antiholomorphic_jet_point if left else holomorphic_jet_point)(zeta0, order)
        DC = _full_tensors(eval_function(c, Z, Zbar), n, p, order)
        out = np.zeros(order + 1, dtype=complex)
        for s in range(order + 1):
            D = _full_tensors(Jet(shared_ring(n * p, order), ab[s]), n, p, order)
            ser = _reference_series(D, DC, p, cfg.mu, order) if left else _reference_series(DC, D, p, cfg.mu, order)
            out[s:] += ser[: order + 1 - s]
        return out

    return associate(f, g, h, True), associate(g, h, f, False)


def _close(got, want, rel=1e-12):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("p,q,order", [(1, 2, 4), (2, 1, 5), (2, 2, 3), (3, 1, 4)])
def test_star_eval_matches_full_tensor_reference(p, q, order):
    cfg = SpaceConfig(p, q, Fraction(3, 2))
    rng = np.random.default_rng(10 * p + q)
    z = sample_point(cfg, 10 * p + q)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    assert _close(star_eval(f, g, cfg, z, order).coeffs, _reference_star_eval(f, g, cfg, z, order))
    for lam in (Fraction(1, 10), Fraction(-2, 7), 0.05 + 0.2j):
        got = star_eval(f, g, cfg, z, order, lam=lam)
        assert _close(got, _reference_star_eval(f, g, cfg, z, order, lam=lam))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (2, 2)])
def test_star_eval_reads_long_terms_and_constants_off_the_chart(p, q):
    # terms of three and four generators raise the chart's degree D in K to
    # 3 and 4, a factor of constants alone has D = 0, and an order below D
    # (order 0 among them) truncates K's monomials at the order
    cfg = SpaceConfig(p, q, Fraction(3, 2))
    n = cfg.n
    rng = np.random.default_rng(30 + 10 * p + q)
    z = sample_point(cfg, 30 + 10 * p + q)

    def gen():
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n

    three = FunctionExpr([(0.7 - 0.2j, [gen(), gen(), gen()]), (0.5, [gen()]), (-1.0, [])])
    four = FunctionExpr([(1j, [gen(), gen(), gen(), gen()]), (0.3, [gen(), gen()])])
    const = FunctionExpr.constant(2 - 1j)
    for f, g in ((three, four), (four, three), (const, four), (three, const)):
        for order in range(5):
            want = _reference_star_eval(f, g, cfg, z, order)
            assert _close(star_eval(f, g, cfg, z, order).coeffs, want), order
            for lam in (Fraction(1, 10), 0.05 + 0.2j):
                want = _reference_star_eval(f, g, cfg, z, order, lam=lam)
                assert _close(star_eval(f, g, cfg, z, order, lam=lam), want), (order, lam)


@pytest.mark.parametrize("outer_holomorphic", [True, False])
@pytest.mark.parametrize("p,q,order", [(2, 1, 3), (1, 2, 3), (2, 2, 2), (1, 1, 5), (2, 1, 4)])
def test_star_jet_series_matches_full_tensor_reference(p, q, order, outer_holomorphic):
    # the series runs at the base point, its factors given in its frame.  Its
    # chart carries sqrt(mu), which mu = 1 alone would not see, and a g with
    # a term of three generators has degree up to 6 in K_O, cut at the order
    for mu in (Fraction(2), Fraction(3, 2), Fraction(2, 5)):
        cfg = SpaceConfig(p, q, mu)
        n = cfg.n
        rng = np.random.default_rng(p + 5 * q)
        f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
        gens = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n for _ in range(3)]
        long = g + FunctionExpr([(0.6 - 0.3j, gens)])
        for second in (g, long):
            if outer_holomorphic:
                got = [jet.coeffs for jet in star_jet_series(f, second, cfg, order)[1]]
            else:
                # the antiholomorphic jets of f*g are the conjugates of the holomorphic ones of gbar*fbar
                _, jets = star_jet_series(second.conjugate(), f.conjugate(), cfg, order)
                got = [jet.coeffs.conj() for jet in jets]
            want = _reference_star_jet_series(f, second, base_point(cfg), cfg, order, outer_holomorphic)
            assert _close(np.array(got), np.array(want)), mu


@pytest.mark.parametrize("p,q,order", [(2, 1, 3), (1, 2, 3), (2, 2, 2)])
def test_associativity_matches_full_tensor_reference(p, q, order):
    # the residuals are rounding errors of the two associations; both
    # routes must leave them within 1e-12 of the associated values.  The
    # reference reads every factor at the level representative of z, the
    # product in the frame of z at the base point, whose chart carries
    # sqrt(mu): mu = 1 alone would not see it
    for mu in (Fraction(1), Fraction(3, 2), Fraction(2, 5)):
        cfg = SpaceConfig(p, q, mu)
        rng = np.random.default_rng(7 * p + q)
        z = sample_point(cfg, 7 * p + q)
        f, g, h = (random_function_expr(cfg, rng) for _ in range(3))
        left, right = _reference_associations(f, g, h, cfg, z, order)
        scale = np.max(np.abs(left))
        want = np.abs(left - right)
        got = np.array(associativity_residuals(f, g, h, cfg, z, order))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, mu
        assert np.max(got) <= 1e-12 * scale, mu


def test_unit_element():
    cfg = SpaceConfig(2, 2, Fraction(2))
    z = sample_point(cfg, 1)
    rng = np.random.default_rng(1)
    f = random_function_expr(cfg, rng)
    one = FunctionExpr.one()
    zeta = level_representative(z, cfg.mu)
    fz = eval_function(f, zeta)
    for left, right in ((one, f), (f, one)):
        s = star_eval(left, right, cfg, z, 3)
        assert abs(s.coeffs[0] - fz) < 1e-12
        assert all(abs(a) < 1e-12 for a in s.coeffs[1:])


def test_projective_closed_form_matches_engine():
    for q in (1, 2):
        cfg = SpaceConfig(1, q, Fraction(2))
        rng = np.random.default_rng(q)
        z = sample_point(cfg, 10 + q)
        f = random_function_expr(cfg, rng)
        g = random_function_expr(cfg, rng)
        a = star_eval(f, g, cfg, z, 4)
        b = projective_star_eval(f, g, cfg, z, 4)
        assert max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) < 1e-11


def test_order_zero_is_pointwise_product():
    cfg = SpaceConfig(2, 1, Fraction(2))
    z = sample_point(cfg, 6)
    rng = np.random.default_rng(6)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    expect = eval_function(f, z) * eval_function(g, z)
    series = star_eval(f, g, cfg, z, 0)
    assert len(series.coeffs) == 1
    assert abs(series.coeffs[0] - expect) < 1e-12
    assert abs(star_eval(f, g, cfg, z, 0, lam=Fraction(1, 7)) - expect) < 1e-12


def _well_conditioned(rng, p):
    """U diag(s) V with unitary U, V and singular values s in [1/2, 2]."""
    U, V = (
        np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))[0]
        for _ in range(2)
    )
    return U @ np.diag(rng.uniform(0.5, 2.0, p)) @ V


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(1, 2),
    q=st.integers(1, 2),
    order=st.integers(0, 3),
    mu=st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=4),
    seed=st.integers(0, 2**16),
)
def test_star_eval_invariant_under_gl(p, q, order, mu, seed):
    # z and z g are the same point of the Grassmannian
    cfg = SpaceConfig(p, q, mu)
    rng = np.random.default_rng(seed)
    z = sample_point(cfg, seed)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    moved = PointZ(z.z @ _well_conditioned(rng, p))
    a = star_eval(f, g, cfg, z, order).coeffs
    b = star_eval(f, g, cfg, moved, order).coeffs
    assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-10 * max(abs(x) for x in a)
    lam = Fraction(1, 7)
    fixed = star_eval(f, g, cfg, z, order, lam=lam)
    assert abs(star_eval(f, g, cfg, moved, order, lam=lam) - fixed) <= 1e-10 * abs(fixed)


def test_fixed_lambda_consistent_with_series():
    cfg = SpaceConfig(2, 1, Fraction(1))
    z = sample_point(cfg, 2)
    rng = np.random.default_rng(2)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    series = star_eval(f, g, cfg, z, 4)
    lam = Fraction(1, 100)
    fixed = star_eval(f, g, cfg, z, 4, lam=lam)
    resummed = sum(c * float(lam) ** k for k, c in enumerate(series.coeffs))
    assert abs(fixed - resummed) < 1e-9  # they differ by the lambda^5 tail


def _assert_pole_first_at(order, lam, frame, c):
    cfg = SpaceConfig(2, 1, Fraction(1))
    z = sample_point(cfg, 3)
    f = FunctionExpr.one()
    star_eval(f, f, cfg, z, order - 1, lam=lam)
    with pytest.raises(PoleError) as exc:
        star_eval(f, f, cfg, z, order, lam=lam)
    assert (exc.value.frame, exc.value.c_value) == (frame, c)


def test_fixed_lambda_pole():
    # lambda = -mu gives c = p - 1 = 1, killing the [1,1] polynomial at order 2
    _assert_pole_first_at(2, Fraction(-1), Frame((1, 1)), Fraction(1))


def test_fixed_lambda_pole_first_at_order_three():
    # c = -2 kills the box of content 2, first met in the frame [3]
    _assert_pole_first_at(3, Fraction(-1, 4), Frame((3,)), Fraction(-2))


def _first_pole_by_frame_scan(p, c, order):
    """The first frame, by weight <= order, with at most p rows whose t_[m](c) vanishes."""
    for r in range(1, order + 1):
        for frame in partitions_of(r):
            if frame.num_rows <= p and t_value(frame, c) == 0:
                return frame
    return None


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_pole_rule_matches_frame_scan(p):
    # c = -e for a Jucys-Murphy content e is a pole, named by the frame in
    # which e first occurs; the scan over frames finds the same one
    grid = [Fraction(k) for k in range(-10, 11)] + [Fraction(-5, 2), Fraction(1, 3)]
    grid += [complex(k) for k in (-4, -1, 0, 3)] + [complex(-2, 1e-9), -2.5 + 0j]
    poles = 0
    for order in range(10):
        for c in grid:
            frame = _first_pole_by_frame_scan(p, c, order)
            if frame is None:
                _check_poles(p, c, order)
                continue
            poles += 1
            with pytest.raises(PoleError) as exc:
                _check_poles(p, c, order)
            assert exc.value.frame == frame and exc.value.c_value == c
    assert poles > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_lambda_beyond_order_twelve_matches_closed_form(seed):
    # no frame of weight 24 is enumerated: the pole check reads contents
    cfg = SpaceConfig(1, 1, Fraction(1))
    rng = np.random.default_rng(seed)
    z = sample_point(cfg, seed)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    lam = Fraction(1, 10)
    got = star_eval(f, g, cfg, z, 24, lam=lam)
    assert abs(got - projective_star_eval(f, g, cfg, z, 24, lam=lam)) < 1e-11


def test_shape_mismatch_rejected():
    cfg = SpaceConfig(2, 1, Fraction(1))
    rng = np.random.default_rng(5)
    f = random_function_expr(cfg, rng)
    z = sample_point(cfg, 5)
    wide = sample_point(SpaceConfig(1, 2), 5)
    with pytest.raises(ValueError, match="point has shape"):
        star_eval(f, f, cfg, wide, 1)
    small = random_function_expr(SpaceConfig(1, 1), rng)
    with pytest.raises(ValueError, match="point has shape"):
        associativity_residuals(f, f, f, cfg, wide, 1)
    for left, right in ((small, f), (f, small)):
        with pytest.raises(ValueError, match="function matrix has shape"):
            star_eval(left, right, cfg, z, 1, lam=Fraction(1, 10))
    # a 4 x 4 B at (p, q) = (2, 1), in any of the three factors
    big = random_function_expr(SpaceConfig(2, 2), rng)
    for fgh in ((big, f, f), (f, big, f), (f, f, big)):
        with pytest.raises(ValueError, match="function matrix has shape"):
            associativity_residuals(*fgh, cfg, z, 1)


@pytest.mark.parametrize("p,q,order", [(1, 2, 4), (2, 2, 3), (3, 1, 4)])
def test_antiholomorphic_tensors_are_conjugates_of_the_conjugate_function(p, q, order):
    # with V the offsets, g(z, zb + V^T) and gbar(z + V, zb) have complex
    # conjugate coefficients: star_eval reads g's antiholomorphic tensors as
    # the conjugates of g.conjugate()'s holomorphic ones, from one chart at
    # the base point.  Both that production route and the generic one at
    # the holomorphic point must give the generic g at the antiholomorphic point
    cfg = SpaceConfig(p, q, Fraction(3, 2))
    n = cfg.n
    rng = np.random.default_rng(70 + 10 * p + q)
    zeta = base_point(cfg)
    gs = [random_function_expr(cfg, rng, nterms=3) + FunctionExpr.constant(0.3 - 2j)]
    gs.append(FunctionExpr.constant(0.3 - 2j))
    _, Z, Zbar = holomorphic_jet_point(zeta, order)
    gbar_jets = eval_function([g.conjugate() for g in gs], Z, Zbar)
    _, Za, Zbara = antiholomorphic_jet_point(zeta, order)
    for g, gbar_jet in zip(gs, gbar_jets):
        want = multiset_tensors(eval_function(g, Za, Zbara), n, p, order)
        generic = [D.conj() for D in multiset_tensors(gbar_jet, n, p, order)]
        # f = g: the first tensors are g's holomorphic ones, checked against the generic route too
        DFs, chart = _derivative_tensors_at(g, g.conjugate(), cfg, order)
        holomorphic = multiset_tensors(eval_function(g, Z, Zbar), n, p, order)
        for got, ref in ((generic, want), (chart, want), (DFs, holomorphic)):
            scale = max(np.max(np.abs(D)) for D in ref)
            for G, W in zip(got, ref):
                assert np.max(np.abs(G - W)) <= 1e-13 * scale


def test_star_eval_builds_one_chart(monkeypatch, k_builds):
    # f and the conjugate of g share one K, which depends on no point: a
    # cold product builds it once, a warm one at another point reads the
    # kept jets of its monomials, with no build of K and no pass over the
    # slot ring's table.  No jet is inverted, no antiholomorphic jet point
    # is made and no level representative is formed
    charts, dots = k_builds, []

    def refuse(*args):
        raise AssertionError("a second jet point, a jet inverse or a level representative on the star_eval path")

    dot = JetRing._dot
    monkeypatch.setattr(grastar.jets, "_rings", {})
    monkeypatch.setattr(JetRing, "_dot", lambda self, *args: dots.append(self.nvars) or dot(self, *args))
    monkeypatch.setattr(grastar.geometry, "mat_inverse", refuse)
    monkeypatch.setattr(grastar.star, "level_representative", refuse)
    for module in (grastar.geometry, grastar.star):
        monkeypatch.setattr(module, "antiholomorphic_jet_point", refuse, raising=False)
    cfg = SpaceConfig(2, 2, Fraction(1))
    nz = cfg.n * cfg.p
    rng = np.random.default_rng(71)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    star_eval(f, g, cfg, sample_point(cfg, 71), 3)
    assert charts == [nz] and nz in dots
    for lam in (None, Fraction(1, 10)):
        dots.clear()
        star_eval(g, f, cfg, sample_point(cfg, 72), 3, lam=lam)
        assert charts == [nz] and nz not in dots


def test_warm_star_eval_recounts_no_held_bytes(monkeypatch):
    # the memory check reads each shared ring's held bytes, kept current as
    # the ring builds or keeps something; a warm product recounts none
    cfg = SpaceConfig(2, 2)
    rng = np.random.default_rng(78)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    for order, lam in ((3, None), (2, Fraction(1, 10))):
        star_eval(f, g, cfg, sample_point(cfg, 78), order, lam=lam)
    recounts = []
    nbytes = JetRing.nbytes
    monkeypatch.setattr(JetRing, "nbytes", property(lambda self: recounts.append(1) or nbytes.fget(self)))
    for order, lam in ((3, None), (2, Fraction(1, 10))):
        star_eval(g, f, cfg, sample_point(cfg, 79), order, lam=lam)
    assert recounts == []
    monkeypatch.undo()
    assert len(grastar.jets._rings) > 1
    assert all(ring.held == ring.nbytes for ring in grastar.jets._rings.values())


def test_product_path_builds_no_jet_point(monkeypatch):
    # the chart is read at the base point off the jets kept on the ring:
    # neither a jet point nor any n x p jet matrix is formed
    def refuse(*args):
        raise AssertionError("a jet point on the star_eval path")

    for module in (grastar.geometry, grastar.star):
        monkeypatch.setattr(module, "holomorphic_jet_point", refuse, raising=False)
    monkeypatch.setattr(MatrixJet, "from_numeric", refuse)
    monkeypatch.setattr(MatrixJet, "variables", refuse)
    cfg = SpaceConfig(2, 2, Fraction(1))
    rng = np.random.default_rng(74)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    z = sample_point(cfg, 74)
    series = star_eval(f, g, cfg, z, 3)
    value = star_eval(f, g, cfg, z, 3, lam=Fraction(1, 10))
    DFs, DGs = _derivative_tensors_at(*rotate((f, g.conjugate()), frame(z)), cfg, 3)
    monkeypatch.undo()
    assert series.coeffs == star_eval(f, g, cfg, z, 3).coeffs
    assert value == star_eval(f, g, cfg, z, 3, lam=Fraction(1, 10))
    assert [D.shape for D in DFs] == [D.shape for D in DGs] == [(comb(3 + r, r), 2**r) for r in range(4)]


def test_multiset_tensors_read_every_order_in_one_gather():
    # the tensors of all orders are views of one gathered array, and the
    # indices of one order views of the ring's one concatenated index
    cfg = SpaceConfig(2, 1, Fraction(1))
    n, p, order = cfg.n, cfg.p, 4
    f = random_function_expr(cfg, np.random.default_rng(75))
    _, Z, Zbar = holomorphic_jet_point(sample_point(cfg, 75), order)
    jf = eval_function(f, Z, Zbar)
    idx, weights, bounds, views = jf.ring.multiset_gather(n, p)
    assert bounds == [0, *np.cumsum([comb(n + r - 1, r) * p**r for r in range(order + 1)])]
    assert not idx.flags.writeable and not weights.flags.writeable
    Ds = multiset_tensors(jf, n, p, order)
    base = Ds[0].base
    for r, D in enumerate(Ds):
        assert D.base is base
        assert jf.ring.multiset_indices(r, n, p) is views[r]
        assert np.shares_memory(views[r], idx)
        ridx = jf.ring.multiset_indices(r, n, p)
        assert np.array_equal(D, jf.coeffs[ridx] * jf.ring.dfact[ridx])
    # a lower order reads a prefix; beyond the truncation is a KeyError
    assert all(np.array_equal(a, b) for a, b in zip(multiset_tensors(jf, n, p, 2), Ds))
    with pytest.raises(KeyError):
        multiset_tensors(jf, n, p, order + 1)


def test_associativity_reads_its_third_factors_from_one_chart(monkeypatch, k_builds):
    charts, inverses = k_builds, []

    def counting_inverse(M):
        inverses.append(M.rows)
        return mat_inverse(M)

    def refuse(*args):
        raise AssertionError("an antiholomorphic jet point on the associativity path")

    monkeypatch.setattr(grastar.jets, "_rings", {})
    monkeypatch.setattr(grastar.geometry, "mat_inverse", counting_inverse)
    for module in (grastar.geometry, grastar.star):
        monkeypatch.setattr(module, "antiholomorphic_jet_point", refuse, raising=False)
    cfg = SpaceConfig(2, 1, Fraction(2))
    rng = np.random.default_rng(72)
    f, g, h = (random_function_expr(cfg, rng) for _ in range(3))
    assert max(associativity_residuals(f, g, h, cfg, sample_point(cfg, 72), 2)) < 1e-10
    # the third factors f and hbar, and both factors of each jet series,
    # f*g and hbar*gbar, are read off one chart of the ring of slots, whose
    # K is built once; no jet is inverted
    assert len(charts) == 1
    assert inverses == []


def test_jet_series_reads_f_on_the_ring_of_slots(monkeypatch, k_builds):
    # both factors of a jet series are polynomials in the chart coordinates
    # K_O and K of the outer and inner offsets, mapped by the jets of K's
    # monomials on the ring of n p variables: a cold check builds K once,
    # there, and no chart on any other ring
    monkeypatch.setattr(grastar.jets, "_rings", {})
    cfg = SpaceConfig(2, 1)
    nz = cfg.n * cfg.p
    rng = np.random.default_rng(76)
    f, g, h = (random_function_expr(cfg, rng) for _ in range(3))
    assert max(associativity_residuals(f, g, h, cfg, sample_point(cfg, 76), 3)) < 1e-10
    assert k_builds == [nz]


def test_associativity_takes_no_generic_route_and_no_ring_of_outer_and_inner_offsets(monkeypatch):
    # both factors of each jet series are read off the chart at the base
    # point: a cold and a warm check call neither eval_function nor a jet
    # inverse, and construct no ring of the 2 n p outer and inner offsets
    def refuse(*args):
        raise AssertionError("the generic route on the associativity path")

    built = []
    init = JetRing.__init__

    def counting_init(self, nvars, order):
        built.append(nvars)
        init(self, nvars, order)

    monkeypatch.setattr(grastar.jets, "_rings", {})
    for module in (grastar.geometry, grastar.star):
        monkeypatch.setattr(module, "eval_function", refuse)
    for module in (grastar.jets, grastar.geometry):
        monkeypatch.setattr(module, "mat_inverse", refuse)
    monkeypatch.setattr(JetRing, "__init__", counting_init)
    for p, q, order in ((2, 1, 3), (1, 2, 4), (2, 2, 2)):
        cfg = SpaceConfig(p, q, Fraction(3, 2))
        rng = np.random.default_rng(80 + p + q)
        f, g, h = (random_function_expr(cfg, rng) for _ in range(3))
        built.clear()
        for seed in (1, 2):  # cold, then warm
            assert max(associativity_residuals(f, g, h, cfg, sample_point(cfg, seed), order)) < 1e-10
        assert built and 2 * cfg.n * p not in built


def test_jet_series_leaves_star_eval_its_chart_ring(monkeypatch):
    # a jet series reads the chart's rows to degree 2 D, twice g's generator
    # count.  The rows are graded, so star_eval reads its own, of degree <= D,
    # as their prefix, and keeps expanding on its ring of K's entries at
    # order D: a warm product passes over that ring's table alone, as before
    cfg = SpaceConfig(2, 1, Fraction(3, 2))
    n, p, order = cfg.n, cfg.p, 4
    monkeypatch.setattr(grastar.jets, "_rings", {})
    rng = np.random.default_rng(81)

    def two():
        B = [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n for _ in range(2)]
        return FunctionExpr([(1.0, B)])

    f, g = two(), two()
    z = sample_point(cfg, 81)
    want = star_eval(f, g, cfg, z, order).coeffs
    ring = shared_ring(n * p, order)
    # the ring of K's entries, beside Pi's coefficients on it
    kept = ring.kept[p]
    small = kept[0]
    assert small.order == 2
    star_jet_series(f, g, cfg, order)
    assert len(ring.kept[p, cfg.mu][0]) == comb(cfg.q * p + 4, 4)
    passes = []
    dot = JetRing._dot
    monkeypatch.setattr(JetRing, "_dot", lambda self, *args: passes.append(self) or dot(self, *args))
    assert star_eval(f, g, cfg, z, order).coeffs == want
    assert ring.kept[p] is kept and passes and set(passes) == {small}


def test_star_eval_scans_no_degrees(monkeypatch):
    # the jets of expressions fill every degree, so their products pass over
    # the whole table; only a product of jet matrices scans its factors' degrees
    cfg = SpaceConfig(2, 2)
    rng = np.random.default_rng(77)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    z = sample_point(cfg, 77)
    want = [star_eval(f, g, cfg, z, 3).coeffs, star_eval(f, g, cfg, z, 3, lam=Fraction(1, 10))]

    def refuse(self, coeffs):
        raise AssertionError("a degree scan")

    monkeypatch.setattr(JetRing, "_degree_range", refuse)
    assert star_eval(f, g, cfg, z, 3).coeffs == want[0]
    assert star_eval(f, g, cfg, z, 3, lam=Fraction(1, 10)) == want[1]
    _, Z, Zbar = holomorphic_jet_point(level_representative(z, cfg.mu), 3)
    with pytest.raises(AssertionError, match="a degree scan"):
        eval_function(f, Z, Zbar)


def test_star_eval_rejects_a_callable_factor():
    cfg = SpaceConfig(2, 1, Fraction(1))
    rng = np.random.default_rng(73)
    f = random_function_expr(cfg, rng)
    z = sample_point(cfg, 73)

    def jet_of(Z, Zbar):
        return eval_function(f, Z, Zbar)

    for left, right in ((jet_of, f), (f, jet_of)):
        with pytest.raises(TypeError, match="FunctionExpr"):
            star_eval(left, right, cfg, z, 2)


@pytest.mark.parametrize("order", [-1, -5, 2.0, 2.5, True])
def test_order_must_be_a_nonnegative_integer(order):
    cfg = SpaceConfig(1, 1, Fraction(1))
    rng = np.random.default_rng(74)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    z = sample_point(cfg, 74)
    zeta = level_representative(z, cfg.mu)
    with pytest.raises(RangeError, match="nonnegative integer"):
        star_eval(f, g, cfg, z, order)
    with pytest.raises(RangeError, match="nonnegative integer"):
        star_eval(f, g, cfg, z, order, lam=Fraction(1, 10))
    with pytest.raises(RangeError, match="nonnegative integer"):
        projective_star_eval(f, g, cfg, z, order)
    with pytest.raises(RangeError, match="nonnegative integer"):
        star_jet_series(f, g, cfg, order)
    with pytest.raises(RangeError, match="nonnegative integer"):
        associativity_residuals(f, g, f, cfg, z, order)
    # order 0 is the pointwise product
    assert star_eval(f, g, cfg, z, np.int64(0)).coeffs[0] == pytest.approx(
        eval_function(f, zeta) * eval_function(g, zeta), rel=1e-12
    )


def test_first_order_is_wick_first_order():
    cfg = SpaceConfig(2, 2, Fraction(3))
    z = sample_point(cfg, 4)
    rng = np.random.default_rng(4)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    zeta = level_representative(z, cfg.mu)
    s = star_eval(f, g, cfg, z, 1)
    w = wick_product(f, g, zeta, 1)
    assert abs(s.coeffs[0] - w.coeffs[0]) < 1e-12
    assert abs(s.coeffs[1] - w.coeffs[1]) < 1e-11


def test_scalar_power_reduction():
    mu, lam = Fraction(3), Fraction(1, 2)
    # positive powers
    assert proj_scalar_power(2, mu, lam) == mu * (mu - lam)
    # negative powers satisfy the downward recursion
    for r in range(1, 7):
        assert (mu + lam * r) * proj_scalar_power(-r, mu, lam) == proj_scalar_power(
            -(r - 1), mu, lam
        )
    assert proj_scalar_power(-1, mu, lam) == 1 / (mu + lam)
    assert proj_scalar_power(0, mu, lam) == 1


def test_sandwich_power_recursion_identity():
    mu, lam = Fraction(2), Fraction(1, 3)
    for (p, q) in ((1, 1), (2, 1), (2, 2)):
        cfg = SpaceConfig(p, q, mu)
        zeta = level_representative(sample_point(cfg, 5), mu).z
        n = p + q
        c = mu / lam + p
        for r in (1, 2, 3):
            PS = proj_sandwich_power(zeta, mu, lam, r)
            big = rho_central(c_power_element(r, c), n).to_complex().entries
            T = tensor_power(zeta @ zeta.conj().T / float(mu), r)
            assert np.max(np.abs(float(lam) ** r * big @ PS - T)) < 1e-12


def test_sandwich_round_trip_recovers_central_operator():
    mu, lam = Fraction(2), Fraction(1, 3)
    for (p, q) in ((1, 2), (2, 2)):
        cfg = SpaceConfig(p, q, mu)
        zeta = level_representative(sample_point(cfg, 6), mu).z
        c = mu / lam + p
        for r in (1, 2, 3):
            PS = proj_sandwich_power(zeta, mu, lam, r)
            rec = unsandwich(PS, zeta, mu, r) * (float(mu) * float(lam)) ** r
            U = rho_central(coefficient_operator(r, c), p).to_complex().entries
            assert np.max(np.abs(rec - U)) < 1e-10


def test_outer_power_projective_case():
    mu, lam = Fraction(3), Fraction(2, 5)
    cfg = SpaceConfig(1, 2, mu)
    zeta = level_representative(sample_point(cfg, 7), mu).z
    for r in (1, 2, 3):
        PO = proj_outer_power(zeta, mu, lam, r)
        scal = proj_scalar_power(r, mu, lam) / mu**r
        ref = float(scal) * tensor_power(zeta @ zeta.conj().T, r)
        assert np.max(np.abs(PO - ref)) < 1e-12


def test_slot_coefficient_matrix_inverts_c_powers():
    r, p = 3, 2
    c = Fraction(9, 2)
    U = slot_coefficient_matrix(r, p, c)
    big = rho_central(c_power_element(r, c), p).to_complex().entries
    assert np.max(np.abs(big @ U - np.eye(p**r))) < 1e-12


@cache
def _class_sums(r, p):
    """rho(k_alpha) on (C^p)^{x r}, one integer matrix per class of S_r, by enumerating S_r."""
    dim = p**r
    flat = np.arange(dim).reshape((p,) * r)
    cols = np.arange(dim)
    classes = {alpha: i for i, alpha in enumerate(conj_classes_of(r))}
    sums = np.zeros((len(classes), dim, dim), dtype=np.int32)
    for images in itertools.permutations(range(r)):
        sums[classes[cycle_type(Permutation(images))], flat.transpose(images).ravel(), cols] += 1
    return sums


@cache
def _frame_projectors(r, p):
    """(frame, Young projector) for each frame of weight r with at most p rows.

    P_[m] = (n_[m] / r!) sum_alpha chi^[m]_alpha rho(k_alpha), the integer
    sum scaled once, so every entry is the correctly rounded exact value.
    """
    if r == 0:
        return ((Frame(()), np.ones((1, 1))),)
    sums = _class_sums(r, p)
    out = []
    for frame in partitions_of(r):
        if frame.num_rows <= p:
            chi = np.array([character(frame, alpha) for alpha in conj_classes_of(r)])
            P = np.tensordot(chi, sums, axes=1) * dim_symmetric(frame) / factorial(r)
            out.append((frame, P))
    return tuple(out)


def _projector_sum(r, p, weight):
    """The coefficient element built from frames: sum of weight(frame) * P_[m]."""
    return sum(weight(frame) * P for frame, P in _frame_projectors(r, p))


def _assert_matches_projector_sum(M, r, p, weight):
    # no projector entry exceeds 1, so the largest weight bounds the entries
    scale = max(abs(weight(frame)) for frame, _ in _frame_projectors(r, p))
    assert np.max(np.abs(M - _projector_sum(r, p, weight))) <= 1e-12 * scale


# every (r, p) with p <= 3 and p^r <= 729 whose S_r the oracle enumerates
JM_SIZES = [(r, p) for p in (1, 2, 3) for r in range(1, 9) if p**r <= 729]


@pytest.mark.parametrize("r,p", [(3, 2), (4, 2), (3, 3)])
def test_oracle_projectors_are_exact(r, p):
    for frame, P in _frame_projectors(r, p):
        assert np.array_equal(P, projector(frame, p).to_complex().entries)


@pytest.mark.parametrize("r,p", JM_SIZES)
def test_slot_coefficient_matrix_matches_projector_sum(r, p):
    for c in (Fraction(37, 7), Fraction(-23, 2)):
        U = slot_coefficient_matrix(r, p, c)
        _assert_matches_projector_sum(U, r, p, lambda frame: 1 / float(t_value(frame, c)))


def _order_columns(r, p):
    """The columns of the weight matrices that belong to the frames of weight r."""
    first = sum(len(_isotypic_projectors(s, p)[0]) for s in range(r))
    return slice(first, first + len(_isotypic_projectors(r, p)[0]))


@pytest.mark.parametrize("r,p", JM_SIZES)
def test_series_coefficient_matrices_match_projector_sum(r, p):
    # the lambda^t matrix of order r is row t of the series weights on the stack
    mu, order = Fraction(3, 2), r + 2
    stack = _isotypic_projectors(r, p)[2]
    W = _series_weights(p, mu, order)[:, _order_columns(r, p)]
    assert not W[:r].any()
    for t in range(r, order + 1):
        _assert_matches_projector_sum(
            np.tensordot(W[t], stack, axes=1), r, p,
            lambda frame: float(lambda_coefficient_series(frame, mu, p, order).coeffs[t]),
        )


@pytest.mark.parametrize("r,p", JM_SIZES)
def test_isotypic_projectors_match_character_oracle(r, p):
    frames, contents, stack = _isotypic_projectors(r, p)
    oracle = dict(_frame_projectors(r, p))
    assert sorted(frames, key=lambda m: m.rows) == sorted(oracle, key=lambda m: m.rows)
    assert stack.shape == (len(frames), p**r, p**r) and not stack.flags.writeable
    for frame, boxes, P in zip(frames, contents, stack):
        want = [j - i for i, m_i in enumerate(frame.rows) for j in range(m_i)]
        assert sorted(boxes) == sorted(want)
        assert np.max(np.abs(P - oracle[frame])) <= 1e-12


@pytest.mark.parametrize("r,p", [(4, 2), (3, 3), (6, 2)])
def test_isotypic_projectors_resolve_the_identity(r, p):
    stack = _isotypic_projectors(r, p)[2]
    assert np.max(np.abs(stack.sum(axis=0) - np.eye(p**r))) <= 1e-12
    for i, P in enumerate(stack):
        for j, Q in enumerate(stack):
            assert np.max(np.abs(P @ Q - (P if i == j else 0))) <= 1e-12


@pytest.mark.parametrize(
    "p,mu,order", [(1, Fraction(1), 6), (2, Fraction(3, 2), 5), (3, Fraction(2, 7), 4)]
)
def test_series_weights_are_rounded_lambda_series(p, mu, order):
    # the weights are center's series, so this checks their column order and
    # rounding; the series themselves are checked in test_center
    W = _series_weights(p, mu, order)
    assert W.shape[0] == order + 1 and not W.flags.writeable
    for r in range(order + 1):
        for frame, column in zip(_isotypic_projectors(r, p)[0], W[:, _order_columns(r, p)].T):
            want = [float(a) for a in lambda_coefficient_series(frame, mu, p, order).coeffs]
            assert column.tolist() == want


@pytest.mark.parametrize("p,order", [(1, 5), (2, 6), (3, 5)])
def test_fixed_weights_are_reciprocal_t_values(p, order):
    cases = (
        (Fraction(1), Fraction(37, 7)),
        (Fraction(3, 2), Fraction(-23, 2)),
        (Fraction(2), 4.5 - 0.5j),
    )
    for mu, c in cases:
        got = _fixed_weights(p, mu, c, order)
        for r in range(order + 1):
            frames = _isotypic_projectors(r, p)[0]
            want = [complex(mu) ** r / complex(t_value(frame, c)) for frame in frames]
            assert np.allclose(got[_order_columns(r, p)], want, rtol=4e-15, atol=0)
    # lambda = 0 keeps order 0 alone
    assert _fixed_weights(p, Fraction(1), None, order).tolist() == [1.0] + [0.0] * (len(got) - 1)


def _refuse_enumeration(monkeypatch, names, refuse):
    """Replace each name where ``partitions`` defines it and in every module that binds it."""
    for module in (grastar.partitions, grastar.star, grastar.center, grastar.characters, grastar.tensor_action):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_projector_build_enumerates_no_frames_or_permutations(monkeypatch):
    # frames come from branching, J_r from slot swaps: p = 1 runs past the
    # r <= 12 of partitions_of, and no S_r is enumerated
    def refuse(r):
        raise AssertionError(f"weight {r} enumerated while building projectors")

    _refuse_enumeration(monkeypatch, ("partitions_of", "permutations_of"), refuse)
    grastar.star._frames.cache_clear()
    grastar.star._stacks.clear()
    assert _isotypic_projectors(16, 1)[2].tolist() == [[[1.0]]]
    frames, _, stack = _isotypic_projectors(5, 3)
    assert len(frames) == 5 and np.max(np.abs(stack.sum(axis=0) - np.eye(3**5))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(1, 5),
    p=st.integers(1, 3),
    c=st.fractions(min_value=-12, max_value=12, max_denominator=12),
)
def test_slot_coefficient_matrix_property(r, p, c):
    assume(all(t_value(frame, c) != 0 for frame, _ in _frame_projectors(r, p)))
    U = slot_coefficient_matrix(r, p, c)
    _assert_matches_projector_sum(U, r, p, lambda frame: 1 / float(t_value(frame, c)))


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("order", [9, 10])
def test_high_order_matches_closed_form(order, q):
    # mu = 3: at mu = 1 the order-10 formal coefficient cancels terms of
    # size ~1e5 in both routes, and they agree only to ~1e-9
    cfg = SpaceConfig(1, q, Fraction(3))
    rng = np.random.default_rng(order + q)
    z = sample_point(cfg, order)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    a = star_eval(f, g, cfg, z, order)
    b = projective_star_eval(f, g, cfg, z, order)
    assert max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) < 1e-11
    lam = Fraction(1, 10)
    fixed = star_eval(f, g, cfg, z, order, lam=lam)
    assert abs(fixed - projective_star_eval(f, g, cfg, z, order, lam=lam)) < 1e-11


def test_product_path_enumerates_no_permutations(monkeypatch):
    def refuse(r):
        raise AssertionError(f"S_{r} enumerated on the product path")

    _refuse_enumeration(monkeypatch, ("permutations_of",), refuse)
    cfg = SpaceConfig(2, 1, Fraction(2))
    rng = np.random.default_rng(9)
    z = sample_point(cfg, 9)
    f, g, h = (random_function_expr(cfg, rng) for _ in range(3))
    star_eval(f, g, cfg, z, 3)
    star_eval(f, g, cfg, z, 3, lam=Fraction(1, 3))
    assert max(associativity_residuals(f, g, h, cfg, z, 2)) < 1e-10


@pytest.mark.parametrize("outer_holomorphic", [True, False])
@pytest.mark.parametrize("p, q, mu", [(2, 1, Fraction(2)), (1, 2, Fraction(1))])
def test_star_jet_series_first_order_matches_finite_differences(p, q, mu, outer_holomorphic):
    # the linear outer coefficients of each lambda-order jet are the
    # Wirtinger derivatives d/dz or d/dzbar of star_eval at the base point;
    # at order 3 the jets of lambda^0, lambda^1 and lambda^2 carry them
    cfg = SpaceConfig(p, q, mu)
    order = 3
    rng = np.random.default_rng(p + 2 * q)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    zeta0 = base_point(cfg)
    if outer_holomorphic:
        ring, jets = star_jet_series(f, g, cfg, order)
    else:
        # the antiholomorphic jets of f*g are the conjugates of the holomorphic ones of gbar*fbar
        ring, jets = star_jet_series(g.conjugate(), f.conjugate(), cfg, order)
        jets = [Jet(ring, jet.coeffs.conj()) for jet in jets]
    # the lambda^t jet is exact up to outer degree order - t and zero above
    for t, jet in enumerate(jets):
        assert not jet.coeffs[ring.degree > order - t].any()
    h = 1e-5
    sign = -1 if outer_holomorphic else 1
    for A in range(cfg.n):
        for i in range(p):
            E = np.zeros((cfg.n, p), dtype=complex)
            E[A, i] = 1.0

            def central(step):
                up = star_eval(f, g, cfg, PointZ(zeta0.z + step * E), order).coeffs[:3]
                down = star_eval(f, g, cfg, PointZ(zeta0.z - step * E), order).coeffs[:3]
                return (np.array(up) - np.array(down)) / (2 * h)

            expect = (central(h) + sign * 1j * central(1j * h)) / 2
            md = [0] * ring.nvars
            md[A * p + i] = 1
            got = np.array([jet.coeff(md) for jet in jets[:3]])
            assert np.max(np.abs(got - expect)) < 1e-8


def test_star_jet_series_holds_tensors_on_the_graded_prefix():
    # the order-r tensors live on the outer monomials of degree <= N - r,
    # a prefix of the outer ring; dense (nz^r, size) arrays peaked at
    # 51.8 MiB here, the r = 3 ones alone 1,728 x 455 complex entries each
    cfg = SpaceConfig(3, 1, Fraction(1))
    rng = np.random.default_rng(0)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    star_jet_series(f, g, cfg, 3)
    tracemalloc.start()
    try:
        star_jet_series(f, g, cfg, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 51.8 * 2**20 / 4


def test_warm_fixed_lambda_star_eval_reads_sorted_rows_only():
    # at (3, 1, 6) the order-6 tensors have 84 sorted row tuples instead of
    # 4,096; reading every row tuple peaked at 152 MiB here
    cfg = SpaceConfig(3, 1, Fraction(1))
    rng = np.random.default_rng(6)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    lam = Fraction(1, 10)
    star_eval(f, g, cfg, sample_point(cfg, 6), 6, lam=lam)
    z = sample_point(cfg, 7)
    tracemalloc.start()
    try:
        star_eval(f, g, cfg, z, 6, lam=lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 38 * 2**20


@pytest.mark.parametrize("n,p,order", [(2, 1, 11), (3, 2, 8), (4, 3, 5), (5, 4, 3)])
def test_memory_estimate_counts_the_frames_it_does_not_list(n, p, order):
    # F_r by a partition count and the addable boxes by a bound match the listed frames
    frames = [len(_frames(r, p)[0]) for r in range(order + 1)]
    stacks = sum(F * p ** (2 * r) for r, F in enumerate(frames))
    build = max(p ** (2 * r) * (1 + max(map(len, _frames(r, p)[2]))) for r in range(1, order + 1))
    outer = [
        comb(n + r - 1, r) * p**r * comb(n * p + order - r, order - r) for r in range(order + 1)
    ]
    projected = max(2 * F * entries for F, entries in zip(frames, outer))
    # beside them, terms that list no frame: the ring of the 2 q p entries of
    # K_O and K with its pairs of K's monomials and both factors' Pi, and the
    # chart's jets of K's monomials of degree <= 2 that the ring of slots
    # keeps, with the rows they extend or an order's gather, and the returned jets
    nz, qp = n * p, (n - p) * p
    size = comb(nz + order, order)
    offsets = check_memory(2 * qp, order) // 8 + comb(qp + order, order) ** 2
    offsets += 4 * n * n * comb(2 * qp + order, order)
    charts = 2 * comb(qp + 2, 2) * (2 * size + comb(n + order - 1, order) * p**order) + 2 * (order + 1) * size
    (_, _, _, matrices), _ = _memory_terms(n, p, order, True, 2)
    assert matrices == stacks + max(build, 2 * p ** (2 * order)) + projected + offsets + charts


def test_memory_estimate_refuses_a_large_order_listing_no_frame(monkeypatch):
    # (8, 1, 100) has about a million frames of weight 100 alone; listing
    # them took gigabytes and minutes before the ring was checked
    def refuse(*args):
        raise AssertionError("the memory estimate listed frames")

    monkeypatch.setattr(grastar.star, "_frames", refuse)
    for n, p, order in ((9, 8, 100), (2, 1, 10**6)):
        with pytest.raises(RangeError, match="budget"):
            _check_memory(n, p, order, 2)
    _check_memory(3, 2, 12, 2)


def test_memory_estimate_counts_the_chart_jet_point():
    # the chart's ring keeps the jets of K's monomials of degree <= D, the
    # factors' longest term: C(q p + D, D) complex jets.  Beside them it
    # holds, while K is built in place among them, the product K X1 and one
    # jet of it, and the jets of f and gbar.  No jet point is formed: the old
    # estimate's n x p and p x n jets Z and Zbar are gone.  (7, 1, 4) and
    # (2, 1, 12) at lambda = 1/10 run; (26, 1, 2) is refused by its ring
    # and the jets of K's monomials on it
    n, p, order = 8, 7, 4
    qp, size = (n - p) * p, comb(n * p + order, order)
    stacks = sum(len(_frames(r, p)[0]) * p ** (2 * r) for r in range(order + 1))
    # the build of the top order's projectors, held at another time
    transient = p ** (2 * order) * (1 + max(map(len, _frames(order, p)[2])))
    for degree in range(order + 1):
        kept = 2 * comb(qp + degree, degree) * size
        build = 2 * (qp + 1) * size if degree else 0
        ((_, _, _, matrices),) = _memory_terms(n, p, order, False, degree)
        assert matrices == stacks + max(kept + build + 4 * size, transient)
        assert degree < 2 or kept + build > transient
    _check_memory(n, p, order, 2)
    _check_memory(3, 2, 12, 2)
    with pytest.raises(RangeError, match="budget"):
        _check_memory(27, 26, 2, 2)


def test_memory_check_counts_and_drops_the_stacks_of_other_sizes(monkeypatch):
    # the stacks of another p stay cached: (3, 1, 7) then (2, 1, 12) in one
    # process peaked at 1946 MiB resident against the 1684 MiB estimated for
    # (2, 1, 12) alone.  They count now, and are dropped when only they would
    # push a product over the budget
    monkeypatch.setattr(grastar.star, "_stacks", {})
    _isotypic_projectors(5, 3)
    _isotypic_projectors(4, 2)
    own = {(r, 2) for r in range(4)}
    others = {(r, 3) for r in range(6)} | {(4, 2)}
    held = sum(grastar.star._stacks[key][2].nbytes for key in others)
    need = max(check_memory(*args) for args in _memory_terms(3, 2, 3, False, 2))
    # under the default budget, as when star-fixed-high alternates p, nothing goes
    _check_memory(3, 2, 3, 2)
    assert set(grastar.star._stacks) == own | others
    monkeypatch.setattr(grastar.jets, "MEMORY_BUDGET", need + held)
    _check_memory(3, 2, 3, 2)
    assert set(grastar.star._stacks) == own | others
    monkeypatch.setattr(grastar.jets, "MEMORY_BUDGET", need + held - 1)
    _check_memory(3, 2, 3, 2)
    assert set(grastar.star._stacks) == own
    # a product over the budget on its own is refused and drops nothing
    _isotypic_projectors(2, 1)
    monkeypatch.setattr(grastar.jets, "MEMORY_BUDGET", need - 1)
    with pytest.raises(RangeError, match="budget"):
        _check_memory(3, 2, 3, 2)
    assert set(grastar.star._stacks) == own | {(0, 1), (1, 1), (2, 1)}


def test_memory_check_counts_and_drops_the_rings_of_other_shapes(monkeypatch):
    # the shared rings of other shapes stay cached too: (2, 1, 12) after
    # (3, 1, 7) in one process peaked at 2127 MiB resident, above the budget.
    # They count now, and go before the stacks when only they would push a
    # product over the budget
    monkeypatch.setattr(grastar.star, "_stacks", {})
    monkeypatch.setattr(grastar.jets, "_rings", {})
    _isotypic_projectors(4, 2)
    own = {(6, 3)}
    # a star_jet_series at (3, 2, 3) reads the ring of the 4 entries of K_O and K at
    # order 3 beside (6, 3); it opens no ring of 6 variables below order 3, so
    # those are other shapes
    series = {(4, 3)}
    others = {(4, 5), (3, 2), (6, 2), (6, 0)}
    for key in own | series | others:
        shared_ring(*key).warm()
    stacks = sum(grastar.star._stacks[key][2].nbytes for key in grastar.star._stacks if key[0] > 3)
    # the series rings are other shapes to star_eval; a chart kept on a ring counts with it
    base_chart([FunctionExpr.generator(np.eye(4))], shared_ring(4, 5), 1, Fraction(1))
    held = sum(grastar.jets._rings[key].nbytes for key in series | others)
    need = max(check_memory(*args) for args in _memory_terms(3, 2, 3, False, 2))
    _check_memory(3, 2, 3, 2)
    assert set(grastar.jets._rings) == own | series | others
    monkeypatch.setattr(grastar.jets, "MEMORY_BUDGET", need + stacks + held)
    _check_memory(3, 2, 3, 2)
    assert set(grastar.jets._rings) == own | series | others
    # one byte less: the rings go, the stacks stay
    monkeypatch.setattr(grastar.jets, "MEMORY_BUDGET", need + stacks + held - 1)
    _check_memory(3, 2, 3, 2)
    assert set(grastar.jets._rings) == own
    assert (4, 2) in grastar.star._stacks
    # a star_jet_series keeps its own rings and drops the others
    monkeypatch.setattr(grastar.jets, "MEMORY_BUDGET", MEMORY_BUDGET)
    for key in series | others:
        shared_ring(*key)
    need = max(check_memory(*args) for args in _memory_terms(3, 2, 3, True, 2))
    monkeypatch.setattr(grastar.jets, "MEMORY_BUDGET", need + stacks)
    _check_memory(3, 2, 3, 2, series=True)
    assert set(grastar.jets._rings) == own | series
    assert (4, 2) in grastar.star._stacks
    # the rings and then the stacks go when the product fits only without both
    shared_ring(4, 5)
    monkeypatch.setattr(grastar.jets, "MEMORY_BUDGET", need + stacks - 1)
    _check_memory(3, 2, 3, 2, series=True)
    assert set(grastar.jets._rings) == own | series
    assert (4, 2) not in grastar.star._stacks


def test_star_fixed_high_sizes_drop_no_cached_ring_or_stack():
    # the benchmark's star-fixed-high cycle alternates p and order at lambda
    # = 1/10: under the default budget each product keeps what the others cached
    def cached():
        return [("ring", key, ring) for key, ring in grastar.jets._rings.items()] + [
            ("stack", key, stack) for key, stack in grastar.star._stacks.items()
        ]

    sizes = [(2, 1, 6), (1, 1, 8), (1, 2, 6)]
    for p, q, order in sizes + sizes:
        cfg = SpaceConfig(p, q)
        rng = np.random.default_rng(p + q + order)
        f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
        before = cached()
        star_eval(f, g, cfg, sample_point(cfg, order), order, lam=Fraction(1, 10))
        after = cached()
        assert all(any(entry[2] is other[2] for other in after) for entry in before)


@pytest.mark.parametrize("p,q,order", [(3, 1, 3), (4, 1, 3), (3, 1, 4), (2, 2, 5)])
def test_series_memory_estimate_covers_the_cold_peak(monkeypatch, p, q, order):
    # a cold associativity check once traced 8.5 MiB against 7.2 MiB
    # estimated at (3, 1, 3) and 51.1 against 43.8 MiB at (4, 1, 3): the jet
    # point's n x p and p x p jets went uncounted, and growing the work
    # buffers held the old set beside the new one.  The series now reads
    # both factors off the chart of the ring of n p variables, whose rows
    # verify_suite reads to degree min(order, 4): its functions have terms
    # of one or two generators, and g^L twice g's degree in K_O
    verify_suite(SpaceConfig(1, 1), order=1)  # imports and one-off set-up, untraced
    monkeypatch.setattr(grastar.star, "_stacks", {})
    monkeypatch.setattr(grastar.jets, "_work", np.empty((3, 0), dtype=complex))
    monkeypatch.setattr(grastar.jets, "_rings", {})
    for cached in (sorted_tuples, _frames, _series_weights, grastar.star._box_indices):
        cached.cache_clear()
    cfg = SpaceConfig(p, q)
    estimate = max(check_memory(*args) for args in _memory_terms(cfg.n, p, order, True, min(order, 4)))
    tracemalloc.start()
    try:
        verify_suite(cfg, order=order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= estimate


def test_associativity_small():
    cfg = SpaceConfig(2, 1, Fraction(2))
    z = sample_point(cfg, 8)
    rng = np.random.default_rng(8)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    h = random_function_expr(cfg, rng)
    res = associativity_residuals(f, g, h, cfg, z, 2)
    assert max(res) < 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [{"order": 0}, {"order": 2.5}, {"tolerance": float("nan")}, {"tolerance": float("inf")}, {"tolerance": -1e-7}],
)
def test_verify_suite_rejects_bad_parameters(kwargs):
    with pytest.raises(RangeError):
        verify_suite(SpaceConfig(1, 1), **kwargs)


def test_verify_suite_passes_and_serializes():
    import json

    cfg = SpaceConfig(1, 1, Fraction(2))
    report = verify_suite(cfg, order=2, seed=0)
    assert report["pass"]
    json.dumps(report)  # must be serializable
    # determinism
    report2 = verify_suite(cfg, order=2, seed=0)
    assert report == report2


def test_second_star_eval_builds_no_ring(monkeypatch, k_builds):
    # jet points take their ring from the shared cache, table and chart
    # coordinate K and all
    cfg = SpaceConfig(2, 1)
    rng = np.random.default_rng(21)
    f, g = random_function_expr(cfg, rng), random_function_expr(cfg, rng)
    star_eval(f, g, cfg, sample_point(cfg, 1), 3)
    built = []
    init = JetRing.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JetRing, "__init__", counting_init)
    k_builds.clear()
    star_eval(g, f, cfg, sample_point(cfg, 2), 3)
    star_eval(f, g, cfg, sample_point(cfg, 3), 3, lam=Fraction(1, 7))
    assert built == [] and k_builds == []


def test_warm_verify_suite_at_order_seven_builds_no_ring(monkeypatch):
    # the jet series runs every lambda order on its ring of outer offsets:
    # a ring per lower order would outnumber the eight that shared_ring
    # keeps from order 7 on, and every warm check would rebuild them
    cfg = SpaceConfig(1, 1)
    verify_suite(cfg, order=7)
    built = []
    init = JetRing.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JetRing, "__init__", counting_init)
    assert verify_suite(cfg, order=7, seed=1)["pass"]
    assert built == []


def test_second_associativity_check_builds_no_ring(monkeypatch):
    # both jet series take their ring of K_O's and K's entries from the
    # shared cache, so a repeated check at one size reuses every table
    cfg = SpaceConfig(2, 1)
    rng = np.random.default_rng(22)
    f, g, h = (random_function_expr(cfg, rng) for _ in range(3))
    associativity_residuals(f, g, h, cfg, sample_point(cfg, 1), 2)
    built = []
    init = JetRing.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JetRing, "__init__", counting_init)
    assert max(associativity_residuals(g, h, f, cfg, sample_point(cfg, 2), 2)) < 1e-10
    assert built == []
