"""Points, invariant functions, the level representative and the Wick product."""

import json
from fractions import Fraction

import numpy as np
import pytest

from grastar import geometry
from grastar.errors import ConvergenceError, GrastarError
from grastar.geometry import (
    FunctionExpr,
    PointZ,
    SpaceConfig,
    antiholomorphic_jet_point,
    chart_jets,
    check_invariant_u,
    eval_function,
    gram,
    holomorphic_jet_point,
    level_representative,
    momentum,
    poisson_bracket,
    random_function_expr,
    sample_point,
    wick_product,
)
from grastar.jets import Jet, JetRing, MatrixJet, linear_fraction, mat_inverse, shared_ring


def _cfg(p=2, q=2, mu=Fraction(2)):
    return SpaceConfig(p, q, mu)


def _trace_reference(B, Pi):
    """The coefficients of tr(B Pi) for a jet matrix Pi, entry by entry."""
    return np.einsum("ac,cak->k", B, Pi.coeffs)


def test_sample_point_deterministic_and_full_rank():
    cfg = _cfg()
    z1 = sample_point(cfg, 123)
    z2 = sample_point(cfg, 123)
    assert np.array_equal(z1.z, z2.z)
    sv = np.linalg.svd(z1.z, compute_uv=False)
    assert sv[-1] > 1e-6 * sv[0]


def test_rank_deficient_rejected():
    col = np.ones((4, 1), dtype=complex)
    with pytest.raises(GrastarError):
        PointZ(np.hstack([col, col]))


def test_gram_and_momentum():
    cfg = _cfg()
    z = sample_point(cfg, 5)
    x = gram(z)
    assert np.allclose(x, x.conj().T)
    assert np.allclose(momentum(z), 0.5j * x)


def test_invariance_under_gl_action():
    cfg = _cfg()
    z = sample_point(cfg, 7)
    rng = np.random.default_rng(1)
    f = random_function_expr(cfg, rng)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    moved = PointZ(z.z @ g)
    assert abs(eval_function(f, moved) - eval_function(f, z)) < 1e-12
    U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    assert check_invariant_u(f, z, U)


def test_level_representative_on_level_set():
    cfg = _cfg()
    z = sample_point(cfg, 9)
    zeta = level_representative(z, cfg.mu)
    assert np.max(np.abs(gram(zeta) - float(cfg.mu) * np.eye(2))) < 1e-10
    rng = np.random.default_rng(2)
    f = random_function_expr(cfg, rng)
    # same point on the quotient
    assert abs(eval_function(f, zeta) - eval_function(f, z)) < 1e-12


def test_function_json_round_trip_exact():
    cfg = _cfg()
    rng = np.random.default_rng(3)
    f = random_function_expr(cfg, rng, nterms=3, maxdeg=2)
    text = f.dumps()
    again = FunctionExpr.loads(text)
    assert again.dumps() == text
    z = sample_point(cfg, 1)
    assert eval_function(again, z) == eval_function(f, z)


def test_conjugate_evaluates_to_conjugate():
    cfg = _cfg()
    rng = np.random.default_rng(4)
    f = random_function_expr(cfg, rng)
    z = sample_point(cfg, 2)
    assert abs(eval_function(f.conjugate(), z) - np.conj(eval_function(f, z))) < 1e-13


def test_eval_function_jet_constant_term():
    cfg = _cfg()
    z = sample_point(cfg, 6)
    rng = np.random.default_rng(5)
    f = random_function_expr(cfg, rng)
    ring, Z, Zbar = holomorphic_jet_point(z, 2)
    j = eval_function(f, Z, Zbar)
    assert abs(j.value() - eval_function(f, z)) < 1e-12


def test_wick_zeroth_order_is_pointwise_product():
    cfg = _cfg(1, 2)
    z = sample_point(cfg, 3)
    rng = np.random.default_rng(6)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    s = wick_product(f, g, z, 2)
    assert abs(s.coeffs[0] - eval_function(f, z) * eval_function(g, z)) < 1e-12


def test_wick_on_coordinates():
    # z_00 paired against its conjugate contributes exactly one at order one
    cfg = _cfg(1, 1)
    z = sample_point(cfg, 4)
    f = lambda Z, Zbar: Z[0, 0]
    g = lambda Z, Zbar: Zbar[0, 0]
    s = wick_product(f, g, z, 2)
    assert abs(s.coeffs[0] - z.z[0, 0] * z.zbar[0, 0]) < 1e-13
    assert abs(s.coeffs[1] - 1.0) < 1e-13
    assert abs(s.coeffs[2]) < 1e-13
    # reversed order pairs nothing
    s2 = wick_product(g, f, z, 2)
    assert abs(s2.coeffs[1]) < 1e-13


def test_commutator_first_order_is_poisson_bracket():
    cfg = _cfg(2, 1, Fraction(3))
    z = sample_point(cfg, 8)
    rng = np.random.default_rng(7)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    fg = wick_product(f, g, z, 1)
    gf = wick_product(g, f, z, 1)
    pb = poisson_bracket(f, g, z)
    assert abs((fg.coeffs[1] - gf.coeffs[1]) - 0.5j * pb) < 1e-12


def test_momentum_generates_rotations():
    # pairing any invariant f against an entry of the moment matrix:
    # first-order Wick commutator with tr(Phi x) must match the bracket
    cfg = _cfg(2, 1, Fraction(2))
    z = sample_point(cfg, 10)
    rng = np.random.default_rng(8)
    f = random_function_expr(cfg, rng)
    Phi = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Phi = Phi + Phi.conj().T

    def j_phi(Z, Zbar):
        # tr(Phi Zbar Z) as a jet or number
        M = Zbar @ Z
        acc = None
        for i in range(2):
            for k in range(2):
                term = M[k, i] * Phi[i, k]
                acc = term if acc is None else acc + term
        return acc

    fg = wick_product(f, j_phi, z, 1)
    gf = wick_product(j_phi, f, z, 1)
    pb = poisson_bracket(f, j_phi, z)
    assert abs((fg.coeffs[1] - gf.coeffs[1]) - 0.5j * pb) < 1e-11


def test_space_config_validation():
    with pytest.raises(ValueError):
        SpaceConfig(0, 1)
    with pytest.raises(ValueError):
        SpaceConfig(1, 1, Fraction(-1))


def test_jet_point_slot_convention():
    # slot A*p + i of the holomorphic point differentiates entry (A, i)
    cfg = _cfg(2, 1)
    z = sample_point(cfg, 12)
    ring, Z, Zbar = holomorphic_jet_point(z, 1)
    for A in range(cfg.n):
        for i in range(cfg.p):
            md = [0] * ring.nvars
            md[A * cfg.p + i] = 1
            assert Z[A, i].coeffs[ring.index_of(tuple(md))] == 1.0
    ring2, Z2, Zbar2 = antiholomorphic_jet_point(z, 1)
    for A in range(cfg.n):
        for i in range(cfg.p):
            md = [0] * ring2.nvars
            md[A * cfg.p + i] = 1
            assert Zbar2[i, A].coeffs[ring2.index_of(tuple(md))] == 1.0


def _one_sided_point(z, zb, order, holomorphic, mix):
    """(Z, Zbar) with one side constant and the other z + H V G or zb + G V H.

    ``mix`` = (H, G) mixes the offsets across rows and columns, so every
    entry of the affine side depends on several variables.
    """
    n, p = z.shape
    ring = shared_ring(n * p, order)
    H, G = mix
    slots = np.arange(n * p).reshape(n, p)
    if holomorphic:
        V = MatrixJet.variables(ring, slots).coeffs
        V = np.einsum("ab,bck,cd->adk", H, V, G)
        return MatrixJet.from_numeric(ring, z) + MatrixJet(ring, V), MatrixJet.from_numeric(ring, zb)
    V = MatrixJet.variables(ring, slots.T).coeffs
    V = np.einsum("ab,bck,cd->adk", G, V, H)
    return MatrixJet.from_numeric(ring, z), MatrixJet.from_numeric(ring, zb) + MatrixJet(ring, V)


def _chart(fs, Z, zb):
    """``chart_jets`` at the affine jet matrix Z, read through its value and linear part."""
    ring = Z.ring
    V1 = np.zeros((ring.nvars, Z.rows, Z.cols), dtype=complex)
    if ring.order:  # x_0, x_1, ... follow the constant, in variable order
        V1[:] = Z.coeffs[:, :, 1 : 1 + ring.nvars].transpose(2, 0, 1)
    return chart_jets(fs, ring, Z.value(), V1, zb)


def _conjugate_transpose(M):
    """The jet matrix whose (i, j) entry has the conjugate coefficients of M's (j, i) entry."""
    return MatrixJet(M.ring, M.coeffs.conj().transpose(1, 0, 2))


@pytest.mark.parametrize("holomorphic", [True, False])
@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_chart_route_matches_generic_route(p, q, holomorphic):
    # chart_jets reads tr(B Pi) off the chart coordinate K at a point with Z
    # affine and Zbar constant; generic eval_function forms
    # Pi = Z (Zbar Z)^-1 Zbar with the jet inverse.  At a point whose
    # antiholomorphic side is the affine one, Pi(Z, Zbar) is the conjugate
    # transpose of Pi(Zbar^H, Z^H), so the chart of B^H there, conjugated,
    # is the generic jet: the identity star_eval reads g's tensors by
    cfg = SpaceConfig(p, q)
    n = cfg.n
    rng = np.random.default_rng(40 + 10 * p + q)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    raw = sample_point(cfg, int(rng.integers(1000)))
    zeta = level_representative(raw, cfg.mu).z
    oblique = cplx(p, n)  # not z^t: 1 - z (zb z)^-1 zb is an oblique projector
    bases = [(zeta, zeta.conj().T), (zeta, oblique), (raw.z, oblique)]
    B = cplx(n, n)
    f = FunctionExpr.generator(B)
    for order in range(6):
        for z, zb in bases:
            Z, Zbar = _one_sided_point(z, zb, order, holomorphic, (cplx(n, n), cplx(p, p)))
            ref = eval_function(f, Z, Zbar).coeffs
            if holomorphic:
                (got,) = _chart([f], Z, Zbar.value())
            else:
                (got,) = _chart([f.conjugate()], _conjugate_transpose(Zbar), Z.value().conj().T)
                got.coeffs = got.coeffs.conj()
            assert np.max(np.abs(got.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref)), (order, z is zeta)


@pytest.mark.parametrize("route", ["holomorphic", "antiholomorphic", "generic"])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (3, 1)])
def test_batched_generators_match_per_generator_reference(p, q, route, monkeypatch):
    # eval_function reads the distinct B of all its expressions off one Pi,
    # with one jet inverse and no chart, at any jet point; chart_jets reads
    # them off one K, with no inverse, where Zbar is constant.  Each must
    # equal tr(B Pi) with Pi = Z (Zbar Z)^-1 Zbar formed on its own
    charts, inverses = [], []
    monkeypatch.setattr(geometry, "linear_fraction", lambda *a: charts.append(1) or linear_fraction(*a))
    monkeypatch.setattr(geometry, "mat_inverse", lambda M: inverses.append(1) or mat_inverse(M))
    cfg = SpaceConfig(p, q)
    n, order = cfg.n, 3
    rng = np.random.default_rng(60 + 10 * p + q)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    zeta = level_representative(sample_point(cfg, int(rng.integers(1000))), cfg.mu).z
    mix = (cplx(n, n), cplx(p, p))
    if route == "generic":
        # both sides vary, in the same variables
        Z, _ = _one_sided_point(zeta, zeta.conj().T, order, True, mix)
        _, Zbar = _one_sided_point(zeta, zeta.conj().T, order, False, mix)
    else:
        Z, Zbar = _one_sided_point(zeta, zeta.conj().T, order, route == "holomorphic", mix)
    Bs = [cplx(n, n) for _ in range(4)]
    # B_0 occurs in every expression, B_1 twice in one term
    fs = [
        FunctionExpr([(2.0, [Bs[0], Bs[1], Bs[1]]), (1j, [Bs[2]])]),
        FunctionExpr([(1.0, [Bs[0]]), (0.5, [])]),
        FunctionExpr([(-1.0, [Bs[3], Bs[0]])]),
    ]
    results = [eval_function(fs, Z, Zbar)]
    assert (len(charts), len(inverses)) == (0, 1)
    if route == "holomorphic":
        results.append(_chart(fs, Z, Zbar.value()))
        assert (len(charts), len(inverses)) == (1, 1)
    Pi = Z @ mat_inverse(Zbar @ Z) @ Zbar
    ring = Z.ring
    tr = [Jet(ring, _trace_reference(B, Pi)) for B in Bs]
    want = [
        tr[0] * tr[1] * tr[1] * 2.0 + tr[2] * 1j,
        tr[0] + 0.5,
        tr[3] * tr[0] * -1.0,
    ]
    for jets in results:
        for got, ref in zip(jets, want):
            assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-12 * np.max(np.abs(ref.coeffs))
    # one expression alone gives its jet, not a list
    alone = eval_function(fs[2], Z, Zbar)
    assert np.array_equal(alone.coeffs, results[0][2].coeffs)


def test_two_generator_terms_sum_in_one_table_pass(monkeypatch):
    # sum_t c_t g_t1 g_t2 over the terms of two generators of one expression
    # is one scatter through the table, however many terms there are; terms
    # of one generator and constants take none
    cfg = SpaceConfig(2, 2)
    n, order = cfg.n, 3
    rng = np.random.default_rng(19)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    zeta = level_representative(sample_point(cfg, 19), cfg.mu).z
    ring = shared_ring(n * cfg.p, order)
    V1 = np.eye(n * cfg.p).reshape(-1, n, cfg.p)
    Bs = [cplx(n, n) for _ in range(4)]
    terms = [(2 - 1j, [Bs[0], Bs[1]]), (0.5, [Bs[2], Bs[2]]), (1j, [Bs[3], Bs[0]])]
    f = FunctionExpr(terms + [(0.3, [Bs[1]]), (-1.0, [])])
    dots = []
    dot = JetRing._dot
    monkeypatch.setattr(JetRing, "_dot", lambda self, *args: dots.append(1) or dot(self, *args))
    (got,) = chart_jets([f], ring, zeta, V1, zeta.conj().T)
    assert len(dots) == 1
    monkeypatch.undo()
    gens = chart_jets([FunctionExpr.generator(B) for B in Bs], ring, zeta, V1, zeta.conj().T)
    tr = {B.tobytes(): jet for B, jet in zip(Bs, gens)}
    want = tr[Bs[1].tobytes()] * 0.3 - 1.0
    for coeff, (B1, B2) in terms:
        want = want + tr[B1.tobytes()] * tr[B2.tobytes()] * coeff
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * np.max(np.abs(want.coeffs))


@pytest.mark.parametrize("route", ["holomorphic", "antiholomorphic", "generic"])
def test_eval_function_at_a_jet_point_never_reads_the_chart(route, monkeypatch):
    # the generic route is the chart's reference only while it shares no
    # code with it: at every jet point it forms Pi with the jet inverse
    def refuse(*args):
        raise AssertionError("eval_function read the chart")

    monkeypatch.setattr(geometry, "linear_fraction", refuse)
    monkeypatch.setattr(geometry, "chart_jets", refuse)
    cfg = SpaceConfig(2, 1)
    rng = np.random.default_rng(17)
    zeta = level_representative(sample_point(cfg, 17), cfg.mu).z
    mix = (np.eye(cfg.n), np.eye(cfg.p))
    Z, Zbar = _one_sided_point(zeta, zeta.conj().T, 3, route != "antiholomorphic", mix)
    if route == "generic":
        Zbar = _one_sided_point(zeta, zeta.conj().T, 3, False, mix)[1]
    fs = [random_function_expr(cfg, rng) for _ in range(2)]
    jets = eval_function(fs, Z, Zbar)
    assert [jet.value() for jet in jets] == pytest.approx(eval_function(fs, PointZ(zeta)), rel=1e-12)


def test_eval_function_of_several_expressions_at_a_numeric_point():
    cfg = _cfg()
    rng = np.random.default_rng(16)
    fs = [random_function_expr(cfg, rng) for _ in range(3)] + [FunctionExpr.constant(2 - 1j)]
    z = sample_point(cfg, 16)
    assert eval_function(fs, z) == [eval_function(f, z) for f in fs]
    assert eval_function([], z) == []


@pytest.mark.parametrize("jet_point", [holomorphic_jet_point, antiholomorphic_jet_point])
def test_chart_route_keeps_conditioning_check(jet_point):
    # singular values 1 and 1e-5 give the Gram matrix condition number 1e10,
    # past the jet inverse's bound; the chart and the generic route refuse
    # it with one message
    rng = np.random.default_rng(13)
    Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    z = PointZ(Q[:, :2] @ np.diag([1.0, 1e-5]))
    _, Z, Zbar = jet_point(z, 2)
    with pytest.raises(ConvergenceError) as inverse:
        mat_inverse(Zbar @ Z)
    assert "cond 1.00e+10" in str(inverse.value)
    f = FunctionExpr.generator(np.eye(3))
    with pytest.raises(ConvergenceError) as generic:
        eval_function(f, Z, Zbar)
    with pytest.raises(ConvergenceError) as chart:
        _chart([f], Z, Zbar.value())
    assert str(generic.value) == str(chart.value) == str(inverse.value)


def test_eval_function_jet_needs_zbar():
    z = sample_point(_cfg(), 14)
    _, Z, _ = holomorphic_jet_point(z, 1)
    f = FunctionExpr.generator(np.eye(4))
    with pytest.raises(ValueError, match="Zbar"):
        eval_function(f, Z)
