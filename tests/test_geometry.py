"""Points, invariant functions, the level representative and the Wick product."""

import json
from fractions import Fraction

import numpy as np
import pytest

import grastar.jets
from grastar import geometry
from grastar.errors import ConvergenceError, GrastarError
from grastar.geometry import (
    FunctionExpr,
    PointZ,
    SpaceConfig,
    antiholomorphic_jet_point,
    base_chart,
    base_point,
    check_invariant_u,
    eval_function,
    frame,
    gram,
    holomorphic_jet_point,
    level_representative,
    momentum,
    poisson_bracket,
    random_function_expr,
    rotate,
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


def _frame_point(z, Q, order, holomorphic):
    """(Q Z, Zbar Q^H) for the jet point (Z, Zbar) at z with holomorphic or antiholomorphic offsets.

    Pi(Q Z, Zbar Q^H) = Q Pi(Z, Zbar) Q^H, so an expression read there is
    its ``rotate``d form read at (Z, Zbar).
    """
    Z, Zbar = _one_sided_point(z, z.conj().T, order, holomorphic, (np.eye(len(z)), np.eye(z.shape[1])))
    return (
        MatrixJet(Z.ring, np.einsum("ab,bck->ack", Q, Z.coeffs)),
        MatrixJet(Z.ring, np.einsum("abk,cb->ack", Zbar.coeffs, Q.conj())),
    )


def _conjugate_transpose(M):
    """The jet matrix whose (i, j) entry has the conjugate coefficients of M's (j, i) entry."""
    return MatrixJet(M.ring, M.coeffs.conj().transpose(1, 0, 2))


@pytest.mark.parametrize("holomorphic", [True, False])
@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_chart_route_matches_generic_route(p, q, holomorphic):
    # base_chart reads tr(B Pi) off K = X2 (sqrt(mu) + X1)^-1 at the base
    # point e, in the frame Q of a point; generic eval_function forms
    # Pi = Z (Zbar Z)^-1 Zbar with the jet inverse at Q e, whose offsets are
    # rotated by Q.  At a point whose antiholomorphic side is the affine one,
    # Pi(Z, Zbar) is the conjugate transpose of Pi(Zbar^H, Z^H), so the
    # chart of the conjugate expression, conjugated, is the generic jet: the
    # identity star_eval reads g's tensors by.  Terms of up to three
    # generators and a constant, orders 0 ... 5 (the chart's degree 0 ... 3)
    # and three levels mu; the chart's K carries sqrt(mu)
    rng = np.random.default_rng(40 + 10 * p + q)
    for mu in (Fraction(1), Fraction(3, 2), Fraction(2, 5)):
        cfg = SpaceConfig(p, q, mu)
        n = cfg.n
        Q = frame(sample_point(cfg, int(rng.integers(1000))))
        e = Q @ base_point(cfg).z
        Bs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
        f = FunctionExpr([(0.5 - 1j, Bs), (2.0, Bs[1:]), (1j, Bs[:1]), (-0.3, [])])
        for order in range(6):
            ref = eval_function(f, *_frame_point(base_point(cfg).z, Q, order, holomorphic)).coeffs
            ring = shared_ring(n * p, order)
            if holomorphic:
                (got,) = base_chart(rotate([f], Q), ring, p, mu)
            else:
                (got,) = base_chart(rotate([f.conjugate()], Q), ring, p, mu)
                got.coeffs = got.coeffs.conj()
            assert got.coeffs[0] == pytest.approx(eval_function(f, PointZ(e)), rel=1e-13)
            assert np.max(np.abs(got.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref)), (mu, order)


def test_chart_table_is_built_once_per_ring_and_extended(monkeypatch):
    # the jets of K's monomials depend on no point: one linear_fraction per
    # ring, p and mu, kept on the ring and counted in its held bytes, beside
    # the ring of K's entries that the polynomials expand on; a longer term
    # extends both, and a fresh ring builds the rows alike
    charts = []
    monkeypatch.setattr(geometry, "linear_fraction", lambda *a: charts.append(1) or linear_fraction(*a))
    cfg = SpaceConfig(2, 2, Fraction(3, 2))
    n, p, order = cfg.n, cfg.p, 4
    rng = np.random.default_rng(41)
    Bs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    short, long = FunctionExpr([(1.0, Bs[:1]), (2.0, [])]), FunctionExpr([(1j, Bs), (0.5, Bs[1:])])
    ring = JetRing(n * p, order)
    base_chart([short], ring, p, cfg.mu)
    assert ring.kept[p][0].order == 1 and ring.held == ring.nbytes
    (got,) = base_chart([long], ring, p, cfg.mu)
    assert ring.kept[p][0].order == 3 and ring.held == ring.nbytes
    base_chart([short, long], ring, p, cfg.mu)
    assert charts == [1]
    (fresh,) = base_chart([long], JetRing(n * p, order), p, cfg.mu)
    assert np.array_equal(got.coeffs, fresh.coeffs)
    # constants alone build no K, and the first generator on that ring does
    ring = JetRing(n * p, order)
    base_chart([FunctionExpr.constant(2.0)], ring, p, cfg.mu)
    assert charts == [1, 1] and ring.kept[p, cfg.mu][0].shape == (1, ring.size)
    (again,) = base_chart([long], ring, p, cfg.mu)
    assert charts == [1, 1, 1] and np.array_equal(again.coeffs, fresh.coeffs)
    # a ring of order 0 holds the constant monomial only
    ring = JetRing(n * p, 0)
    (value,) = base_chart([long], ring, p, cfg.mu)
    assert charts == [1, 1, 1] and ring.kept[p, cfg.mu][0].shape == (1, 1)
    assert value.value() == pytest.approx(eval_function(long, base_point(cfg)), rel=1e-13)


@pytest.mark.parametrize("route", ["holomorphic", "antiholomorphic", "generic"])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (3, 1)])
def test_batched_generators_match_per_generator_reference(p, q, route, monkeypatch):
    # eval_function reads the distinct B of all its expressions off one Pi,
    # with one jet inverse and no chart, at any jet point; base_chart reads
    # them off one K, with no inverse, at the base point in a frame.  Each
    # must equal tr(B Pi) with Pi = Z (Zbar Z)^-1 Zbar formed on its own
    charts, inverses = [], []
    monkeypatch.setattr(grastar.jets, "_rings", {})
    monkeypatch.setattr(geometry, "linear_fraction", lambda *a: charts.append(1) or linear_fraction(*a))
    monkeypatch.setattr(geometry, "mat_inverse", lambda M: inverses.append(1) or mat_inverse(M))
    cfg = SpaceConfig(p, q)
    n, order = cfg.n, 3
    rng = np.random.default_rng(60 + 10 * p + q)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    Q = frame(sample_point(cfg, int(rng.integers(1000))))
    zeta = Q @ base_point(cfg).z
    mix = (cplx(n, n), cplx(p, p))
    if route == "generic":
        # both sides vary, in the same variables
        Z, _ = _one_sided_point(zeta, zeta.conj().T, order, True, mix)
        _, Zbar = _one_sided_point(zeta, zeta.conj().T, order, False, mix)
    elif route == "holomorphic":
        Z, Zbar = _frame_point(base_point(cfg).z, Q, order, True)
    else:
        Z, Zbar = _one_sided_point(zeta, zeta.conj().T, order, False, mix)
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
        results.append(base_chart(rotate(fs, Q), shared_ring(n * p, order), p, cfg.mu))
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
    # is one scatter through a table, however many terms there are; terms
    # of one generator and constants take none.  The chart expands it on the
    # ring of K's entries and passes over no table of the slot ring once its
    # monomials of K are built
    cfg = SpaceConfig(2, 2)
    n, p, order = cfg.n, cfg.p, 3
    rng = np.random.default_rng(19)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    ring = JetRing(n * p, order)
    Bs = [cplx(n, n) for _ in range(4)]
    terms = [(2 - 1j, [Bs[0], Bs[1]]), (0.5, [Bs[2], Bs[2]]), (1j, [Bs[3], Bs[0]])]
    f = FunctionExpr(terms + [(0.3, [Bs[1]]), (-1.0, [])])
    gens = base_chart([FunctionExpr.generator(B) for B in Bs], ring, p, cfg.mu)
    base_chart([f], ring, p, cfg.mu)
    dots = []
    dot = JetRing._dot
    monkeypatch.setattr(JetRing, "_dot", lambda self, *args: dots.append(self.nvars) or dot(self, *args))
    (got,) = base_chart([f], ring, p, cfg.mu)
    assert dots == [cfg.q * p]
    monkeypatch.undo()
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

    for name in ("linear_fraction", "base_chart", "_chart_table", "frame", "rotate"):
        monkeypatch.setattr(geometry, name, refuse)
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


@pytest.mark.parametrize("holomorphic", [True, False])
def test_frame_route_reads_a_point_the_jet_inverse_refuses(holomorphic):
    # singular values 1 and 1e-5 give the Gram matrix condition number 1e10,
    # past the jet inverse's bound, which the generic route keeps; the frame
    # of the point spans the same column space with orthonormal columns, so
    # the chart at the base point reads the jets there that the generic
    # route reads at the frame point
    rng = np.random.default_rng(13)
    Q0 = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    z = PointZ(Q0[:, :2] @ np.diag([1.0, 1e-5]))
    point = holomorphic_jet_point if holomorphic else antiholomorphic_jet_point
    _, Z, Zbar = point(z, 2)
    with pytest.raises(ConvergenceError) as inverse:
        mat_inverse(Zbar @ Z)
    assert "cond 1.00e+10" in str(inverse.value)
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f = FunctionExpr.generator(B)
    with pytest.raises(ConvergenceError) as generic:
        eval_function(f, Z, Zbar)
    assert str(generic.value) == str(inverse.value)
    cfg = SpaceConfig(2, 1)
    Q = frame(z)
    ref = eval_function(f, *_frame_point(base_point(cfg).z, Q, 2, holomorphic)).coeffs
    (got,) = base_chart(rotate([f if holomorphic else f.conjugate()], Q), shared_ring(6, 2), 2, cfg.mu)
    got = got.coeffs if holomorphic else got.coeffs.conj()
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert got[0] == pytest.approx(eval_function(f, z), rel=1e-9)


def test_eval_function_jet_needs_zbar():
    z = sample_point(_cfg(), 14)
    _, Z, _ = holomorphic_jet_point(z, 1)
    f = FunctionExpr.generator(np.eye(4))
    with pytest.raises(ValueError, match="Zbar"):
        eval_function(f, Z)
