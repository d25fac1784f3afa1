"""Points of the matrix space upstairs, invariant functions, and the Wick product.

A point is a full-rank (p+q) x p complex matrix z; the Grassmannian point
it represents is its column space.  The computable function algebra is
generated by the scalars tr(B Pi(z)) with Pi(z) = z (z^t z)^-1 z^t the
orthogonal projector onto the column space and B an arbitrary constant
matrix: these are invariant under the right Gl(p, C) action, closed under
complex conjugation (B -> B^t), and separate points.

Holomorphic and antiholomorphic arguments are passed separately (Z, Zbar)
so that jet evaluation can differentiate them independently; for a plain
numeric point Zbar is just the conjugate transpose of Z.

Every point has a frame: the unitary Q of a complete QR decomposition
z = Q [R; 0] (``frame``).  Pi(Q Z, Zbar Q^H) = Q Pi(Z, Zbar) Q^H, so f(Q Z)
is the expression ``rotate``d by Q (B -> Q^H B Q), and Q^H z spans the
column space of the base point e = sqrt(mu) [1_p; 0] (``base_point``).
The product reads every factor at e, in its frame.

Jets of the generators come by two independent routes.  With Zbar = e^H
constant and Z = e + V, V the matrix of slot variables, Pi = [[1, 0],
[K, 0]] with the chart coordinate K = X2 (sqrt(mu) + X1)^-1 of V's rows
X1 (the first p) and X2 (the last q), which depends on no point:
``base_chart`` expands each expression as a polynomial in the q p
entries of K and maps it to the slot ring by one matrix product with the
jets of K's monomials, built once per ring on the ring's table.
``series_charts`` reads the factors of a jet series off the same jets,
as polynomials in the chart coordinates of its outer and inner offsets.
``eval_function`` at any jet point forms Z (Zbar Z)^-1 Zbar as a jet
matrix, with ``jets.mat_inverse``.  No product path takes it: it is the
chart's reference in the tests, and serves the Wick product and the
Poisson bracket, which the verification suite holds the product against.
Every route expands expressions alike, by ``_eval_jets`` over the
``_trace_products`` of a jet matrix Pi: the terms of two generators of
an expression in one table pass.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from grastar.center import LambdaSeries
from grastar.errors import GrastarError
from grastar.jets import (
    Jet,
    JetRing,
    MatrixJet,
    mat_inverse,
    shared_ring,
)

RANK_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SpaceConfig:
    """Shape of the matrix space: (p+q) x p matrices, momentum level mu."""

    p: int
    q: int
    mu: Fraction = Fraction(1)

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be >= 1")
        object.__setattr__(self, "mu", Fraction(self.mu))
        if self.mu <= 0:
            raise ValueError("mu must be positive")

    @property
    def n(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class PointZ:
    """A full-rank (p+q) x p matrix; rank is checked on construction."""

    z: np.ndarray

    def __init__(self, z):
        z = np.array(z, dtype=complex)
        if z.ndim != 2 or z.shape[0] <= z.shape[1]:
            raise ValueError(f"expected a tall (p+q) x p matrix, got shape {z.shape}")
        sv = np.linalg.svd(z, compute_uv=False)
        if sv[-1] <= RANK_THRESHOLD * sv[0]:
            raise GrastarError("matrix is (numerically) rank deficient")
        object.__setattr__(self, "z", z)

    @property
    def p(self) -> int:
        return self.z.shape[1]

    @property
    def zbar(self) -> np.ndarray:
        return self.z.conj().T


def sample_point(cfg: SpaceConfig, seed: int) -> PointZ:
    """Seeded complex Gaussian point; deterministic per seed."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        z = (
            rng.standard_normal((cfg.n, cfg.p)) + 1j * rng.standard_normal((cfg.n, cfg.p))
        ) / np.sqrt(2)
        sv = np.linalg.svd(z, compute_uv=False)
        if sv[-1] > RANK_THRESHOLD * sv[0]:
            return PointZ(z)
    raise GrastarError("could not sample a full-rank point in 100 tries")


def gram(z: PointZ) -> np.ndarray:
    """x = z^t z, hermitian positive definite."""
    return z.zbar @ z.z


def momentum(z: PointZ) -> np.ndarray:
    """The momentum map value (i/2) x."""
    return 0.5j * gram(z)


def _inv_sqrt_hermitian(x: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(x)
    return U @ np.diag(1.0 / np.sqrt(w)) @ U.conj().T


def level_representative(z: PointZ, mu) -> PointZ:
    """zeta = z (z^t z)^(-1/2) mu^(1/2): same Grassmannian point, on the level set."""
    mu = float(Fraction(mu))
    zeta = z.z @ _inv_sqrt_hermitian(gram(z)) * np.sqrt(mu)
    return PointZ(zeta)


# ---------------------------------------------------------------------------
# invariant function expressions


class FunctionExpr:
    """Polynomial in the invariant generators tr(B Pi(z)).

    ``terms`` is a list of (coefficient, [B matrices]) pairs; an empty
    factor list is the constant function 1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        norm = []
        for coeff, factors in terms:
            norm.append(
                (
                    complex(coeff),
                    tuple(np.array(B, dtype=complex) for B in factors),
                )
            )
        self.terms = tuple(norm)

    @classmethod
    def one(cls) -> "FunctionExpr":
        return cls([(1.0, [])])

    @classmethod
    def constant(cls, value) -> "FunctionExpr":
        return cls([(value, [])])

    @classmethod
    def generator(cls, B) -> "FunctionExpr":
        return cls([(1.0, [B])])

    def conjugate(self) -> "FunctionExpr":
        """Pointwise complex conjugate: conjugated coefficients, B -> B^t."""
        return FunctionExpr(
            [
                (np.conj(coeff), [B.conj().T for B in factors])
                for coeff, factors in self.terms
            ]
        )

    def __add__(self, other: "FunctionExpr") -> "FunctionExpr":
        return FunctionExpr(list(self.terms) + list(other.terms))

    def scale(self, factor) -> "FunctionExpr":
        return FunctionExpr(
            [(coeff * factor, factors) for coeff, factors in self.terms]
        )

    # -- JSON wire format -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {
                    "coeff": [term[0].real, term[0].imag],
                    "factors": [
                        {"B": [[[x.real, x.imag] for x in row] for row in B]}
                        for B in term[1]
                    ],
                }
                for term in self.terms
            ]
        }

    @classmethod
    def from_json_obj(cls, obj) -> "FunctionExpr":
        """The expression of a ``to_json_obj`` document.

        Raises ``ValueError`` for a document of any other shape or with a
        number that is not finite.
        """
        terms = obj.get("terms") if isinstance(obj, dict) else None
        if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
            raise ValueError('expected a function as {"terms": [{"coeff": [re, im], "factors": [{"B": rows}]}]}')
        out = []
        for t in terms:
            factors = t.get("factors", [])
            if not isinstance(factors, list) or not all(isinstance(f, dict) for f in factors):
                raise ValueError('expected the factors of a term as [{"B": rows}, ...]')
            out.append((complex_from_json(t.get("coeff")), [matrix_from_json(f.get("B")) for f in factors]))
        return cls(out)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def loads(cls, text: str) -> "FunctionExpr":
        return cls.from_json_obj(json.loads(text))


def complex_from_json(x) -> complex:
    """The complex number of a JSON pair [re, im]; ``ValueError`` unless both are finite reals."""
    if isinstance(x, list) and len(x) == 2 and all(type(a) in (int, float) for a in x):
        try:
            value = complex(x[0], x[1])
        except OverflowError:  # an integer beyond the float range
            value = complex("inf")
        if cmath.isfinite(value):
            return value
    raise ValueError(f"expected a finite complex number as [re, im], got {x!r}")


def matrix_from_json(rows) -> np.ndarray:
    """The complex matrix of a JSON list of equally long rows of [re, im] pairs; ``ValueError`` otherwise."""
    if not (isinstance(rows, list) and rows and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"expected a matrix as a nonempty list of rows of [re, im] pairs, got {rows!r}")
    if len({len(row) for row in rows}) != 1:
        raise ValueError("matrix rows differ in length")
    return np.array([[complex_from_json(x) for x in row] for row in rows], dtype=complex)


def random_function_expr(cfg: SpaceConfig, rng, nterms: int = 2, maxdeg: int = 2) -> FunctionExpr:
    """A small random element of the generator algebra (for tests/suites)."""
    n = cfg.n
    terms = []
    for _ in range(nterms):
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        deg = int(rng.integers(1, maxdeg + 1))
        factors = [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
            for _ in range(deg)
        ]
        terms.append((coeff, factors))
    return FunctionExpr(terms)


def _trace_products(Bs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """tr(B X) for every B of a (k, a, b) stack and the (b, a, size) coefficients X of a jet matrix, as (k, size).

    tr(B X) = sum_{c,a} B^t[c, a] X[c, a], so the whole stack is one
    (k, b a) @ (b a, size) matrix product.
    """
    return Bs.transpose(0, 2, 1).reshape(len(Bs), -1) @ X.reshape(-1, X.shape[-1])


def frame(z: PointZ) -> np.ndarray:
    """The unitary n x n factor Q of a complete QR decomposition z = Q [R; 0], R p x p.

    Q^H z = [R; 0] spans the column space of ``base_point``, so every
    invariant f has f(z) = f_Q(e) with f_Q = ``rotate``(f, Q), and the
    jets of f_Q at e are those of f at Q e in offsets rotated by Q.
    """
    return np.linalg.qr(z.z, mode="complete")[0]


def base_point(cfg: SpaceConfig) -> PointZ:
    """e = sqrt(mu) [1_p; 0], on the level set e^t e = mu: the point every product is read at."""
    e = np.zeros((cfg.n, cfg.p), dtype=complex)
    e[range(cfg.p), range(cfg.p)] = np.sqrt(float(cfg.mu))
    return PointZ(e)


def rotate(fs, Q: np.ndarray) -> list:
    """The expressions fs in the frame Q: every B replaced by Q^H B Q, so that f_Q(Z) = f(Q Z).

    The distinct B of all of fs are rotated in one batched product.
    """
    distinct = _distinct_generators(fs)
    moved = dict(zip(distinct, Q.conj().T @ np.array(list(distinct.values())) @ Q)) if distinct else {}
    return [
        FunctionExpr([(coeff, [moved[B.tobytes()] for B in factors]) for coeff, factors in fn.terms])
        for fn in fs
    ]


def chart_degree(fs, order: int) -> int:
    """The generator count of the longest term of fs, at most ``order``: their degree as polynomials in K."""
    return min(order, max((len(factors) for fn in fs for _, factors in fn.terms), default=0))


def _chart_table(ring: JetRing, p: int, mu: Fraction, small: JetRing, degree: int) -> np.ndarray:
    """The (C(q p + degree, degree), ring.size) jets on ``ring`` of the monomials of degree <= ``degree`` in K's entries.

    The monomials are those of ``small``, a ring of the q p entries of K,
    entry (a, i) being variable a p + i, of order ``degree`` or higher, and
    row k is the jet of the k-th of them at K = X2 (sqrt(mu) + X1)^-1, V's
    slot A p + i being variable A p + i of ``ring``.  Every such ring lists
    its monomials by degree in one order, so the rows of one ring, p and mu
    serve every ``small``: they are kept on ``ring``, and a higher degree
    extends them.  K is built in place by its Neumann series, K_1 = X2 /
    sqrt(mu) and K_d = -K_{d-1} X1 / sqrt(mu), one table product with the
    linear X1 per degree; a monomial of degree d >= 2 is one of degree
    d - 1 times an entry of K, one pass over the table.
    """
    rows = comb(small.nvars + degree, degree)
    (kept,) = ring.kept.get((p, mu), ((),))
    if len(kept) >= rows:
        return kept[:rows]
    done, M = len(kept), np.empty((rows, ring.size), dtype=complex)
    if done:
        M[:done] = kept
    else:
        M[0] = np.eye(1, ring.size)  # the constant monomial leads every ring
        done = 1
    if done == 1 < rows:
        # variable v is the degree-1 monomial 1 + v, and X2's entries follow
        # X1's p p.  X1 / sqrt(mu) is given by its coefficients of degree <= 1,
        # all that the block (d - 1, 1) reads
        nz, qp, root = ring.nvars, small.nvars, 1 / np.sqrt(float(mu))
        done = 1 + qp
        M[1:done] = root * np.eye(qp, ring.size, 1 + p * p)
        K = M[1:done].reshape(qp // p, p, ring.size)
        X1 = root * np.eye(p * p, 1 + nz, 1, dtype=complex).reshape(p, p, 1 + nz)
        for d in range(2, ring.order + 1):
            K -= ring._matmul(K, X1, [(d - 1, 1, 1)])
    for k in range(done, rows):
        M[k] = ring.multiply(M[small._parent[k]], M[small._up[0, small._last[k]]])
    M.flags.writeable = False
    ring.keep((p, mu), (M,))
    return M


def base_chart(fs, ring: JetRing, p: int, mu) -> list:
    """The jets of the expressions fs at (e + V, e^H), V the n x p matrix of the variables of ``ring``.

    Slot A p + i, entry (A, i) of V, is variable A p + i, and e is
    ``base_point``.  Pi = [[1, 0], [K, 0]], so tr(B Pi) = tr(B11) +
    tr(B12 K) is affine in the entries of K, with B11 and B12 the first p
    rows of B split after column p: an expression whose longest term has D
    generators is a polynomial of degree D in them, and K has no constant
    term, so monomials of degree above the ring's order vanish.  The
    polynomials are expanded on a ring of K's entries kept on ``ring`` per
    p, of the highest D asked for so far, beside Pi's coefficients on it
    (``_eval_jets``), and mapped to ``ring`` by one matrix product with
    ``_chart_table``'s jets of K's monomials: no point enters, and a warm
    call passes over no table of ``ring``.  A jet series that reads those
    rows to a higher degree leaves that ring alone.
    """
    degree = chart_degree(fs, ring.order)
    small, Pi = ring.kept.get(p, (None, None))
    if small is None or small.order < degree:
        n, qp = ring.nvars // p, ring.nvars - p * p
        small = JetRing(qp, degree).warm()
        Pi = np.zeros((n, n, small.size), dtype=complex)
        Pi[range(p), range(p), 0] = 1
        if degree:  # K's entry (a, i) is the degree-1 monomial 1 + a p + i
            Pi[p:, :p] = np.eye(qp, small.size, 1).reshape(n - p, p, -1)
        ring.keep(p, (small, Pi))
    M = _chart_table(ring, p, Fraction(mu), small, small.order)
    polys = np.array([jet.coeffs for jet in _eval_jets(fs, small, lambda Bs: _trace_products(Bs, Pi))])
    return [Jet(ring, coeffs) for coeffs in polys @ M]


def _offset_ring(n: int, p: int, order: int):
    """(S, small, pairs, Pis) on which the factors of a jet series expand, built once per S and p and kept on S.

    S is the shared ring of the 2 q p entries of K_O, variables 0 ... qp - 1,
    and of K, variables qp ... 2 qp - 1, each entry (a, i) at a p + i;
    ``small`` the ring of q p variables at S's order, whose monomials index
    both; ``pairs[a, b]`` the index on S of K_O^a K^b, or S.size beyond the
    truncation; and Pis the (n, n, S.size) coefficients of L Pi L^-1 with
    L = 1 + [0; K_O] [1, 0], for Pi = [[1, 0], [K, 0]] and [[1, K^t], [0, 0]].
    """
    q, qp = n - p, (n - p) * p
    S = shared_ring(2 * qp, order)
    key = ("series", p)
    if key not in S.kept:
        small = JetRing(qp, order)
        pairs = np.empty((small.size, small.size), dtype=np.intp)
        pairs[:, 0] = S.leading(qp, order)  # the monomials of K_O lead S
        for d in range(1, order + 1):
            b = np.arange(small._starts[d], small._starts[d + 1])
            pairs[:, b] = S._up[pairs[:, small._parent[b]], qp + small._last[b]]
        # [1; 0], [0; K_O] and [0; K] as n x p jet matrices, and [1, 0]
        E, Et = MatrixJet.from_numeric(S, np.eye(n, p)), MatrixJet.from_numeric(S, np.eye(p, n))
        KO, K = (MatrixJet.from_numeric(S, np.zeros((n, p))) for _ in range(2))
        KO.coeffs[p:], K.coeffs[p:] = (np.eye(qp, S.size, 1 + v).reshape(q, p, -1) for v in (0, qp))
        one, shear = MatrixJet.identity(S, n), KO @ Et
        L, Linv = one + shear, one - shear
        Kt = MatrixJet(S, K.coeffs.transpose(1, 0, 2))
        Pis = [(L @ X @ Linv).coeffs for X in ((E + K) @ Et, E @ (Et + Kt))]
        S.keep(key, (small, pairs, *Pis))
    small, pairs, *Pis = S.kept[key]
    return S, small, pairs, Pis


def series_charts(f, g, ring: JetRing, p: int, mu, degree: int):
    """(M, Cf, Cg): the factors of a jet series at (e + O, e^H) as polynomials in K_O and K.

    O is the n x p matrix of the variables of ``ring`` and K_O its chart
    coordinate, K that of the inner offsets, and L = [[1, 0], [K_O, 1]]:
    f^L (every B replaced by L^-1 B L) reads L [[1, 0], [K, 0]] L^-1 with
    holomorphic inner offsets, and g^L reads L [[1, K^t], [0, 0]] L^-1 with
    antiholomorphic ones (see ``star.star_jet_series``).  Both expand on
    ``_offset_ring``'s ring of K_O's and K's entries.  ``Cf[a, b]`` and
    ``Cg[a, b]`` are the coefficients of K_O^a K^b over the monomials of
    degree <= ``degree`` in K's entries, and M is ``_chart_table``'s jets
    of those monomials on ``ring``: K_O^a is the jet M[a] in O, and K^b has
    the inner tensors of M[b].  ``degree`` must be at least f's generator
    count and twice g's, or ``ring``'s order.
    """
    S, small, pairs, Pis = _offset_ring(ring.nvars // p, p, ring.order)
    M = _chart_table(ring, p, Fraction(mu), small, degree)
    pick = pairs[: len(M), : len(M)]
    charts = [M]
    for fn, Pi in zip((f, g), Pis):
        (jet,) = _eval_jets([fn], S, lambda Bs: _trace_products(Bs, Pi))
        charts.append(np.append(jet.coeffs, 0)[pick])
    return charts


def eval_function(f, Z, Zbar=None):
    """Evaluate invariant expressions at a numeric point or a jet point.

    ``f`` is one ``FunctionExpr``, giving one result, or a sequence of
    them, giving a list.  With a ``PointZ`` or numpy matrix argument a
    result is a complex number; with ``MatrixJet`` arguments (Z
    holomorphic, Zbar antiholomorphic, both required) it is a jet.

    Every generator is tr(B Pi) with Pi = Z (Zbar Z)^-1 Zbar.  All
    expressions share one Pi: at a jet point it is formed as the jet
    matrix Z @ mat_inverse(Zbar @ Z) @ Zbar, whatever the degrees of Z and
    Zbar, and the distinct B of all of them are read off it in one matrix
    product.  This generic route is an oracle, on no product path: it
    serves the Wick product and the Poisson bracket, and is the reference
    for the charts; it never reads ``_chart_table``'s jets of K, which
    ``base_chart`` and ``series_charts`` read.  It raises
    ``ConvergenceError`` when the constant Gram matrix zb z is
    ill-conditioned.  Expressions with no generator at all form no Pi.
    """
    fs = [f] if isinstance(f, FunctionExpr) else list(f)
    if isinstance(Z, PointZ):
        Zbar = Z.zbar
        Z = Z.z
    if isinstance(Z, MatrixJet):
        if Zbar is None:
            raise ValueError("a jet point needs Zbar, its antiholomorphic matrix jet")
        out = _eval_jets(fs, Z.ring, lambda Bs: _trace_products(Bs, (Z @ mat_inverse(Zbar @ Z) @ Zbar).coeffs))
    else:
        Z = np.asarray(Z, dtype=complex)
        if Zbar is None:
            Zbar = Z.conj().T
        Pi = Z @ np.linalg.inv(Zbar @ Z) @ Zbar
        out = []
        for fn in fs:
            total = 0.0 + 0.0j
            for coeff, factors in fn.terms:
                term = coeff
                for B in factors:
                    term *= np.trace(B @ Pi)
                total += term
            out.append(complex(total))
    return out[0] if isinstance(f, FunctionExpr) else out


def _distinct_generators(fs) -> dict:
    """The distinct B of all of the expressions fs, keyed by their bytes, in order of first occurrence."""
    distinct = {}
    for fn in fs:
        for _, factors in fn.terms:
            for B in factors:
                distinct.setdefault(B.tobytes(), B)
    return distinct


def _eval_jets(fs, ring, traces) -> list:
    """The jets of the expressions fs, their distinct generators read in one batch.

    ``traces`` maps a (k, n, n) stack of B to the (k, size) coefficients
    of the jets tr(B Pi); it is called once, and only if there is a B.
    The terms of two generators of one expression, sum_t c_t g_t1 g_t2,
    are summed in one table pass; longer terms multiply pairwise.
    """
    distinct = _distinct_generators(fs)
    rows = traces(np.array(list(distinct.values()))) if distinct else ()
    generator = dict(zip(distinct, rows))
    out = []
    for fn in fs:
        total = np.zeros(ring.size, dtype=complex)
        firsts, seconds = [], []
        for coeff, factors in fn.terms:
            gens = [generator[B.tobytes()] for B in factors]
            if len(gens) == 2:
                firsts.append(coeff * gens[0])
                seconds.append(gens[1])
            elif not gens:
                total[0] += coeff  # the constant monomial leads every ring
            else:
                term = coeff * gens[0]
                for row in gens[1:]:
                    term = ring.multiply(term, row)
                total += term
        if firsts:
            total += ring.products_sum(np.array(firsts), np.array(seconds))
        out.append(Jet(ring, total))
    return out


def check_invariant_u(f: FunctionExpr, z: PointZ, U: np.ndarray, tol: float = 1e-10) -> bool:
    """Invariance of f under the right unitary action z -> zU."""
    return abs(eval_function(f, PointZ(z.z @ U)) - eval_function(f, z)) < tol


# ---------------------------------------------------------------------------
# the Wick product upstairs


def _as_evaluator(f):
    if isinstance(f, FunctionExpr):
        return lambda Z, Zbar: eval_function(f, Z, Zbar)
    return f


def holomorphic_jet_point(z: PointZ, order: int):
    """(Z, Zbar) with fresh holomorphic offsets; slot (A, i) is variable A*p + i.

    The ring is shared by every jet point of the same size and order.
    """
    n, p = z.z.shape
    ring = shared_ring(n * p, order)
    slots = np.arange(n * p).reshape(n, p)
    Z = MatrixJet.from_numeric(ring, z.z) + MatrixJet.variables(ring, slots)
    Zbar = MatrixJet.from_numeric(ring, z.zbar)
    return ring, Z, Zbar


def antiholomorphic_jet_point(z: PointZ, order: int):
    """(Z, Zbar) with fresh antiholomorphic offsets; slot (A, i) again A*p + i."""
    n, p = z.z.shape
    ring = shared_ring(n * p, order)
    slots = np.arange(n * p).reshape(n, p)
    Z = MatrixJet.from_numeric(ring, z.z)
    Zbar = MatrixJet.from_numeric(ring, z.zbar) + MatrixJet.variables(ring, slots.T)
    return ring, Z, Zbar


def wick_product(F, G, z: PointZ, order: int) -> LambdaSeries:
    """Truncated Wick star product of two functions at a point.

    Pairs holomorphic derivatives of F with antiholomorphic derivatives of
    G over all matrix entries: the coefficient of lambda^r is
    sum_{|m|=r} m! * (Taylor coeff of F) * (Taylor coeff of G).
    F and G may be ``FunctionExpr`` or callables (Z, Zbar) -> Jet.
    """
    ring_h, Zh, Zbarh = holomorphic_jet_point(z, order)
    ring_a, Za, Zbara = antiholomorphic_jet_point(z, order)
    jf = _as_evaluator(F)(Zh, Zbarh)
    jg = _as_evaluator(G)(Za, Zbara)
    out = LambdaSeries(order, [0j] * (order + 1))
    weights = ring_h.dfact  # prod of factorials per monomial
    prods = jf.coeffs * jg.coeffs * weights
    for idx in np.nonzero(prods)[0]:
        out.coeffs[int(ring_h.degree[idx])] += complex(prods[idx])
    return out


def poisson_bracket(F, G, z: PointZ) -> complex:
    """{F, G} normalized so the first-order Wick commutator is (i lambda/2){F, G}."""
    ring_h, Zh, Zbarh = holomorphic_jet_point(z, 1)
    ring_a, Za, Zbara = antiholomorphic_jet_point(z, 1)
    fh = _as_evaluator(F)(Zh, Zbarh).coeffs
    fa = _as_evaluator(F)(Za, Zbara).coeffs
    gh = _as_evaluator(G)(Zh, Zbarh).coeffs
    ga = _as_evaluator(G)(Za, Zbara).coeffs
    first = ring_h.degree == 1
    acc = np.sum(fh[first] * ga[first]) - np.sum(gh[first] * fa[first])
    return complex(-2j * acc)
