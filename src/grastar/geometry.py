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

Jets of the generators come by two independent routes.  Pi is unchanged
by Z -> Z g, so with Zbar = zb constant and Z = z + V affine it depends
only on the affine-chart coordinate K = S V (1 + W)^-1: ``chart_jets``,
which the product calls by name, reads the generators off K, given the
numeric z and zb and V's degree-1 coefficients, with no jet inverse and
no jet matrix but K.  ``eval_function`` at any jet point forms
Z (Zbar Z)^-1 Zbar as a jet matrix.  Only the second factor of
``star.star_jet_series``, whose two sides both vary, needs it on a
product path; it is the chart's reference in the tests, and serves the
Wick product and the Poisson bracket.  Both routes multiply the
generators of an expression alike: its terms of two generators in one
table pass.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from grastar.center import LambdaSeries
from grastar.errors import GrastarError
from grastar.jets import (
    Jet,
    MatrixJet,
    conditioned_inverse,
    linear_fraction,
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


def _trace_products(Bs: np.ndarray, X: MatrixJet) -> np.ndarray:
    """tr(B X) for every B of a (k, a, b) stack and a b x a jet matrix X, as (k, size) coefficients.

    tr(B X) = sum_{c,a} B^t[c, a] X[c, a], so the whole stack is one
    (k, b a) @ (b a, size) matrix product.
    """
    return Bs.transpose(0, 2, 1).reshape(len(Bs), -1) @ X.coeffs.reshape(-1, X.ring.size)


def chart_jets(fs, ring, z: np.ndarray, V1: np.ndarray, zb: np.ndarray) -> list:
    """The jets of the expressions fs at (z + V, zb), V = sum_v x_v V1[v] linear and zb constant.

    V1 is the (nvars, n, p) tensor of V's degree-1 coefficients over the
    variables of ``ring``; no n x p jet matrix is formed.  Pi is unchanged
    by Z -> Z g, so it depends only on the affine-chart coordinate K.  With
    x0 = zb z, A = x0^-1 zb and W = A V, the rank-q projector 1 - z A
    factors as U S, and
    Pi = (z + V)(1 + W)^-1 A = z A + U K A,  K = S V (1 + W)^-1,
    since V = z W + U S V.  So tr(B Pi) = tr(B z A) + tr((A B U) K), and
    every distinct B of all of fs is read off one q x p K, from
    ``linear_fraction``, in one matrix product: no jet inverse and no
    n x n jet matrix.  Raises ``ConvergenceError`` when zb z is
    ill-conditioned, with the message of ``mat_inverse``; expressions with
    no generator at all build no K.
    """

    def traces(Bs):
        n, p = z.shape
        A = conditioned_inverse(zb @ z) @ zb
        P = z @ A
        u, s, vh = np.linalg.svd(np.eye(n) - P)
        U, S = u[:, : n - p], s[: n - p, None] * vh[: n - p]
        out = _trace_products(A @ Bs @ U, linear_fraction(ring, S, V1, A))
        # tr(B z A) goes to the constant monomial, which leads every ring
        out[:, 0] += Bs.reshape(len(Bs), -1) @ P.T.reshape(-1)
        return out

    return _eval_jets(fs, ring, traces)


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
    product.  This generic route serves the second factor of
    ``star.star_jet_series``, whose two sides both vary, and is the
    reference for everything else: it never calls ``linear_fraction``,
    which ``chart_jets`` reads where one side is constant.  It raises
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
        out = _eval_jets(fs, Z.ring, lambda Bs: _trace_products(Bs, Z @ mat_inverse(Zbar @ Z) @ Zbar))
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


def _eval_jets(fs, ring, traces) -> list:
    """The jets of the expressions fs, their distinct generators read in one batch.

    ``traces`` maps a (k, n, n) stack of B to the (k, size) coefficients
    of the jets tr(B Pi); it is called once, and only if there is a B.
    The terms of two generators of one expression, sum_t c_t g_t1 g_t2,
    are summed in one table pass; longer terms multiply pairwise.
    """
    distinct = {}
    for fn in fs:
        for _, factors in fn.terms:
            for B in factors:
                distinct.setdefault(B.tobytes(), B)
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
