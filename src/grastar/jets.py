"""Truncated multivariate Taylor (jet) arithmetic over complex coefficients.

A jet is a polynomial in formal offsets around a base point, truncated at a
total order; multiplying jets and reading off coefficients yields exact
mixed partial derivatives of composite expressions without symbolic
differentiation.  Holomorphic and antiholomorphic coordinates are separate,
unrelated variables: nothing in here ever conjugates a jet.

Coefficients live in dense numpy arrays over an explicit monomial basis.
Each ``JetRing`` fixes the variable count, the truncation order and
optional per-variable-group degree caps, and precomputes a multiplication
table so that products are vectorized; this keeps the star-product engine
fast enough for the verification suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from grastar.errors import ConvergenceError, RangeError

_SCALARS = (int, float, complex, Fraction, np.integer, np.floating, np.complexfloating)


class JetRing:
    """Monomial basis and multiplication table for jets of a fixed shape.

    ``caps`` is an optional tuple of ``(start, stop, max_degree)`` triples
    limiting the total degree within variable groups, used to keep mixed
    outer/inner differentiation rings small.
    """

    def __init__(self, nvars: int, order: int, caps=()):
        if nvars < 0 or order < 0:
            raise ValueError("nvars and order must be nonnegative")
        self.nvars = nvars
        self.order = order
        self.caps = tuple((int(a), int(b), int(c)) for a, b, c in caps)
        base = 2 * order + 1
        if nvars and base**nvars >= 2**62:
            raise RangeError(
                f"jet ring with {nvars} variables at order {order} is too large"
            )
        self._base = base
        self.monos = self._gen_monomials()
        weights = base ** np.arange(nvars, dtype=np.int64) if nvars else np.zeros(0, dtype=np.int64)
        self._weights = weights
        keys = self.monos @ weights if nvars else np.zeros(len(self.monos), dtype=np.int64)
        sort = np.argsort(keys, kind="stable")
        self.monos = self.monos[sort]
        self.keys = keys[sort]
        self.size = len(self.keys)
        self.degree = self.monos.sum(axis=1)
        flut = np.array([factorial(k) for k in range(order + 1)], dtype=np.float64)
        fact = np.ones(self.size, dtype=np.float64)
        for v in range(nvars):
            fact *= flut[self.monos[:, v]]
        self.dfact = fact
        self._index_cache: dict[tuple[int, ...], int] = {}
        self._table = None
        self._work = None
        self._embed_cache: dict[tuple[int, int], np.ndarray] = {}

    def _gen_monomials(self) -> np.ndarray:
        """Every exponent vector within the order and the group caps, one per row.

        Built one variable at a time, without recursion: a recursive closure
        would reference itself and ``self``, and that cycle would keep the
        ring with its table and buffers alive until a cyclic collection.
        """
        monos = np.zeros((1, 0), dtype=np.int64)
        for v in range(self.nvars):
            limit = self.order - monos.sum(axis=1)
            for a, b, c in self.caps:
                if a <= v < b:
                    limit = np.minimum(limit, c - monos[:, a:v].sum(axis=1))
            counts = limit + 1
            starts = np.cumsum(counts) - counts
            degree = np.arange(counts.sum()) - np.repeat(starts, counts)
            monos = np.column_stack([np.repeat(monos, counts, axis=0), degree])
        return monos

    def index_of(self, multidegree) -> int:
        multidegree = tuple(int(d) for d in multidegree)
        if multidegree in self._index_cache:
            return self._index_cache[multidegree]
        key = int(np.dot(np.array(multidegree, dtype=np.int64), self._weights)) if self.nvars else 0
        pos = int(np.searchsorted(self.keys, key))
        if pos >= self.size or self.keys[pos] != key or tuple(self.monos[pos]) != multidegree:
            raise KeyError(f"multidegree {multidegree} not in truncation")
        self._index_cache[multidegree] = pos
        return pos

    def _mult_table(self):
        """Pairs (i, j) of monomials whose product lies in the truncation, and its index k.

        A monomial of degree d is paired only with the prefix of the
        degree-sorted monomials of degree at most ``order - d``.  Within
        that bound no key digit carries, so a key sum names a monomial
        exactly when it is one of ``keys``; that filter also enforces the
        group caps.  Time and memory follow the candidate pairs, not
        ``size**2``.
        """
        if self._table is None:
            keys = self.keys
            by_degree = np.argsort(self.degree, kind="stable")
            # below[d]: the number of monomials of degree at most d
            below = np.cumsum(np.bincount(self.degree, minlength=self.order + 1))
            parts = []
            for d in range(self.order + 1):
                rows = np.flatnonzero(self.degree == d)
                cols = by_degree[: below[self.order - d]]
                sums = (keys[rows][:, None] + keys[cols][None, :]).ravel()
                pos = np.minimum(np.searchsorted(keys, sums), self.size - 1)
                hit = np.flatnonzero(keys[pos] == sums)
                ri, ci = np.divmod(hit, len(cols))
                parts.append((rows[ri], cols[ci], pos[hit]))
            ti, tj, tk = (np.concatenate(a).astype(np.intp) for a in zip(*parts))
            self._table = (ti, tj, tk)
            # work buffers of the table product, one complex entry per pair, and
            # the bincount targets 2k, 2k+1 that sum the real and imaginary
            # halves of the interleaved float64 view of a product into output k
            targets = np.empty(2 * len(tk), dtype=np.intp)
            targets[0::2] = 2 * tk
            targets[1::2] = 2 * tk + 1
            products = np.empty(len(tk), dtype=complex)
            self._work = (products, np.empty_like(products), targets)
        return self._table

    def _multiply_table(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """Product through the table; allocates nothing but its result."""
        ti, tj, _ = self._mult_table()
        a, b, targets = self._work
        # mode="clip" writes straight into ``out``; "raise" would buffer
        np.take(np.asarray(c1, dtype=complex), ti, out=a, mode="clip")
        np.take(np.asarray(c2, dtype=complex), tj, out=b, mode="clip")
        np.multiply(a, b, out=a)
        out = np.bincount(targets, weights=a.view(np.float64), minlength=2 * self.size)
        return out.view(complex)

    def multiply(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        if self._table is not None:
            return self._multiply_table(c1, c2)
        nz1 = np.nonzero(c1)[0]
        nz2 = np.nonzero(c2)[0]
        if len(nz1) == 0 or len(nz2) == 0:
            return np.zeros(self.size, dtype=complex)
        if len(nz1) * len(nz2) > self.size * 8:
            return self._multiply_table(c1, c2)
        sums = (self.keys[nz1][:, None] + self.keys[nz2][None, :]).ravel()
        prod = (c1[nz1][:, None] * c2[nz2][None, :]).ravel()
        pos = np.searchsorted(self.keys, sums)
        pos = np.minimum(pos, self.size - 1)
        valid = self.keys[pos] == sums
        pos = pos[valid]
        prod = prod[valid]
        out = np.bincount(pos, weights=prod.real, minlength=self.size).astype(complex)
        out += 1j * np.bincount(pos, weights=prod.imag, minlength=self.size)
        return out

    def warm(self) -> "JetRing":
        """Force construction of the multiplication table."""
        self._mult_table()
        return self

    def zero(self) -> "Jet":
        return Jet(self, np.zeros(self.size, dtype=complex))

    def const(self, value) -> "Jet":
        out = self.zero()
        out.coeffs[self.index_of((0,) * self.nvars)] = complex(value)
        return out

    def var(self, index: int, base_value=0.0) -> "Jet":
        if not 0 <= index < self.nvars:
            raise RangeError(f"variable index {index} out of range 0..{self.nvars - 1}")
        out = self.const(base_value)
        if self.order == 0:  # the linear term lies beyond the truncation
            return out
        e = [0] * self.nvars
        e[index] = 1
        out.coeffs[self.index_of(tuple(e))] = 1.0
        return out

    def embed_map(self, target: "JetRing", offset: int = 0) -> np.ndarray:
        """Index map sending this ring's monomials into a larger ring."""
        cache_key = (id(target), offset)
        if cache_key not in self._embed_cache:
            tw = target._weights[offset : offset + self.nvars]
            keys = self.monos @ tw if self.nvars else np.zeros(self.size, dtype=np.int64)
            pos = np.searchsorted(target.keys, keys)
            if np.any(pos >= target.size) or np.any(target.keys[pos] != keys):
                raise RangeError("target ring does not contain the source truncation")
            self._embed_cache[cache_key] = pos.astype(np.int64)
        return self._embed_cache[cache_key]

    def __repr__(self):
        return f"JetRing(nvars={self.nvars}, order={self.order}, caps={self.caps}, size={self.size})"


class Jet:
    """Truncated Taylor expansion: coefficient vector over a ring's basis."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: JetRing, coeffs: np.ndarray):
        self.ring = ring
        self.coeffs = coeffs

    def value(self) -> complex:
        return complex(self.coeffs[self.ring.index_of((0,) * self.ring.nvars)])

    def coeff(self, multidegree) -> complex:
        return complex(self.coeffs[self.ring.index_of(multidegree)])

    def copy(self) -> "Jet":
        return Jet(self.ring, self.coeffs.copy())

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.ring is not self.ring:
                raise ValueError("jets belong to different rings")
            return other
        if isinstance(other, _SCALARS):
            return self.ring.const(complex(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.ring, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ring, -self.coeffs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.ring, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Jet(self.ring, self.coeffs * complex(other))
        if isinstance(other, Jet):
            if other.ring is not self.ring:
                raise ValueError("jets belong to different rings")
            return Jet(self.ring, self.ring.multiply(self.coeffs, other.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return Jet(self.ring, self.coeffs * complex(other))
        return NotImplemented

    def embed(self, target: JetRing, offset: int = 0) -> "Jet":
        out = target.zero()
        np.add.at(out.coeffs, self.ring.embed_map(target, offset), self.coeffs)
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.ring.size else 0.0

    def __repr__(self):
        nz = np.nonzero(self.coeffs)[0]
        terms = ", ".join(
            f"{tuple(self.ring.monos[i])}: {self.coeffs[i]:.6g}" for i in nz[:8]
        )
        more = "..." if len(nz) > 8 else ""
        return f"Jet({terms}{more})"


def extract_partial(j: Jet, multidegree) -> complex:
    """The true mixed partial derivative: coefficient times factorials."""
    idx = j.ring.index_of(multidegree)
    return complex(j.coeffs[idx]) * float(j.ring.dfact[idx])


# ---------------------------------------------------------------------------
# matrices of jets


class MatrixJet:
    """A rectangular matrix whose entries are jets of one shared ring."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: JetRing, data):
        self.ring = ring
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_numeric(cls, ring: JetRing, array) -> "MatrixJet":
        array = np.asarray(array, dtype=complex)
        return cls(ring, [[ring.const(x) for x in row] for row in array])

    @classmethod
    def identity(cls, ring: JetRing, n: int) -> "MatrixJet":
        return cls(
            ring,
            [[ring.const(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)],
        )

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def value(self) -> np.ndarray:
        return np.array(
            [[x.value() for x in row] for row in self.data], dtype=complex
        )

    def __sub__(self, other: "MatrixJet") -> "MatrixJet":
        return MatrixJet(
            self.ring,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def scale(self, factor) -> "MatrixJet":
        return MatrixJet(self.ring, [[x * factor for x in row] for row in self.data])

    def __matmul__(self, other: "MatrixJet") -> "MatrixJet":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.data[i][0] * other.data[0][j]
                for k in range(1, self.cols):
                    acc = acc + self.data[i][k] * other.data[k][j]
                row.append(acc)
            out.append(row)
        return MatrixJet(self.ring, out)

    def trace(self) -> Jet:
        acc = self.data[0][0]
        for i in range(1, self.rows):
            acc = acc + self.data[i][i]
        return acc

    def embed(self, target: JetRing, offset: int = 0) -> "MatrixJet":
        return MatrixJet(
            target, [[x.embed(target, offset) for x in row] for row in self.data]
        )

    def max_abs(self) -> float:
        return max(x.max_abs() for row in self.data for x in row)


_COND_THRESHOLD = 1e-8


def mat_inverse(M: MatrixJet) -> MatrixJet:
    """Inverse of a square jet matrix.

    The constant term is inverted numerically, then Newton iteration
    X <- X (2 I - M X) lifts the inverse through the nilpotent orders.
    I - M X starts at degree 1 and squares at each step, so
    ``order.bit_length()`` steps are exact to the truncation.  The residual
    bound is relative, because the inverse of a jet whose constant term is
    small has coefficients far larger than 1.
    """
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    ring = M.ring
    M0 = M.value()
    sv = np.linalg.svd(M0, compute_uv=False)
    if sv[-1] <= _COND_THRESHOLD * sv[0] or sv[0] == 0:
        raise ConvergenceError(
            f"constant term is singular or ill-conditioned (cond {sv[0] / max(sv[-1], 1e-300):.2e})"
        )
    X = MatrixJet.from_numeric(ring, np.linalg.inv(M0))
    identity = MatrixJet.identity(ring, M.rows)
    two_I = identity.scale(2.0)
    for _ in range(ring.order.bit_length()):
        X = X @ (two_I - M @ X)
    resid = ((M @ X) - identity).max_abs()
    if resid > 1e-10 * max(M.max_abs() * X.max_abs(), 1.0):
        raise ConvergenceError(f"jet matrix inverse misses its residual bound ({resid:.2e})")
    return X
