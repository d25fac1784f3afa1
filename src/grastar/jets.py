"""Truncated multivariate Taylor (jet) arithmetic over complex coefficients.

A jet is a polynomial in formal offsets around a base point, truncated at a
total order; multiplying jets and reading off coefficients yields exact
mixed partial derivatives of composite expressions without symbolic
differentiation.  Holomorphic and antiholomorphic coordinates are separate,
unrelated variables: nothing in here ever conjugates a jet.

Coefficients live in dense numpy arrays over an explicit monomial basis.
Each ``JetRing`` fixes the variable count and the truncation order of the
total degree, and precomputes a multiplication table of the monomial pairs
whose product lies in the truncation.  Monomials are keyed by their
exponents read as digits in base ``order + 1``, which no exponent and no
table product reaches, so keys never carry.  The
table is ordered in blocks (a, b), the pairs whose first monomial has
degree a and whose second has degree b, so the pairs that can meet in a
product are a few contiguous ranges of it: a product reads the lowest and
highest degree its factors occupy and uses only the blocks in that
rectangle.  A constant factor then costs one pair per monomial, and an
affine one only the blocks with a <= 1.  ``MatrixJet`` keeps a matrix of
jets as one (rows, cols, size) coefficient array, and its product sums
the m products of each entry in work buffers before one scatter.
``mat_inverse`` solves M X = I one degree at a time, which for an affine
M touches only the blocks (1, d - 1).

A linear fraction K = Y (1 + W)^-1 of linear Y and W needs no table at
all: K = Y - K W, so its degree-d block is -K_{d-1} W for d >= 2, and the
coefficient of a degree-d monomial m is -sum_v K_{d-1}[m - e_v] W_v.  Each
ring keeps a degree-shift map, the index of m - e_v for every monomial m
and variable v, built on first use; ``linear_fraction`` then takes one
gather and one matrix product per degree.

Jet points share their rings through ``shared_ring``, a small bounded
cache, so a ring's table, its degree-shift map and the index maps cached
on it are built once; so does the associativity check, whose jets in
outer and inner offsets together never exceed the truncation order.
All rings share one set of work buffers: products are not thread-safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from grastar.errors import ConvergenceError, RangeError

_SCALARS = (int, float, complex, Fraction, np.integer, np.floating, np.complexfloating)

# pairs per scatter of a product: bounds a large ring's work buffers
_CHUNK = 1 << 18


class _Workspace:
    """Work buffers of table products, grown on demand to the largest chunk.

    Two factors and a running sum, one complex entry per pair.
    """

    def __init__(self):
        self._buffers = np.empty((3, 0), dtype=complex)

    def buffers(self, pairs: int) -> np.ndarray:
        if self._buffers.shape[1] < pairs:
            self._buffers = np.empty((3, pairs), dtype=complex)
        return self._buffers


# one workspace serves every ring: products run one at a time and return
# fresh arrays, and a workspace freed with each ring would leave its pages
# to fragment the heap
_WORK = _Workspace()


class JetRing:
    """Monomial basis and multiplication table for jets of a fixed shape.

    Monomials are sorted by key, the exponent vector read as digits in base
    ``order + 1``: no exponent exceeds the order, and the table pairs only
    monomials whose degrees sum to at most the order, so no key and no key
    sum of the table carries.  The multiplication table lists the pairs
    (i, j) block by block, a = deg i outer and b = deg j inner, and
    ``_offsets[a, b]`` is where block (a, b) starts; ``_offsets[a,
    order - a + 1]`` is where the blocks of degree a end.  The blocks (a,
    b_lo) ... (a, b_hi) are therefore one contiguous range, and so are all
    blocks with a in a range when b runs up to the truncation.
    """

    def __init__(self, nvars: int, order: int):
        if nvars < 0 or order < 0:
            raise ValueError("nvars and order must be nonnegative")
        self.nvars = nvars
        self.order = order
        base = order + 1
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
        self._shift = None
        self._table = None
        self._offsets = None
        self._targets = None

    def _gen_monomials(self) -> np.ndarray:
        """Every exponent vector within the order, one per row.

        Built one variable at a time, without recursion: a recursive closure
        would reference itself and ``self``, and that cycle would keep the
        ring with its table and buffers alive until a cyclic collection.
        """
        monos = np.zeros((1, 0), dtype=np.int64)
        for v in range(self.nvars):
            counts = self.order - monos.sum(axis=1) + 1
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

        Built block by block: block (a, b) pairs the monomials of degree a
        with those of degree b, for a + b <= order.  Every such pair is
        valid, and as no key digit carries within that bound, its key sum is
        its product's key.  Time and memory follow the pairs of one block,
        not ``size**2``.
        """
        if self._table is None:
            keys, order = self.keys, self.order
            by_degree = [np.flatnonzero(self.degree == d) for d in range(order + 1)]
            offsets = np.zeros((order + 1, order + 2), dtype=np.intp)
            parts = []
            count = 0
            for a in range(order + 1):
                rows = by_degree[a]
                for b in range(order - a + 1):
                    offsets[a, b] = count
                    cols = by_degree[b]
                    sums = (keys[rows][:, None] + keys[cols][None, :]).ravel()
                    parts.append(
                        (np.repeat(rows, len(cols)), np.tile(cols, len(rows)), np.searchsorted(keys, sums))
                    )
                    count += len(sums)
                offsets[a, order - a + 1] = count
            ti, tj, tk = (np.concatenate(a) for a in zip(*parts))
            del parts
            self._table = (ti, tj, tk)
            self._offsets = offsets
            # the bincount targets 2k, 2k+1 that sum the real and imaginary
            # halves of the interleaved float64 view of products into output k
            self._targets = np.empty(2 * len(tk), dtype=np.intp)
            self._targets[0::2] = 2 * tk
            self._targets[1::2] = 2 * tk + 1
        return self._table

    def degree_shift(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The degree-shift map, built on first use and kept on the ring.

        One pair (mons, below) per degree d = 1 ... order: ``mons`` are the
        indices of the degree-d monomials m, ascending, and ``below[k, v]``
        is the index of m - e_v for m = mons[k], or ``size`` where m has no
        factor x_v.  As keys ascend with the variable, the degree-1
        ``mons`` list x_0, x_1, ... in variable order.
        """
        if self._shift is None:
            self._shift = self._build_degree_shift()
        return self._shift

    def _build_degree_shift(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # m - e_v has key key(m) - base**v whenever x_v divides m
        below = np.searchsorted(self.keys, self.keys[:, None] - self._weights[None, :])
        below = np.where(self.monos > 0, below, self.size)
        shift = []
        for d in range(1, self.order + 1):
            mons = np.flatnonzero(self.degree == d)
            shift.append((mons, below[mons]))
        return shift

    def _degree_range(self, coeffs: np.ndarray):
        """Lowest and highest degree at which any vector of a stack is nonzero.

        ``coeffs`` holds coefficient vectors along its last axis; returns
        None when they are all zero.
        """
        degrees = self.degree[np.any(coeffs.reshape(-1, self.size) != 0, axis=0)]
        return (int(degrees.min()), int(degrees.max())) if len(degrees) else None

    def _rectangle(self, A: np.ndarray, B: np.ndarray):
        """The blocks that products of A's vectors with B's vectors can use.

        Returns (swap, blocks) with blocks as (a, b_lo, b_hi) triples.  The
        factor that occupies fewer degrees takes the first place (deg i =
        a), so a constant or affine factor reads one contiguous range;
        ``swap`` says that this is B.  Multiplication commutes and the
        table holds (j, i) with every (i, j), so either order is exact.
        """
        ra, rb = self._degree_range(A), self._degree_range(B)
        if ra is None or rb is None:
            return False, []
        swap = ra[1] - ra[0] > rb[1] - rb[0]
        (lo1, hi1), (lo2, hi2) = (rb, ra) if swap else (ra, rb)
        N = self.order
        return swap, [(a, lo2, min(hi2, N - a)) for a in range(lo1, min(hi1, N - lo2) + 1)]

    def _chunks(self, blocks):
        """The pairs of the blocks (a, b_lo, b_hi), in chunks of at most ``_CHUNK`` pairs.

        Each chunk is (ranges, targets): its (start, stop) ranges of the
        table, adjacent blocks merged into one range, and their bincount
        targets, a view of the ring's for a single range and a copy made
        for this product otherwise.
        """
        self._mult_table()
        off = self._offsets
        spans: list[tuple[int, int]] = []
        for a, b_lo, b_hi in blocks:
            if b_lo > b_hi:
                continue
            s, e = int(off[a, b_lo]), int(off[a, b_hi + 1])
            if s == e:
                continue
            if spans and spans[-1][1] == s:
                spans[-1] = (spans[-1][0], e)
            else:
                spans.append((s, e))
        groups: list[list[tuple[int, int]]] = []
        group, room = [], _CHUNK
        for s, e in spans:
            while s < e:
                step = min(e - s, room)
                group.append((s, s + step))
                s, room = s + step, room - step
                if room == 0:
                    groups.append(group)
                    group, room = [], _CHUNK
        if group:
            groups.append(group)
        chunks = []
        for group in groups:
            parts = [self._targets[2 * s : 2 * e] for s, e in group]
            chunks.append((group, parts[0] if len(parts) == 1 else np.concatenate(parts)))
        return chunks

    def _dot(self, C1, C2, chunks) -> np.ndarray:
        """sum_k C1[k] * C2[k] over the pairs in ``chunks``, scattered once per chunk.

        C1[k] is read at the first monomial of each pair, C2[k] at the
        second.  The products are packed into the shared work buffers, so
        this allocates nothing but its result.
        """
        ti, tj, _ = self._table
        acc, a, b = _WORK.buffers(max(len(t) for _, t in chunks) // 2)
        out = None
        for ranges, targets in chunks:
            for k in range(len(C1)):
                dst = acc if k == 0 else a
                n = 0
                for s, e in ranges:
                    # mode="clip" writes straight into ``out``; "raise" would buffer
                    C1[k].take(ti[s:e], out=dst[n : n + e - s], mode="clip")
                    C2[k].take(tj[s:e], out=b[n : n + e - s], mode="clip")
                    n += e - s
                np.multiply(dst[:n], b[:n], out=dst[:n])
                if k:
                    np.add(acc[:n], a[:n], out=acc[:n])
            part = np.bincount(targets, weights=acc[:n].view(np.float64), minlength=2 * self.size)
            if out is None:
                out = part
            else:
                out += part
        return out.view(complex)

    def multiply(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """Product of two coefficient vectors, through the blocks their degrees occupy."""
        C1 = np.asarray(c1, dtype=complex)[None]
        C2 = np.asarray(c2, dtype=complex)[None]
        swap, blocks = self._rectangle(C1, C2)
        chunks = self._chunks(blocks)
        if not chunks:
            return np.zeros(self.size, dtype=complex)
        if swap:
            C1, C2 = C2, C1
        return self._dot(C1, C2, chunks)

    def _matmul(self, A: np.ndarray, B: np.ndarray, blocks=None) -> np.ndarray:
        """Coefficients of sum_k A[i, k] B[k, j] for stacks (rows, m, size) and (m, cols, size).

        Without ``blocks`` the product uses the rectangle of degrees that A
        and B occupy; with them, A's entries take the first place and only
        those blocks are summed.
        """
        swap = False
        if blocks is None:
            swap, blocks = self._rectangle(A, B)
        chunks = self._chunks(blocks)
        out = np.zeros((A.shape[0], B.shape[1], self.size), dtype=complex)
        if chunks:
            for i in range(A.shape[0]):
                for j in range(B.shape[1]):
                    if swap:
                        out[i, j] = self._dot(B[:, j], A[i], chunks)
                    else:
                        out[i, j] = self._dot(A[i], B[:, j], chunks)
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

    def __repr__(self):
        return f"JetRing(nvars={self.nvars}, order={self.order}, size={self.size})"


@lru_cache(maxsize=8)
def shared_ring(nvars: int, order: int) -> JetRing:
    """The ring of this shape, built once per process and shared.

    The cache keeps the eight most recently used shapes.  Products return
    fresh arrays, so callers may share a ring as long as they do not run
    concurrently.
    """
    return JetRing(nvars, order)


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
    """A rectangular matrix of jets of one ring, as a (rows, cols, size) coefficient array."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: JetRing, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[2] != ring.size:
            raise ValueError(
                f"expected a (rows, cols, {ring.size}) coefficient array, got shape {coeffs.shape}"
            )
        self.ring = ring
        self.coeffs = coeffs

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def from_numeric(cls, ring: JetRing, array) -> "MatrixJet":
        array = np.asarray(array, dtype=complex)
        coeffs = np.zeros(array.shape + (ring.size,), dtype=complex)
        coeffs[:, :, ring.index_of((0,) * ring.nvars)] = array
        return cls(ring, coeffs)

    @classmethod
    def identity(cls, ring: JetRing, n: int) -> "MatrixJet":
        return cls.from_numeric(ring, np.eye(n))

    @classmethod
    def variables(cls, ring: JetRing, index) -> "MatrixJet":
        """The matrix whose (r, c) entry is the variable number ``index[r, c]``."""
        index = np.asarray(index)
        coeffs = np.zeros(index.shape + (ring.size,), dtype=complex)
        if ring.order:  # the linear terms lie beyond an order-0 truncation
            keys = ring._weights[index]
            pos = np.minimum(np.searchsorted(ring.keys, keys), ring.size - 1)
            if np.any(ring.keys[pos] != keys):
                raise KeyError("a variable's linear term is not in the truncation")
            rows, cols = np.indices(index.shape)
            coeffs[rows, cols, pos] = 1.0
        return cls(ring, coeffs)

    def __getitem__(self, idx) -> Jet:
        i, j = idx
        return Jet(self.ring, self.coeffs[i, j])

    def __setitem__(self, idx, jet: Jet) -> None:
        if jet.ring is not self.ring:
            raise ValueError("jets belong to different rings")
        i, j = idx
        self.coeffs[i, j] = jet.coeffs

    def value(self) -> np.ndarray:
        return self.coeffs[:, :, self.ring.index_of((0,) * self.ring.nvars)].copy()

    def _check_ring(self, other: "MatrixJet") -> None:
        if other.ring is not self.ring:
            raise ValueError("matrices belong to different rings")

    def __add__(self, other: "MatrixJet") -> "MatrixJet":
        self._check_ring(other)
        return MatrixJet(self.ring, self.coeffs + other.coeffs)

    def __sub__(self, other: "MatrixJet") -> "MatrixJet":
        self._check_ring(other)
        return MatrixJet(self.ring, self.coeffs - other.coeffs)

    def scale(self, factor) -> "MatrixJet":
        return MatrixJet(self.ring, self.coeffs * complex(factor))

    def __matmul__(self, other: "MatrixJet") -> "MatrixJet":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return MatrixJet(self.ring, self.ring._matmul(self.coeffs, other.coeffs))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


_COND_THRESHOLD = 1e-8


def conditioned_inverse(M0: np.ndarray) -> np.ndarray:
    """Inverse of the constant term of a jet matrix to be inverted.

    Raises ``ConvergenceError`` when M0 is singular or its condition
    number exceeds ``1 / _COND_THRESHOLD``.
    """
    sv = np.linalg.svd(M0, compute_uv=False)
    if sv[-1] <= _COND_THRESHOLD * sv[0] or sv[0] == 0:
        raise ConvergenceError(
            f"constant term is singular or ill-conditioned (cond {sv[0] / max(sv[-1], 1e-300):.2e})"
        )
    return np.linalg.inv(M0)


def mat_inverse(M: MatrixJet) -> MatrixJet:
    """Inverse of a square jet matrix, solved one degree at a time.

    Write M = sum_k M_k and X = sum_d X_d by homogeneous degree.  M X = I
    says M_0 X_0 = I and sum_{k=0..d} M_k X_{d-k} = 0 for d >= 1, so
    X_0 = M_0^-1 and X_d = -X_0 sum_{k=1..d} M_k X_{d-k}.  The sum for
    degree d uses only the table blocks (k, d - k) with k up to M's
    highest degree; for an affine M that is the block (1, d - 1).  This is
    exact in any truncation closed under divisors.
    The constant term must be well conditioned, and the residual of the
    full product M X is bounded relative to ``max(|M| |X|, 1)``, because
    the inverse of a jet whose constant term is small has coefficients far
    larger than 1.

    ``geometry.eval_function`` calls it for a jet point whose two sides
    both vary, as in ``star.star_jet_series``, which also inverts the Gram
    matrix of its offset point with it; a point with one side constant
    takes ``linear_fraction`` instead.
    """
    if M.rows != M.cols:
        raise ValueError("matrix must be square")
    ring = M.ring
    X0 = conditioned_inverse(M.value())
    X = MatrixJet.from_numeric(ring, X0)
    top = ring._degree_range(M.coeffs)[1]
    for d in range(1, ring.order + 1):
        # the degree-d part of sum_{k>=1} M_k X_{d-k}; X holds degrees below d
        blocks = [(k, d - k, d - k) for k in range(1, min(top, d) + 1)]
        T = ring._matmul(M.coeffs, X.coeffs, blocks)
        X.coeffs -= (X0 @ T.reshape(M.rows, -1)).reshape(T.shape)
    resid = ((M @ X) - MatrixJet.identity(ring, M.rows)).max_abs()
    if resid > 1e-10 * max(M.max_abs() * X.max_abs(), 1.0):
        raise ConvergenceError(f"jet matrix inverse misses its residual bound ({resid:.2e})")
    return X


def linear_fraction(L: np.ndarray, V: MatrixJet, R: np.ndarray) -> MatrixJet:
    """K = Y (1 + W)^-1 with Y = L V and W = R V, for a linear jet matrix V.

    V is n x m, L (rows x n) and R (m x n) are constant.  K = Y - K W, and
    W is linear, so the degree-d block of K is Y for d = 1 and -K_{d-1} W
    above it: the coefficient of a degree-d monomial m is
    -sum_v K_{d-1}[m - e_v] W_v, with W_v the coefficient matrix of x_v.
    Each degree is one gather through the ring's degree-shift map and one
    matrix product summing over (v, i); no table product and no inverse is
    involved.  Only the degree-1 coefficients of V are read, so an affine
    jet matrix z + V may be passed whole.
    """
    ring = V.ring
    rows, m = L.shape[0], V.cols
    if L.shape[1] != V.rows or R.shape != (m, V.rows):
        raise ValueError("shape mismatch")
    # K[a, k, b] is entry (a, b) at monomial k; the extra monomial ``size``
    # stays zero, so the gather reads 0 where x_v does not divide m
    K = np.zeros((rows, ring.size + 1, m), dtype=complex)
    shift = ring.degree_shift()
    if shift:
        lin = shift[0][0]
        V1 = V.coeffs.take(lin, axis=2).transpose(2, 0, 1)  # (v, n, m)
        K[:, lin, :] = (L @ V1).transpose(1, 0, 2)
        # rows (v, i) against the v-major, i-minor columns of the gather
        Wv = (R @ V1).reshape(-1, m)
        for mons, below in shift[1:]:
            # take, not fancy indexing: several times faster on the middle axis
            G = K.take(below, axis=1).reshape(rows * len(mons), -1)
            K[:, mons, :] = -(G @ Wv).reshape(rows, len(mons), m)
    return MatrixJet(ring, K[:, :-1, :].transpose(0, 2, 1))
