"""Truncated multivariate Taylor (jet) arithmetic over complex coefficients.

A jet is a polynomial in formal offsets around a base point, truncated at a
total order; multiplying jets and reading off coefficients yields exact
mixed partial derivatives of composite expressions without symbolic
differentiation.  Holomorphic and antiholomorphic coordinates are separate,
unrelated variables: nothing in here ever conjugates a jet.

Coefficients live in dense numpy arrays over the monomial basis of a
``JetRing``, which fixes the variable count and the truncation order.  The
basis is graded: by degree, and colexicographic within a degree.  So the
monomials of degree <= D are a prefix, the basis of the ring of order D,
and within a degree those in the first k variables lead, in the order of a
ring of k variables.  One index map, built with the ring, gives the index
of m x_v for every monomial m and variable v; ``index_of``, the
multiplication table and the indices of slot-tuple monomials, one per
sorted row tuple of a matrix of variables (every order concatenated, for
one gather; the one row of a 1 x k matrix lists every tuple), all derive
from it.  The table lists the pairs whose product lies in the truncation
in blocks of their degrees.
A product, or a sum of products, of expression jets, which fill every
degree, reads the whole table; a product of jet matrices reads only the
rectangle of blocks its entries' degrees occupy.

The only size limit is memory: ``check_memory`` estimates the bytes of a
ring's maps and table, of the largest tensor array read from it and of
the matrices a caller holds beside them, and raises ``RangeError`` above
``MEMORY_BUDGET`` before anything is allocated; every ring checks itself.
Products and jet points share their rings, with everything cached on
them, through ``shared_ring``, a small bounded cache whose rings ``star``
counts against the budget.  A ring keeps the bytes it holds in ``held``,
current whenever it builds or keeps an array, so that count costs no scan.
All rings share one set of work buffers: products are not thread-safe.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, prod

import numpy as np

from grastar.errors import ConvergenceError, RangeError

_SCALARS = (int, float, complex, Fraction, np.integer, np.floating, np.complexfloating)

# pairs per scatter of a product: bounds a large ring's work buffers
_CHUNK = 1 << 18

# the largest estimate ``check_memory`` lets through, in bytes
MEMORY_BUDGET = 2 << 30


def check_memory(nvars: int, order: int, tensor_entries: int = 0, matrix_entries: int = 0) -> int:
    """The estimated bytes of a ring of this shape, a tensor array and matrices.

    Raises ``RangeError`` if they would not fit.  The estimate allocates
    nothing.  It counts 40 B per pair of the ring's table (three indices
    and two scatter targets; C(2 nvars + order, order) pairs), 64 B per
    pair of a product's largest chunk (at most ``_CHUNK``) for the shared
    work buffers and its targets, copied when it spans several ranges, 8 B
    per monomial and variable for the index map, 96 B per entry of the
    largest tensor array a caller reads from the ring (its index, the
    gathered coefficients, their weights, the products formed from them
    and the lower orders held beside it) and 8 B per entry of the float64
    matrices a caller holds beside them.
    """
    if nvars < 0 or order < 0:
        raise ValueError("nvars and order must be nonnegative")
    pairs = comb(2 * nvars + order, order)
    need = 40 * pairs + 64 * min(pairs, _CHUNK) + 8 * (comb(nvars + order, order) + 1) * nvars
    need += 96 * tensor_entries + 8 * matrix_entries
    if need > MEMORY_BUDGET:
        raise RangeError(
            f"estimated memory {need / 2**30:.3g} GiB exceeds the budget of {MEMORY_BUDGET / 2**30:.3g} GiB"
            f" (jet ring of {nvars} variables at order {order}, tensors of {tensor_entries} entries,"
            f" matrices of {matrix_entries} entries)"
        )
    return need


@cache
def sorted_tuples(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The nondecreasing r-tuples of range(n), lexicographic, and their orbit sizes.

    Returns a (C(n + r - 1, r), r) array of tuples and, per tuple, the
    number r! / prod mult! of r-tuples that rearrange it, as floats.
    """
    tuples = list(itertools.combinations_with_replacement(range(n), r))
    weights = [factorial(r) // prod(factorial(m) for m in Counter(t).values()) for t in tuples]
    out = np.array(tuples, dtype=np.intp).reshape(len(tuples), r), np.array(weights, dtype=float)
    for a in out:
        a.flags.writeable = False
    return out


# work buffers of table products, grown on demand to the largest chunk: two
# factors and a running sum, one complex entry per pair.  One set serves
# every ring: products run one at a time and return fresh arrays, and
# buffers freed with each ring would leave their pages to fragment the heap
_work = np.empty((3, 0), dtype=complex)


def _work_buffers(pairs: int) -> np.ndarray:
    global _work
    if _work.shape[1] < pairs:
        _work = None  # the old set is freed before the larger one is allocated
        _work = np.empty((3, pairs), dtype=complex)
    return _work


class JetRing:
    """Graded monomial basis, index map and multiplication table for jets of a fixed shape.

    Degree d occupies ``_starts[d]:_starts[d + 1]``, ordered by highest
    variable w; those with highest variable w are m x_w for the degree-d
    monomials m in the variables 0 ... w, which lead degree d.  So m x_w
    for w at least m's highest variable lies at ``_starts[d + 1] +
    C(w + d, d + 1) + rank(m)``, rank(m) being m's place in its degree; a
    lower w goes through m = m' x_u: m x_w = (m' x_w) x_u.  ``_up[k, v]``
    is the index of m x_v for monomial k, or ``size`` beyond the
    truncation, and its extra row ``size`` maps every variable to ``size``.

    The table lists the pairs (i, j) block by block, a = deg i outer and
    b = deg j inner; ``_offsets[a, b]`` is where block (a, b) starts and
    ``_offsets[a, order - a + 1]`` where the blocks of degree a end.  The
    blocks (a, b_lo) ... (a, b_hi) are therefore one contiguous range.

    ``held`` is the bytes of every array the ring holds, added to as it
    builds each lazily; ``nbytes`` recounts them.  ``kept`` holds what a
    caller derives from the ring once and stores with ``keep``.
    """

    def __init__(self, nvars: int, order: int):
        check_memory(nvars, order)
        self.nvars = nvars
        self.order = order
        self.size = comb(nvars + order, order)
        self.held = 0
        self._build_index()
        self._multisets: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray, list, list]] = {}
        self._table = self._offsets = self._targets = None
        self.kept: dict = {}

    def _hold(self, *arrays: np.ndarray) -> None:
        self.held += sum(a.nbytes for a in arrays)

    def keep(self, key, parts: tuple) -> None:
        """Keep ``parts``, arrays or rings built from this ring, under ``key``, in place of what it held there.

        A kept ring must be complete: ``held`` counts its bytes once, now.
        """
        self.held += sum(a.nbytes for a in parts) - sum(a.nbytes for a in self.kept.get(key, ()))
        self.kept[key] = parts

    def _build_index(self) -> None:
        """The index map ``_up``, ``degree`` and ``dfact``, degree by degree.

        ``_parent[k]`` and ``_last[k]`` give monomial k as m' x_u: the index
        of m' and u, k's highest variable (0 for the constant).
        """
        n, size = self.nvars, self.size
        up = np.full((size + 1, n), size, dtype=np.intp)
        parent = np.zeros(size, dtype=np.intp)
        last = np.zeros(size, dtype=np.intp)
        power = np.zeros(size, dtype=np.intp)  # the exponent of the highest variable
        dfact = np.ones(size)
        starts = [0, 1]
        var = np.arange(n)
        rank = np.arange(size)
        counts = np.ones(n, dtype=np.intp)
        for d in range(self.order):
            s, e = starts[d], starts[d + 1]
            # degree d + 1 by highest variable w: C(w + d, d) monomials each
            if d:
                counts = counts.cumsum()
            seg = counts.cumsum() - counts
            own = e + seg + rank[: e - s, None]
            u = last[s:e, None]
            up[s:e] = np.where(var >= u, own, own[up[parent[s:e]] - s, u]) if d else own
            stop = e + int(counts.sum())
            par, child = parent[e:stop], last[e:stop]
            par[:] = rank[s : s + stop - e] - seg.repeat(counts)
            child[:] = var.repeat(counts)
            power[e:stop] = np.where(last[par] == child, power[par] + 1, 1)
            dfact[e:stop] = dfact[par] * power[e:stop]
            starts.append(stop)
        self._up, self._parent, self._last = up, parent, last
        self._starts = starts
        self.degree = np.repeat(np.arange(self.order + 1), np.diff(starts))
        self.dfact = dfact
        self._hold(up, parent, last, self.degree, dfact)

    @cached_property
    def monos(self) -> np.ndarray:
        """The exponent vectors, one row per monomial, built on first use."""
        monos = np.zeros((self.size, self.nvars), dtype=np.int64)
        s = self._starts
        for d in range(1, self.order + 1):
            k = np.arange(s[d], s[d + 1])
            monos[k] = monos[self._parent[k]]
            monos[k, self._last[k]] += 1
        self._hold(monos)
        return monos

    def index_of(self, multidegree) -> int:
        md = [int(d) for d in multidegree]
        if len(md) != self.nvars or min(md, default=0) < 0 or sum(md) > self.order:
            raise KeyError(f"multidegree {tuple(md)} not in truncation")
        k = 0
        for v, e in enumerate(md):
            for _ in range(e):
                k = self._up[k, v]
        return int(k)

    def leading(self, nvars: int, order: int) -> np.ndarray:
        """Indices of the monomials of ``JetRing(nvars, order)``, in its order: they lead each degree."""
        if not (0 < nvars <= self.nvars and 0 <= order <= self.order):
            raise ValueError(f"JetRing({nvars}, {order}) is not a leading part of {self!r}")
        return np.concatenate(
            [self._starts[d] + np.arange(comb(nvars + d - 1, d)) for d in range(order + 1)]
        )

    def multiset_indices(self, r: int, rows: int, cols: int, first: int = 0, start=None) -> np.ndarray:
        """Index of m x_{s_1} ... x_{s_r} for every sorted row tuple, column tuple and monomial m.

        The variables from ``first`` on are the entries of a rows x cols
        matrix, entry (a, i) being variable first + a cols + i, and slot k
        of a tuple is entry (A_k, I_k).  Axis 0 runs over the row tuples A
        of ``sorted_tuples(rows, r)``, axis 1 over all column tuples I,
        lexicographic with the first slot most significant, and axis 2,
        given ``start``, over the monomials m = ``start``.  Without
        ``start`` m is the constant, and the (C(rows + r - 1, r), cols^r)
        array is a read-only view of ``multiset_gather``'s.  A 1 x k matrix
        has one row tuple, so row 0 of ``multiset_indices(r, 1, k, first,
        start)`` lists every ordered r-tuple of the k variables from
        ``first`` on; given ``start`` nothing is cached.  ``KeyError`` if a
        product passes the truncation.
        """
        if start is None:
            if not 0 <= r <= self.order:
                raise KeyError(f"degree-{r} products of the variables are not all in the truncation at order {self.order}")
            return self.multiset_gather(rows, cols, first)[3][r]
        A = sorted_tuples(rows, r)[0]
        # the column tuples, lexicographic: the first slot is the most significant digit
        I = np.indices((cols,) * r).reshape(r, cols**r).T
        slots = first + A[:, None, :] * cols + I[None, :, :]
        m = np.asarray(start, dtype=np.intp)
        idx = np.broadcast_to(m, slots.shape[:2] + m.shape)
        up = self._up.ravel()
        for k in range(r):
            idx = up.take(idx * self.nvars + slots[:, :, k, None])
        if idx.size and idx.max() == self.size:
            raise KeyError(f"degree-{r} products of the variables are not all in the truncation at order {self.order}")
        return idx

    def multiset_gather(self, rows: int, cols: int, first: int = 0):
        """The slot-tuple monomials of ``multiset_indices`` for orders 0 ... order, in one array.

        Returns (idx, weights, bounds, views): the indices of orders 0 ...
        order, each raveled, concatenated; ``dfact`` at them; the offset
        ``bounds[r]`` where order r starts, ``bounds[order + 1]`` being the
        end; and the per-order (C(rows + r - 1, r), cols^r) views of idx.
        So one gather reads every order's tensor.  Built once per (rows,
        cols, first) and kept on the ring, read-only.
        """
        key = (rows, cols, first)
        if key not in self._multisets:
            blocks = [self.multiset_indices(r, rows, cols, first, start=[0])[:, :, 0] for r in range(self.order + 1)]
            bounds = np.cumsum([0] + [b.size for b in blocks]).tolist()
            idx = np.concatenate([b.ravel() for b in blocks])
            weights = self.dfact[idx]
            idx.flags.writeable = weights.flags.writeable = False
            self._hold(idx, weights)
            views = [idx[s:e].reshape(b.shape) for s, e, b in zip(bounds, bounds[1:], blocks)]
            self._multisets[key] = idx, weights, bounds, views
        return self._multisets[key]

    def _mult_table(self):
        """Pairs (i, j) of monomials whose product lies in the truncation, and its index k.

        Built one degree a of i at a time: every j of degree b <= order - a
        pairs with every i, and j = j' x_u gives i j = (i j') x_u, one
        gather through the index map per degree b.  Each block is written in
        place into the table's C(2 nvars + order, order) pairs.
        """
        if self._table is None:
            order, starts, n = self.order, self._starts, self.nvars
            up = self._up.ravel()
            pairs = comb(2 * n + order, order)
            ti, tj, tk = (np.empty(pairs, dtype=np.intp) for _ in range(3))
            offsets = np.zeros((order + 1, order + 2), dtype=np.intp)
            count = 0
            for a in range(order + 1):
                rows = np.arange(starts[a], starts[a + 1])
                cols = starts[order - a + 1]
                # prod[j] lists the index of monomial j times each row
                prod = np.empty((cols, len(rows)), dtype=np.intp)
                prod[0] = rows
                for b in range(1, order - a + 1):
                    s, e = starts[b], starts[b + 1]
                    prod[s:e] = up.take(prod[self._parent[s:e]] * n + self._last[s:e, None])
                # block (a, b) lists its pairs row by row, i then j
                for b in range(order - a + 1):
                    s, e = starts[b], starts[b + 1]
                    offsets[a, b] = count
                    stop = count + len(rows) * (e - s)
                    ti[count:stop] = rows.repeat(e - s)
                    tj[count:stop].reshape(len(rows), e - s)[:] = np.arange(s, e)
                    tk[count:stop].reshape(len(rows), e - s)[:] = prod[s:e].T
                    count = stop
                offsets[a, order - a + 1] = count
            self._table = (ti, tj, tk)
            self._offsets = offsets
            # the bincount targets 2k, 2k+1 that sum the real and imaginary
            # halves of the interleaved float64 view of products into output k
            self._targets = np.empty(2 * pairs, dtype=np.intp)
            self._targets[0::2] = 2 * tk
            self._targets[1::2] = 2 * tk + 1
            self._hold(ti, tj, tk, offsets, self._targets)
        return self._table

    def _degree_range(self, coeffs: np.ndarray):
        """Lowest and highest degree at which any vector of a stack is nonzero.

        ``coeffs`` holds coefficient vectors along its last axis; returns
        None when they are all zero.  The basis is graded, so these are the
        degrees of the first and the last monomial at which any is nonzero.
        """
        nonzero = np.flatnonzero(np.any(coeffs.reshape(-1, self.size) != 0, axis=0))
        return (int(self.degree[nonzero[0]]), int(self.degree[nonzero[-1]])) if len(nonzero) else None

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
            s, e = int(off[a, b_lo]), int(off[a, b_hi + 1])
            if s >= e:  # no pairs, or b_lo > b_hi
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
        parts = [[self._targets[2 * s : 2 * e] for s, e in group] for group in groups]
        return [(group, t[0] if len(t) == 1 else np.concatenate(t)) for group, t in zip(groups, parts)]

    def _dot(self, C1, C2, chunks) -> np.ndarray:
        """sum_k C1[k] * C2[k] over the pairs in ``chunks``, scattered once per chunk.

        C1[k] is read at the first monomial of each pair, C2[k] at the
        second.  The products are packed into the shared work buffers, so
        this allocates nothing but its result.
        """
        ti, tj, _ = self._table
        acc, a, b = _work_buffers(max(len(t) for _, t in chunks) // 2)
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
        """Product of two coefficient vectors, in one pass over the whole table."""
        return self.products_sum(np.asarray(c1, dtype=complex)[None], np.asarray(c2, dtype=complex)[None])

    def products_sum(self, C1: np.ndarray, C2: np.ndarray) -> np.ndarray:
        """sum_k C1[k] * C2[k] for two nonempty (k, size) stacks, in one pass over the whole table.

        Its callers multiply jets of expressions, which fill every degree,
        so their degrees are not scanned.
        """
        N = self.order
        return self._dot(C1, C2, self._chunks([(a, 0, N - a) for a in range(N + 1)]))

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

    @property
    def nbytes(self) -> int:
        """The bytes of the arrays the ring holds, its table, cached indices and kept parts included once built.

        A recount, the reference for ``held``.
        """
        held = [self._up, self._parent, self._last, self.degree, self.dfact, self.__dict__.get("monos")]
        held += [*(self._table or ()), self._offsets, self._targets]
        held += [a for idx, weights, _, _ in self._multisets.values() for a in (idx, weights)]
        held += [part for parts in self.kept.values() for part in parts]
        return sum(a.nbytes for a in held if a is not None)

    def warm(self) -> "JetRing":
        """Force construction of the multiplication table."""
        self._mult_table()
        return self

    def zero(self) -> "Jet":
        return Jet(self, np.zeros(self.size, dtype=complex))

    def const(self, value) -> "Jet":
        out = self.zero()
        out.coeffs[0] = complex(value)  # the constant monomial leads the ring
        return out

    def var(self, index: int, base_value=0.0) -> "Jet":
        if not 0 <= index < self.nvars:
            raise RangeError(f"variable index {index} out of range 0..{self.nvars - 1}")
        out = self.const(base_value)
        if self.order:  # the linear term lies beyond an order-0 truncation
            out.coeffs[self._up[0, index]] = 1.0
        return out

    def __repr__(self):
        return f"JetRing(nvars={self.nvars}, order={self.order}, size={self.size})"


# the shared rings by (nvars, order), least recently used first
_rings: dict[tuple[int, int], JetRing] = {}
_RINGS_KEPT = 8


def shared_ring(nvars: int, order: int) -> JetRing:
    """The ring of this shape, shared among the eight most recently used shapes.

    Products return fresh arrays, so callers may share a ring as long as
    they do not run concurrently.  ``star`` counts the ``held`` bytes of
    the rings in ``_rings`` against the memory budget, and may drop some.
    """
    key = (nvars, order)
    ring = _rings.pop(key, None)
    if ring is None:
        ring = JetRing(nvars, order)
    _rings[key] = ring
    if len(_rings) > _RINGS_KEPT:
        del _rings[next(iter(_rings))]
    return ring


class Jet:
    """Truncated Taylor expansion: coefficient vector over a ring's basis."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: JetRing, coeffs: np.ndarray):
        self.ring = ring
        self.coeffs = coeffs

    def value(self) -> complex:
        return complex(self.coeffs[0])

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

    __rmul__ = __mul__

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
        coeffs[:, :, 0] = array
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
            rows, cols = np.indices(index.shape)
            coeffs[rows, cols, ring._up[0, index]] = 1.0
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
        return self.coeffs[:, :, 0].copy()

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
    larger than 1; the identity is subtracted in place from the constant
    term of M X, and each degree's sum is freed before the next.
    It serves ``geometry.eval_function``'s jet route, an oracle: every
    product reads its factors off a chart coordinate built once per ring
    by products with a linear jet on the ring's table instead.
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
        del T  # freed before the next degree's, and before the residual
    # M X - 1, the identity subtracted in place from the constant term
    MX = M @ X
    MX.coeffs[range(M.rows), range(M.rows), 0] -= 1
    resid = MX.max_abs()
    if resid > 1e-10 * max(M.max_abs() * X.max_abs(), 1.0):
        raise ConvergenceError(f"jet matrix inverse misses its residual bound ({resid:.2e})")
    return X

