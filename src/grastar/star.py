"""The reduced star product on complex Grassmannians.

The deformed product of two invariant functions is a power series in the
deformation parameter lambda.  Its coefficient of order r contracts the
r-th holomorphic derivative tensor of one factor with the r-th
antiholomorphic derivative tensor of the other, both taken at the level
representative zeta, through a central element of the symmetric group
algebra C[S_r] acting on the column slots.  In the frame (Young) basis that
element is sum_[m] P_[m] mu^r / t_[m](c), with c = mu/lambda + p and
t_[m](c) one linear factor (c + content) per box; frames with more than p
rows act as zero on the column slots.

P_[m] is the isotypic projector of frame m on (C^p)^{x r}, so lambda
enters only through one weight per frame.  The projectors of one order form
a lambda-free stack, built once per (r, p) by branching (Okounkov-Vershik):
on P_[m'] x 1 the Jucys-Murphy element J_r = sum_{i<r} (i r), a sum of
slot swaps, has the contents of the boxes addable to m' as eigenvalues, and
Lagrange interpolation at them splits off each frame m' + box; no S_r is
enumerated.  The tensors of one order meet once, in their Gram matrix over
the column slots; its pairings <P_[m], Gram_r> / r! over all orders form
one vector, and the product is W @ pairs, with W the row mu^r / t_[m](c)
at a fixed lambda and the matrix of its lambda^t coefficients for the
formal series.

That Gram matrix sums over row tuples A, and one representative per row
multiset suffices.  Mixed partials commute, so a permutation sigma of the
r slot positions, acting on the row tuple A and the column tuple I
together, leaves the order-r tensor alone: DF[sigma A, sigma I] =
DF[A, I].  The coefficient element is central in C[S_r], so C[sigma I,
sigma J] = C[I, J].  Hence every row tuple of one orbit adds the same
amount to sum_A sum_{I,J} DF[A, I] C[I, J] DG[A, J], and the product
reads its tensors at the C(n + r - 1, r) sorted row tuples only, each
weighted by the size r! / prod mult! of its orbit, instead of at all n^r.

Both factors are read at one point: the product at z of f and g is the
product at the base point e = sqrt(mu) [1_p; 0] of f and g rotated into
the frame of one complete QR decomposition of z (``geometry.frame``,
``geometry.rotate``), since Pi(Q Z) = Q Pi(Z) Q^H and the product is
invariant under the unitary group.  At e the affine-chart coordinate K of
the holomorphic slot offsets has jets that depend on no point, built once
per ring (``geometry.base_chart``).  The invariant functions form a
*-algebra: gbar = ``g.conjugate()`` (coefficients conjugated, B -> its
conjugate transpose) is the pointwise conjugate of g.  Since Pi(Z, Zbar)
and Pi(Zbar^H, Z^H) are each other's conjugate transposes (H the
conjugate transpose), with V the n x p matrix of offsets x_{A p + i}, the
jets g(zeta, zetabar + V^T) (the plain transpose:
``antiholomorphic_jet_point``) and gbar(zeta + V, zetabar)
(``holomorphic_jet_point``) have complex conjugate coefficients.  So the
antiholomorphic slot-(A, i) derivatives of g are the conjugates of the
holomorphic slot-(A, i) derivatives of gbar, and one ``base_chart`` call
reads f and gbar: each a polynomial in the entries of K, mapped to the
slot ring by one matrix product, then one gather per factor for the
tensors of every order.  With real weights and real symmetric P_[m], the
antiholomorphic jets of g*h are the conjugates of the holomorphic ones of
hbar*gbar, so ``star_jet_series`` takes holomorphic outer offsets O only.
It reads both of its factors at e too: the product at e + O is the
product at e of the factors with every B replaced by L^-1 B L, L = [[1, 0],
[K_O, 1]] and K_O the chart coordinate of O, and both are polynomials in
K_O and the inner K, mapped by the same kept jets of K's monomials
(``geometry.series_charts``).  No product path forms Z (Zbar Z)^-1 Zbar:
``eval_function``'s jet route and its jet inverse ``jets.mat_inverse`` are
oracles.  That route never reads the chart and is its reference: the
Wick product, the Poisson bracket and the references in the tests read
every factor through it, at the level representative and g at
``antiholomorphic_jet_point``, independently of the frame, the chart and
the conjugation identity.

Poles are checked up front, before any jet is built: some t_[m](c)
vanishes exactly when c = -e for a content e, and the ``PoleError`` names
the frame in which e first occurs.  The exact projectors, class sums,
characters and tensor-power reduction identities of ``tensor_action``,
``center`` and ``characters`` stay out of the product and serve as its
oracles, and ``star`` imports nothing from ``tensor_action``.
``derivative_tensor``, which reads the tensors at every row tuple, is an
oracle too.  ``coefficient_operator`` builds the coefficient element
exactly, in the class basis, and ``slot_coefficient_matrix`` sums the
product's own stack into its matrix, for the tests to hold against them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, isqrt

import numpy as np

from grastar.center import CentralElement, LambdaSeries, e_to_k, lambda_coefficient_series, s_coeffs, t_value
from grastar.errors import PoleError, RangeError
from grastar.geometry import (
    FunctionExpr,
    PointZ,
    SpaceConfig,
    base_chart,
    chart_degree,
    eval_function,
    frame,
    level_representative,
    poisson_bracket,
    random_function_expr,
    rotate,
    sample_point,
    series_charts,
    wick_product,
)
from grastar import jets
from grastar.jets import Jet, check_memory, shared_ring, sorted_tuples
from grastar.partitions import Frame, partitions_of


def coefficient_operator(r: int, c_value, method: str = "frames") -> CentralElement:
    """The central element carrying the order-r product coefficients.

    This is the inverse of sum_alpha c^|alpha| k_alpha, expressed in the
    class basis.  The ``frames`` path assembles it as
    sum_[m] (1/t_[m](c)) e_[m]; the ``classes`` path solves for the class
    coefficients directly.  Both are exact and must agree.
    """
    c_value = Fraction(c_value)
    if method == "classes":
        return CentralElement(r, s_coeffs(r, c_value))
    if method != "frames":
        raise ValueError(f"unknown method {method!r}")
    weights = {}
    for frame in partitions_of(r):
        t = t_value(frame, c_value)
        if t == 0:
            raise PoleError(frame, c_value)
        weights[frame] = 1 / t
    return e_to_k(weights, r)


def _check_poles(p: int, c, order: int) -> None:
    """Raise ``PoleError`` if some c + J_k, k <= order, is singular on (C^p)^{x k}.

    The contents of J_1 ... J_order are 1 - min(p, order) ... order - 1,
    the contents of the boxes of the frames of weight <= order with at
    most p rows, so there is a pole iff c = -e for one of them.  Content e
    first occurs at weight |e| + 1, in the row (e + 1) for e >= 0 and in
    the column (1^{1 - e}) below, and only there; the error names that
    frame, the first one by weight whose t_[m](c) vanishes.  ``c=None``
    stands for lambda = 0, which has no pole.
    """
    if c is None:
        return
    if isinstance(c, complex):
        if c.imag != 0 or not c.real.is_integer():
            return
        e = -int(c.real)
    else:
        exact = Fraction(c)
        if exact.denominator != 1:
            return
        e = -exact.numerator
    if 1 - min(p, order) <= e <= order - 1:
        raise PoleError(Frame((e + 1,)) if e >= 0 else Frame((1,) * (1 - e)), c)


@cache
def _frames(r: int, p: int):
    """(frames, contents, branches) of the frames of weight r with at most p rows.

    ``contents`` is the read-only (F, r) array of column minus row per box;
    ``branches[k]`` lists (content, index in ``frames``) of the boxes
    addable to the k-th frame of weight r - 1.
    """
    index, contents, branches = ({Frame(()): 0}, [()], []) if r == 0 else ({}, [], [])
    for frame, boxes in zip(*_frames(r - 1, p)[:2]) if r else ():
        rows, addable = frame.rows + (0,), []
        for i in range(min(frame.num_rows + 1, p)):
            if i == 0 or rows[i - 1] > rows[i]:
                child = Frame(rows[:i] + (rows[i] + 1,) + rows[i + 1 :])
                if child not in index:
                    index[child] = len(index)
                    contents.append((*boxes, rows[i] - i))
                addable.append((rows[i] - i, index[child]))
        branches.append(tuple(addable))
    contents = np.array(contents, dtype=int).reshape(len(index), r)
    contents.flags.writeable = False
    return tuple(index), contents, tuple(branches)


_stacks: dict = {}  # the stacks built so far by (r, p); ``_check_memory`` may drop some


def _isotypic_projectors(r: int, p: int):
    """(frames, contents, stack): ``_frames`` and the read-only (F, p^r, p^r) stack of the P_[m].

    Each box addable to m' but the last gets the Lagrange interpolant of J_r
    at the addable contents applied to X = P_[m'] x 1, a sum of the powers
    J_r^j X; the last box gets X minus the others.  Kept in ``_stacks``.
    """
    if (r, p) in _stacks:
        return _stacks[r, p]
    frames, contents, branches = _frames(r, p)
    dim = p**r
    stack = np.zeros((len(frames), dim, dim))
    if r == 0:
        stack[0] = 1.0
    else:
        X = np.zeros((dim // p, p, dim // p, p))
        powers = [X.reshape(dim, dim)]
        powers += [np.empty((dim, dim)) for _ in range(max(map(len, branches)) - 1)]
        part = np.empty((dim, dim))
        for P, addable in zip(_isotypic_projectors(r - 1, p)[2], branches):
            X[:, range(p), :, range(p)] = P
            for V, JV in zip(powers, powers[1 : len(addable)]):
                # the transposition (i r) swaps slot i with the last slot of the row index
                T, out = V.reshape((p,) * r + (dim,)), JV.reshape((p,) * r + (dim,))
                np.copyto(out, T.swapaxes(0, r - 1))
                for i in range(1, r - 1):
                    out += T.swapaxes(i, r - 1)
            last = stack[addable[-1][1]]
            last += X.reshape(dim, dim)
            for e, k in addable[:-1]:
                others = [other for other, _ in addable if other != e]
                lagrange = np.poly(others)[::-1] / np.prod([e - other for other in others])
                for a, V in zip(lagrange, powers):
                    np.multiply(V, a, out=part)
                    stack[k] += part
                    last -= part
    stack.flags.writeable = False
    _stacks[r, p] = frames, contents, stack
    return _stacks[r, p]


@cache
def _box_indices(p: int, order: int) -> np.ndarray:
    """Read-only (sum_r F_r, order) indices of each frame's boxes into ``_fixed_weights``' factors.

    A box of content e has index e - (1 - min(p, order)); the boxes a frame
    of weight r < order lacks have the index past the highest, a factor 1.
    """
    low, rows = 1 - min(p, order), []
    for r in range(order + 1):
        boxes = _frames(r, p)[1] - low
        rows.append(np.pad(boxes, ((0, 0), (0, order - r)), constant_values=order - low))
    out = np.concatenate(rows)
    out.flags.writeable = False
    return out


def _fixed_weights(p: int, mu, c, order: int) -> np.ndarray:
    """mu^r / t_[m](c) per frame of weight r <= order, in stack order: one mu / (c + e) per box.

    c must not be a pole; ``c=None`` stands for lambda = 0, whose row selects order 0.
    """
    boxes = _box_indices(p, order)
    if c is None:
        return np.eye(1, len(boxes))[0]
    contents = range(1 - min(p, order), order)
    if isinstance(c, Fraction):
        # mu / (c + e), rounded once from its exact value
        (a, b), (m, d) = c.as_integer_ratio(), Fraction(mu).as_integer_ratio()
        factors = [m * b / (d * (a + e * b)) for e in contents]
    else:
        factors = [complex(Fraction(mu)) / (c + e) for e in contents]
    return np.prod(np.array(factors + [1.0])[boxes], axis=1)


def slot_coefficient_matrix(r: int, p: int, c) -> np.ndarray:
    """Matrix of the coefficient central element on column-slot tensors.

    sum_[m] P_[m] / t_[m](c) over the stack of frames with at most p rows;
    frames with more rows act as zero on (C^p)^{x r}.
    """
    _check_poles(p, c, r)
    stack = _isotypic_projectors(r, p)[2]
    return np.tensordot(_fixed_weights(p, 1, c, r)[-len(stack) :], stack, axes=1).astype(complex)


@cache
def _series_weights(p: int, mu: Fraction, order: int) -> np.ndarray:
    """Read-only (order + 1, sum_r F_r): each frame's lambda series, in stack order.

    Column k is ``center.lambda_coefficient_series`` of the k-th frame, rounded to float.
    """
    frames = [m for r in range(order + 1) for m in _frames(r, p)[0]]
    series = [lambda_coefficient_series(m, mu, p, order).coeffs for m in frames]
    W = np.array(series, dtype=float).T
    W.flags.writeable = False
    return W


def _row_col(vals: np.ndarray, n: int, p: int, r: int) -> np.ndarray:
    """Regroup a leading slot-tuple axis into (row tuple, column tuple) axes.

    Slot tuples are lexicographic in slots A*p + i, so the leading axis
    splits into r interleaved (A, i) digit pairs; gathering the A digits
    in front of the i digits gives the flat row-tuple index (base n) and
    the flat column-tuple index (base p).
    """
    rest = vals.shape[1:]
    split = vals.reshape((n, p) * r + rest)
    axes = tuple(range(0, 2 * r, 2)) + tuple(range(1, 2 * r, 2))
    axes += tuple(range(2 * r, split.ndim))
    return split.transpose(axes).reshape((n**r, p**r) + rest)


def derivative_tensor(jet: Jet, n: int, p: int, r: int) -> np.ndarray:
    """All order-r mixed partials of a jet over the n*p matrix slots.

    Returns the (n^r, p^r) array whose (row-tuple, column-tuple) entry is
    the derivative with respect to the corresponding r slots; slot A*p + i,
    matrix entry (A, i), is variable A*p + i of the jet's ring.  Raises
    ``KeyError`` if order r lies beyond the ring's truncation.  The product
    reads only the sorted row tuples (``multiset_tensors``); this full
    tensor is their reference.
    """
    ring = jet.ring
    # every slot tuple: the column tuples of a 1 x n p matrix of variables
    ridx = ring.multiset_indices(r, 1, n * p, start=[0])[0, :, 0]
    return _row_col(jet.coeffs[ridx] * ring.dfact[ridx], n, p, r)


def multiset_tensors(jet: Jet, n: int, p: int, order: int) -> list[np.ndarray]:
    """The order-0 ... order derivative tensors of a jet at the sorted row tuples.

    Order r is the (C(n + r - 1, r), p^r) array whose row k is row A of
    ``derivative_tensor(jet, n, p, r)`` for A the k-th tuple of
    ``sorted_tuples(n, r)``.  Any other row tuple sigma A holds the same
    entries with the column slots permuted by sigma.  All orders are read
    in one gather, through the ring's ``multiset_gather``, and returned as
    views of one array.  ``KeyError`` beyond the ring's truncation.
    """
    ring = jet.ring
    if order > ring.order:
        raise KeyError(f"order {order} lies beyond the truncation at order {ring.order}")
    idx, weights, bounds, _ = ring.multiset_gather(n, p)
    stop = bounds[order + 1]
    values = jet.coeffs.take(idx[:stop]) * weights[:stop]
    return [values[s:e].reshape(-1, p**r) for r, (s, e) in enumerate(zip(bounds, bounds[1 : order + 2]))]


@cache
def _memory_terms(n: int, p: int, order: int, series: bool, degree: int) -> tuple:
    """The ``check_memory`` arguments (nvars, order, tensor, matrices) of a product at this size.

    ``star_eval`` reads tensors of C(n + order - 1, order) p^order entries
    from a ring of n p variables and keeps the projector stacks, F_r p^{2r}
    floats at order r (F_r the frames of weight r with at most p rows).
    The ring keeps the chart's jets of the monomials of degree <= ``degree``
    in the q p entries of K (the factors' longest term has ``degree``
    generators, at most ``order``; a jet series passes its own, up to twice
    that).  Beside them it holds one at a time the chart's build (K and a
    slice of its gather) and the jets of f and gbar, the build of one order
    by branching (X, its powers by J_r, one part) and the complex Gram
    matrix.  ``series`` adds ``star_jet_series`` on the same ring: the ring
    of the 2 q p entries of K_O and K with the pairs of K's monomials that
    index it and the jet matrices Pi of both factors, the chart's rows to
    ``degree`` with the rows they extend or one order's gather of their
    inner tensors, the order-r tensor entries by the outer monomials of
    degree <= order - r, those once per frame as P_[m] DG, and the returned
    jets.  No frame is listed, and the ring and the top order alone are
    checked first, so a large order is refused before any sum over orders
    is formed.
    """
    nz, qp = n * p, (n - p) * p
    check_memory(nz, order, comb(n + order - 1, order) * p**order, p ** (2 * order))
    # F_r: transposed, the frames of weight r with at most p rows are partitions into parts <= p
    frames = [1] + [0] * order
    for part in range(1, min(p, order) + 1):
        for r in range(part, order + 1):
            frames[r] += frames[r - part]
    tensor = [comb(n + r - 1, r) * p**r for r in range(order + 1)]
    stacks = sum(frames[r] * p ** (2 * r) for r in range(order + 1))
    # a frame of weight r - 1 has at most min(p, k + 1) addable boxes, k(k + 1) / 2 <= r - 1
    addable = [min(p, (isqrt(8 * r - 7) + 1) // 2) for r in range(1, order + 1)]
    build = max((p ** (2 * r) * (1 + a) for r, a in enumerate(addable, 1)), default=0)
    transient = max(build, 2 * p ** (2 * order))
    # complex jets on the ring: the kept monomials of K, K itself while it is built
    # (one more monomial) with a gather slice of at most _CHUNK entries, and f and gbar
    size = comb(nz + order, order)
    monomials = comb(qp + degree, degree)
    kept = 2 * monomials * size
    gather = qp * nz * comb(nz + order - 1, order) if order > 1 else 0
    chart = kept + 2 * (qp * (size + 1) + min(jets._CHUNK, gather) if degree else 0) + 4 * size
    terms = [(nz, order, tensor[order], stacks + max(chart, transient))]
    if series:
        outer = [tensor[r] * comb(nz + order - r, order - r) for r in range(order + 1)]
        projected = max(2 * frames[r] * outer[r] for r in range(order + 1))
        # the ring of K_O and K, the pairs of K's monomials, and the complex n x n Pi of f and g
        offsets = check_memory(2 * qp, order) // 8 + comb(qp + order, order) ** 2
        offsets += 4 * n * n * comb(2 * qp + order, order)
        # complex: the kept rows, beside the rows they extend or an order's inner gather, and the returned jets
        charts = 2 * monomials * (2 * size + tensor[order]) + 2 * (order + 1) * size
        held = stacks + transient + projected + offsets + charts
        terms.insert(0, (nz, order, max(outer), held))
    return tuple(terms)


def _check_memory(n: int, p: int, order: int, degree: int, series: bool = False) -> None:
    """Raise ``RangeError`` before allocating if a product at this size exceeds the budget.

    ``degree`` is the generator count of the factors' longest term, at
    most ``order``, or a jet series' ``_series_degree``.  Stacks and shared
    rings cached for other sizes count too, the rings by the bytes they
    hold.  When the product fits only without them, the rings go first,
    then the stacks.
    """
    need = max(check_memory(*args) for args in _memory_terms(n, p, order, series, degree))
    own = {(n * p, order)}
    if series:  # star_jet_series' ring of K_O's and K's entries
        own.add((2 * (n - p) * p, order))
    rings = [key for key in jets._rings if key not in own]
    stacks = [key for key in _stacks if key[1] != p or key[0] > order]
    held = sum(_stacks[key][2].nbytes for key in stacks)
    if need + held + sum(jets._rings[key].held for key in rings) > jets.MEMORY_BUDGET:
        for key in rings:
            del jets._rings[key]
        if need + held > jets.MEMORY_BUDGET:
            for key in stacks:
                del _stacks[key]


def _frame_pairings(DFs, DGs, n: int, p: int, order: int) -> np.ndarray:
    """<P_[m], Gram_r> / r! per frame of weight r <= order, in stack order.

    Gram_r is read at the sorted row tuples, each weighted by its orbit size.
    """
    pairs = []
    for r in range(order + 1):
        gram = DFs[r].T @ (sorted_tuples(n, r)[1][:, None] * DGs[r])
        stack = _isotypic_projectors(r, p)[2]
        # the real stack meets the Gram matrix's real and imaginary parts in one product
        re_im = stack.reshape(len(stack), -1) @ gram.reshape(-1).view(float).reshape(-1, 2)
        pairs.append(re_im / factorial(r))
    return np.concatenate(pairs).view(complex)[:, 0]


def _deformation_c(p: int, mu, lam):
    """c = mu / lam + p, exact for a rational lam; None for lam = 0."""
    if isinstance(lam, (int, Fraction)):
        lam = Fraction(lam)
        return None if lam == 0 else Fraction(mu) / lam + p
    lam = complex(lam)
    return None if lam == 0 else complex(Fraction(mu)) / lam + p


def _derivative_tensors_at(f: FunctionExpr, gbar: FunctionExpr, cfg: SpaceConfig, order: int):
    """f's holomorphic and g's antiholomorphic tensors at the base point, f and gbar given in its frame.

    Both come from one ``base_chart`` call in holomorphic offsets of the
    slots, at the sorted row tuples: g's are the conjugates of those of
    gbar = ``g.conjugate()`` (see the module docstring).
    """
    n, p = cfg.n, cfg.p
    jf, jgbar = base_chart((f, gbar), shared_ring(n * p, order), p, cfg.mu)
    DGs = [D.conj() for D in multiset_tensors(jgbar, n, p, order)]
    return multiset_tensors(jf, n, p, order), DGs


def _check_order(order) -> None:
    """Raise ``RangeError`` unless the truncation order is a nonnegative integer."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
        raise RangeError(f"order must be a nonnegative integer, got {order!r}")


def _check_shapes(f, g, cfg: SpaceConfig, z: PointZ) -> None:
    """Raise ``ValueError`` unless z is n x p and every generator matrix n x n."""
    n, p = cfg.n, cfg.p
    if z.z.shape != (n, p):
        raise ValueError(
            f"point has shape {z.z.shape}, expected {(n, p)} for p = {p}, q = {cfg.q}"
        )
    for fn in (f, g):
        if isinstance(fn, FunctionExpr):
            for _, factors in fn.terms:
                for B in factors:
                    if B.shape != (n, n):
                        raise ValueError(
                            f"function matrix has shape {B.shape}, expected {(n, n)}"
                            f" for p = {p}, q = {cfg.q}"
                        )


def star_eval(f, g, cfg: SpaceConfig, z: PointZ, order: int, lam=None):
    """The deformed product of two invariant functions at a point.

    With ``lam=None`` the result is the truncated formal power series in
    the deformation parameter (a ``LambdaSeries`` with complex
    coefficients); with a numeric ``lam`` the series coefficients are
    resummed exactly and a single complex value is returned (raising
    ``PoleError`` if the parameter hits a coefficient pole).

    f and g are rotated into the frame of z and read from one chart at
    the base point: g's antiholomorphic tensors are the conjugates of the
    holomorphic ones of ``g.conjugate()`` (see the module docstring).  So f
    and g must be ``FunctionExpr``s, which can be rotated and conjugated;
    any other factor raises ``TypeError``.  Raises ``RangeError`` for an
    order that is not a nonnegative integer and ``ValueError`` if z or a
    matrix of f or g does not fit ``cfg``.
    """
    _check_order(order)
    for fn in (f, g):
        if not isinstance(fn, FunctionExpr):
            raise TypeError(f"star_eval takes FunctionExpr factors, got {type(fn).__name__}")
    _check_shapes(f, g, cfg, z)
    _check_memory(cfg.n, cfg.p, order, chart_degree((f, g), order))
    c = None if lam is None else _deformation_c(cfg.p, cfg.mu, lam)
    _check_poles(cfg.p, c, order)
    # the projectors first: their build temporaries meet neither the chart nor a Gram matrix
    _isotypic_projectors(order, cfg.p)
    DFs, DGs = _derivative_tensors_at(*rotate((f, g.conjugate()), frame(z)), cfg, order)
    pairs = _frame_pairings(DFs, DGs, cfg.n, cfg.p, order)
    if lam is None:
        W = _series_weights(cfg.p, Fraction(cfg.mu), order)
        return LambdaSeries(order, [complex(a) for a in W @ pairs])
    return complex(_fixed_weights(cfg.p, cfg.mu, c, order) @ pairs)


def projective_star_eval(f, g, cfg: SpaceConfig, z: PointZ, order: int, lam=None):
    """Independent closed form for p = 1 (complex projective space).

    Here the order-r coefficient is a plain sum of r-th derivative
    products divided by the single rising factorial [c]_r; no symmetric
    group machinery enters.  Used as a cross-check of ``star_eval``.
    """
    _check_order(order)
    if cfg.p != 1:
        raise ValueError("closed form only applies to p = 1")
    _check_shapes(f, g, cfg, z)
    mu = Fraction(cfg.mu)
    if lam is not None:
        # mu + s lam = 0 exactly when c = mu/lam + 1 meets the content s - 1
        _check_poles(1, _deformation_c(1, mu, lam), order)
    zeta = level_representative(z, cfg.mu)
    # sum over slot tuples of order r = r! * sum over monomials m of m! c^f_m c^g_m
    per_order = wick_product(f, g, zeta, order).coeffs
    if lam is not None:
        lam = Fraction(lam) if isinstance(lam, (int, Fraction)) else complex(lam)
        total, factor = 0j, 1
        for r in range(order + 1):
            if r:
                factor = factor * (mu * lam) / (mu + r * lam)
            total += complex(factor) * per_order[r]
        return total
    out = LambdaSeries(order, [0j] * (order + 1))
    # mu^r lambda^r / ((mu + lambda) ... (mu + r lambda)) as a series, one factor more per order
    factor = LambdaSeries.constant(Fraction(1), order)
    for r in range(order + 1):
        if r:
            factor = factor * LambdaSeries(order, [(-r / mu) ** k for k in range(order + 1)])
        for t, a in enumerate(factor.shift(r).coeffs):
            out.coeffs[t] += float(a) * per_order[r]
    return out


# ---------------------------------------------------------------------------
# the product with a jet-valued result (for associativity)


def _series_degree(fs, gs, order: int) -> int:
    """The chart degree of jet series with first factors fs and second factors gs, at most ``order``.

    f^L is a polynomial of f's generator count D in K_O and K together, and
    g^L one of degree 2 D in K_O (``star_jet_series``).
    """
    return min(order, max(chart_degree(fs, order), 2 * chart_degree(gs, order)))


def star_jet_series(f, g, cfg: SpaceConfig, order: int):
    """The deformed product as jets in holomorphic offsets O around the base point.

    f and g are given in the frame of the base point e = sqrt(mu) [1_p; 0]
    (``geometry.rotate``).  Returns (ring, [jet per lambda order]) on the
    ring of the n p slots; the antiholomorphic jets of f*g are the
    conjugates of those of gbar*fbar.  The lambda^t jet is exact up to
    outer degree ``order - t`` and zero above it, all that a pairing
    truncated at ``order`` reads, so the order-r tensors live on the outer
    monomials of degree <= order - r, a prefix of the ring, and each
    lambda^t product runs on the ring's own table, over the degree blocks
    up to order - t.

    Both factors are read at e.  Let K_O = O2 (sqrt(mu) + O1)^-1 be the
    chart coordinate of O, L = [[1, 0], [K_O, 1]] and P = 1 + O1 / sqrt(mu),
    and let f^L replace every B of f by L^-1 B L.  Then:
    - Pi is unchanged by Zbar -> A Zbar, and the point (e + O, P^-1 e^H)
      of the level set is (L e P, P^-1 e^H L^-1);
    - the row pairing sum_A d/dV_A d/dW_A is unchanged by V -> L^-1 V,
      W -> L^t W, so (f*g)(L Z, Zbar L^-1) = (f^L * g^L)(Z, Zbar);
    - P drops out, since every P_[m] commutes with P^{x r}.
    So the lambda^t jet of f*g at e + O is the product at e of f^L and g^L.
    With holomorphic inner offsets f^L reads Pi = L [[1, 0], [K, 0]] L^-1
    = [[1, 0], [K_O + K, 0]], and with antiholomorphic ones g^L reads
    [1; K_O] ([1, 0] + K^t [-K_O, 1]), K the chart coordinate of the inner
    offsets.  Both are polynomials in K_O and K (``geometry.series_charts``);
    K_O's monomials are the chart's jets in O, and K's inner tensors the
    gather of the same jets: no jet inverse, no jet point and no ring of
    outer and inner offsets.
    Raises ``RangeError`` for an order that is not a nonnegative integer
    and over the memory budget.
    """
    _check_order(order)
    n, p = cfg.n, cfg.p
    nz = n * p
    degree = _series_degree([f], [g], order)
    _check_memory(n, p, order, degree, series=True)
    mu = Fraction(cfg.mu)
    R_out = shared_ring(nz, order)
    M, Cf, Cg = series_charts(f, g, R_out, p, mu, degree)
    idx, factorials, bounds, _ = R_out.multiset_gather(n, p)
    qp = nz - p * p
    W = _series_weights(p, mu, order)
    first = 0
    out = [R_out.zero() for _ in range(order + 1)]
    for r in range(order + 1):
        # per sorted row tuple and column tuple, the outer jets of the r-th
        # inner partials on the outer monomials of degree <= order - r, R_out's
        # first k.  Only the monomials K^b of degree <= r have order-r
        # partials, the gather T of their rows of M, and the outer jet of
        # f^L at K^b is sum_a Cf[a, b] M[a]
        k = comb(nz + order - r, order - r)
        b = comb(qp + min(r, degree), min(r, degree))
        s, e = bounds[r], bounds[r + 1]
        T = M[:b].take(idx[s:e], axis=1)
        T *= factorials[s:e]
        # DF's rows carry their orbit sizes
        DF = (T.T @ (Cf[:, :b].T @ M[:, :k])).reshape(-1, p**r, k) * sorted_tuples(n, r)[1][:, None, None]
        DG = (T.T @ (Cg[:, :b].T @ M[:, :k])).reshape(-1, p**r, k)
        # P_[m] DG per frame m, as one real product with DG's real and imaginary parts
        stack = _isotypic_projectors(r, p)[2]
        PG = (stack[:, None] @ DG.view(float)[None]).view(complex)
        weights = W[:, first : first + len(stack)] / factorial(r)
        first += len(stack)
        for t in range(r, order + 1):
            # the outer degrees <= order - t, a prefix of R_out of k monomials:
            # its blocks pair degrees a and b with a + b <= order - t, so
            # R_out's table reads indices below k only
            k = comb(nz + order - t, order - t)
            blocks = [(a, 0, order - t - a) for a in range(order - t + 1)]
            # contract the coefficients into DG first: one jet product per
            # (sorted row tuple, column tuple), summed as one jet matrix product
            MG = np.tensordot(weights[t], PG[..., :k], axes=1)
            prod = R_out._matmul(DF[..., :k].reshape(1, -1, k), MG.reshape(-1, 1, k), blocks)
            out[t].coeffs[:k] += prod[0, 0, :k]
    return R_out, out


def associativity_residuals(f, g, h, cfg: SpaceConfig, z: PointZ, order: int):
    """Per-lambda-order residual of ((f*g)*h - f*(g*h)) at a point.

    f, g and h are rotated into the frame of z, in one batch, and every
    product is read at the base point.  The left association pairs the jets
    of f*g in holomorphic offsets with h, the right one pairs f with those
    of g*h in antiholomorphic ones, the conjugates of the jets of
    hbar*gbar.  The third factors are read as in ``star_eval``: f's
    holomorphic and h's antiholomorphic tensors, from one chart.
    """
    n, p = cfg.n, cfg.p
    f, g, h = rotate((f, g, h), frame(z))
    hbar, gbar = h.conjugate(), g.conjugate()
    _check_memory(n, p, order, _series_degree((f, h), (g,), order), series=True)
    DF, DH = _derivative_tensors_at(f, hbar, cfg, order)
    W = _series_weights(p, Fraction(cfg.mu), order)

    def associate(a, b, DC, left: bool):
        _, ab = star_jet_series(a, b, cfg, order)
        out = [0j] * (order + 1)
        for s in range(order + 1):
            D = multiset_tensors(ab[s], n, p, order)
            DF, DG = (D, DC) if left else (DC, [x.conj() for x in D])
            ser = W @ _frame_pairings(DF, DG, n, p, order)
            for u in range(order + 1 - s):
                out[s + u] += ser[u]
        return out

    right = associate(hbar, gbar, DF, False)
    return [abs(a - b) for a, b in zip(associate(f, g, DH, True), right)]


# ---------------------------------------------------------------------------
# verification suite


def verify_suite(
    cfg: SpaceConfig,
    order: int = 2,
    seed: int = 0,
    tolerance: float = 1e-7,
    lam=None,
) -> dict:
    """Run the structural checks of the product at desk scale.

    Returns a JSON-serializable report; each entry records the check name,
    its parameters, the residual, the tolerance and a pass flag.  Fully
    deterministic for a fixed seed.  A rational ``lam`` adds a check that
    f*g is finite there, or raises ``PoleError``.  Raises ``RangeError`` for
    an order below 1, which has no commutator to check, for a tolerance that
    is negative or not finite, and before allocating for a size whose memory
    estimate exceeds the budget.
    """
    if order < 1:
        raise RangeError(f"verification needs order >= 1, got {order}")
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise RangeError(f"tolerance must be finite and nonnegative, got {tolerance}")
    rng = np.random.default_rng(seed)
    checks = []
    params = {
        "p": cfg.p,
        "q": cfg.q,
        "mu": str(cfg.mu),
        "order": order,
        "seed": seed,
    }

    def record(name, residual, tol, extra=None):
        checks.append(
            {
                "check": name,
                "params": {**params, **(extra or {})},
                "residual": float(residual),
                "tolerance": float(tol),
                "pass": bool(residual <= tol),
            }
        )

    tight = min(tolerance, 1e-10)
    z = sample_point(cfg, int(rng.integers(0, 2**31)))
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    h = random_function_expr(cfg, rng)
    _check_memory(cfg.n, cfg.p, order, _series_degree((f, h), (g,), order), series=True)
    zeta = level_representative(z, cfg.mu)

    one = FunctionExpr.one()
    fz = eval_function(f, zeta)
    s_left = star_eval(one, f, cfg, z, order)
    s_right = star_eval(f, one, cfg, z, order)
    res_unit = max(
        max(abs(a) for a in (s_left - LambdaSeries.constant(fz, order)).coeffs),
        max(abs(a) for a in (s_right - LambdaSeries.constant(fz, order)).coeffs),
    )
    record("unit", res_unit, tight)

    fg = star_eval(f, g, cfg, z, order)
    gf = star_eval(g, f, cfg, z, order)
    value = None if lam is None else star_eval(f, g, cfg, z, order, lam=lam)
    pb = poisson_bracket(f, g, zeta)
    record("first_order_commutator", abs(fg.coeffs[1] - gf.coeffs[1] - 0.5j * pb), 1e-9)

    wick = wick_product(f, g, zeta, 1)
    record("zeroth_order", abs(fg.coeffs[0] - wick.coeffs[0]), tight)

    if cfg.p == 1:
        cp = projective_star_eval(f, g, cfg, z, order)
        record(
            "projective_closed_form",
            max(abs(a - b) for a, b in zip(fg.coeffs, cp.coeffs)),
            1e-11,
        )

    res_assoc = max(associativity_residuals(f, g, h, cfg, z, order))
    record("associativity", res_assoc, tolerance)

    if lam is not None:
        extra = {"lambda": "%d/%d" % Fraction(lam).as_integer_ratio()}
        record("fixed_lambda_finite", 0.0 if np.isfinite(value) else float("inf"), 0.0, extra)

    return {"config": params, "checks": checks, "pass": all(c["pass"] for c in checks)}
