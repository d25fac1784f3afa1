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

Since the contents of the boxes are the joint eigenvalues of the
Jucys-Murphy elements J_k = sum_{i<k} (i k), the same element is
prod_k mu / (c + J_k).  Each J_k acts on (C^p)^{x r} as a sum of slot
swaps, and its spectrum lies in the contents -(min(p,k)-1) ... k-1, so
(c + J_k)^{-1} is a Lagrange interpolation over that spectrum: one
spectral projector per content, built once per (k, p) without enumerating
S_k or forming a Young projector.  For a fixed lambda the factors carry the
weights mu / (c + content); for the formal series each factor is
lambda sum_j (-(p + J_k)/mu)^j lambda^j.  The derivative tensors of one
order meet once, in their Gram matrix over the column slots, which the
coefficient matrix then weights entrywise.

That Gram matrix sums over row tuples A, and one representative per row
multiset suffices.  Mixed partials commute, so a permutation sigma of the
r slot positions, acting on the row tuple A and the column tuple I
together, leaves the order-r tensor alone: DF[sigma A, sigma I] =
DF[A, I].  The coefficient element is central in C[S_r], so C[sigma I,
sigma J] = C[I, J].  Hence every row tuple of one orbit adds the same
amount to sum_A sum_{I,J} DF[A, I] C[I, J] DG[A, J], and the product
reads its tensors at the C(n + r - 1, r) sorted row tuples only, each
weighted by the size r! / prod mult! of its orbit, instead of at all n^r.

Both factors are read at one holomorphic jet point, from one affine
chart.  The invariant functions form a *-algebra: gbar = ``g.conjugate()``
(coefficients conjugated, B -> its conjugate transpose) is the pointwise
conjugate of g.  Since Pi(Z, Zbar) and Pi(Zbar^H, Z^H) are each other's
conjugate transposes (H the conjugate transpose), with V the n x p matrix
of offsets x_{A p + i}, the jets g(zeta, zetabar + V^T) (the plain
transpose: ``antiholomorphic_jet_point``) and gbar(zeta + V, zetabar)
(``holomorphic_jet_point``) have complex conjugate coefficients.  So the
antiholomorphic slot-(A, i) derivatives of g are the conjugates of the
holomorphic slot-(A, i) derivatives of gbar, and ``eval_function`` reads
every generator tr(B Pi) of f and gbar off one chart coordinate
K = S V (1 + W)^-1: one SVD set-up, one ``linear_fraction`` and one matrix
product for all of them.  ``antiholomorphic_jet_point`` stays off the
product path; the Wick product, the Poisson bracket and the references
in the tests read g there, independently of this identity.

Poles are checked up front, before any jet is built: c + J_k is singular
exactly when c = -e for a content e of some J_k, and the ``PoleError``
names the frame in which e first occurs.  The exact projectors, class sums
and characters of ``tensor_action``, ``center`` and ``characters`` stay
out of the product and serve as its oracles; so does ``derivative_tensor``,
which reads the tensors at every row tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial

import numpy as np

from grastar.center import CentralElement, LambdaSeries, e_to_k, s_coeffs
from grastar.errors import PoleError, RangeError
from grastar.geometry import (
    FunctionExpr,
    PointZ,
    SpaceConfig,
    eval_function,
    holomorphic_jet_point,
    level_representative,
    poisson_bracket,
    random_function_expr,
    sample_point,
    wick_product,
)
from grastar.jets import Jet, MatrixJet, check_memory, mat_inverse, shared_ring, sorted_tuples
from grastar.partitions import Frame, conj_classes_of, partitions_of
from grastar.tensor_action import _check_dim, rho_central


def t_value(frame: Frame, c):
    """The coefficient polynomial of a frame at c: prod of (c + col - row).

    Exact for Fraction c, complex otherwise.
    """
    acc = Fraction(1) if isinstance(c, Fraction) else complex(1)
    for i, m_i in enumerate(frame.rows, start=1):
        for j in range(1, m_i + 1):
            acc = acc * (c + (j - i))
    return acc


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
    frame, the first one by weight whose t_[m](c) vanishes.
    """
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
def _jm_spectrum(r: int, p: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Spectral decomposition of J_r = sum_{i<r} (i r) on (C^p)^{x r}.

    Returns (content e, projector E_e) for each eigenvalue, with E_e the
    Lagrange basis polynomial prod_{e' != e} (J_r - e') / (e - e') over the
    candidate contents -(min(p,r)-1) ... r-1.  The products have integer
    entries, exact in float64 below 2^53; candidates that are not
    eigenvalues give exactly zero and are dropped.
    """
    _check_dim(p, r)
    dim = p**r
    contents = range(1 - min(p, r), r)

    def jm(X):
        # the transposition (i r) swaps slot axes i and r-1 of the row index
        T = X.reshape((p,) * r + (dim,))
        out = np.zeros_like(X)
        for i in range(r - 1):
            out += T.swapaxes(i, r - 1).reshape(dim, dim)
        return out

    spectrum = []
    for e in contents:
        E = np.eye(dim)
        denom = 1
        for other in contents:
            if other != e:
                E = jm(E) - other * E
                denom *= e - other
        if E.any():
            E /= denom
            E.flags.writeable = False
            spectrum.append((e, E))
    return tuple(spectrum)


def _extend(C: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(C x 1_p) @ A: C acts on the leading slots of A's row index."""
    dim = A.shape[0]
    return (C @ A.reshape(C.shape[1], -1)).reshape(dim, dim)


@lru_cache(maxsize=8)
def _fixed_coefficient_matrices(p: int, mu, c, order: int) -> tuple[np.ndarray, ...]:
    """(C_0, ..., C_order) with C_r = prod_{k<=r} mu / (c + J_k) on (C^p)^{x r}.

    J_k acts on the first k slots only and the J_k commute, so
    C_r = (C_{r-1} x 1) mu / (c + J_r).  c must not be a pole.  The eight
    most recently used sets are kept, read-only.
    """
    scalar = float if isinstance(c, Fraction) else complex
    mats = [np.ones((1, 1))]
    for r in range(1, order + 1):
        factor = sum(scalar(mu / (c + e)) * E for e, E in _jm_spectrum(r, p))
        mats.append(_extend(mats[-1], factor))
    for M in mats:
        M.flags.writeable = False
    return tuple(mats)


@cache
def _series_coefficient_matrices(r: int, p: int, mu: Fraction, order: int) -> np.ndarray:
    """Coefficients of lambda^r ... lambda^order of prod_k mu / (mu/lambda + p + J_k).

    Each factor is lambda sum_j X_k^j lambda^j with X_k = -(p + J_k)/mu, whose
    powers are read off the spectral projectors of J_k.  The matrices come
    stacked, (order - r + 1, p^r, p^r) and read-only, so that one
    matrix-vector product pairs a Gram matrix with all of them.
    """
    dim = p**r
    out = np.zeros((order - r + 1, dim, dim))
    if r == 0:
        out[0] = 1.0
    else:
        spectrum = _jm_spectrum(r, p)
        powers = [
            sum(float((-(p + e) / mu) ** j) * E for e, E in spectrum)
            for j in range(order - r + 1)
        ]
        lower = _series_coefficient_matrices(r - 1, p, mu, order)
        # lambda^t = lambda^s (from orders below r) * lambda^(j+1) (this factor)
        for t in range(r, order + 1):
            out[t - r] = sum(_extend(lower[s - r + 1], powers[t - s - 1]) for s in range(r - 1, t))
    out.flags.writeable = False
    return out


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
    ridx = ring.tuple_indices(r, range(n * p))
    return _row_col(jet.coeffs[ridx] * ring.dfact[ridx], n, p, r)


def multiset_tensors(jet: Jet, n: int, p: int, order: int) -> list[np.ndarray]:
    """The order-0 ... order derivative tensors of a jet at the sorted row tuples.

    Order r is the (C(n + r - 1, r), p^r) array whose row k is row A of
    ``derivative_tensor(jet, n, p, r)`` for A the k-th tuple of
    ``sorted_tuples(n, r)``.  Any other row tuple sigma A holds the same
    entries with the column slots permuted by sigma.
    """
    ring = jet.ring
    out = []
    for r in range(order + 1):
        idx = ring.multiset_indices(r, n, p)
        out.append(jet.coeffs[idx] * ring.dfact[idx])
    return out


def _check_memory(n: int, p: int, order: int, series: bool = False) -> None:
    """Raise ``RangeError`` before allocating if a product at this size exceeds the budget.

    ``star_eval`` reads tensors of C(n + order - 1, order) p^order entries
    (sorted row tuples by column tuples) from a ring of n p variables and
    pairs each order r through p^r x p^r float64 matrices: the cached
    spectral projectors of J_r, one per candidate content, up to
    order - r + 1 coefficient matrices of order r with as many powers
    of J_r, and the temporaries of their build.  ``series`` adds the
    associativity jets: a ring of 2 n p variables holding an (n, n, size)
    projector jet, and per order r the order-r tensor entries by the
    outer monomials of degree <= order - r.
    """
    nz = n * p
    tensor = [comb(n + r - 1, r) * p**r for r in range(order + 1)]
    matrices = sum(
        p ** (2 * r) * (r + min(p, r) - 1 + 2 * (order - r + 1) + 6) for r in range(1, order + 1)
    )
    if series:
        outer = max(tensor[r] * comb(nz + order - r, order - r) for r in range(order + 1))
        check_memory(2 * nz, order, max(outer, n * n * comb(2 * nz + order, order)), matrices)
    check_memory(nz, order, tensor[order], matrices)


def _gram(DF: np.ndarray, DG: np.ndarray, n: int, r: int) -> np.ndarray:
    """sum_A DF[A, I] DG[A, J] over all n^r row tuples, from the sorted ones."""
    return DF.T @ (sorted_tuples(n, r)[1][:, None] * DG)


def _pairing_series(DFs, DGs, n: int, p: int, mu, order: int) -> LambdaSeries:
    """Contract derivative tensors at the sorted row tuples into the formal product series.

    Order r adds sum_{I,J} M_t[I, J] gram[I, J] / r! to lambda^t for every
    t >= r: one product of the stacked real M_t with the Gram matrix's
    real and imaginary parts.
    """
    mu = Fraction(mu)
    coeffs = np.zeros(order + 1, dtype=complex)
    for r in range(order + 1):
        gram = _gram(DFs[r], DGs[r], n, r)
        M = _series_coefficient_matrices(r, p, mu, order)
        re_im = M.reshape(len(M), -1) @ gram.reshape(-1).view(float).reshape(-1, 2)
        coeffs[r:] += (re_im[:, 0] + 1j * re_im[:, 1]) / factorial(r)
    return LambdaSeries(order, [complex(a) for a in coeffs])


def _deformation_c(p: int, mu, lam):
    """c = mu / lam + p, exact for a rational lam; None for lam = 0."""
    if isinstance(lam, (int, Fraction)):
        lam = Fraction(lam)
        return None if lam == 0 else Fraction(mu) / lam + p
    lam = complex(lam)
    return None if lam == 0 else complex(Fraction(mu)) / lam + p


def _pairing_fixed(DFs, DGs, n: int, p: int, mu, c, order: int) -> complex:
    """Contract derivative tensors at the sorted row tuples at a fixed c = mu / lambda + p.

    ``c=None`` stands for lambda = 0, the pointwise product.
    """
    if c is None:
        return complex(DFs[0][0, 0] * DGs[0][0, 0])
    total = 0j
    for r, C in enumerate(_fixed_coefficient_matrices(p, Fraction(mu), c, order)):
        total += complex(np.sum(C * _gram(DFs[r], DGs[r], n, r))) / factorial(r)
    return total


def _derivative_tensors_at(f: FunctionExpr, g: FunctionExpr, zeta: PointZ, order: int):
    """f's holomorphic and g's antiholomorphic tensors at the level representative.

    Both come from one holomorphic jet point and one chart (see
    ``eval_function``), at the sorted row tuples: g's are the conjugates of
    those of ``g.conjugate()`` (see the module docstring).
    """
    n, p = zeta.z.shape
    _, Z, Zbar = holomorphic_jet_point(zeta, order)
    jf, jgbar = eval_function((f, g.conjugate()), Z, Zbar)
    return multiset_tensors(jf, n, p, order), [D.conj() for D in multiset_tensors(jgbar, n, p, order)]


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

    f and g are read at one holomorphic jet point, from one chart: g's
    antiholomorphic tensors are the conjugates of the holomorphic ones of
    ``g.conjugate()`` (see the module docstring).  So f and g must be
    ``FunctionExpr``s, which can be conjugated; any other factor raises
    ``TypeError``.  Raises ``RangeError`` for an order that is not a
    nonnegative integer and ``ValueError`` if z or a matrix of f or g does
    not fit ``cfg``.
    """
    _check_order(order)
    for fn in (f, g):
        if not isinstance(fn, FunctionExpr):
            raise TypeError(f"star_eval takes FunctionExpr factors, got {type(fn).__name__}")
    _check_shapes(f, g, cfg, z)
    _check_memory(cfg.n, cfg.p, order)
    c = None if lam is None else _deformation_c(cfg.p, cfg.mu, lam)
    if c is not None:
        _check_poles(cfg.p, c, order)
    zeta = level_representative(z, cfg.mu)
    DFs, DGs = _derivative_tensors_at(f, g, zeta, order)
    if lam is None:
        return _pairing_series(DFs, DGs, cfg.n, cfg.p, cfg.mu, order)
    return _pairing_fixed(DFs, DGs, cfg.n, cfg.p, cfg.mu, c, order)


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
    zeta = level_representative(z, cfg.mu)
    # sum over slot tuples of order r = r! * sum over monomials m of m! c^f_m c^g_m
    per_order = wick_product(f, g, zeta, order).coeffs
    if lam is not None:
        lam = Fraction(lam) if isinstance(lam, (int, Fraction)) else complex(lam)
        total = 0j
        for r in range(order + 1):
            factor = Fraction(1) if isinstance(lam, Fraction) else complex(1)
            for s in range(1, r + 1):
                denom = mu + s * lam if isinstance(lam, Fraction) else float(mu) + s * lam
                if denom == 0:
                    raise PoleError(Frame((r,)), lam)
                factor = factor * (mu * lam) / denom
            total += complex(factor) * per_order[r]
        return total
    out = LambdaSeries(order, [0j] * (order + 1))
    for r in range(order + 1):
        # mu^r lambda^r / ((mu + lambda) ... (mu + r lambda)) as a series
        factor = LambdaSeries.constant(Fraction(1), order)
        for s in range(1, r + 1):
            geom = LambdaSeries(
                order, [(Fraction(-s) / mu) ** k for k in range(order + 1)]
            )
            factor = factor * geom
        factor = factor.shift(r) if r <= order else LambdaSeries(order)
        for t in range(order + 1):
            out.coeffs[t] += float(factor.coeffs[t]) * per_order[r]
    return out


# ---------------------------------------------------------------------------
# reductions of non-invariant building blocks (identity checks)


def proj_scalar_power(r: int, mu, lam):
    """Reduction of the r-th power of the squared radius for p = 1.

    For positive powers this is prod_{s=0}^{r-1} (mu - lam*s); the
    reduction of the (-r)-th power is prod_{s=1}^{r} 1/(mu + lam*s).
    Pass a negative ``r`` for the inverse power.
    """
    mu = Fraction(mu)
    lam = Fraction(lam)
    if r >= 0:
        acc = Fraction(1)
        for s in range(r):
            acc *= mu - lam * s
        return acc
    acc = Fraction(1)
    for s in range(1, -r + 1):
        denom = mu + lam * s
        if denom == 0:
            raise PoleError(Frame((-r,)), lam)
        acc /= denom
    return acc


def tensor_power(M: np.ndarray, r: int) -> np.ndarray:
    """r-fold Kronecker power (first factor most significant)."""
    out = np.eye(1, dtype=complex)
    for _ in range(r):
        out = np.kron(out, np.asarray(M, dtype=complex))
    return out


def slot_coefficient_matrix(r: int, p: int, c) -> np.ndarray:
    """Matrix of the coefficient central element on column-slot tensors.

    Equals sum over frames with at most p rows of projector / t(c), the
    frames with more rows acting as zero on (C^p)^{x r}; it is built as
    prod_k 1/(c + J_k) from the Jucys-Murphy elements.
    """
    _check_poles(p, c, r)
    return _fixed_coefficient_matrices(p, 1, c, r)[r].astype(complex)


def proj_sandwich_power(zeta: np.ndarray, mu, lam, r: int) -> np.ndarray:
    """Reduction of the r-th tensor power of z x^-2 z^t (x the Gram matrix).

    The result factors through the level representative as
    (lam*mu)^-r  zeta^{x r} . rho(coefficient element) . zetabar^{x r}.
    """
    mu = Fraction(mu)
    lam = Fraction(lam)
    p = zeta.shape[1]
    c = mu / lam + p
    U = rho_central(coefficient_operator(r, c), p).to_complex().entries
    Zk = tensor_power(zeta, r)
    scale = (float(mu) * float(lam)) ** (-r)
    return scale * (Zk @ U @ Zk.conj().T)


def proj_outer_power(zeta: np.ndarray, mu, lam, r: int) -> np.ndarray:
    """Reduction of the r-th tensor power of z z^t.

    Each conjugacy class alpha contributes (-lam/mu)^(transposition count)
    times its class sum, sandwiched between tensor powers of the level
    representative.
    """
    mu = Fraction(mu)
    lam = Fraction(lam)
    p = zeta.shape[1]
    ratio = -lam / mu
    w = CentralElement(
        r, {alpha: ratio ** (r - alpha.num_cycles) for alpha in conj_classes_of(r)}
    )
    U = rho_central(w, p).to_complex().entries
    Zk = tensor_power(zeta, r)
    return Zk @ U @ Zk.conj().T


def unsandwich(X: np.ndarray, zeta: np.ndarray, mu, r: int) -> np.ndarray:
    """Recover the column-slot operator from a zeta-sandwiched tensor.

    Uses the left inverse (zetabar/mu)^{x r} of zeta^{x r}, valid because
    zetabar zeta = mu * identity on the level set.
    """
    mu = float(Fraction(mu))
    Zplus = tensor_power(zeta.conj().T / mu, r)
    return Zplus @ X @ Zplus.conj().T


# ---------------------------------------------------------------------------
# the product with a jet-valued result (for associativity)


def star_jet_series(f, g, zeta0: PointZ, cfg: SpaceConfig, order: int, outer_holomorphic: bool):
    """The deformed product as jets around a base point on the level set.

    Returns (ring, [jet per lambda order]): the lambda^t coefficient of
    f*g as a truncated expansion in offsets of the base point, either in
    the holomorphic matrix entries (``outer_holomorphic=True``, conjugate
    entries frozen) or in the antiholomorphic ones.

    The lambda^t jet is exact up to outer degree ``order - t`` and zero
    above it.  That is all a pairing of the product truncated at ``order``
    reads, and it keeps every jet in one ring of total degree ``order`` in
    the outer offsets and the inner ones together: the lambda^t jet
    differentiates the factors to inner order r <= t, and order r needs
    outer degree <= ``order - r`` only.  Those outer monomials are a prefix
    of the graded outer ring, the basis of ``shared_ring(n p, order - r)``:
    the order-r tensors are held on it alone, and the lambda^t product runs
    in the ring of order ``order - t`` on its prefix.

    Invariant functions depend on (Z, Zbar) only through
    Pi = Z (Zbar Z)^-1 Zbar, which is unchanged by Zbar -> A Zbar.  So the
    offset point is represented by the pair (Z, mu (Zbar Z)^-1 Zbar), whose
    Gram matrix is mu to every jet order: one p x p jet inverse, no inverse
    square root.  The base point must already satisfy zetabar zeta = mu,
    because the outer pairing happens at zeta0, where that pair reduces to
    (zeta0, zeta0^t).  Raises ``RangeError`` for an order that is not a
    nonnegative integer and over the memory budget.
    """
    _check_order(order)
    n, p = cfg.n, cfg.p
    nz = n * p
    _check_memory(n, p, order, series=True)
    mu = Fraction(cfg.mu)
    slots = np.arange(nz).reshape(n, p)
    R_out = shared_ring(nz, order)
    # variables 0..nz-1 are the outer offsets, nz..2nz-1 the inner ones
    total = shared_ring(2 * nz, order)
    zeta = MatrixJet.from_numeric(total, zeta0.z)
    Zbpt = MatrixJet.from_numeric(total, zeta0.zbar)
    if outer_holomorphic:
        zeta = zeta + MatrixJet.variables(total, slots)
    else:
        Zbpt = Zbpt + MatrixJet.variables(total, slots.T)
    zetabar = mat_inverse(Zbpt @ zeta).scale(float(mu)) @ Zbpt
    # factor f sees fresh holomorphic inner offsets, g antiholomorphic ones
    Zf = zeta + MatrixJet.variables(total, nz + slots)
    jf = eval_function(f, Zf, zetabar)
    Zbg = zetabar + MatrixJet.variables(total, nz + slots.T)
    jg = eval_function(g, zeta, Zbg)

    out = [R_out.zero() for _ in range(order + 1)]
    for r in range(order + 1):
        # per sorted row tuple and column tuple: outer-jet coefficient
        # vectors of the r-th inner partials on the outer monomials of
        # degree <= order - r, DF[row tuple, column tuple, outer monomial];
        # DF's rows carry their orbit sizes
        outer = total.leading(nz, order - r)
        tidx = total.multiset_indices(r, n, p, first=nz, start=outer)
        w_in = R_out.dfact[R_out.multiset_indices(r, n, p)][..., None]
        DF = jf.coeffs[tidx] * (w_in * sorted_tuples(n, r)[1][:, None, None])
        DG = jg.coeffs[tidx] * w_in
        inv_rfact = 1.0 / factorial(r)
        for t, M in enumerate(_series_coefficient_matrices(r, p, mu, order), start=r):
            if not M.any():  # r = 0 beyond lambda^0
                continue
            # the outer degrees <= order - t: the basis of ``ring``
            ring = shared_ring(nz, order - t)
            k = ring.size
            # contract the coefficients into DG first: one jet product per
            # (sorted row tuple, column tuple), summed as one jet matrix product
            MG = M @ DG[..., :k]
            prod = ring._matmul(DF[..., :k].reshape(1, -1, k), MG.reshape(-1, 1, k))
            out[t].coeffs[:k] += prod[0, 0] * inv_rfact
    return R_out, out


def associativity_residuals(f, g, h, cfg: SpaceConfig, z: PointZ, order: int):
    """Per-lambda-order residual of ((f*g)*h - f*(g*h)) at a point.

    The left association pairs the jets of f*g in holomorphic offsets with
    h, the right one pairs f with the jets of g*h in antiholomorphic ones.
    The third factors are read as in ``star_eval``: f's holomorphic and
    h's antiholomorphic tensors, from one chart.
    """
    zeta0 = level_representative(z, cfg.mu)
    n, p = cfg.n, cfg.p
    DF, DH = _derivative_tensors_at(f, h, zeta0, order)

    def associate(a, b, DC, left: bool):
        _, ab = star_jet_series(a, b, zeta0, cfg, order, outer_holomorphic=left)
        out = [0j] * (order + 1)
        for s in range(order + 1):
            D = multiset_tensors(ab[s], n, p, order)
            ser = _pairing_series(D, DC, n, p, cfg.mu, order) if left else _pairing_series(DC, D, n, p, cfg.mu, order)
            for u in range(order + 1 - s):
                out[s + u] += ser.coeffs[u]
        return out

    return [abs(a - b) for a, b in zip(associate(f, g, DH, True), associate(g, h, DF, False))]


# ---------------------------------------------------------------------------
# verification suite


def verify_suite(
    cfg: SpaceConfig,
    order: int = 2,
    seed: int = 0,
    tolerance: float = 1e-7,
) -> dict:
    """Run the structural checks of the product at desk scale.

    Returns a JSON-serializable report; each entry records the check name,
    its parameters, the residual, the tolerance and a pass flag.  Fully
    deterministic for a fixed seed.  Raises ``RangeError`` for an order
    below 1, which has no commutator to check, for a tolerance that is
    negative or not finite, and before allocating for a size whose memory
    estimate exceeds the budget.
    """
    if order < 1:
        raise RangeError(f"verification needs order >= 1, got {order}")
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise RangeError(f"tolerance must be finite and nonnegative, got {tolerance}")
    _check_memory(cfg.n, cfg.p, order, series=True)
    rng = np.random.default_rng(seed)
    checks = []
    params = {
        "p": cfg.p,
        "q": cfg.q,
        "mu": str(cfg.mu),
        "order": order,
        "seed": seed,
    }

    def record(name, residual, tol):
        checks.append(
            {
                "check": name,
                "params": params,
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

    return {"config": params, "checks": checks, "pass": all(c["pass"] for c in checks)}
