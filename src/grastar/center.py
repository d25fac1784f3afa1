"""The center of the group algebra C[S_r] and the star-product coefficients.

Class sums k_alpha and the idempotents e_[m] are the two natural bases of
the center; the base change is given by characters.  Inverting the central
element sum_alpha c^|alpha| k_alpha yields the coefficient functions
s_alpha(c) = sum_a n_a chi^a_alpha / (r! t_a(c)), with t_a the
characteristic polynomials that factor over the boxes of the frame.
``t_value`` is that box product, one factor (c + column - row) per box,
for an exact, a complex or a polynomial c: ``t_poly`` and the frame
route of ``star.coefficient_operator`` both read it.

Everything in this module is exact: coefficients are ``fractions.Fraction``
throughout, and brute-force structure constants (full enumeration of S_r
products, r <= 6) serve as the oracle for the eigenvalue fast path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from grastar.characters import character, character_table
from grastar.errors import GrastarError, PoleError, RangeError
from grastar.partitions import (
    ConjClass,
    Frame,
    class_size,
    conj_classes_of,
    cycle_type,
    dim_symmetric,
    partitions_of,
)

# ---------------------------------------------------------------------------
# exact univariate polynomials


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial in one indeterminate c with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]  # ascending powers, trailing zeros stripped

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(x) for x in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def const(cls, value) -> "RationalPoly":
        return cls((Fraction(value),))

    @classmethod
    def variable(cls) -> "RationalPoly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RationalPoly(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return RationalPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(tuple(out))

    __rmul__ = __mul__

    def eval(self, c) -> Fraction:
        c = Fraction(c)
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * c + a
        return acc


def _as_poly(x) -> RationalPoly:
    if isinstance(x, RationalPoly):
        return x
    return RationalPoly.const(x)


# ---------------------------------------------------------------------------
# truncated power series in the deformation parameter


class LambdaSeries:
    """Power series in the deformation parameter, truncated at a fixed order.

    Coefficients may be exact rationals, complex numbers, or any values
    supporting + and * (jets included); arithmetic truncates consistently.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.order = order
        if coeffs is None:
            coeffs = [Fraction(0)] * (order + 1)
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int) -> "LambdaSeries":
        out = cls(order)
        out.coeffs[0] = value
        return out

    def __add__(self, other):
        if not isinstance(other, LambdaSeries):
            return self + LambdaSeries.constant(other, self.order)
        if other.order != self.order:
            raise ValueError("truncation orders differ")
        return LambdaSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return LambdaSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, LambdaSeries):
            other = LambdaSeries.constant(other, self.order)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LambdaSeries):
            return LambdaSeries(self.order, [a * other for a in self.coeffs])
        if other.order != self.order:
            raise ValueError("truncation orders differ")
        out = LambdaSeries(self.order, [0] * (self.order + 1))
        for i, a in enumerate(self.coeffs):
            for j in range(self.order + 1 - i):
                out.coeffs[i + j] = out.coeffs[i + j] + a * other.coeffs[j]
        return out

    __rmul__ = __mul__

    def scale(self, factor) -> "LambdaSeries":
        return LambdaSeries(self.order, [factor * a for a in self.coeffs])

    def shift(self, k: int) -> "LambdaSeries":
        """Multiply by lambda^k, truncating."""
        return LambdaSeries(self.order, [Fraction(0)] * k + self.coeffs[: self.order + 1 - k])

    def __eq__(self, other):
        return (
            isinstance(other, LambdaSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"LambdaSeries(order={self.order}, coeffs={self.coeffs})"


# ---------------------------------------------------------------------------
# central elements


@dataclass(frozen=True)
class CentralElement:
    """An element sum_alpha coeffs[alpha] k_alpha of the center of C[S_r]."""

    r: int
    coeffs: tuple[Fraction, ...]  # indexed like conj_classes_of(r)

    def __init__(self, r: int, coeffs):
        classes = conj_classes_of(r)
        if isinstance(coeffs, dict):
            vec = tuple(Fraction(coeffs.get(a, 0)) for a in classes)
        else:
            vec = tuple(Fraction(x) for x in coeffs)
            if len(vec) != len(classes):
                raise ValueError(
                    f"expected {len(classes)} class coefficients, got {len(vec)}"
                )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coeffs", vec)

    def coeff(self, alpha: ConjClass) -> Fraction:
        return self.coeffs[conj_classes_of(self.r).index(alpha)]

    def as_dict(self) -> dict[ConjClass, Fraction]:
        return dict(zip(conj_classes_of(self.r), self.coeffs))

    @classmethod
    def identity(cls, r: int) -> "CentralElement":
        classes = conj_classes_of(r)
        return cls(r, {classes[0]: Fraction(1)})

    @classmethod
    def class_sum(cls, alpha: ConjClass) -> "CentralElement":
        return cls(alpha.r, {alpha: Fraction(1)})


def k_to_e(u: CentralElement) -> dict[Frame, Fraction]:
    """Coordinates of a central element in the idempotent basis.

    The coordinate on e_[m] is the scalar by which u acts on the irreducible
    [m]: sum_alpha u_alpha h_alpha chi^[m]_alpha / n_[m].
    """
    table = character_table(u.r)
    out = {}
    for a, frame in enumerate(table.frames):
        n_a = dim_symmetric(frame)
        acc = Fraction(0)
        for i, alpha in enumerate(table.classes):
            acc += u.coeffs[i] * class_size(alpha) * table.values[a][i]
        out[frame] = acc / n_a
    return out


def e_to_k(v: dict[Frame, Fraction], r: int) -> CentralElement:
    """Inverse base change: e_[m] = (n_[m]/r!) sum_alpha chi^[m]_alpha k_alpha."""
    table = character_table(r)
    rfact = factorial(r)
    coeffs = {}
    for i, alpha in enumerate(table.classes):
        acc = Fraction(0)
        for a, frame in enumerate(table.frames):
            va = v.get(frame)
            if va:
                acc += Fraction(va) * dim_symmetric(frame) * table.values[a][i]
        coeffs[alpha] = acc / rfact
    return CentralElement(r, coeffs)


def t_value(frame: Frame, c):
    """The coefficient polynomial of a frame at c: prod of (c + col - row) over its boxes.

    Exact for Fraction c, a ``RationalPoly`` for polynomial c, complex otherwise.
    """
    if isinstance(c, RationalPoly):
        acc = RationalPoly.const(1)
    else:
        acc = Fraction(1) if isinstance(c, Fraction) else complex(1)
    for i, m_i in enumerate(frame.rows, start=1):
        for j in range(1, m_i + 1):
            acc = acc * (c + (j - i))
    return acc


def t_poly(frame: Frame, p: int) -> RationalPoly:
    """Closed-form coefficient polynomial [c]_{m_1} [c-1]_{m_2} ... [c-p+1]_{m_p}.

    Equivalently one linear factor (c + column - row) per box of the frame.
    """
    if frame.num_rows > p:
        raise ValueError(
            f"frame {frame} has more than p = {p} nonzero rows"
        )
    return t_value(frame, RationalPoly.variable())


def t_from_characters(frame: Frame) -> RationalPoly:
    """The character-sum form t_[m](c) = (1/n) sum_alpha h_alpha chi_alpha c^|alpha|.

    Must coincide with ``t_poly`` for every p at least the number of rows;
    the test suite checks this exactly.
    """
    r = frame.weight
    if r == 0:
        return RationalPoly.const(1)
    n = dim_symmetric(frame)
    coeffs = [Fraction(0)] * (r + 1)
    for alpha in conj_classes_of(r):
        coeffs[alpha.num_cycles] += Fraction(
            class_size(alpha) * character(frame, alpha), n
        )
    return RationalPoly(coeffs)


def t_values_at(r: int, c_value) -> dict[Frame, Fraction]:
    """Evaluate every weight-r coefficient polynomial at an exact c."""
    c_value = Fraction(c_value)
    return {
        frame: t_from_characters(frame).eval(c_value) for frame in partitions_of(r)
    }


def s_coeffs(r: int, c_value) -> dict[ConjClass, Fraction]:
    """Coefficients of the inverse of sum_alpha c^|alpha| k_alpha.

    s_alpha(c) = sum_frames n chi_alpha / (r! t(c)).  Raises ``PoleError``
    naming the offending frame when some t vanishes at c.
    """
    c_value = Fraction(c_value)
    table = character_table(r)
    rfact = factorial(r)
    t_vals = []
    for frame in table.frames:
        t = t_from_characters(frame).eval(c_value)
        if t == 0:
            raise PoleError(frame, c_value)
        t_vals.append(t)
    out = {}
    for i, alpha in enumerate(table.classes):
        acc = Fraction(0)
        for a, frame in enumerate(table.frames):
            acc += Fraction(dim_symmetric(frame) * table.values[a][i], rfact) / t_vals[a]
        out[alpha] = acc
    return out


def c_power_element(r: int, c_value) -> CentralElement:
    """The central element sum_alpha c^|alpha| k_alpha at an exact c."""
    c_value = Fraction(c_value)
    return CentralElement(
        r, {alpha: c_value**alpha.num_cycles for alpha in conj_classes_of(r)}
    )


# ---------------------------------------------------------------------------
# brute-force oracle: structure constants by enumerating S_r

MAX_ENUM_R = 6


@cache
def _structure_constants(r: int):
    """c[gamma][alpha][beta] with k_alpha k_beta = sum_gamma c[...] k_gamma."""
    if r > MAX_ENUM_R:
        raise RangeError(
            f"structure constants enumerate S_r products; r <= {MAX_ENUM_R} only"
        )
    classes = conj_classes_of(r)
    index = {a: i for i, a in enumerate(classes)}
    perms = list(itertools.permutations(range(r)))

    def klass(p):
        seen = [False] * r
        alpha = [0] * r
        for s in range(r):
            if seen[s]:
                continue
            ell, k = 0, s
            while not seen[k]:
                seen[k] = True
                k = p[k]
                ell += 1
            alpha[ell - 1] += 1
        return index[ConjClass(alpha)]

    perm_class = [klass(p) for p in perms]
    by_class: list[list[tuple[int, ...]]] = [[] for _ in classes]
    for p, ci in zip(perms, perm_class):
        by_class[ci].append(p)
    perm_index = {p: i for i, p in enumerate(perms)}

    f = len(classes)
    counts = [[[0] * f for _ in range(f)] for _ in range(f)]
    for a_i, elems_a in enumerate(by_class):
        for b_i, elems_b in enumerate(by_class):
            for u in elems_a:
                for v in elems_b:
                    w = tuple(u[v[k]] for k in range(r))
                    counts[perm_class[perm_index[w]]][a_i][b_i] += 1
    # counts[g][a][b] currently counts pairs mapping onto the whole class g
    sizes = [class_size(a) for a in classes]
    return tuple(
        tuple(
            tuple(Fraction(counts[g][a][b], sizes[g]) for b in range(f))
            for a in range(f)
        )
        for g in range(f)
    )


def multiply_central(
    u: CentralElement, v: CentralElement, method: str = "eigenvalues"
) -> CentralElement:
    """Product of two central elements.

    The default path multiplies the idempotent-basis coordinates
    componentwise (central elements act by scalars on isotypic blocks) and
    works for any r <= 12; ``method="structure"`` goes through the
    enumerated structure constants (r <= 6) and serves as the oracle.
    """
    if u.r != v.r:
        raise ValueError("central elements live in different group algebras")
    r = u.r
    if method == "structure":
        sc = _structure_constants(r)
        f = len(u.coeffs)
        coeffs = []
        for g in range(f):
            acc = Fraction(0)
            for a in range(f):
                if u.coeffs[a] == 0:
                    continue
                for b in range(f):
                    acc += u.coeffs[a] * v.coeffs[b] * sc[g][a][b]
            coeffs.append(acc)
        return CentralElement(r, coeffs)
    if method != "eigenvalues":
        raise ValueError(f"unknown method {method!r}")
    eu = k_to_e(u)
    ev = k_to_e(v)
    return e_to_k({frame: eu[frame] * ev[frame] for frame in eu}, r)


def invert_central_direct(r: int, c_value) -> CentralElement:
    """Invert sum_alpha c^|alpha| k_alpha by solving the linear system.

    Brute-force oracle: uses structure constants from full S_r enumeration
    and exact Gaussian elimination; must agree with ``s_coeffs`` exactly.
    """
    c_value = Fraction(c_value)
    sc = _structure_constants(r)
    classes = conj_classes_of(r)
    f = len(classes)
    u = [c_value**a.num_cycles for a in classes]
    # rows: target class gamma; columns: unknown v_beta
    mat = [[sum(u[a] * sc[g][a][b] for a in range(f)) for b in range(f)] for g in range(f)]
    rhs = [Fraction(1) if g == 0 else Fraction(0) for g in range(f)]
    sol = _solve_exact(mat, rhs)
    return CentralElement(r, sol)


def _solve_exact(mat, rhs):
    """Gaussian elimination over the rationals; raises on singular systems."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((row for row in range(col, n) if a[row][col] != 0), None)
        if pivot is None:
            raise GrastarError("singular system: non-generic value of c")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for row in range(n):
            if row != col and a[row][col] != 0:
                factor = a[row][col]
                a[row] = [x - factor * y for x, y in zip(a[row], a[col])]
    return [a[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# lambda-expansion of the frame coefficients


def lambda_coefficient_series(frame: Frame, mu, p: int, order: int) -> LambdaSeries:
    """Truncated expansion of mu^|m| / t_[m](mu/lambda + p) in powers of lambda.

    Each box of the frame contributes a factor mu / (mu + a*lambda) with
    a = p + column - row; the series therefore starts at lambda^|m|.
    """
    if frame.num_rows > p:
        raise ValueError(f"frame {frame} has more than p = {p} nonzero rows")
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    r = frame.weight
    out = LambdaSeries.constant(Fraction(1), order)
    for i, m_i in enumerate(frame.rows, start=1):
        for j in range(m_i):
            a = Fraction(p - i + 1 + j)
            geom = LambdaSeries(
                order, [(-a / mu) ** k for k in range(order + 1)]
            )
            out = out * geom
    return out.shift(r) if r <= order else LambdaSeries(order)
