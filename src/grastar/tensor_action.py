"""Commuting actions of S_r and Gl(s, C) on tensor powers of C^s.

Permutations act by shuffling tensor slots, matrices by Kronecker powers.
Exact operators, such as the Young projectors (images of the central
idempotents), are stored as integer numerators over one denominator; the
Frobenius and Schur character checks run in complex floats.

The reductions of the non-invariant tensor powers z z^t and z x^-2 z^t
(x the Gram matrix) through the level representative live here too.
They are identities that check the product's coefficient element, with
``tensor_power`` the one Kronecker power they and ``d_power`` share; no
product path reads them.

Index convention: the basis vector e_{A_1} x ... x e_{A_r} has flat index
sum_k A_k * s^(r-1-k) (row-major, first slot most significant).  A
permutation acts by rho(sigma): e_{A_1...A_r} -> e_{B_1...B_r} with
B_{sigma(k)} = A_k, which makes rho a homomorphism,
rho(sigma) rho(tau) = rho(sigma tau).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

import numpy as np

from grastar.center import CentralElement, s_coeffs
from grastar.characters import character
from grastar.errors import PoleError, RangeError
from grastar.partitions import (
    ConjClass,
    Frame,
    Permutation,
    class_size,
    conj_classes_of,
    cycle_type,
    dim_symmetric,
    permutations_of,
)

#: Largest dense operator dimension s^r we are willing to materialize.
MAX_DIM = 4096


def _check_dim(s: int, r: int) -> int:
    dim = s**r
    if dim > MAX_DIM:
        raise RangeError(f"tensor dimension {s}^{r} = {dim} exceeds cap {MAX_DIM}")
    return dim


@dataclass
class TensorOperator:
    """Dense linear map on (C^s)^{x r}, exact or complex.

    An exact operator stores integer numerators, an object array of Python
    ints, over one positive int denominator ``den``; a complex operator has
    ``den=None``.
    """

    s: int
    r: int
    entries: np.ndarray  # (s^r, s^r); int numerators over den, or complex
    den: int | None

    @classmethod
    def zero(cls, s: int, r: int) -> "TensorOperator":
        dim = _check_dim(s, r)
        return cls(s, r, np.zeros((dim, dim), dtype=object), 1)

    @classmethod
    def identity(cls, s: int, r: int) -> "TensorOperator":
        return cls(s, r, np.eye(_check_dim(s, r), dtype=object), 1)

    @property
    def dim(self) -> int:
        return self.s**self.r

    def _operands(self, other: "TensorOperator"):
        """Both entry arrays and denominators: exact if both are, else complex."""
        if (self.s, self.r) != (other.s, other.r):
            raise ValueError("operator shapes differ")
        if self.den is None or other.den is None:
            return self.to_complex().entries, other.to_complex().entries, None, None
        return self.entries, other.entries, self.den, other.den

    def __matmul__(self, other: "TensorOperator") -> "TensorOperator":
        a, b, da, db = self._operands(other)
        return TensorOperator(self.s, self.r, a @ b, None if da is None else da * db)

    def __add__(self, other: "TensorOperator") -> "TensorOperator":
        a, b, da, db = self._operands(other)
        if da is None:
            return TensorOperator(self.s, self.r, a + b, None)
        return TensorOperator(self.s, self.r, a * db + b * da, da * db)

    def trace(self):
        total = sum(np.diagonal(self.entries))
        return total if self.den is None else Fraction(total, self.den)

    def to_complex(self) -> "TensorOperator":
        if self.den is None:
            return self
        # int / int is correctly rounded, as Fraction -> float is
        return TensorOperator(self.s, self.r, (self.entries / self.den).astype(complex), None)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorOperator)
            and (self.s, self.r) == (other.s, other.r)
            and (self.den is None) == (other.den is None)
            and bool(np.all(self.entries * (other.den or 1) == other.entries * (self.den or 1)))
        )

    def allclose(self, other: "TensorOperator", tol: float = 1e-12) -> bool:
        a = self.to_complex().entries
        b = other.to_complex().entries
        return bool(np.max(np.abs(a - b)) <= tol)


def _flat_indices(s: int, r: int):
    """All multi-indices (A_1..A_r) in flat order."""
    if r == 0:
        return [()]
    out = [()]
    for _ in range(r):
        out = [t + (a,) for t in out for a in range(s)]
    return out


def perm_index_map(sigma: Permutation, s: int) -> list[int]:
    """For each flat basis index, the flat index of its image under rho(sigma)."""
    r = sigma.r
    dim = _check_dim(s, r)
    inv = sigma.inverse().images
    powers = [s ** (r - 1 - k) for k in range(r)]
    out = [0] * dim
    for flat, multi in enumerate(_flat_indices(s, r)):
        image = sum(multi[inv[k]] * powers[k] for k in range(r))
        out[flat] = image
    return out


def rho_perm(sigma: Permutation, s: int) -> TensorOperator:
    """Permutation operator on (C^s)^{x r}; rho(sigma)rho(tau) = rho(sigma tau)."""
    out = TensorOperator.zero(s, sigma.r)
    out.entries[perm_index_map(sigma, s), np.arange(out.dim)] = 1
    return out


def _class_operator(s: int, r: int, weights: dict[ConjClass, int], den: int) -> TensorOperator:
    """sum_sigma weights[cycle type of sigma] rho(sigma) / den, integer weights."""
    dim = _check_dim(s, r)
    entries = np.zeros((dim, dim), dtype=object)
    for sigma in permutations_of(r):
        w = weights[cycle_type(sigma)]
        if w:
            entries[perm_index_map(sigma, s), np.arange(dim)] += w
    return TensorOperator(s, r, entries, den)


def rho_central(u: CentralElement, s: int) -> TensorOperator:
    """Linear extension of rho to a central element.

    The class coefficients become integers over the lcm of their
    denominators, which is the operator's denominator.
    """
    den = lcm(*(w.denominator for w in u.coeffs))
    weights = {alpha: int(w * den) for alpha, w in u.as_dict().items()}
    return _class_operator(s, u.r, weights, den)


def d_power(S: np.ndarray, r: int) -> TensorOperator:
    """Kronecker power D(S) = S^{x r} with the shared index convention."""
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    s = S.shape[0]
    _check_dim(s, r)
    return TensorOperator(s, r, tensor_power(S, r), None)


def projector(frame: Frame, s: int) -> TensorOperator:
    """Image rho(e_[m]) of the central idempotent: exact Young projector.

    The class weights are the integers n_[m] chi^[m] over r!.  Frames with
    more than s rows are annihilated by rho and yield the zero operator.
    """
    r = frame.weight
    n = dim_symmetric(frame)
    weights = {alpha: n * character(frame, alpha) for alpha in conj_classes_of(r)}
    return _class_operator(s, r, weights, factorial(r))


def frobenius_trace(A: np.ndarray, sigma: Permutation) -> complex:
    """tr(D(A) rho(sigma)); equals prod_k (tr A^k)^(alpha_k) for the cycle type."""
    A = np.asarray(A, dtype=complex)
    s = A.shape[0]
    r = sigma.r
    _check_dim(s, r)
    D = d_power(A, r).entries
    total = 0.0 + 0.0j
    for src, dst in enumerate(perm_index_map(sigma, s)):
        total += D[src, dst]
    return complex(total)


def power_traces(A: np.ndarray, r: int) -> list[complex]:
    """[tr A, tr A^2, ..., tr A^r]."""
    A = np.asarray(A, dtype=complex)
    out = []
    P = A.copy()
    for _ in range(r):
        out.append(complex(np.trace(P)))
        P = P @ A
    return out


def schur_character(frame: Frame, A: np.ndarray) -> complex:
    """Character of the Gl irreducible at A, by the Frobenius class sum."""
    r = frame.weight
    if r == 0:
        return 1.0 + 0.0j
    a = power_traces(A, r)
    total = 0.0 + 0.0j
    for alpha in conj_classes_of(r):
        prod = 1.0 + 0.0j
        for k, mult in enumerate(alpha.alpha, start=1):
            if mult:
                prod *= a[k - 1] ** mult
        total += class_size(alpha) * prod * character(frame, alpha)
    return total / factorial(r)


# ---------------------------------------------------------------------------
# reductions of non-invariant building blocks (identity checks)


def tensor_power(M: np.ndarray, r: int) -> np.ndarray:
    """r-fold Kronecker power (first factor most significant)."""
    out = np.eye(1, dtype=complex)
    for _ in range(r):
        out = np.kron(out, np.asarray(M, dtype=complex))
    return out


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


def proj_sandwich_power(zeta: np.ndarray, mu, lam, r: int) -> np.ndarray:
    """Reduction of the r-th tensor power of z x^-2 z^t (x the Gram matrix).

    The result factors through the level representative as
    (lam*mu)^-r  zeta^{x r} . rho(coefficient element) . zetabar^{x r},
    the coefficient element taken along the class route, ``s_coeffs``.
    """
    mu = Fraction(mu)
    lam = Fraction(lam)
    p = zeta.shape[1]
    c = mu / lam + p
    U = rho_central(CentralElement(r, s_coeffs(r, c)), p).to_complex().entries
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
