"""Workloads, seeded inputs and output oracles of the grastar benchmark.

Inputs are made here from the workload seed and the op index with NumPy
alone; grastar only receives the generated point ``z`` and functions
``f``, ``g`` (``verify-cli`` passes a derived ``--seed`` instead, from
which ``grastar verify`` draws its own ``z``, ``f``, ``g``, ``h``).  The
oracles use grastar's public API and the tolerances of its own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

from grastar import geometry, star, tensor_action
from grastar.geometry import FunctionExpr, PointZ, SpaceConfig

MU = Fraction(1)

# the p = 1 closed form and the first-order commutator, as in tests/
TOL_CLOSED_FORM = 1e-11
TOL_GENERAL = 1e-9


@dataclass(frozen=True)
class Size:
    """One product configuration: (p+q) x p matrices, truncation order, lambda."""

    p: int
    q: int
    order: int
    lam: Fraction | None = None

    @property
    def label(self) -> str:
        lam = "formal" if self.lam is None else str(self.lam)
        return f"p{self.p}q{self.q}N{self.order}-{lam}"

    def verify_argv(self, seed: int) -> list[str]:
        argv = ["verify", "--p", str(self.p), "--q", str(self.q), "--order", str(self.order)]
        if self.lam is not None:
            argv += ["--lambda", str(self.lam)]
        return argv + ["--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    """An op cycles through ``sizes``; ``cli`` ops are fresh ``grastar verify`` processes."""

    name: str
    sizes: tuple[Size, ...]
    cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # many variables at low order: jet ring build, jet evaluation and
        # derivative_tensor dominate; projectors are built during set-up
        Workload("star-series", (Size(1, 2, 4), Size(2, 2, 4), Size(3, 1, 4), Size(2, 2, 5))),
        # few variables at high order: cold S_6/S_8 projectors in set-up,
        # derivative_tensor at r = 6..8 and the pairing over p^r column slots
        Workload(
            "star-fixed-high",
            (
                Size(2, 1, 6, Fraction(1, 10)),
                Size(1, 1, 8, Fraction(1, 10)),
                Size(1, 2, 6, Fraction(1, 10)),
            ),
        ),
        # what a CLI user pays: import, cold caches, the associativity ring
        # and its table, Denman-Beavers, JSON output
        Workload("verify-cli", (Size(2, 2, 2), Size(1, 2, 3, Fraction(1, 3))), cli=True),
    )
}

# Sizes left out of every workload, kept here so they stay visible.
EXCLUDED = (
    {"size": "grastar verify --p 2 --q 2 --order 3", "why": "dies with MemoryError: the associativity ring's size^2 table needs 5.5 GiB"},
    {"size": "grastar verify --p 3 --q 1", "why": "exits 2 with 'too large': the packed monomial keys overflow 2^62"},
    {"size": "star_eval at (p,q,N) = (2,1,7)", "why": "48 s of cold projector set-up, beyond one run's time"},
    {"size": "all of the above", "why": "the ROADMAP's jet-ring item adds a workload for these sizes as its own change"},
)


# set-up ops draw their inputs from op indices no measured op reaches
SETUP_OP = 1_000_000


def op_rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def cli_seed(seed: int, op: int) -> int:
    return int(op_rng(seed, op).integers(0, 2**31))


def _point(rng: np.random.Generator, n: int, p: int) -> PointZ:
    while True:
        z = (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))) / np.sqrt(2)
        sv = np.linalg.svd(z, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            return PointZ(z)


def _function(rng: np.random.Generator, n: int) -> FunctionExpr:
    """Two terms, each a product of one or two generators tr(B Pi)."""
    terms = []
    for _ in range(2):
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        deg = int(rng.integers(1, 3))
        factors = [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
            for _ in range(deg)
        ]
        terms.append((coeff, factors))
    return FunctionExpr(terms)


def api_inputs(seed: int, op: int, size: Size):
    rng = op_rng(seed, op)
    cfg = SpaceConfig(size.p, size.q, MU)
    n = size.p + size.q
    return cfg, _point(rng, n, size.p), _function(rng, n), _function(rng, n)


def api_op(size: Size, cfg, z, f, g):
    """One product through the public API (looked up at call time, so traced)."""
    return star.star_eval(f, g, cfg, z, size.order, lam=size.lam)


def _value(fn: FunctionExpr, z: PointZ) -> complex:
    """f(z) from the definition Pi = z (z^t z)^-1 z^t, without grastar."""
    zz = z.z
    Pi = zz @ np.linalg.solve(zz.conj().T @ zz, zz.conj().T)
    total = 0j
    for coeff, factors in fn.terms:
        term = coeff
        for B in factors:
            term *= np.trace(B @ Pi)
        total += term
    return complex(total)


@cache
def _class_route_operator(r: int, p: int, c: Fraction) -> np.ndarray:
    """The order-r coefficient element on (C^p)^{x r} along the class route.

    ``coefficient_operator(..., method="classes")`` solves for the class
    coefficients from the character table and ``rho_central`` sums the
    permutation operators, so neither the frame projectors nor their
    weights 1/t enter.
    """
    if r == 0:
        return np.ones((1, 1), dtype=complex)
    u = star.coefficient_operator(r, c, method="classes")
    return tensor_action.rho_central(u, p).to_complex().entries


def _derivative_tensors(fn: FunctionExpr, zeta: PointZ, order: int, jet_point) -> list:
    """All derivative tensors of fn at zeta, through the public API only."""
    n, p = zeta.z.shape
    _, Z, Zbar = jet_point(zeta, order)
    jet = geometry.eval_function(fn, Z, Zbar)
    return [star.derivative_tensor(jet, n, p, r) for r in range(order + 1)]


def _class_route_value(size: Size, cfg, z, f, g) -> complex:
    """f * g at fixed lambda, paired through the class-route operators."""
    zeta = geometry.level_representative(z, cfg.mu)
    DFs = _derivative_tensors(f, zeta, size.order, geometry.holomorphic_jet_point)
    DGs = _derivative_tensors(g, zeta, size.order, geometry.antiholomorphic_jet_point)
    c = Fraction(cfg.mu) / size.lam + size.p
    total = 0j
    for r in range(size.order + 1):
        C = _class_route_operator(r, size.p, c)
        total += float(cfg.mu) ** r / factorial(r) * complex(np.einsum("ij,ai,aj->", C, DFs[r], DGs[r]))
    return total


def check_api(size: Size, cfg, z, f, g, result) -> str | None:
    """None if ``result`` passes the oracle, else a one-line reason.

    p = 1: the independent closed form ``projective_star_eval`` (1e-11).
    p > 1, formal: order 0 is f(z) g(z) and the first-order commutator is
    0.5j times the Poisson bracket (1e-9).  p > 1, fixed lambda: no order
    can be read off a resummed value, so the value is recomputed with the
    coefficient element built along the class route instead of from the
    frame projectors (1e-9), and the star product's hermiticity
    conj(f * g) = conj(g) * conj(f) at real lambda is checked too (1e-9).
    """
    if size.p == 1:
        ref = star.projective_star_eval(f, g, cfg, z, size.order, lam=size.lam)
        if size.lam is None:
            err = max(abs(a - b) for a, b in zip(result.coeffs, ref.coeffs))
        else:
            err = abs(result - ref)
        return None if err <= TOL_CLOSED_FORM else f"closed form residual {err:.2e}"
    if size.lam is not None:
        err_class = abs(result - _class_route_value(size, cfg, z, f, g))
        mirror = star.star_eval(g.conjugate(), f.conjugate(), cfg, z, size.order, lam=size.lam)
        err_herm = abs(result - np.conj(mirror))
        if err_class > TOL_GENERAL or err_herm > TOL_GENERAL:
            return f"class route residual {err_class:.2e}, hermiticity residual {err_herm:.2e}"
        return None
    err0 = abs(result.coeffs[0] - _value(f, z) * _value(g, z))
    gf = star.star_eval(g, f, cfg, z, 1)
    zeta = geometry.level_representative(z, cfg.mu)
    bracket = geometry.poisson_bracket(f, g, zeta)
    err1 = abs(result.coeffs[1] - gf.coeffs[1] - 0.5j * bracket)
    if err0 > TOL_GENERAL or err1 > TOL_GENERAL:
        return f"order-0 residual {err0:.2e}, commutator residual {err1:.2e}"
    return None


def check_verify(returncode: int, stdout: str) -> str | None:
    """``grastar verify`` must exit 0 with every JSON check passing."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"unparsable output: {exc}"
    failed = [c["check"] for c in report.get("checks", []) if not c.get("pass")]
    if failed or not report.get("checks") or report.get("pass") is not True:
        return f"failed checks {failed}"
    return None
