"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines
as they happen; without ``-s`` pytest still shows them for failing tests.
"""

import itertools
import json
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from grastar.center import (
    CentralElement,
    RationalPoly,
    c_power_element,
    s_coeffs,
    t_from_characters,
    t_poly,
    t_value,
)
from grastar.cli import main as cli_main
from grastar.geometry import (
    FunctionExpr,
    SpaceConfig,
    eval_function,
    level_representative,
    random_function_expr,
    sample_point,
    wick_product,
)
from grastar.partitions import (
    Frame,
    class_size,
    conj_classes_of,
    dim_gl,
    dim_symmetric,
    partitions_of,
    permutations_of,
)
from grastar.star import (
    associativity_residuals,
    coefficient_operator,
    projective_star_eval,
    star_eval,
)
from grastar.tensor_action import (
    TensorOperator,
    frobenius_trace,
    power_traces,
    proj_sandwich_power,
    proj_scalar_power,
    projector,
    rho_central,
    rho_perm,
    tensor_power,
)
from grastar.partitions import cycle_type


def verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def rising(y, r):
    acc = Fraction(1)
    for s in range(r):
        acc *= y + s
    return acc


def random_rational_c(rng) -> Fraction:
    # non-integer by construction, so no coefficient polynomial vanishes
    den = int(rng.integers(2, 8))
    num = int(rng.integers(-40, 40))
    return Fraction(num, den) + Fraction(1, den * 2 + 1)


def test_criterion_1_coefficient_sum_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(5):
        c = random_rational_c(rng)
        for r in range(1, 7):
            s = s_coeffs(r, c)
            total = sum(class_size(a) * s[a] for a in conj_classes_of(r))
            assert total == 1 / rising(c, r)
            checked += 1
    elapsed = time.time() - t0
    verdict(
        1,
        checked == 30 and elapsed < 10,
        f"class-weighted inverse coefficients sum to 1/[c]_r, {checked} exact cases, {elapsed:.1f}s",
    )


def test_criterion_2_t_polynomial_forms():
    t0 = time.time()
    count = 0
    for r in range(1, 8):
        for frame in partitions_of(r):
            assert t_poly(frame, frame.num_rows) == t_from_characters(frame)
            count += 1
    # the worked example: frame [7,5,5,3,2] as an explicit linear-factor product
    c = RationalPoly.variable()
    expect = RationalPoly.const(1)
    for a, mult in [(6, 1), (5, 1), (4, 1), (3, 2), (2, 3), (1, 3), (0, 3), (-1, 3), (-2, 2), (-3, 2), (-4, 1)]:
        for _ in range(mult):
            expect = expect * (c + RationalPoly.const(a))
    assert t_poly(Frame((7, 5, 5, 3, 2)), 5) == expect
    elapsed = time.time() - t0
    verdict(
        2,
        elapsed < 30,
        f"closed-form and character-sum polynomials agree on {count} frames; [7,5,5,3,2] product exact, {elapsed:.1f}s",
    )


def test_criterion_3_projector_suite():
    t0 = time.time()
    cases = 0
    for s in (1, 2, 3):
        for r in (1, 2, 3, 4):
            frames = partitions_of(r)
            projs = [projector(f, s) for f in frames]
            total = TensorOperator.zero(s, r)
            for f, P in zip(frames, projs):
                assert P @ P == P
                assert P.trace() == dim_symmetric(f) * dim_gl(f, s)
                if f.num_rows > s:
                    assert P == TensorOperator.zero(s, r)
                total = total + P
                cases += 1
            assert total == TensorOperator.identity(s, r)
            for P1, P2 in itertools.combinations(projs, 2):
                assert P1 @ P2 == TensorOperator.zero(s, r)
    elapsed = time.time() - t0
    verdict(
        3,
        elapsed < 60,
        f"projectors exact (idempotent, orthogonal, complete, traced) in {cases} cases, {elapsed:.1f}s",
    )


def bialternant(rows, xs):
    s = len(xs)
    rows = list(rows) + [0] * (s - len(rows))
    num = np.array(
        [[x ** (rows[j] + s - 1 - j) for j in range(s)] for x in xs], dtype=complex
    )
    den = np.array([[x ** (s - 1 - j) for j in range(s)] for x in xs], dtype=complex)
    return np.linalg.det(num) / np.linalg.det(den)


def test_criterion_4_frobenius_and_schur():
    from grastar.tensor_action import schur_character

    rng = np.random.default_rng(104)
    worst_frob = 0.0
    for r in range(1, 5):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        traces = power_traces(A, r)
        for sigma in permutations_of(r):
            expect = 1.0 + 0j
            for k, mult in enumerate(cycle_type(sigma).alpha, start=1):
                expect *= traces[k - 1] ** mult
            got = frobenius_trace(A, sigma)
            worst_frob = max(worst_frob, abs(got - expect) / max(1.0, abs(expect)))
    xs = [0.9 + 0.4j, -0.6 + 1.1j, 1.4 - 0.3j]
    worst_schur = 0.0
    for r in range(1, 6):
        for frame in partitions_of(r):
            if frame.num_rows > 3:
                continue
            got = schur_character(frame, np.diag(xs))
            expect = bialternant(frame.rows, xs)
            worst_schur = max(worst_schur, abs(got - expect) / max(1.0, abs(expect)))
    verdict(
        4,
        worst_frob < 1e-12 and worst_schur < 1e-10,
        f"trace product residual {worst_frob:.1e} (<1e-12), character vs bialternant {worst_schur:.1e} (<1e-10)",
    )


def test_criterion_5_projective_space_reduction():
    worst = 0.0
    for q in (1, 2):
        cfg = SpaceConfig(1, q, Fraction(2))
        rng = np.random.default_rng(200 + q)
        for k in range(10):
            z = sample_point(cfg, int(rng.integers(0, 2**31)))
            f = random_function_expr(cfg, rng)
            g = random_function_expr(cfg, rng)
            a = star_eval(f, g, cfg, z, 4)
            b = projective_star_eval(f, g, cfg, z, 4)
            worst = max(worst, max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)))
    verdict(
        5,
        worst < 1e-11,
        f"p=1 engine vs closed form across 20 points, worst per-order residual {worst:.1e} (<1e-11)",
    )


def test_criterion_6_star_axioms():
    t0 = time.time()
    worst_unit = 0.0
    worst_assoc = 0.0
    one = FunctionExpr.one()
    for (p, q) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        cfg = SpaceConfig(p, q, Fraction(2))
        rng = np.random.default_rng(300 + 10 * p + q)
        for k in range(5):
            z = sample_point(cfg, int(rng.integers(0, 2**31)))
            f = random_function_expr(cfg, rng)
            g = random_function_expr(cfg, rng)
            h = random_function_expr(cfg, rng)
            zeta = level_representative(z, cfg.mu)
            fz = eval_function(f, zeta)
            for left, right in ((one, f), (f, one)):
                s = star_eval(left, right, cfg, z, 2)
                worst_unit = max(
                    worst_unit,
                    abs(s.coeffs[0] - fz),
                    max(abs(a) for a in s.coeffs[1:]),
                )
            worst_assoc = max(
                worst_assoc, max(associativity_residuals(f, g, h, cfg, z, 2))
            )
    elapsed = time.time() - t0
    verdict(
        6,
        worst_unit < 1e-12 and worst_assoc < 1e-7 and elapsed < 300,
        f"unit residual {worst_unit:.1e} (<1e-12), associativity {worst_assoc:.1e} (<1e-7), {elapsed:.0f}s (<300s)",
    )


def test_criterion_7_first_order_commutator():
    worst = 0.0
    for (p, q) in ((1, 1), (2, 1), (2, 2)):
        cfg = SpaceConfig(p, q, Fraction(3))
        rng = np.random.default_rng(400 + p + q)
        for k in range(3):
            z = sample_point(cfg, int(rng.integers(0, 2**31)))
            f = random_function_expr(cfg, rng)
            g = random_function_expr(cfg, rng)
            zeta = level_representative(z, cfg.mu)
            fg = star_eval(f, g, cfg, z, 1)
            gf = star_eval(g, f, cfg, z, 1)
            wfg = wick_product(f, g, zeta, 1)
            wgf = wick_product(g, f, zeta, 1)
            worst = max(
                worst,
                abs((fg.coeffs[1] - gf.coeffs[1]) - (wfg.coeffs[1] - wgf.coeffs[1])),
            )
    verdict(
        7,
        worst < 1e-9,
        f"star commutator matches undeformed-product commutator at first order, residual {worst:.1e} (<1e-9)",
    )


def test_criterion_8_tensor_power_reduction_round_trip():
    mu, lam = Fraction(2), Fraction(1, 3)
    worst = 0.0
    for (p, q) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        cfg = SpaceConfig(p, q, mu)
        zeta = level_representative(sample_point(cfg, 500 + p + q), mu).z
        n = p + q
        c = mu / lam + p
        for r in (1, 2, 3):
            PS = proj_sandwich_power(zeta, mu, lam, r)
            big = rho_central(c_power_element(r, c), n).to_complex().entries
            T = tensor_power(zeta @ zeta.conj().T / float(mu), r)
            worst = max(worst, float(np.max(np.abs(float(lam) ** r * big @ PS - T))))
    # p = 1 cross-check in exact coefficients: the class-weighted sum of the
    # inverse coefficients equals the reduced inverse scalar power
    for r in range(1, 7):
        c = mu / lam + 1
        s = s_coeffs(r, c)
        total = sum(class_size(a) * s[a] for a in conj_classes_of(r))
        assert total == lam**r * proj_scalar_power(-r, mu, lam)
    verdict(
        8,
        worst < 1e-10,
        f"tensor-power reduction recursion residual {worst:.1e} (<1e-10); p=1 coefficient cross-check exact",
    )


def test_criterion_9_inverse_power_recursion():
    mu, lam = Fraction(5, 2), Fraction(3, 7)
    for r in range(1, 7):
        assert (mu + lam * r) * proj_scalar_power(-r, mu, lam) == proj_scalar_power(
            -(r - 1), mu, lam
        )
    assert proj_scalar_power(-1, mu, lam) == 1 / (mu + lam)
    verdict(9, True, "inverse-power reduction satisfies its recursion exactly, r <= 6")


def test_criterion_10_strong_deformation_limit():
    # the coefficient polynomials of admissible frames stay away from zero
    # as lambda -> infinity (c -> p)
    for p in (1, 2, 3):
        for r in range(1, 7):
            for frame in partitions_of(r):
                if frame.num_rows <= p:
                    assert t_value(frame, Fraction(p)) != 0
    # fixed-lambda products remain finite and stabilize as lambda grows
    cfg = SpaceConfig(2, 1, Fraction(2))
    rng = np.random.default_rng(110)
    z = sample_point(cfg, 17)
    f = random_function_expr(cfg, rng)
    g = random_function_expr(cfg, rng)
    values = []
    for lam in (Fraction(1), Fraction(10), Fraction(1000), Fraction(10**6)):
        v = star_eval(f, g, cfg, z, 3, lam=lam)
        assert np.isfinite(v.real) and np.isfinite(v.imag)
        values.append(v)
    gaps = [abs(a - b) for a, b in zip(values, values[1:])]
    trend = ", ".join(f"{g:.2e}" for g in gaps)
    verdict(
        10,
        all(np.isfinite(abs(v)) for v in values) and gaps[-1] <= gaps[0],
        f"admissible coefficient polynomials nonzero at c=p; large-lambda values finite, successive gaps {trend}",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    cfg = SpaceConfig(2, 1, Fraction(2))
    rng = np.random.default_rng(111)
    fpath = tmp_path / "f.json"
    gpath = tmp_path / "g.json"
    fpath.write_text(random_function_expr(cfg, rng).dumps())
    gpath.write_text(random_function_expr(cfg, rng).dumps())
    commands = [
        ["chartable", "5"],
        ["coeffs", "3", "--p", "2", "--mu", "2", "--lambda", "1/3"],
        [
            "star", str(fpath), str(gpath),
            "--p", "2", "--q", "1", "--mu", "2", "--order", "2", "--seed", "42",
        ],
        ["verify", "--p", "1", "--q", "1", "--mu", "2", "--order", "2", "--seed", "42"],
    ]
    identical = True
    for argv in commands:
        cli_main(list(argv))
        out1 = capsys.readouterr().out
        cli_main(list(argv))
        out2 = capsys.readouterr().out
        identical = identical and (out1 == out2) and out1
    verdict(
        11,
        bool(identical),
        "identical seeds give byte-identical output for chartable/coeffs/star/verify",
    )
