"""Command-line front end: tables, coefficients, products, verification.

Every subcommand writes a single JSON document to stdout and diagnostics
to stderr.  Exact rationals cross the boundary as "numerator/denominator"
strings, never as floats.  Exit codes: 0 success, 1 verification failure,
2 usage or input error, 3 coefficient pole, 4 numeric failure, 5 out of
memory, 6 internal error (any other exception: one stderr line
``internal error: <Type>: <message>``, no traceback, nothing on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

import numpy as np

from grastar.center import s_coeffs, t_poly
from grastar.characters import character_table
from grastar.errors import ConvergenceError, GrastarError, PoleError, RangeError
from grastar.geometry import (
    FunctionExpr,
    PointZ,
    SpaceConfig,
    matrix_from_json,
    sample_point,
)
from grastar.partitions import class_size, conj_classes_of, partitions_of
from grastar.star import coefficient_operator, projective_star_eval, star_eval, verify_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_POLE = 3
EXIT_NUMERIC = 4
EXIT_MEMORY = 5
EXIT_INTERNAL = 6


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _lambda(text: str):
    """A --lambda value: None for "formal", else a rational number."""
    return None if text == "formal" else _frac(text)


def _fmt(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _complex_pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _matrix_json(M: np.ndarray) -> list:
    return [[_complex_pair(complex(x)) for x in row] for row in M]


# ---------------------------------------------------------------------------
# subcommands


def cmd_chartable(args) -> int:
    table = character_table(args.r)
    _emit(
        {
            "r": args.r,
            "frames": [list(f.rows) for f in table.frames],
            "classes": [list(a.cycle_lengths()) for a in table.classes],
            "table": [list(row) for row in table.values],
        }
    )
    return EXIT_OK


def cmd_coeffs(args) -> int:
    r, p, mu, lam = args.r, args.p, args.mu, args.lam
    # the same ranges as SpaceConfig's
    for bad, message in (
        (p < 1, f"p must be >= 1, got {p}"),
        (mu <= 0, f"mu must be positive, got {_fmt(mu)}"),
        (lam == 0, "lambda must be nonzero for the coefficient map"),
    ):
        if bad:
            raise RangeError(message)
    c = mu / lam + p
    if args.path == "classes":
        s_map = s_coeffs(r, c)
    else:
        s_map = coefficient_operator(r, c, method="frames").as_dict()
    t_map = {}
    for frame in partitions_of(r):
        if frame.num_rows <= p:
            poly = t_poly(frame, p)
            t_map[str(list(frame.rows))] = [_fmt(a) for a in poly.coeffs]
    sum_check = sum(
        class_size(alpha) * s_map[alpha] for alpha in conj_classes_of(r)
    )
    _emit(
        {
            "r": r,
            "p": p,
            "mu": _fmt(mu),
            "lambda": _fmt(lam),
            "c": _fmt(c),
            "t": t_map,
            "s": {
                str(list(alpha.cycle_lengths())): _fmt(v) for alpha, v in s_map.items()
            },
            "sum_check": _fmt(sum_check),
        }
    )
    return EXIT_OK


def _load_function(path: str) -> FunctionExpr:
    with open(path, "r", encoding="utf-8") as fh:
        return FunctionExpr.from_json_obj(json.load(fh))


def _resolve_point(args, cfg: SpaceConfig) -> PointZ:
    if args.point:
        with open(args.point, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError('expected a point as {"z": rows}')
        return PointZ(matrix_from_json(doc.get("z")))
    return sample_point(cfg, args.seed)


def cmd_star(args) -> int:
    cfg = SpaceConfig(args.p, args.q, args.mu)
    f = _load_function(args.f)
    g = _load_function(args.g)
    z = _resolve_point(args, cfg)
    if args.closed_form and cfg.p != 1:
        raise RangeError("--closed-form requires p = 1")
    evaluate = projective_star_eval if args.closed_form else star_eval
    lam = args.lam
    out = {
        "p": cfg.p,
        "q": cfg.q,
        "mu": _fmt(cfg.mu),
        "order": args.order,
        "lambda": "formal" if lam is None else _fmt(lam),
        "seed": args.seed,
        "point": {"z": _matrix_json(z.z)},
    }
    result = evaluate(f, g, cfg, z, args.order, lam=lam)
    if lam is None:
        out["series"] = [_complex_pair(a) for a in result.coeffs]
    else:
        out["value"] = _complex_pair(result)
    _emit(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = SpaceConfig(args.p, args.q, args.mu)
    report = verify_suite(
        cfg,
        order=args.order,
        seed=args.seed,
        tolerance=args.tolerance,
        lam=args.lam,
    )
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grastar",
        description="Star products on complex Grassmannians: tables, "
        "coefficients, deformed products, verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_chart = sub.add_parser("chartable", help="symmetric group character table")
    p_chart.add_argument("r", type=int, help="group parameter r of S_r")
    p_chart.set_defaults(func=cmd_chartable)

    p_coeffs = sub.add_parser("coeffs", help="product coefficient data at order r")
    p_coeffs.add_argument("r", type=int)
    p_coeffs.add_argument("--p", type=int, default=1)
    p_coeffs.add_argument("--mu", type=_frac, default=Fraction(1))
    p_coeffs.add_argument("--lambda", dest="lam", type=_frac, default=Fraction(1))
    p_coeffs.add_argument(
        "--path",
        choices=("classes", "frames"),
        default="classes",
        help="how to compute the class coefficients (results agree exactly)",
    )
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_star = sub.add_parser("star", help="evaluate the deformed product at a point")
    p_star.add_argument("f", help="path to the first function (JSON)")
    p_star.add_argument("g", help="path to the second function (JSON)")
    p_star.add_argument("--p", type=int, default=1)
    p_star.add_argument("--q", type=int, default=1)
    p_star.add_argument("--mu", type=_frac, default=Fraction(1))
    p_star.add_argument(
        "--lambda",
        dest="lam",
        type=_lambda,
        default="formal",
        help='rational value, or "formal" for the truncated series (default)',
    )
    p_star.add_argument("--order", type=int, default=2)
    p_star.add_argument("--seed", type=int, default=0)
    p_star.add_argument("--point", help="path to a point JSON {\"z\": [[[re,im],...]]}")
    p_star.add_argument(
        "--closed-form",
        action="store_true",
        help="use the independent p=1 closed form instead of the general engine",
    )
    p_star.set_defaults(func=cmd_star)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--p", type=int, default=1)
    p_verify.add_argument("--q", type=int, default=1)
    p_verify.add_argument("--mu", type=_frac, default=Fraction(1))
    p_verify.add_argument("--lambda", dest="lam", type=_lambda, default="formal")
    p_verify.add_argument("--order", type=int, default=2)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=float, default=1e-7)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PoleError as exc:
        print(f"pole: {exc}", file=sys.stderr)
        return EXIT_POLE
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"out of memory: {_one_line(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY
    except (RangeError, GrastarError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program, kept apart from exit 1 (verification failed)
        print(f"internal error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return EXIT_INTERNAL


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
