"""Command-line surface.

One subcommand per computation: bernoulli, period-poly, hecke-sum,
hecke-matrix, charpoly, hankel, qexp, oracle-matrix, verify.  Results go to
stdout (JSON by default), structured errors to stderr, exit status 0/1.
"""

import argparse
import json
import sys

from .errors import HeckePolyError
from .exactlinalg import charpoly as _charpoly
from .exactlinalg import hankel_bernoulli
from .exactnum import bernoulli_number
from .heckeop import dim_cusp, hecke_computation
from .heckesum import enumerate_H_neg, r_minus_hecke, s_poly_m
from .periodpoly import PeriodContext, r_plus_odd, s_poly
from .qoracle import (
    default_precision,
    eisenstein_gamma02,
    eisenstein_level1,
    eta_quotient,
    hecke_matrix_oracle,
)
from .serialize import (
    charpoly_latex,
    coeffs_json,
    fraction_str,
    matrix_json,
    matrix_latex,
    matrix_text,
    poly_json,
    poly_latex,
    poly_text,
)
from .verify import run_suite

MAX_LEVEL = 10**6
# |H_neg| grows like m log^2 m: 41,664 matrices (0.8 MB of JSON) at level 2, m = 1000
MAX_LIST_M = 1000
# the collapsed sum is O(m (tau + w)): 9.5 s at level 2, w = 30, m = 10^5
MAX_SUM_M = 10**5
# q-series cost grows like prec^2: at 2000, qexp eta:1^-24,2^48 and oracle-matrix --weight 40 take ~10 s
MAX_PREC = 2000
# solve plus charpoly grow steeply in the dimension d: ~10 s at level 5, w = 80 (d = 39), m = 12
MAX_DIM = 40


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1 with usage on stderr
    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(1)


def _emit(payload):
    print(json.dumps(payload))


def _check_level(level):
    if not 2 <= level <= MAX_LEVEL:
        raise ValueError("level must be between 2 and %d" % MAX_LEVEL)


def _cmd_bernoulli(args):
    print(fraction_str(bernoulli_number(args.n)))


def _cmd_period_poly(args):
    _check_level(args.level)
    ctx = PeriodContext(args.level, args.w, args.n)
    poly = s_poly(ctx) if args.sign == "minus" else r_plus_odd(ctx)
    if args.format == "json":
        payload = {"level": args.level, "w": args.w, "n": args.n, "sign": args.sign}
        payload.update(poly_json(poly))
        _emit(payload)
    elif args.format == "latex":
        print(poly_latex(poly))
    else:
        print(poly_text(poly))


def _cmd_hecke_sum(args):
    _check_level(args.level)
    if args.list_matrices:
        if args.m > MAX_LIST_M:
            raise ValueError("--list-matrices needs m <= %d, got m=%d" % (MAX_LIST_M, args.m))
        _emit([list(mat) for mat in enumerate_H_neg(args.level, args.m)])
        return
    if args.m > MAX_SUM_M:
        raise ValueError("hecke-sum needs m <= %d, got m=%d" % (MAX_SUM_M, args.m))
    ctx = PeriodContext(args.level, args.w, args.n)
    corrected = not args.raw
    poly = r_minus_hecke(ctx, args.m) if corrected else s_poly_m(ctx, args.m)
    payload = {"level": args.level, "w": args.w, "n": args.n, "m": args.m, "corrected": corrected}
    payload.update(poly_json(poly))
    _emit(payload)


def _cmd_hecke_matrix(args):
    _check_level(args.level)
    if (d := dim_cusp(args.level, args.w)) > MAX_DIM:
        raise ValueError("cusp space dimension %d exceeds the cap %d" % (d, MAX_DIM))
    comp = hecke_computation(args.level, args.w, args.m)
    if args.format == "latex":
        print(matrix_latex(comp.t))
        print(charpoly_latex(comp.charpoly()))
    elif args.format == "text":
        print(matrix_text(comp.t))
        print("charpoly (ascending):", " ".join(fraction_str(c) for c in comp.charpoly()))
    else:
        _emit(
            {
                "level": args.level,
                "w": args.w,
                "m": args.m,
                "basis_indices": comp.basis_indices,
                "S1": matrix_json(comp.s1),
                "S2": matrix_json(comp.s2),
                "T": matrix_json(comp.t),
                "charpoly": coeffs_json(comp.charpoly()),
            }
        )


def _cmd_charpoly(args):
    _check_level(args.level)
    if (d := dim_cusp(args.level, args.w)) > MAX_DIM:
        raise ValueError("cusp space dimension %d exceeds the cap %d" % (d, MAX_DIM))
    comp = hecke_computation(args.level, args.w, args.m)
    _emit({"level": args.level, "w": args.w, "m": args.m, "charpoly": coeffs_json(comp.charpoly())})


def _cmd_hankel(args):
    det, closed = hankel_bernoulli(args.which, args.n)
    _emit(
        {
            "which": args.which,
            "n": args.n,
            "det": fraction_str(det),
            "closed_form": fraction_str(closed),
            "equal": det == closed,
        }
    )


def _parse_eta_parts(spec):
    parts = []
    for token in spec.split(","):
        token = token.strip()
        if "^" not in token:
            raise ValueError("eta part %r must look like delta^exponent" % token)
        delta, _, expo = token.partition("^")
        parts.append((int(delta), int(expo)))
    return parts


def _cmd_qexp(args):
    form = args.form
    if not 0 <= args.prec <= MAX_PREC:
        raise ValueError("prec must be between 0 and %d, got %d" % (MAX_PREC, args.prec))
    kind, _, rest = form.partition(":")
    if not rest:
        raise ValueError("form must look like 'eta:1^8,2^8', 'E:k', 'Einf:k' or 'E0:k'")
    if kind == "eta":
        series = eta_quotient(_parse_eta_parts(rest), args.prec)
    elif kind == "E":
        series = eisenstein_level1(int(rest), args.prec)
    elif kind == "Einf":
        series = eisenstein_gamma02(int(rest), "infinity", args.prec)
    elif kind == "E0":
        series = eisenstein_gamma02(int(rest), "zero", args.prec)
    else:
        raise ValueError("unknown form kind %r (want eta, E, Einf, E0)" % kind)
    _emit(
        {
            "form": form,
            "weight": series.weight,
            "prec": series.prec,
            "coeffs": [fraction_str(c) for c in series.coeffs],
        }
    )


def _cmd_oracle_matrix(args):
    if args.prec < 0:
        raise ValueError("prec must be positive (0 selects the default), got %d" % args.prec)
    prec = args.prec or default_precision(args.weight, args.m)
    if prec > MAX_PREC:
        raise ValueError("prec %d exceeds the cap %d" % (prec, MAX_PREC))
    if (d := dim_cusp(2, args.weight - 2)) > MAX_DIM:
        raise ValueError("cusp space dimension %d exceeds the cap %d" % (d, MAX_DIM))
    t = hecke_matrix_oracle(args.weight, args.m, prec=prec)
    _emit(
        {
            "weight": args.weight,
            "m": args.m,
            "prec": prec,
            "T": matrix_json(t),
            "charpoly": coeffs_json(_charpoly(t)),
        }
    )


def _cmd_verify(args):
    results = run_suite(args.suite, max_weight=args.max_weight)
    failures = 0
    for result in results:
        if result.ok:
            print("ok   %s" % result.name)
        else:
            failures += 1
            print("FAIL %s: %s" % (result.name, result.detail))
    print("suite %s: %d/%d checks passed" % (args.suite, len(results) - failures, len(results)))
    return 1 if failures else 0


def build_parser():
    parser = _Parser(prog="heckepoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="print B_n as p/q")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bernoulli)

    p = sub.add_parser("period-poly", help="closed-form period polynomial")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    p.add_argument("--format", choices=("json", "text", "latex"), default="json")
    p.set_defaults(func=_cmd_period_poly)

    p = sub.add_parser("hecke-sum", help="index-m period polynomial sum")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="m <= %d" % MAX_SUM_M)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--raw", action="store_true", help="omit the level|m correction term")
    group.add_argument("--corrected", action="store_true", help="apply the correction (default)")
    p.add_argument(
        "--list-matrices",
        action="store_true",
        help="dump the sign-restricted matrix set instead (m <= %d)" % MAX_LIST_M,
    )
    p.set_defaults(func=_cmd_hecke_sum)

    p = sub.add_parser("hecke-matrix", help="T_m in the period basis, with S1 and S2")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--w", type=int, required=True, help="even; dim S_(w+2) must be <= %d" % MAX_DIM)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("json", "text", "latex"), default="json")
    p.set_defaults(func=_cmd_hecke_matrix)

    p = sub.add_parser("charpoly", help="characteristic polynomial of T_m")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--w", type=int, required=True, help="even; dim S_(w+2) must be <= %d" % MAX_DIM)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("hankel", help="Bernoulli Hankel determinant vs closed form")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_hankel)

    p = sub.add_parser("qexp", help="q-expansion of eta quotients / Eisenstein series")
    p.add_argument("--form", required=True, help="'eta:1^8,2^8', 'E:k', 'Einf:k', or 'E0:k'")
    p.add_argument("--prec", type=int, default=20, help="0 <= prec <= %d" % MAX_PREC)
    p.set_defaults(func=_cmd_qexp)

    p = sub.add_parser("oracle-matrix", help="Hecke matrix from q-expansions")
    p.add_argument("--weight", type=int, required=True, help="even; dim S_weight(Gamma0(2)) must be <= %d" % MAX_DIM)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--prec", type=int, default=0, help="0 means the Sturm-bound default; prec <= %d" % MAX_PREC)
    p.set_defaults(func=_cmd_oracle_matrix)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-weight", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
    except HeckePolyError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(json.dumps({"error": {"code": "PreconditionViolated", "message": str(exc)}}), file=sys.stderr)
        return 1
    return status or 0


if __name__ == "__main__":
    sys.exit(main())
