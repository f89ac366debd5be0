"""Command-line surface.

One subcommand per computation: bernoulli, period-poly, hecke-sum,
hecke-matrix, charpoly, hankel, qexp, oracle-matrix, verify.  Results go to
stdout (JSON by default), structured errors to stderr, exit status 0/1.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .errors import HeckePolyError
from .exactlinalg import charpoly as _charpoly
from .exactlinalg import hankel_bernoulli
from .exactnum import bernoulli_number, require_even, require_level
from .heckeop import _solve_charpoly, dim_cusp, hecke_charpoly, hecke_computation
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
    matrix_json,
    matrix_latex,
    matrix_text,
    poly_json,
    poly_latex,
    poly_text,
)
from .verify import SUITES, run_suite

# Every cap on CLI input, keyed by the quantity's name as cap messages and help texts print it
LIMITS = {
    # at level 10^6, w = 1098: period-poly 0.29-0.35 s (minus) and 0.82-0.87 s (plus), hecke-sum --m 27 0.37-0.41 s
    "level": 10**6,
    # |H_neg| grows like m log^2 m: 41,664 matrices (0.8 MB of JSON) at level 2, m = 1000
    "--list-matrices m": 1000,
    # hecke-sum grows like m (w + 1) on top of B_(w+1), and w >= 2 stops m at 10,000: 0.41-0.64 s at level 5,
    # w = 1098, m = 27 (bernoulli --n 1100 alone takes 0.31 s) and 0.26-0.31 s at level 2, w = 2, m = 10,000
    "m (w + 1)": 30_000,
    # q-series cost grows like prec^2: at 2000, qexp eta:1^-24,2^48 takes 0.2-0.4 s (oracle-matrix: "d prec^2")
    "prec": 2000,
    # solve plus charpoly grow steeply in d: 4.7-5.3 s at level 5, w = 80 (d = 39), m = 5; split by W_N at m = 12, 0.5 s
    "cusp space dimension": 40,
    # covers the benchmark grid (m <= 240); at the dimension cap, the top index takes 0.8 to 9.8 s
    "index m": 256,
    # qexp eta: takes prec^2 steps on coefficients that widen with sum |r|: eta:1^-299,299^1 takes 0.4-0.7 s at prec 2000
    "eta sum |r|": 300,
    # oracle-matrix at m = 2: 0.65-0.86 s at weight 162 (d = 39), prec 299, 0.30-0.32 s at weight 12, prec 1322;
    # a larger m adds charpoly time: 1.36-1.41 s at weight 164 (d = 40), m = 7, prec 295
    "d prec^2": 3_500_000,
    # every m served when T_m needed prec // m >= d rows; at weight 164 (d = 40), prec 295, m = 1944 takes 9.8 s
    "oracle-matrix m": 2000,
    # B_0..B_k from k boustrophedon rows, O(k^2) integer additions: bernoulli --n 1100 takes 0.3-0.4 s
    "Bernoulli index": 1100,
    # Bareiss on the n x n Bernoulli Hankel matrix grows like n^7: hankel --n 50 takes ~10 s, --n 60 took 30 s
    "hankel n": 50,
    **{"%s --max-weight" % name: ceiling for name, (_, ceiling) in SUITES.items() if ceiling},  # see verify.SUITES
}


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2 on bad usage; the contract here is a JSON error on stderr and exit 1
    def error(self, message):
        raise SystemExit(_report("PreconditionViolated", "%s: %s" % (self.prog, message)))


def _report(code, message):
    """Write the structured error to stderr; returns the exit status 1."""
    print(json.dumps({"error": {"code": code, "message": message}}), file=sys.stderr)
    return 1


def _emit(payload):
    print(json.dumps(payload))


@contextmanager
def _int_str_digits(limit):
    """Run the block under Python's int/str conversion digit limit (0 lifts it), then restore the old one."""
    # Pythons without sys.set_int_max_str_digits have no limit to set
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    setter = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    setter(limit)
    try:
        yield
    finally:
        setter(old)


def _require(name, value, shown=None):
    """Refuse a value over the cap LIMITS[name]; ``shown`` prints a product cap's factors instead."""
    if value > LIMITS[name]:
        raise ValueError("%s = %s exceeds the cap %d" % (name, value if shown is None else shown, LIMITS[name]))


def _cap(name):
    return "%s <= %d" % (name, LIMITS[name])


def _check_level(level):
    require_level(level)
    _require("level", level)


def _cmd_bernoulli(args):
    _require("Bernoulli index", args.n)
    print(bernoulli_number(args.n))


def _cmd_period_poly(args):
    _check_level(args.level)
    _require("Bernoulli index", args.w + 1)
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
    # both modes check level, w + 1, the mode's own m cap, then (level, w, n): m's cap before w's parity or n's range
    _check_level(args.level)
    _require("Bernoulli index", args.w + 1)
    if args.list_matrices:
        _require("--list-matrices m", args.m)
        PeriodContext(args.level, args.w, args.n)
        _emit([list(mat) for mat in enumerate_H_neg(args.level, args.m)])
        return
    _require("m (w + 1)", args.m * (args.w + 1), "%d * %d" % (args.m, args.w + 1))
    ctx = PeriodContext(args.level, args.w, args.n)
    poly = s_poly_m(ctx, args.m) if args.raw else r_minus_hecke(ctx, args.m)
    payload = {"level": args.level, "w": args.w, "n": args.n, "m": args.m, "corrected": not args.raw}
    payload.update(poly_json(poly))
    _emit(payload)


def _check_hecke_args(args):
    _check_level(args.level)
    _require("cusp space dimension", dim_cusp(args.level, args.w))
    _require("index m", args.m)


def _cmd_hecke_matrix(args):
    _check_hecke_args(args)
    if args.format == "json":
        comp = hecke_computation(args.level, args.w, args.m)  # the only output that prints S1 and S2
        _emit(
            {
                "level": args.level,
                "w": args.w,
                "m": args.m,
                "basis_indices": comp.basis_indices,
                "S1": matrix_json(comp.s1),
                "S2": matrix_json(comp.s2),
                "T": matrix_json(comp.t),
                "charpoly": coeffs_json(comp.charpoly),
            }
        )
        return
    _, _, t, cp = _solve_charpoly(args.level, args.w, args.m)  # T and its charpoly as in the JSON, with no S1, S2
    if args.format == "latex":
        print(matrix_latex(t))
        print(charpoly_latex(cp))
    else:
        print(matrix_text(t))
        print("charpoly (ascending):", *cp)


def _cmd_charpoly(args):
    _check_hecke_args(args)
    cp = hecke_charpoly(args.level, args.w, args.m)
    _emit({"level": args.level, "w": args.w, "m": args.m, "charpoly": coeffs_json(cp)})


def _cmd_hankel(args):
    _require("hankel n", args.n)
    det, closed = hankel_bernoulli(args.which, args.n)
    _emit(
        {
            "which": args.which,
            "n": args.n,
            "det": str(det),
            "closed_form": str(closed),
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
    _require("eta sum |r|", sum(abs(r) for _, r in parts))
    return parts


def _cmd_qexp(args):
    if args.prec < 0:
        raise ValueError("prec must be nonnegative, got %d" % args.prec)
    _require("prec", args.prec)
    kind, _, rest = args.form.partition(":")
    if not rest:
        raise ValueError("form must look like 'eta:1^8,2^8', 'E:k', 'Einf:k' or 'E0:k'")
    # main lifts the digit limit for the output; the form is parsed under Python's default one
    with _int_str_digits(getattr(sys.int_info, "default_max_str_digits", 0)):
        if kind == "eta":
            series = eta_quotient(_parse_eta_parts(rest), args.prec)
        elif kind in ("E", "Einf", "E0"):
            k = int(rest)
            _require("Bernoulli index", k)  # E_k needs B_k
            if kind == "E":
                series = eisenstein_level1(k, args.prec)
            else:
                series = eisenstein_gamma02(k, "infinity" if kind == "Einf" else "zero", args.prec)
        else:
            raise ValueError("unknown form kind %r (want eta, E, Einf, E0)" % kind)
    _emit(
        {
            "form": args.form,
            "weight": series.weight,
            "prec": series.prec,
            "coeffs": coeffs_json(series.coeffs),
        }
    )


def _cmd_oracle_matrix(args):
    require_even("weight", args.weight, 4)
    if args.prec < 0:
        raise ValueError("prec must be positive (0 selects the default), got %d" % args.prec)
    _require("oracle-matrix m", args.m)
    prec = args.prec or default_precision(args.weight, args.m)
    _require("prec", prec)
    _require("cusp space dimension", d := dim_cusp(2, args.weight - 2))
    _require("d prec^2", d * prec**2, "%d * %d^2" % (d, prec))
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
    if args.max_weight is not None and (name := "%s --max-weight" % args.suite) in LIMITS:
        _require(name, args.max_weight)
    results = run_suite(args.suite, max_weight=args.max_weight)
    if not results:
        raise ValueError("verify --suite %s --max-weight %s runs no checks" % (args.suite, args.max_weight))
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
    # each family's shared flags, once: the period family (period-poly, hecke-sum), T_m's (hecke-matrix, charpoly)
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--level", type=int, required=True, help=_cap("level"))
    period = argparse.ArgumentParser(add_help=False, parents=[level])
    period.add_argument("--w", type=int, required=True, help="even; needs B_(w+1), so " + _cap("Bernoulli index"))
    period.add_argument("--n", type=int, required=True)
    hecke = argparse.ArgumentParser(add_help=False, parents=[level])
    hecke.add_argument("--w", type=int, required=True, help="even; S_(w+2) needs " + _cap("cusp space dimension"))
    hecke.add_argument("--m", type=int, required=True, help=_cap("index m"))

    p = sub.add_parser("bernoulli", help="print B_n as p/q")
    p.add_argument("--n", type=int, required=True, help=_cap("Bernoulli index"))
    p.set_defaults(func=_cmd_bernoulli)

    p = sub.add_parser("period-poly", parents=[period], help="closed-form period polynomial")
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    p.add_argument("--format", choices=("json", "text", "latex"), default="json")
    p.set_defaults(func=_cmd_period_poly)

    p = sub.add_parser("hecke-sum", parents=[period], help="index-m period polynomial sum")
    p.add_argument("--m", type=int, required=True, help=_cap("m (w + 1)"))
    p.add_argument("--raw", action="store_true", help="omit the level|m correction term")
    list_help = "dump the sign-restricted matrix set instead (%s)" % _cap("--list-matrices m")
    p.add_argument("--list-matrices", action="store_true", help=list_help)
    p.set_defaults(func=_cmd_hecke_sum)

    p = sub.add_parser("hecke-matrix", parents=[hecke], help="T_m in the period basis, with S1 and S2")
    p.add_argument("--format", choices=("json", "text", "latex"), default="json")
    p.set_defaults(func=_cmd_hecke_matrix)

    p = sub.add_parser("charpoly", parents=[hecke], help="characteristic polynomial of T_m")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("hankel", help="Bernoulli Hankel determinant vs closed form")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=int, required=True, help="n >= 1, " + _cap("hankel n"))
    p.set_defaults(func=_cmd_hankel)

    p = sub.add_parser("qexp", help="q-expansion of eta quotients / Eisenstein series")
    form_help = "'eta:1^8,2^8' (%s), 'E:k', 'Einf:k' or 'E0:k' (k is a %s)" % (_cap("eta sum |r|"), _cap("Bernoulli index"))
    p.add_argument("--form", required=True, help=form_help)
    p.add_argument("--prec", type=int, default=20, help="prec >= 0, " + _cap("prec"))
    p.set_defaults(func=_cmd_qexp)

    p = sub.add_parser("oracle-matrix", help="Hecke matrix from q-expansions")
    p.add_argument("--weight", type=int, required=True, help="even, >= 4; S_weight(Gamma0(2)) needs " + _cap("cusp space dimension"))
    p.add_argument("--m", type=int, required=True, help=_cap("oracle-matrix m"))
    p.add_argument("--prec", type=int, default=0, help="0: the Sturm-bound default; %s, %s" % (_cap("prec"), _cap("d prec^2")))
    p.set_defaults(func=_cmd_oracle_matrix)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    caps = ", ".join(_cap(name) for name in LIMITS if name.endswith(" --max-weight"))
    p.add_argument("--max-weight", type=int, default=None, help="bound of the suites that take one: " + caps)
    p.set_defaults(func=_cmd_verify)

    return parser


_parser = None  # built on first use: parse_args leaves the parser unchanged


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # exact results may run past the int/str digit limit; arguments were parsed under it
        with _int_str_digits(0):
            status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's flush at exit
    except BrokenPipeError:  # the interpreter flushes stdout again at exit: send that to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _report("OutputClosed", "stdout was closed before all output was written")
    except HeckePolyError as exc:
        return _report(exc.code, str(exc))
    except ValueError as exc:
        return _report("PreconditionViolated", str(exc))
    return status or 0

