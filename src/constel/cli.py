"""Command line front end.

Exit codes: 0 on success, 1 when a checked identity fails, 2 on usage
errors and on inputs too large to compute (out of memory or recursion
depth, or a monomial degree past its packed field).  Results go to
stdout, diagnostics to stderr.  Output is deterministic byte for byte
for a given invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import contfrac, eulerian, hankel, paths, verify
from .algebra import ExponentOverflow, NonUnitConstant
from .hankel import HankelSpec, IdentityViolation, NonUniqueNILP


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="constel",
        description="exact path polynomials, nested fractions, banded "
                    "determinants, and their checks")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        if "p" in flags:
            p.add_argument("--p", type=int, required=True,
                           help="step size, >= 2")
        if "json" in flags:
            p.add_argument("--json", action="store_true",
                           help="machine readable output")

    fn = sub.add_parser("fn", help="one path weight polynomial")
    common(fn, "p", "json")
    fn.add_argument("--n", type=int, required=True, help="excursion index, >= 0")
    fn.add_argument("--r", type=int, default=0, help="start level, in [0, p-1]")

    cf = sub.add_parser("contfrac", help="nested fraction expansion in t")
    common(cf, "p", "json")
    cf.add_argument("--order", type=int, required=True, help="t order, >= 0")

    hk = sub.add_parser("hankel", help="banded determinant")
    common(hk, "p", "json")
    hk.add_argument("--m", type=int, required=True, help="row offset, in [0, p-1]")
    hk.add_argument("--n", type=int, required=True, help="size parameter, >= -1")

    inv = sub.add_parser("invert", help="recover one weight from determinants")
    common(inv, "p", "json")
    inv.add_argument("--i", type=int, required=True, help="weight index, >= 1")

    lgv = sub.add_parser("lgv", help="brute-force path-system cross-check")
    common(lgv, "p", "json")
    lgv.add_argument("--m", type=int, required=True)
    lgv.add_argument("--n", type=int, required=True)

    es = sub.add_parser("euler-series", help="series of the solvable p=3 case")
    es.add_argument("--what", required=True,
                    choices=["v", "y", "xv", "vi", "vi-closed", "f", "f1", "t"])
    es.add_argument("--i", type=int, help="level index for vi/vi-closed")
    es.add_argument("--n", type=int, help="index for f/f1/t")
    es.add_argument("--order", type=int, required=True)
    es.add_argument("--json", action="store_true")

    ev = sub.add_parser("euler-verify", help="determinant ladder check")
    ev.add_argument("--kmax", type=int, default=3)
    ev.add_argument("--order", type=int, default=12)

    va = sub.add_parser("verify-all", help="run every identity suite")
    va.add_argument("--p", type=int, nargs="*", default=[2, 3, 4])
    va.add_argument("--n-max", type=int, default=3)
    va.add_argument("--order", type=int, default=10)
    return top


def _check(parser, ok: bool, message: str):
    if not ok:
        parser.error(message)


def _emit_poly(args, payload: dict, poly):
    if args.json:
        payload["result"] = poly.to_json()
        print(json.dumps(payload, indent=2))
    else:
        print(poly)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(parser, args)
    except SystemExit as exc:
        # argparse reports usage problems by raising; keep run() in-process
        return exc.code if isinstance(exc.code, int) else 2
    except (IdentityViolation, NonUniqueNILP, NonUnitConstant) as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError, ExponentOverflow) as exc:
        print(f"input too large: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2


def _dispatch(parser, args) -> int:
    cmd = args.command

    if cmd == "fn":
        _check(parser, args.p >= 2, "--p must be >= 2")
        _check(parser, args.n >= 0, "--n must be >= 0")
        _check(parser, 0 <= args.r <= args.p - 1, "--r must lie in [0, p-1]")
        poly = paths.f_poly(args.p, args.n, args.r)
        _emit_poly(args, {"command": "fn", "p": args.p, "n": args.n,
                          "r": args.r}, poly)
        return 0

    if cmd == "contfrac":
        _check(parser, args.p >= 2, "--p must be >= 2")
        _check(parser, args.order >= 0, "--order must be >= 0")
        series = contfrac.expand_fraction(args.p, args.order)
        if args.json:
            # the bytes of json.dumps(payload, indent=2), written a term at a
            # time: built whole, the payload at order 12 took 1 GiB
            head = {"command": "contfrac", "p": args.p, "order": series.order}
            out, encode = sys.stdout, json.JSONEncoder(indent=2).encode
            out.write(encode(head)[:-2] + ',\n  "coeffs": [')
            for k, coeff in enumerate(series.coeffs):
                out.write("," * bool(k) + "\n    [")
                for j, term in enumerate(coeff._json_terms()):
                    text = encode(term).replace("\n", "\n      ")
                    out.write("," * bool(j) + "\n      " + text)
                out.write("\n    ]" if coeff else "]")
            print("\n  ]\n}")
        else:
            for k in range(series.order + 1):
                print(f"t^{k}: {series.coeff(k)}")
        return 0

    if cmd == "hankel":
        _check(parser, args.p >= 2, "--p must be >= 2")
        _check(parser, 0 <= args.m <= args.p - 1, "--m must lie in [0, p-1]")
        _check(parser, args.n >= -1, "--n must be >= -1")
        poly = hankel.hankel_det(HankelSpec(args.p, args.m, args.n))
        _emit_poly(args, {"command": "hankel", "p": args.p, "m": args.m,
                          "n": args.n}, poly)
        return 0

    if cmd == "invert":
        _check(parser, args.p >= 2, "--p must be >= 2")
        _check(parser, args.i >= 1, "--i must be >= 1")
        poly = hankel.recover_vi(args.p, args.i)
        _emit_poly(args, {"command": "invert", "p": args.p, "i": args.i}, poly)
        return 0

    if cmd == "lgv":
        _check(parser, args.p >= 2, "--p must be >= 2")
        _check(parser, 0 <= args.m <= args.p - 1, "--m must lie in [0, p-1]")
        _check(parser, -1 <= args.n <= 3, "--n must lie in [-1, 3] (desk scale)")
        spec = HankelSpec(args.p, args.m, args.n)
        signed = hankel.lgv_signed_sum(spec)
        det = hankel.hankel_det(spec)
        count, weight = hankel.nilp_unique(spec)
        if args.json:
            print(json.dumps({"command": "lgv", "p": args.p, "m": args.m,
                              "n": args.n, "signed_sum": signed.to_json(),
                              "determinant": det.to_json(),
                              "disjoint_count": count,
                              "disjoint_weight": weight.to_json()}, indent=2))
        else:
            print(f"signed sum:      {signed}")
            print(f"determinant:     {det}")
            print(f"disjoint count:  {count}")
            print(f"disjoint weight: {weight}")
        if signed != det or weight != det:
            print("identity violation: path-system sum, determinant, and "
                  "disjoint weight disagree", file=sys.stderr)
            return 1
        return 0

    if cmd == "euler-series":
        _check(parser, args.order >= 0, "--order must be >= 0")
        what = args.what
        if what in ("vi", "vi-closed"):
            _check(parser, args.i is not None and args.i >= 0,
                   "--i is required and must be >= 0")
        if what in ("f", "f1"):
            _check(parser, args.n is not None and args.n >= 0,
                   "--n is required and must be >= 0")
        if what == "t":
            _check(parser, args.n is not None and args.n >= 1,
                   "--n is required and must be >= 1")
        if what == "vi":
            series = eulerian.v_series(args.i, args.order)
        elif what == "vi-closed":
            series = eulerian.v_closed(args.i, args.order)
        else:
            ctx = eulerian.make_context(args.order)
            series = {"v": lambda: ctx.V, "y": lambda: ctx.y,
                      "xv": lambda: ctx.xV,
                      "f": lambda: eulerian.f_closed(args.n, ctx),
                      "f1": lambda: eulerian.f1_closed(args.n, ctx),
                      "t": lambda: eulerian.t_n(args.n, ctx)}[what]()
        if args.json:
            print(json.dumps({"command": "euler-series", "what": what,
                              "result": series.to_json()}, indent=2))
        else:
            print(series)
        return 0

    if cmd == "euler-verify":
        _check(parser, args.kmax >= 0, "--kmax must be >= 0")
        _check(parser, args.order >= 0, "--order must be >= 0")
        ok_det = eulerian.verify_det3(args.kmax, args.order)
        print(f"{'ok  ' if ok_det else 'FAIL'} euler.determinant-ladder "
              f"kmax={args.kmax} order={args.order}")
        bad = [n for n in range(1, 3 * args.kmax + 4)
               if not eulerian.fib_chebyshev_check(n)]
        print(f"{'ok  ' if not bad else 'FAIL'} euler.cleared-substitution "
              f"n<={3 * args.kmax + 3}")
        return 0 if ok_det and not bad else 1

    if cmd == "verify-all":
        for p in args.p:
            _check(parser, p >= 2, "--p values must be >= 2")
        _check(parser, args.n_max >= 0, "--n-max must be >= 0")
        _check(parser, args.order >= 0, "--order must be >= 0")
        results = verify.run_all(tuple(args.p), args.n_max, args.order)
        for res in results:
            print(res.line())
        failures = sum(1 for r in results if not r.ok)
        print(f"{len(results)} checks, {failures} failures")
        return 0 if failures == 0 else 1

    parser.error(f"unknown command {cmd!r}")
    return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
