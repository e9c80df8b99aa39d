"""Command line front end: parses, prints, and maps errors to exit codes.

Exit codes: 0 on success, 1 when a checked identity fails, 2 on usage
errors, argument ranges the library refuses (``OutOfRange``) included,
and on inputs too large to compute (out of memory or recursion depth, or
a monomial degree past its packed field), each on one stderr line.
Results go to stdout, diagnostics to stderr.  Output is deterministic
byte for byte for a given invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import contfrac, eulerian, hankel, paths, verify
from .algebra import ExponentOverflow, OutOfRange
from .hankel import HankelSpec


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line, as every exit 2 reports; --help shows the usage
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="constel",
        description="exact path polynomials, nested fractions, banded "
                    "determinants, and their checks")
    sub = top.add_subparsers(dest="command", required=True)

    def common(name, summary):
        # a command over one step size, with optional JSON output
        p = sub.add_parser(name, help=summary)
        p.add_argument("--p", type=int, required=True, help="step size, >= 2")
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        return p

    fn = common("fn", "one path weight polynomial")
    fn.add_argument("--n", type=int, required=True, help="excursion index, >= 0")
    fn.add_argument("--r", type=int, default=0, help="start level, in [0, p-1]")

    cf = common("contfrac", "nested fraction expansion in t")
    cf.add_argument("--order", type=int, required=True, help="t order, >= 0")

    hk = common("hankel", "banded determinant")
    hk.add_argument("--m", type=int, required=True, help="row offset, in [0, p-1]")
    hk.add_argument("--n", type=int, required=True, help="size parameter, >= -1")

    inv = common("invert", "recover one weight from determinants")
    inv.add_argument("--i", type=int, required=True, help="weight index, >= 1")

    lgv = common("lgv", "brute-force path-system cross-check")
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
    except OutOfRange as exc:
        print(f"constel: error: {exc}", file=sys.stderr)
        return 2
    except verify._REFUSALS as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError, ExponentOverflow) as exc:
        print(f"input too large: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2


def _dispatch(parser, args) -> int:
    cmd = args.command

    if cmd == "fn":
        poly = paths.f_poly(args.p, args.n, args.r)
        _emit_poly(args, {"command": "fn", "p": args.p, "n": args.n,
                          "r": args.r}, poly)
        return 0

    if cmd == "contfrac":
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
        poly = hankel.hankel_det(HankelSpec(args.p, args.m, args.n))
        _emit_poly(args, {"command": "hankel", "p": args.p, "m": args.m,
                          "n": args.n}, poly)
        return 0

    if cmd == "invert":
        poly = hankel.recover_vi(args.p, args.i)
        _emit_poly(args, {"command": "invert", "p": args.p, "i": args.i}, poly)
        return 0

    if cmd == "lgv":
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
        what = args.what
        if what in ("vi", "vi-closed") and args.i is None:
            parser.error(f"--i is required for --what {what}")
        if what in ("f", "f1", "t") and args.n is None:
            parser.error(f"--n is required for --what {what}")
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
        _emit_poly(args, {"command": "euler-series", "what": what}, series)
        return 0

    if cmd == "euler-verify":
        results = verify.run(verify.plan_ladder(args.kmax, args.order,
                                                3 * args.kmax + 3))
    else:  # verify-all, the last command argparse admits
        results = verify.run_all(tuple(args.p), args.n_max, args.order)
    for res in results:
        print(res.line())
    failures = sum(1 for r in results if not r.ok)
    if cmd == "verify-all":
        print(f"{len(results)} checks, {failures} failures")
    return 0 if failures == 0 else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
