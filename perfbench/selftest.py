"""Self-tests of the oracles at tiny sizes, against explicit walk enumeration.

Run standalone with ``python3 perfbench/selftest.py``; run.py also runs
them before every measurement and refuses to measure if one fails.
"""

from __future__ import annotations

import random
import sys
from math import comb, prod

import oracles as o


def _points(rng, count=40):
    return [None] + [rng.randrange(2, 1 << 20) for _ in range(count)]


def check_walks(rng):
    w = _points(rng)
    for p in (2, 3, 4):
        for n in range(4):
            for r in range(p):
                walks = o.enumerate_falls(p, n * p + r, r, 0)
                if len(walks) != o.fuss_count(p, n, r):
                    yield f"walk count p={p} n={n} r={r}"
                if sum(prod(w[h] for h in f) for f in walks) != o.f_value(p, n, r, w):
                    yield f"walk sum p={p} n={n} r={r}"


def check_fraction(rng):
    w = _points(rng)
    for p in (2, 3, 4):
        got = o.fraction_coeffs(p, 4, w)
        want = [sum(prod(w[h] for h in f)
                    for f in o.enumerate_falls(p, k * p, 0, 0)) for k in range(5)]
        if got != want:
            yield f"nested fraction p={p}"


def check_determinants(rng):
    w = _points(rng)
    for p in (2, 3, 4):
        for m in range(p):
            for n in range(-1, 3):
                exps = o.hankel_exponents(p, m, n)
                if o.hankel_int_det(p, m, n, w) != o.monomial_value(exps, w):
                    yield f"banded determinant p={p} m={m} n={n}"
    if o.int_det([[0, 2], [3, 5]]) != -6 or o.int_det([[2, 4], [1, 2]]) != 0:
        yield "int_det pivoting"


def check_series(rng):
    deg = 4
    for p in (2, 3, 4):
        for kmax in (1, 2):
            cs = [None] + [rng.randrange(1, 1 << 16) for _ in range(kmax)]
            # the limit weight by plain fixed-point iteration, projected
            v = o.s_one(deg)
            for _ in range(deg):
                acc = o.s_one(deg)
                for k in range(1, kmax + 1):
                    coeff = cs[k] * comb(k * p - 1, k)
                    acc = o.s_add(acc, o.s_xterm(coeff, o.s_pow(v, k * (p - 1))))
                v = acc
            limit = o.project_terms(o.limit_coeffs(p, kmax, deg), cs, deg)
            if limit != v:
                yield f"Lagrange form p={p} kmax={kmax}"
            # mid walks by enumeration against the DP, on random levels
            levels = {h: [rng.randrange(-9, 10) for _ in range(deg + 1)]
                      for h in range(0, 30)}
            for n in range(1, kmax + 1):
                for i in (1, 2, 5):
                    want = [0] * (deg + 1)
                    for f in o.enumerate_falls(p, n * p - 1, i - 1, i):
                        want = o.s_add(want, prod_series(levels, f, deg))
                    if o.mid_sum(p, n, i, levels.__getitem__, deg) != want:
                        yield f"mid walks p={p} n={n} i={i}"
            # levels solve their own fixed point, and far from the floor
            # they agree with the level-free limit
            imax = 2 + 2 * (p - 1) * kmax * deg
            fam = o.level_weights(p, kmax, deg, imax, cs)
            get = lambda h: fam.get(h, o.s_one(deg))
            for i in range(1, imax + 2 - (p - 1) * kmax):
                if o.fixed_point_rhs(p, kmax, i, get, cs, deg) != fam[i]:
                    yield f"level fixed point p={p} kmax={kmax} i={i}"
                    break
            if fam[imax] != limit:
                yield f"deep level vs limit p={p} kmax={kmax}"


def prod_series(levels, falls, deg):
    out = o.s_one(deg)
    for h in falls:
        out = o.s_mul(out, levels[h])
    return out


CHECKS = (check_walks, check_fraction, check_determinants, check_series)


def run(seed: int = 0) -> list[str]:
    rng = random.Random(f"selftest:{seed}")
    return [msg for check in CHECKS for msg in check(rng)]


if __name__ == "__main__":
    failures = run(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
    for msg in failures:
        print("FAIL", msg)
    print(f"{len(failures)} oracle self-test failures")
    sys.exit(1 if failures else 0)
