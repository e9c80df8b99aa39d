"""Independent oracles for the benchmark's correctness checks.

Nothing here imports constel.  Every expected value is computed from the
definitions: walks with rises (1, p-1) and falls (1, -1) that stay at or
above height 0, the weight V_h on a fall that starts at height h, the
nested fraction, the banded matrix of walk sums, and the fixed-point
equations of the level weights.  Polynomials in the V family are checked
at seeded integer points; series in the x family are checked after the
projection x_k -> c_k * s, which turns them into univariate series in s
with integer coefficients.  Both checks are exact integer equalities.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from operator import add, mul


class OracleError(AssertionError):
    """An oracle disagreed with another oracle: the benchmark is broken."""


class Mismatch(AssertionError):
    """constel returned a result that disagrees with an oracle."""


# ---------------------------------------------------------------------------
# walks


def _reachable(p: int, h: int, target: int, rem: int) -> bool:
    # some number of rises a in [0, rem] lands exactly on the target
    a, r = divmod(target - h + rem, p)
    return r == 0 and 0 <= a <= rem


def walk_sum(p, nsteps, h_start, h_end, fall, one, zero, add, mul):
    """Sum over walks of the product of fall(h) over falls from height h."""
    cur = {h_start: one} if _reachable(p, h_start, h_end, nsteps) else {}
    for done in range(nsteps):
        rem = nsteps - done - 1
        nxt: dict = {}
        for h, val in cur.items():
            up = h + p - 1
            if _reachable(p, up, h_end, rem):
                nxt[up] = add(nxt[up], val) if up in nxt else val
            down = h - 1
            if down >= 0 and _reachable(p, down, h_end, rem):
                piece = mul(fall(h), val)
                nxt[down] = add(nxt[down], piece) if down in nxt else piece
        cur = nxt
    return cur.get(h_end, zero)


def f_value(p: int, n: int, r: int, w) -> int:
    """Weight sum of the walks from (-r, r) to (np, 0) at the point w."""
    return walk_sum(p, n * p + r, r, 0, w.__getitem__, 1, 0, add, mul)


def fuss_count(p: int, n: int, r: int) -> int:
    """(r+1)/(np+r+1) * C(np+r+1, n): the number of those walks."""
    q, rem = divmod((r + 1) * comb(n * p + r + 1, n), n * p + r + 1)
    if rem:
        raise OracleError(f"ballot quotient not integral at p={p} n={n} r={r}")
    return q


def enumerate_falls(p: int, nsteps: int, h_start: int, h_end: int):
    """Explicit walk enumeration: one tuple of fall heights per walk."""
    out = []

    def go(h, left, falls):
        if left == 0:
            if h == h_end:
                out.append(tuple(falls))
            return
        go(h + p - 1, left - 1, falls)
        if h >= 1:
            falls.append(h)
            go(h - 1, left - 1, falls)
            falls.pop()

    go(h_start, nsteps, [])
    return out


# ---------------------------------------------------------------------------
# the nested fraction over the integers


def _tinv_unit(a, order):
    # inverse of a t-series with constant coefficient 1
    out = [1]
    for n in range(1, order + 1):
        out.append(-sum(a[k] * out[n - k] for k in range(1, n + 1)))
    return out


def fraction_coeffs(p: int, order: int, w) -> list[int]:
    """Coefficients of t^0..t^order of 1/(1 - t prod_i w_{s+i} [shift s+i])."""
    memo: dict = {}

    def frac(shift, depth):
        key = (shift, depth)
        if key not in memo:
            if depth == 0:
                memo[key] = [1] + [0] * order
            else:
                acc = [1] + [0] * order
                for i in range(1, p):
                    inner = [w[shift + i] * c for c in frac(shift + i, depth - 1)]
                    acc = s_mul(acc, inner)
                memo[key] = _tinv_unit([1] + [-c for c in acc[:order]], order)
        return memo[key]

    return frac(0, order)


# ---------------------------------------------------------------------------
# banded determinants


def int_det(rows) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hankel_exponents(p: int, m: int, n: int) -> dict[int, int]:
    """Exponents of the closed product over rows i of V_1 .. V_{ip+m}."""
    exps: dict[int, int] = {}
    for i in range(n + 1):
        for j in range(1, i * p + m + 1):
            exps[j] = exps.get(j, 0) + 1
    return exps


def hankel_int_det(p: int, m: int, n: int, w) -> int:
    """Determinant of the banded walk-sum matrix evaluated at w."""
    rows = []
    for i in range(n + 1):
        q, r = divmod(m + i, p - 1)
        rows.append([f_value(p, q + j, r, w) for j in range(n + 1)])
    return int_det(rows)


def monomial_value(exps, w) -> int:
    return prod(w[i] ** e for i, e in exps.items())


# ---------------------------------------------------------------------------
# series in x, projected to one variable s by x_k -> c_k * s


def s_add(a, b):
    return [x + y for x, y in zip(a, b)]


def s_mul(a, b):
    d = len(a) - 1
    out = [0] * (d + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(d + 1 - i):
                out[i + j] += x * b[j]
    return out


def s_one(deg):
    return [1] + [0] * deg


def s_xterm(c, a):
    # c * s * a, truncated
    return [0] + [c * x for x in a[:-1]]


def s_pow(a, e):
    out = s_one(len(a) - 1)
    for _ in range(e):
        out = s_mul(out, a)
    return out


def limit_coeffs(p: int, kmax: int, deg: int) -> dict[tuple, int]:
    """[x^a]V for V = 1 + sum_k C(kp-1,k) x_k V^{k(p-1)}, by Lagrange.

    [x^a]V = C(S+1,|a|)/(S+1) * multinomial(|a|; a) * prod C(kp-1,k)^{a_k}
    with S = sum_k a_k k(p-1).  Keys are sorted ((k, a_k), ...) with a_k > 0.
    """
    out = {}
    for a in _multi_indices(kmax, deg):
        size = sum(a)
        s = sum(ak * k * (p - 1) for k, ak in enumerate(a, 1))
        multinom = factorial(size) // prod(factorial(ak) for ak in a)
        weight = prod(comb(k * p - 1, k) ** ak for k, ak in enumerate(a, 1))
        value = Fraction(comb(s + 1, size), s + 1) * multinom * weight
        if value.denominator != 1:
            raise OracleError(f"Lagrange coefficient not integral at a={a}")
        if value:
            out[tuple((k, ak) for k, ak in enumerate(a, 1) if ak)] = int(value)
    return out


def _multi_indices(kmax, deg):
    if kmax == 0:
        yield ()
        return
    for first in range(deg + 1):
        for rest in _multi_indices(kmax - 1, deg - first):
            yield (first,) + rest


def project_terms(terms: dict[tuple, int], cs, deg) -> list[int]:
    """Project {((k, e), ...): coeff} by x_k -> cs[k] * s."""
    out = [0] * (deg + 1)
    for key, coeff in terms.items():
        d = sum(e for _, e in key)
        if d <= deg:
            out[d] += coeff * prod(cs[k] ** e for k, e in key)
    return out


def series_walk_sum(p, nsteps, h_start, h_end, level, deg):
    """walk_sum over projected series, V_h taking the value level(h)."""
    return walk_sum(p, nsteps, h_start, h_end, level, s_one(deg), [0] * (deg + 1),
                    s_add, s_mul)


def mid_sum(p, n, i, level, deg):
    """Projected weight sum of the walks from (0, i-1) to (np-1, i)."""
    return series_walk_sum(p, n * p - 1, i - 1, i, level, deg)


def fixed_point_rhs(p, kmax, i, level, cs, deg):
    """1 + V_i * sum_n x_n * mid(n, i), projected."""
    total = [0] * (deg + 1)
    for n in range(1, kmax + 1):
        total = s_add(total, s_xterm(cs[n], mid_sum(p, n, i, level, deg)))
    return s_add(s_one(deg), s_mul(level(i), total))


def level_weights(p: int, kmax: int, deg: int, imax: int, cs) -> dict[int, list]:
    """Projected V_1..V_imax, exact through s^deg.

    One sweep fixes one more degree, and degree d of V_i reads degree d-1
    of levels up to i + (p-1)*kmax (a mid walk of index n falls from at
    most i-1+(p-1)n).  Sweeping deg times over 1..imax + (p-1)*kmax*deg
    with the levels above pinned to 1 therefore leaves 1..imax exact.
    """
    top = imax + (p - 1) * kmax * deg
    one = s_one(deg)
    fam = {i: one for i in range(1, top + 1)}
    for _ in range(deg):
        get = lambda h, fam=fam: fam.get(h, one)
        fam = {i: fixed_point_rhs(p, kmax, i, get, cs, deg)
               for i in range(1, top + 1)}
    return {i: fam[i] for i in range(1, imax + 1)}


# ---------------------------------------------------------------------------
# reading constel's JSON forms (the stable public output format)


def poly_terms(json_terms) -> dict[tuple, int]:
    """MultiPoly.to_json() -> {((i, e), ...) over V: coeff}; x must be empty."""
    out = {}
    for t in json_terms:
        if t.get("x"):
            raise Mismatch("unexpected x variables in a V polynomial")
        key = tuple(sorted((int(i), int(e)) for i, e in t["V"].items()))
        out[key] = int(t["coeff"])
    return out


def series_terms(json_series, order: int) -> dict[tuple, int]:
    """XSeries.to_json() -> {((k, e), ...): coeff}; checks the order."""
    if json_series["truncation_order"] != order:
        raise Mismatch(f"truncation order {json_series['truncation_order']} != {order}")
    return {tuple(sorted((int(k), int(e)) for k, e in t["x"].items())):
            int(t["coeff"]) for t in json_series["terms"]}


def eval_terms(terms: dict[tuple, int], w) -> int:
    return sum(c * prod(w[i] ** e for i, e in key) for key, c in terms.items())
