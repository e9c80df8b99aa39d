"""The fully solvable p = 3 case with one active face weight.

Everything specializes to series in the single variable x.  The limit
weight V satisfies V = 1 + 2xV^2; the substitution variable y, defined
through y + 1/y + 2 = 1/(xV), turns each level weight into an explicit
ratio of the form V (1-y^i)(1-y^{i+4}) / ((1-y^{i+1})(1-y^{i+3})).  The
banded determinants, rescaled by explicit powers of V, then march along
a three-term recurrence shared with a Fibonacci-style polynomial family.
That family is an ordinary ``MultiPoly`` in z = x1, and ``verify_det3``
substitutes z = xV into it to check the ladder end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .algebra import MultiPoly, XSeries, det_elements
from .paths import count_closed3
from .hankel import qr
from .solver import SolverConfig, solve_v, solve_vi


@lru_cache(maxsize=64)
def fib_poly(n: int) -> MultiPoly:
    """The Fibonacci-style family: f_0 = 0, f_1 = 1, f_{n+2} = f_{n+1} - z f_n.

    Each member is a polynomial in z, written as x1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return MultiPoly.const(n)
    return fib_poly(n - 1) - MultiPoly.x_var(1) * fib_poly(n - 2)


def fib_chebyshev_check(n: int) -> bool:
    """Denominator-cleared substitution identity for fib_poly.

    Substituting z = y/(1+y)^2 and clearing (1+y) powers must give
    (1-y) * (1+y)^(n-1) * f_n = 1 - y^n exactly as polynomials in y,
    with y written as x1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    y = MultiPoly.x_var(1)
    cleared = MultiPoly.zero()
    # sum_j c_j y^j (1+y)^(n-1-2j); the exponent stays >= 0 by the degree bound
    for mono, c in fib_poly(n).sorted_terms():
        j = mono.degree
        cleared = cleared + c * y ** j * (1 + y) ** (n - 1 - 2 * j)
    return (1 - y) * cleared == 1 - y ** n


@dataclass(frozen=True)
class EulerContext:
    """Shared series data at one truncation order: V, y, and xV."""

    order: int
    V: XSeries
    y: XSeries
    xV: XSeries


def _cfg(order: int, imax: int = 1) -> SolverConfig:
    return SolverConfig(p=3, deg=order, kmax=1, imax=imax)


def make_context(order: int) -> EulerContext:
    """Solve V = 1 + 2xV^2 and the substitution variable y at the order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    v = solve_v(_cfg(order))
    xv = XSeries.var(1, order) * v
    y = XSeries.zero(order)
    one = XSeries.const(1, order)
    for _ in range(order):
        y = xv * (one + y).pow(2)
    # cleared form of y + 1/y + 2 = 1/(xV); certifies the fixed point
    if xv * (y * y + one) != y * (one - 2 * xv):
        raise ArithmeticError("substitution variable failed its defining identity")
    return EulerContext(order, v, y, xv)


def v_series(i: int, order: int) -> XSeries:
    """Level weight V_i solved order-by-order from the weight recursion."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i == 0:
        return XSeries.zero(order)  # boundary convention of the recursion
    return solve_vi(_cfg(order, imax=i))[i]


def v_closed(i: int, order: int) -> XSeries:
    """Level weight V_i from the explicit y-ratio form."""
    if i < 0:
        raise ValueError("i must be >= 0")
    ctx = make_context(order)
    one = XSeries.const(1, order)

    def ypow(e):
        return ctx.y.pow(e)

    num = ctx.V * (one - ypow(i)) * (one - ypow(i + 4))
    den = (one - ypow(i + 1)) * (one - ypow(i + 3))
    return num * den.inv()


def f_closed(n: int, ctx: EulerContext) -> XSeries:
    """Excursion series F_n in terms of V and xV alone."""
    if n < 0:
        raise ValueError("n must be >= 0")
    one = XSeries.const(1, ctx.order)
    bracket = count_closed3(n, 0) * (one - ctx.xV) \
        - count_closed3(n, 1) * ctx.xV
    return bracket * ctx.V.pow(2 * n + 1)


def f1_closed(n: int, ctx: EulerContext) -> XSeries:
    """One-level-up series in terms of V and xV alone."""
    if n < 0:
        raise ValueError("n must be >= 0")
    one = XSeries.const(1, ctx.order)
    bracket = count_closed3(n, 1) * (one - ctx.xV).pow(2) \
        - count_closed3(n + 1, 0) * ctx.xV
    return bracket * ctx.V.pow(2 * n + 2)


def t_n(n: int, ctx: EulerContext) -> XSeries:
    """Rescaled determinant number T_n.

    The size-k banded determinant with entries from f_closed/f1_closed is
    divided by an explicit power of V (and, on the third branch, carries
    the extra factor 1 - xV).  Each leading minor of the matrix is the
    determinant of a smaller n on the same branch, with constant term 1,
    so ``det_elements`` eliminates on unit pivots all the way.  For
    n <= 3 the matrix is empty and the determinant is the series 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _t_n(n, ctx, _entries(ctx))


def _entries(ctx: EulerContext):
    # entry (q, r) of a t_n matrix, each built once: a memo for one call,
    # as a ladder of matrices repeats a few dozen entries thousands of times
    @cache
    def entry(q, r):
        return f_closed(q, ctx) if r == 0 else f1_closed(q, ctx)
    return entry


def _t_n(n: int, ctx: EulerContext, entry) -> XSeries:
    k, s = divmod(n - 1, 3)
    one = XSeries.const(1, ctx.order)
    if k == 0:
        det = one
    else:
        rows = []
        for i in range(k):
            q, r = qr(i + s, 3)
            rows.append([entry(q + j, r) for j in range(k)])
        det = det_elements(rows)
    if s == 0:
        exponent = k * (3 * k - 1) // 2
    elif s == 1:
        exponent = k * (3 * k + 1) // 2
    else:
        exponent = k * (3 * k + 3) // 2
        det = det * (one - ctx.xV)
    return det * ctx.V.pow(-exponent)


def verify_det3(kmax: int, order: int) -> bool:
    """Check T_n == fib_poly(n)(xV) and the three-term recurrence.

    Runs n through 3*kmax + 3 for the closed form and through the same
    bound for recurrence instances T_{n+3} = (1-xV) T_{n+1} - xV T_n.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    ctx = make_context(order)
    top = 3 * kmax + 3
    one = XSeries.const(1, ctx.order)
    entry = _entries(ctx)
    ts = {n: _t_n(n, ctx, entry) for n in range(1, top + 4)}
    z_at = {1: ctx.xV}
    for n in range(1, top + 1):
        if ts[n] != fib_poly(n).substitute(x_assign=z_at, order=ctx.order):
            return False
    for n in range(1, top + 1):
        if ts[n + 3] != (one - ctx.xV) * ts[n + 1] - ctx.xV * ts[n]:
            return False
    return True
