"""The fully solvable p = 3 case with one active face weight.

Everything specializes to series in the single variable x.  The limit
weight V satisfies V = 1 + 2xV^2; the substitution variable y, defined
through y + 1/y + 2 = 1/(xV), turns each level weight into an explicit
ratio of the form V (1-y^i)(1-y^{i+4}) / ((1-y^{i+1})(1-y^{i+3})).  The
banded determinants, the Hankel layout (``hankel._banded``) over those
closed forms and rescaled by explicit powers of V, one ladder set per
context that every T_n reads, then march along a three-term recurrence
shared with a Fibonacci-style polynomial family, an ordinary ``MultiPoly``
in z = x1; ``verify_det3`` runs the same recurrence on the series z = xV
to check the ladder end to end.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property, lru_cache, partial
from itertools import islice

from ._layered import _Layered
from .algebra import MultiPoly, XSeries, _at_least
from .hankel import _banded
from .paths import count_closed
from .solver import SolverConfig, _limit, solve_vi


def fib_poly(n: int) -> MultiPoly:
    """The Fibonacci-style family: f_0 = 0, f_1 = 1, f_{n+2} = f_{n+1} - z f_n.

    Each member is a polynomial in z, written as x1.
    """
    _at_least(0, n=n)
    return next(islice(_fib(MultiPoly.x_var(1), MultiPoly.one()), n, None))


def _fib(z, one):
    # f_0, f_1, ... at z, in any commutative ring whose unit is ``one``
    prev, cur = one - one, one
    while True:
        yield prev
        prev, cur = cur, cur - z * prev


def fib_chebyshev_check(n: int) -> bool:
    """Denominator-cleared substitution identity for fib_poly.

    Substituting z = y/(1+y)^2 and clearing (1+y) powers must give
    (1-y) * (1+y)^(n-1) * f_n = 1 - y^n exactly as polynomials in y,
    with y written as x1.
    """
    _at_least(1, n=n)
    y = MultiPoly.x_var(1)
    cleared = MultiPoly.zero()
    # sum_j c_j y^j (1+y)^(n-1-2j); a term past the degree bound 2j <= n-1
    # has no cleared form, and fails the identity
    for (_, z), c in fib_poly(n).sorted_terms():
        j = dict(z).get(1, 0)
        if 2 * j > n - 1:
            return False
        cleared = cleared + c * y ** j * (1 + y) ** (n - 1 - 2 * j)
    return (1 - y) * cleared == 1 - y ** n


class EulerContext(namedtuple("EulerContext", "order V y xV")):
    """Shared series data at one truncation order: V, y, and xV, and the
    three branch ladders that every ``t_n`` of the order reads."""

    # no __slots__: the cached ladders live in the instance dict

    @cached_property
    def _ladders(self) -> list:
        # one ladder per branch s, the (3, s) banded layout over the closed
        # forms, made on first use; the branches share cells, each built once
        @cache
        def cell(q, r):
            return f_closed(q, self) if r == 0 else f1_closed(q, self)
        return [_banded(3, s, cell) for s in range(3)]


@lru_cache(maxsize=32)
def make_context(order: int) -> EulerContext:
    """Solve V = 1 + 2xV^2 and the substitution variable y at the order.

    V is the solver's layered limit (``solver._limit``), one node shared
    by every order, so an order makes only the layers of V that no lower
    order made.  y = xV (1+y)^2 is solved on it as a layered series, as
    the solver's levels are: xV has valuation 1, so layer t of y reads
    only layers < t of y.  The cleared identity at the full order
    certifies the result.  Each order is solved once and its context
    shared by every caller.
    """
    _at_least(0, order=order)
    limit = _limit(3, 1)
    xv = _Layered.var(1) * limit
    y = _Layered.later(partial(_y_rule, xv))
    v, xv, y = (node.series(order) for node in (limit, xv, y))
    one = XSeries.const(1, order)
    # cleared form of y + 1/y + 2 = 1/(xV); certifies the fixed point
    if xv * (y * y + one) != y * (one - 2 * xv):
        raise ArithmeticError("substitution variable failed its defining identity")
    return EulerContext(order, v, y, xv)


def _y_rule(xv, y):
    # xV (1+y)^2, y a layered series
    y1 = 1 + y
    return xv * (y1 * y1)


def v_series(i: int, order: int) -> XSeries:
    """Level weight V_i solved order-by-order from the weight recursion."""
    _at_least(0, i=i, order=order)
    if i == 0:
        return XSeries.zero(order)  # boundary convention of the recursion
    return solve_vi(SolverConfig(p=3, deg=order, kmax=1, imax=i))[i]


def v_closed(i: int, order: int) -> XSeries:
    """Level weight V_i from the explicit y-ratio form."""
    _at_least(0, i=i)
    ctx = make_context(order)
    one = XSeries.const(1, order)
    num = ctx.V * (one - ctx.y.pow(i)) * (one - ctx.y.pow(i + 4))
    den = (one - ctx.y.pow(i + 1)) * (one - ctx.y.pow(i + 3))
    return num * den.inv()


def f_closed(n: int, ctx: EulerContext) -> XSeries:
    """Excursion series F_n in terms of V and xV alone."""
    _at_least(0, n=n)
    one = XSeries.const(1, ctx.order)
    bracket = count_closed(3, n, 0) * (one - ctx.xV) \
        - count_closed(3, n, 1) * ctx.xV
    return bracket * ctx.V.pow(2 * n + 1)


def f1_closed(n: int, ctx: EulerContext) -> XSeries:
    """One-level-up series in terms of V and xV alone."""
    _at_least(0, n=n)
    one = XSeries.const(1, ctx.order)
    bracket = count_closed(3, n, 1) * (one - ctx.xV).pow(2) \
        - count_closed(3, n + 1, 0) * ctx.xV
    return bracket * ctx.V.pow(2 * n + 2)


def t_n(n: int, ctx: EulerContext) -> XSeries:
    """Rescaled determinant number T_n.

    The size-k banded determinant with entries from f_closed/f1_closed is
    divided by an explicit power of V (and, on the third branch, carries
    the extra factor 1 - xV).  It is a leading minor of the ladder of
    branch s = (n-1) mod 3, the (3, s) banded layout of the Hankel
    matrices (``hankel._banded``) over f_closed/f1_closed; every leading minor
    is a smaller t determinant of the branch, with constant term 1, so the
    ladder eliminates on unit pivots all the way.  The ladders are the
    context's, so a call adds only the borders no earlier call of the order
    made.  For n <= 3 the matrix is empty and the determinant is 1.
    """
    _at_least(1, n=n)
    k, s = divmod(n - 1, 3)
    one = XSeries.const(1, ctx.order)
    det = ctx._ladders[s].minor(k - 1) if k else one
    if s == 2:
        det = det * (one - ctx.xV)
    return det * ctx.V.pow(-(k * (3 * k + 2 * s - 1) // 2))


def verify_det3(kmax: int, order: int) -> bool:
    """Check T_n == fib_poly(n)(xV) and the three-term recurrence.

    Runs n through 3*kmax + 3 for the closed form and through the same
    bound for recurrence instances T_{n+3} = (1-xV) T_{n+1} - xV T_n.
    Every T_n is ``t_n``'s, a minor of the one ladder set of the context.
    """
    _at_least(0, kmax=kmax)
    ctx = make_context(order)
    top = 3 * kmax + 3
    one = XSeries.const(1, ctx.order)
    ts = {n: t_n(n, ctx) for n in range(1, top + 4)}
    fibs = islice(_fib(ctx.xV, one), 1, None)  # fib_poly(n) at z = xV
    for n, fib in zip(range(1, top + 1), fibs):
        if ts[n] != fib or \
                ts[n + 3] != (one - ctx.xV) * ts[n + 1] - ctx.xV * ts[n]:
            return False
    return True
