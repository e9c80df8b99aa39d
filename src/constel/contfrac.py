"""Series in t whose coefficients are the path weight polynomials.

Two independent constructions of the same object.  ``expand_f`` runs the
splitting recursion: an excursion is empty or one rise followed by a
maximal-start descent, and a descent splits at its first return to the
next level down, which costs one fall weight and one shifted excursion
factor.  ``expand_fraction`` instead expands the nested fraction

    1 / (1 - t * prod_i V_{s+i} * [same shape at shift s+i])

Every level of the fraction contributes a factor t, so the level k below
the top is computed only through t^(order-k), the order that can still
reach the result, and the level order deep is 1.  Matching the two
against the direct path aggregation is the core cross-check.
"""

from __future__ import annotations

from functools import cache

from .algebra import MultiPoly, _sum_products


class TSeries:
    """Polynomial-coefficient series in t, exact through t^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a TSeries needs at least the t^0 coefficient")
        self.order = len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "TSeries":
        return cls([MultiPoly.one()] + [MultiPoly.zero()] * order)

    def coeff(self, n: int) -> MultiPoly:
        return self.coeffs[n]

    def mul(self, other: "TSeries", order: int) -> "TSeries":
        """Product through t^order; either operand may be the shorter."""
        a, b = self.coeffs, other.coeffs
        return TSeries(
            _sum_products((a[i], b[n - i])
                          for i in range(max(0, n - len(b) + 1),
                                         min(n, len(a) - 1) + 1))
            for n in range(order + 1))

    def scale(self, poly: MultiPoly) -> "TSeries":
        return TSeries([poly * c for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, TSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"TSeries([{inner}])"

    def to_json(self) -> dict:
        return {"order": self.order,
                "coeffs": [c.to_json() for c in self.coeffs]}


def _prepend_one(tail: TSeries) -> TSeries:
    # 1 + t * tail
    return TSeries((MultiPoly.one(),) + tail.coeffs)


def expand_f(p: int, r: int, shift: int = 0, order: int = 0) -> TSeries:
    """Series over t of the (-r, r) to (np, 0) weight polynomials.

    All fall-weight indices are offset by ``shift``.  Coefficient n of the
    r = 0 series is the weight polynomial of the length-np excursions.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if not 0 <= r <= p - 1:
        raise ValueError("r must lie in [0, p-1]")
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")

    # memo scoped to this call: no caller repeats a whole expansion, and a
    # process-wide cache would keep every intermediate series alive.  The
    # memo refers to itself, so it is cleared rather than left to the gc.
    @cache
    def series(r, shift, order):
        if r == 0:
            if order == 0:
                return TSeries.one(0)
            return _prepend_one(series(p - 1, shift, order - 1))
        top = series(0, shift + r, order)
        rest = series(r - 1, shift, order)
        return top.mul(rest, order).scale(MultiPoly.v_var(shift + r))

    out = series(r, shift, order)
    series.cache_clear()
    return out


def expand_fraction(p: int, order: int) -> TSeries:
    """Expansion of the nested fraction, exact through t^order.

    Every level contributes at least one power of t, so the level k below
    the top only matters through t^(order-k), and each level is computed
    through that order alone; the level order deep is 1, and nesting
    deeper cannot change coefficients 0..order.  This is exact because
    coefficient n of Q = 1/(1 - t*P) reads P only through t^(n-1):
    Q_n = sum_{k=1..n} P_(k-1) Q_(n-k), which is how Q is expanded,
    straight from P.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if order < 0:
        raise ValueError("order must be >= 0")

    @cache  # scoped to this call, as in expand_f; m is the level's t-order
    def fraction(shift, m):
        if m == 0:
            return TSeries.one(0)
        prod = None
        for i in range(1, p):
            factor = scaled(shift + i, m - 1)
            prod = factor if prod is None else prod.mul(factor, m - 1)
        c = prod.coeffs
        q = [MultiPoly.one()]
        for n in range(1, m + 1):
            q.append(_sum_products((c[k - 1], q[n - k]) for k in range(1, n + 1)))
        return TSeries(q)

    @cache  # V_shift times the level at shift, shared by its p-1 parents
    def scaled(shift, m):
        return fraction(shift, m).scale(MultiPoly.v_var(shift))

    out = fraction(0, order)
    fraction.cache_clear()
    scaled.cache_clear()
    return out
