"""Series in t whose coefficients are the path weight polynomials.

Two independent constructions of the same object.  ``expand_f`` runs the
splitting recursion: an excursion is empty or one rise followed by a
maximal-start descent, and a descent splits at its first return to the
next level down, which costs one fall weight and one shifted excursion
factor.  ``expand_fraction`` instead expands the nested fraction

    1 / (1 - t * prod_i V_{s+i} * [same shape at shift s+i])

Both are self-similar: the series at shift s is the shift-0 series with
every V_i renamed V_{i+s} (sigma^s, ``MultiPoly._raised``).  So each
expands only its shift-0 series, one t-coefficient at a time, and reads
every shifted level as a raised copy of coefficients already made: a
coefficient n reads only coefficients below n of the raised copies (a
relaxed expansion, van der Hoeven, JSC 2002).  Matching the two against
the direct path aggregation is the core cross-check.

The coefficients of ``expand_f``, f_poly(p, n, r), are the Hankel entries
too: ``_excursions(p)`` keeps one expansion per p for the Hankel ladders.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

from .algebra import MultiPoly, OutOfRange, _sum_products


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


def expand_f(p: int, r: int, shift: int = 0, order: int = 0) -> TSeries:
    """Series over t of the (-r, r) to (np, 0) weight polynomials.

    All fall-weight indices are offset by ``shift``.  Coefficient n of the
    r = 0 series is the weight polynomial of the length-np excursions.
    """
    if p < 2:
        raise OutOfRange("p must be >= 2")
    if not 0 <= r <= p - 1:
        raise OutOfRange("r must lie in [0, p-1]")
    if shift < 0:
        raise OutOfRange("shift must be >= 0")
    if order < 0:
        raise OutOfRange("order must be >= 0")
    cells = _Excursions(p)  # a fresh one makes no cell past (order, r)
    coeffs = [cells.coeff(n, r) for n in range(order + 1)]
    if shift:
        one = MultiPoly.one()
        return TSeries(c._raised(shift, one) for c in coeffs)
    return TSeries(coeffs)


class _Excursions:
    """The shift-0 series e[j] of each remainder j, made on request:
    e[0] = 1 + t*e[p-1] and e[j] = V_j sigma^j(e[0]) e[j-1].  Cells are
    made in order of n, then j, until the one asked for exists."""

    __slots__ = ("_e", "_cells")

    def __init__(self, p: int):
        self._e = [[] for _ in range(p)]
        self._cells = _fill(self._e)  # holds e, not self: no cycle to collect

    def coeff(self, n: int, r: int) -> MultiPoly:
        """Coefficient n of e[r]: f_poly(p, n, r)."""
        column = self._e[r]
        try:
            while len(column) <= n:
                next(self._cells)
        except BaseException:  # a generator that raised is finished: restart
            self.__init__(len(self._e))
            raise
        return column[n]


def _fill(e):
    # makes one cell of e per step: (n, 0), (n, 1), ..., (n, p-1), (n+1, 0)
    p = len(e)
    raised = [[] for _ in range(p)]  # raised[j][k] = V_j sigma^j(e[0][k])
    for n in count():
        e[0].append(e[p - 1][n - 1] if n else MultiPoly.one())
        yield
        for j in range(1, p):
            raised[j].append(e[0][n]._raised(j, MultiPoly.v_var(j)))
            e[j].append(_convolved(raised[j], e[j - 1], n))
            yield


@lru_cache(maxsize=8)
def _excursions(p: int) -> _Excursions:
    """The excursion cells of p, shared by every Hankel ladder of p."""
    return _Excursions(p)


def expand_fraction(p: int, order: int) -> TSeries:
    """Expansion of the nested fraction, exact through t^order.

    The fraction is Q = 1/(1 - t*P) with P = prod_{0<i<p} V_i sigma^i(Q),
    so coefficient n of Q reads P only through t^(n-1):
    Q_n = sum_{k=1..n} P_(k-1) Q_(n-k).  P_m is the last link of a chain
    of convolutions of the raised copies of Q, and reads Q only through
    t^m.
    """
    if p < 2:
        raise OutOfRange("p must be >= 2")
    if order < 0:
        raise OutOfRange("order must be >= 0")
    q = [MultiPoly.one()]
    raised = [[] for _ in range(p)]  # raised[i][k] = V_i sigma^i(q[k])
    # chain[i] = prod_{0<j<=i} V_j sigma^j(Q), so chain[p-1] is P
    chain = raised[:2] + [[] for _ in range(2, p)]
    for m in range(order):  # Q_(m+1) is coefficient m of P*Q
        for i in range(1, p):
            raised[i].append(q[m]._raised(i, MultiPoly.v_var(i)))
        for i in range(2, p):
            chain[i].append(_convolved(raised[i], chain[i - 1], m))
        q.append(_convolved(chain[p - 1], q, m))
    return TSeries(q)


def _convolved(a, b, n: int) -> MultiPoly:
    # coefficient n of the product of the series with coefficients a and b
    return _sum_products((a[k], b[n - k]) for k in range(n + 1))
