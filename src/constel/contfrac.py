"""Series in t whose coefficients are the path weight polynomials.

One relaxed expansion, ``_Excursions``, makes them all.  It runs the
splitting recursion: an excursion is empty or one rise followed by a
maximal-start descent, and a descent splits at its first return to the
next level down, which costs one fall weight and one shifted excursion
factor.  The series at shift s is the shift-0 series with every V_i
renamed V_{i+s} (sigma^s, ``MultiPoly._raised``), so only the shift-0
series e[j] of each remainder j are expanded, one t-coefficient at a
time, and coefficient n reads only coefficients below n of their raised
copies (a relaxed expansion, van der Hoeven, JSC 2002).  Each such cell
is one ``algebra._layer_sum``, the convolution the solvers' layers use
too: cell (n, r) is homogeneous of degree n(p-1)+r, its number of falls.

The paper's nested fraction Q = 1/(1 - t*P), P = prod_{0<i<p} V_i
sigma^i(Q), is column 0: e[p-1] = P*e[0], so e[0] = 1 + t*P*e[0] is its
fixed point (the path reading of continued fractions, Flajolet 1980).
``expand_f`` (column r; ``expand_fraction`` is r = 0, shift 0) and the
Hankel entries share the cached ``_excursions(p)``, whose cells outlive
a step that raises; only the walk DP of ``paths.f_poly`` makes them on
its own, the independent check.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (MultiPoly, OutOfRange, _at_least, _check_degree,
                      _layer_sum)


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
    Its cells are the shared ``_excursions(p)``, made once per process.
    """
    _at_least(2, p=p)
    if not 0 <= r <= p - 1:
        raise OutOfRange("r must lie in [0, p-1]")
    _at_least(0, shift=shift, order=order)
    cells = _excursions(p)
    coeffs = [cells.coeff(n, r) for n in range(order + 1)]
    if shift:
        one = MultiPoly.one()
        return TSeries(c._raised(shift, one) for c in coeffs)
    return TSeries(coeffs)


class _Excursions:
    """The shift-0 series e[j] of each remainder j, made on request:
    e[0] = 1 + t*e[p-1] and e[j] = V_j sigma^j(e[0]) e[j-1].  Cells are
    made in order of n, then j, until the one asked for exists, and a
    column with its first cell, so a refused request at a large p holds
    no empty columns.  A cell is stored only once whole, so a step that
    raises keeps every cell made."""

    __slots__ = ("_p", "_e", "_raised")

    def __init__(self, p: int):
        self._p = p
        self._e = []
        self._raised = []  # [j][k]: V_j sigma^j(e[0][k])

    def coeff(self, n: int, r: int) -> MultiPoly:
        """Coefficient n of e[r]: f_poly(p, n, r)."""
        e, raised, p = self._e, self._raised, self._p
        if len(e) > r and len(e[r]) > n:
            return e[r][n]
        _check_degree(n * (p - 1) + r)  # no cell on the way has more falls
        while len(e) <= r or len(e[r]) <= n:
            # the next cell is (k, j): row k lacks columns j and on
            k = len(e[-1]) if len(e) == p else 0
            j = sum(len(column) > k for column in e)
            if j == len(e):
                e.append([])
                raised.append([])
            if j == 0:
                e[0].append(e[-1][k - 1] if k else MultiPoly.one())
                continue
            if len(raised[j]) == k:
                raised[j].append(e[0][k]._raised(j, MultiPoly.v_var(j)))
            # e[j] = raised[j] * e[j-1]: a cell of degree k(p-1)+j
            e[j].append(_layer_sum([(raised[j], e[j - 1], 0, k)], k,
                                   k * (p - 1) + j))
        return e[r][n]


@lru_cache(maxsize=8)
def _excursions(p: int) -> _Excursions:
    """The excursion cells of p, shared by every reader of p."""
    return _Excursions(p)


def expand_fraction(p: int, order: int) -> TSeries:
    """Expansion of the nested fraction, exact through t^order.

    The fraction is Q = 1/(1 - t*P) with P = prod_{0<i<p} V_i sigma^i(Q),
    the excursion series e[0]: ``expand_f`` at r = 0 and shift 0.
    """
    return expand_f(p, 0, 0, order)
