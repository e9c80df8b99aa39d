"""Fixed-point solvers for the weight family as series in the x family.

With every white face of degree np carrying the weight x_n, each fall
weight V_i satisfies

    V_i = 1 + V_i * sum_n x_n * M_(i,n),

where M_(i,n) is the mid-path sum at level i, and the level-free limit V
obeys the closed scalar equation with the binomial count of the mid
paths.  Both are solved as relaxed series (``_layered._Layered``): the
degree-t layer of each series is computed once, from lower layers.

Layer t of V_i reads only layers < t of levels <= i+w.  A mid path at
level i runs from height i-1 to height i with n rises of p-1, so it falls
from at most height i-1+(p-1)n, and M_(i,n) is a polynomial in the levels
1..i+w with w = max(0, (p-1)*kmax - 1).  Each x_n has degree 1, so layer
t of x_n * M_(i,n) is x_n times layer t-1 of M_(i,n), which reads layers
<= t-1 of the levels; the sum over n has valuation 1, so layer t of its
product with V_i reads layers < t of V_i.  For t = 1..deg in turn, the
solve asks for layer t of levels 1..imax+w*(deg-t).  Each of them reads
layer t-1 of levels up to imax+w*(deg-t+1), all made in the round
before, so a request never recurses through other levels' layers and
the stack depth is that of one mid-path DP, whatever deg and imax.
After round deg, levels 1..imax hold every layer through deg.

Layer t of V_i is the limit's layer t whenever i > w*t, so a level starts
with those layers.  For t = 0 both are 1.  For t >= 1, i > w: a mid path
at level i dips at most (p-1)n - 1 <= w below i - 1, so the floor at
height 0 cuts off none of them: they are all C(np-1, n) words of n rises
and (p-1)n - 1 falls, each fall from a level >= i - w > w*(t-1).  So
layer t of V_i is the limit's equation read at layers s < t of levels
above w*s, each the limit's layer s by induction on t.  The tests check
that the layers differ at i = w*t.

One walk DP per level, over the longest mid path, (p*kmax - 1) steps,
gives M_(i,n) for every n as its sum of length p*n - 1.  A level's DP is
built once, when a layer past those it starts with is first asked for,
and dropped once its layers through deg are made: in a solve, levels
above (imax + w*deg)/2 build none.  A level's layers do not depend on
how many levels the family holds, so ``solve_vi`` keeps one family per
(p, deg, kmax) in a bounded cache: a request for a smaller imax reads
the finished levels, and a larger one computes only the (level, layer)
pairs it lacks.  ``solve_family`` runs the same solve without the cache
and drops each level's DP as soon as the level holds its last layer.
The limit V does not depend on deg either: ``_limit`` keeps one layered
node per (p, kmax), so a solve at a higher order makes only the layers
no earlier solve made.  The cached family reads it; ``solve_family``
makes its own, so the two sides of a cap-doubling certificate share no
cached object.
``v_update`` and ``vi_update`` are the sweeps of the fixed points at one
full order: the certificates check the solved series with them.  Like
``_Family._rule``, they read every multi-length path sum off one walk DP
(``every=True``): ``vi_update`` runs one per level, and
``f1_tutte_check`` one per start height.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from math import comb

from ._layered import _Layered
from .algebra import OutOfRange, XSeries, _at_least
from .paths import _weight_dp, count_closed


class SolverConfig(namedtuple("SolverConfig", "p deg kmax imax")):
    """Problem size: step p, x-degree deg, active x_1..x_kmax, V_1..V_imax."""

    __slots__ = ()

    def __new__(cls, p: int, deg: int, kmax: int, imax: int):
        _at_least(2, p=p)
        _at_least(0, deg=deg, kmax=kmax)
        _at_least(1, imax=imax)
        return super().__new__(cls, p, deg, kmax, imax)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @property
    def window(self) -> int:
        """How many levels above i the update of V_i reads."""
        return max(0, (self.p - 1) * self.kmax - 1)


def v_update(cfg: SolverConfig, v: XSeries) -> XSeries:
    """One sweep of the scalar fixed point for the level-free limit, at the
    order of ``v``."""
    out = XSeries.const(1, v.order)
    for n in range(1, cfg.kmax + 1):
        term = XSeries.var(n, v.order) * v.pow(n * (cfg.p - 1))
        out = out + comb(n * cfg.p - 1, n) * term
    return out


def solve_v(cfg: SolverConfig) -> XSeries:
    """The level-free limit weight as a series in x_1..x_kmax."""
    return _limit(cfg.p, cfg.kmax).series(cfg.deg)


@lru_cache(maxsize=32)
def _limit(p: int, kmax: int) -> _Layered:
    # keyed without deg and imax: every order reads the same layers
    return _Layered.later(partial(_limit_rule, p, kmax))


def _limit_rule(p: int, kmax: int, v):
    # 1 + sum_n C(np-1, n) x_n v^(n(p-1)), v a layered series
    powers = [v]  # powers[k - 1] is v^k
    while len(powers) < kmax * (p - 1):
        powers.append(powers[-1] * v)
    rule = _Layered.const(1)
    for n in range(1, kmax + 1):
        term = _Layered.var(n) * powers[n * (p - 1) - 1]
        rule = rule + comb(n * p - 1, n) * term
    return rule


def vi_update(cfg: SolverConfig, family: dict[int, XSeries]) -> dict[int, XSeries]:
    """One parallel sweep of the per-level fixed point.

    ``family`` holds levels 1..L at one order, at which the sweep runs; it
    returns levels 1..L-window, the ones whose mid paths stay inside
    the family.
    """
    p, order = cfg.p, family[1].order
    one = XSeries.const(1, order)
    weight = family.__getitem__
    new = {}
    for i in range(1, len(family) - cfg.window + 1):
        # M_(i,n) for every n off one walk DP, as in ``_Family._rule``
        sums = _weight_dp(p, cfg.kmax * p - 1, i - 1, i, weight, one, every=True)
        total = XSeries.zero(order)
        for n in range(1, cfg.kmax + 1):
            total = total + XSeries.var(n, order) * sums[n * p - 1]
        new[i] = one + family[i] * total
    return new


class _Family:
    """The levels of one (p, deg, kmax) as layered series, grown on demand.

    With ``keep``, a level keeps its DP until its layers through deg are
    made, so that a solve for a larger imax reuses it; without, each DP is
    dropped once the level holds its last layer of this solve.  A dropped
    DP is never built again: a level made through deg is asked for no
    further layer, and a family without ``keep`` serves one solve.
    """

    def __init__(self, p: int, deg: int, kmax: int, keep: bool):
        self.cfg = SolverConfig(p, deg, kmax, 1)
        self.keep = keep
        # a fresh family makes its own limit, sharing no cached object
        self.limit = _limit(p, kmax) if keep else \
            _Layered.later(partial(_limit_rule, p, kmax))
        self.levels: list = []  # levels[i - 1] is V_i, made on first use

    def level(self, i: int):
        levels = self.levels
        if i <= len(levels):
            return levels[i - 1]
        deg, w = self.cfg.deg, self.cfg.window
        while len(levels) < i:
            j = len(levels) + 1
            # layer t of V_j is the limit's for every t with w*t < j
            known = range((min(deg, (j - 1) // w) if w else deg) + 1)
            levels.append(_Layered.later(partial(self._rule, j),
                                         [self.limit.layer(t) for t in known]))
        return levels[i - 1]

    def _rule(self, i: int, vi):
        # 1 + V_i * sum_n x_n * M_(i,n), one walk DP for every n
        p, kmax = self.cfg.p, self.cfg.kmax
        if not kmax:
            return _Layered.const(1)
        sums = _weight_dp(p, kmax * p - 1, i - 1, i, self.level,
                          _Layered.const(1), every=True)
        faces = sum((_Layered.var(n) * sums[n * p - 1]
                     for n in range(1, kmax + 1)), _Layered.const(0))
        return 1 + vi * faces

    def solve(self, imax: int) -> dict[int, XSeries]:
        """Levels 1..imax at order deg."""
        deg, w = self.cfg.deg, self.cfg.window
        for t in range(1, deg + 1):
            top = imax + w * (deg - t)
            for i in range(1, top + 1):
                self.level(i).layer(t)
            if not self.keep:
                # levels past top - w hold their last layer of this solve
                for vi in self.levels[max(top - w, 0):top]:
                    vi.forget()
        out = {}
        for i in range(1, imax + 1):
            vi = self.level(i)
            out[i] = vi.series(deg)
            vi.forget()
        return out


def solve_family(cfg: SolverConfig) -> dict[int, XSeries]:
    """Levels 1..imax solved afresh, with no cache.

    The cap-doubling certificates compare ``solve_vi`` with this, so that
    their two sides come from independent solves.
    """
    return _Family(cfg.p, cfg.deg, cfg.kmax, False).solve(cfg.imax)


@lru_cache(maxsize=32)
def _family(p: int, deg: int, kmax: int) -> _Family:
    # the levels of one (p, deg, kmax), shared by every imax
    return _Family(p, deg, kmax, True)


def solve_vi(cfg: SolverConfig) -> dict[int, XSeries]:
    """Per-level weights V_1..V_imax as series in x_1..x_kmax."""
    return _family(cfg.p, cfg.deg, cfg.kmax).solve(cfg.imax)


def f_from_v(cfg: SolverConfig, n: int) -> XSeries:
    """Excursion series of index n written in the limit weight alone.

    The closed form trades the per-level family for powers of the limit
    series, with integer coefficients (``_bracket``).
    """
    _at_least(0, n=n)
    p = cfg.p
    v = solve_v(cfg)
    out = count_closed(p, n, 0) * v.pow(n * (p - 1) + 1)
    for k in range(1, cfg.kmax + 1):
        term = XSeries.var(k, cfg.deg) * v.pow((k + n) * (p - 1))
        out = out - _bracket(p, n, k) * term
    return out


def _bracket(p: int, n: int, k: int) -> int:
    """The sum over j of count_closed(p, n-j, jp) * C(kp-1, k+j), whose
    terms (jp+1)/(np+1) * C(np+1, n-j) * C(kp-1, k+j) are integers."""
    return sum(count_closed(p, n - j, j * p) * comb(k * p - 1, k + j)
               for j in range(n + 1))


def f1_tutte_check(cfg: SolverConfig, n: int) -> bool:
    """Check the one-level-up splitting against the excursion series.

    The series of paths started one level up equals the face-marked sum
    of deeper excursions plus the convolution of excursion series.  Only
    meaningful for p = 3, where one rise spans exactly two levels.
    """
    if cfg.p != 3:
        raise OutOfRange("the splitting identity is specific to p = 3")
    _at_least(0, n=n)
    need = 2 * (n + cfg.kmax) + 1
    big = cfg if cfg.imax >= need else \
        SolverConfig(cfg.p, cfg.deg, cfg.kmax, need)
    family = solve_vi(big)
    one = XSeries.const(1, cfg.deg)
    # the excursion sums f_poly(3, m, 0) with V_h = family[h], every m off
    # one walk DP; walks[m] is the one of length 3m
    walks = _weight_dp(3, 3 * (n + cfg.kmax), 0, 0, family.__getitem__, one,
                       every=True)[::3]
    lhs = _weight_dp(3, 3 * n + 1, 1, 0, family.__getitem__, one)
    rhs = XSeries.zero(cfg.deg)
    for l in range(1, cfg.kmax + 1):
        rhs = rhs + XSeries.var(l, cfg.deg) * walks[n + l]
    for i in range(n + 1):
        rhs = rhs + walks[i] * walks[n - i]
    return lhs == rhs
