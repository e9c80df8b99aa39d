"""Lattice paths with tall rises, unit falls, and height-indexed weights.

A p-path moves by rises (1, p-1) and falls (1, -1) and never leaves the
upper half plane.  Column plus height is constant mod p along a path, so
endpoints fix the step counts.  A fall that starts at height h carries
the weight V_h; the weight of a path is the product over its falls, and
the polynomials aggregated over fixed endpoints are the raw material for
the nested fraction expansion and the determinant identities.

``enumerate_paths`` materializes paths for desk-scale oracles; ``f_poly``
and ``count_paths`` aggregate weights during the walk and never build a
list.  They share one walk DP, which is generic in the ring of the
weights: the solver and its certificates run it on series weights, so a
path sum at solved levels never expands its polynomial.  The Hankel
ladders read their entries, f_poly(p, n, r) for many n, off the
splitting recursion of ``contfrac`` instead; ``f_poly`` stays a walk DP
of its own, so it is an independent check of that recursion.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import comb

from .algebra import MultiPoly, _at_least, _at_most, _check_degree

RISE = "R"
FALL = "F"


class PPath(namedtuple("PPath", "p start steps")):
    """One concrete path: step size p, a start point, and the step word."""

    __slots__ = ()

    def __new__(cls, p: int, start: tuple[int, int], steps: tuple[str, ...]):
        _at_least(2, p=p)
        _at_least(0, **{"start height": start[1]})
        h = start[1]
        for s in steps:
            if s == RISE:
                h += p - 1
            elif s == FALL:
                h -= 1
                if h < 0:
                    raise ValueError("path dips below height 0")
            else:
                raise ValueError(f"unknown step {s!r}")
        return super().__new__(cls, p, start, steps)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def heights(self) -> list[int]:
        out = [self.start[1]]
        for s in self.steps:
            out.append(out[-1] + (self.p - 1 if s == RISE else -1))
        return out

    def points(self) -> list[tuple[int, int]]:
        col = self.start[0]
        return [(col + i, h) for i, h in enumerate(self.heights())]

    @property
    def end(self) -> tuple[int, int]:
        return self.points()[-1]

    def fall_heights(self) -> tuple[int, ...]:
        """Sorted multiset of starting heights of the falls."""
        hs = self.heights()
        return tuple(sorted(hs[i] for i, s in enumerate(self.steps)
                            if s == FALL))


def path_weight(path: PPath) -> MultiPoly:
    """Product of V_h over the falls of the path (a single monomial)."""
    return MultiPoly.from_terms([((Counter(path.fall_heights()), ()), 1)])


def _step_counts(p, start, end):
    # rises a and falls b from the endpoint displacement, or None
    dcol = end[0] - start[0]
    dh = end[1] - start[1]
    if dcol < 0:
        return None
    a, rem = divmod(dcol + dh, p)
    if rem or a < 0 or dcol - a < 0:
        return None
    return a, dcol - a


def enumerate_paths(p: int, start: tuple[int, int],
                    end: tuple[int, int]) -> list[PPath]:
    """All p-paths between two points, in rise-before-fall DFS order."""
    _at_least(2, p=p)
    _at_least(0, heights=min(start[1], end[1]))
    counts = _step_counts(p, start, end)
    if counts is None:
        return []
    _check_degree(counts[1])  # a path's weight has one V per fall
    out: list[PPath] = []
    # an explicit stack, so a path may be longer than the recursion limit;
    # the fall branch goes on first, so the rise branch is walked first
    todo = [(start[1], *counts, ())]
    while todo:
        h, rises, falls, word = todo.pop()
        if not rises and not falls:
            out.append(PPath(p, tuple(start), word))
            continue
        if falls and h >= 1:
            todo.append((h - 1, rises, falls - 1, word + (FALL,)))
        if rises:
            todo.append((h + p - 1, rises - 1, falls, word + (RISE,)))
    return out


def _weight_dp(p: int, nsteps: int, h_start: int, h_end: int, weight, one,
               every: bool = False):
    """Sum over the p-paths of the product of weight(h) over their falls.

    The paths run from height h_start to h_end in nsteps steps; a fall
    from height h contributes weight(h).  The weights may live in any
    commutative ring whose unit is ``one``: ints, MultiPoly, XSeries or
    the layered series of the solver.  Only heights that some such path
    visits are ever passed to weight.

    With ``every``, the result is instead the list of the sums over the
    paths of each length 0..nsteps between the same heights.  One sweep
    holds them all: a shorter path from h_start visits only heights
    reachable from h_start in fewer steps, which the sweep keeps.
    """
    # backward sweep; cur[h] sums the suffixes of length done from height h
    cur = {h_end: one}
    sums = [cur.get(h_start)]
    for done in range(1, nsteps + 1):
        from_start = nsteps - done
        hi = h_start + (p - 1) * from_start
        lo = max(0, h_start - from_start)
        nxt = {}
        for h2, acc in cur.items():
            h = h2 - (p - 1)  # a rise enters h2
            if lo <= h <= hi:
                prev = nxt.get(h)
                nxt[h] = acc if prev is None else prev + acc
            h = h2 + 1  # a fall from h lands at h2
            if lo <= h <= hi:
                piece = weight(h) * acc
                prev = nxt.get(h)
                nxt[h] = piece if prev is None else prev + piece
        cur = nxt
        if every:  # only then: each sum would outlive its step of the sweep
            sums.append(cur.get(h_start))
    zero = one - one  # the ring's zero
    if every:
        return [zero if s is None else s for s in sums]
    return cur.get(h_start, zero)


_v_weight = lru_cache(maxsize=256)(MultiPoly.v_var)


@lru_cache(maxsize=128)
def f_poly(p: int, n: int, r: int) -> MultiPoly:
    """Weight polynomial of the p-paths from (-r, r) to (np, 0)."""
    _at_least(2, p=p)
    _at_least(0, n=n)
    _at_least(0, r=r)
    _at_most(p - 1, r=r)
    _check_degree(n * (p - 1) + r)  # each term's degree, its number of falls
    return _weight_dp(p, n * p + r, r, 0, _v_weight, MultiPoly.one())


def count_paths(p: int, n: int, r: int) -> int:
    """Number of p-paths from (-r, r) to (np, 0); r may reach p."""
    _at_least(2, p=p)
    _at_least(0, n=n)
    _at_least(0, r=r)
    _at_most(p, r=r)
    return _weight_dp(p, n * p + r, r, 0, lambda h: 1, 1)


def count_closed(p: int, n: int, r: int) -> int:
    """count_paths(p, n, r) for any r >= 0, zero when n < 0: the Raney
    number (r+1)/(np+r+1) * C(np+r+1, n)."""
    _at_least(2, p=p)
    _at_least(0, r=r)
    if n < 0:
        return 0
    q, rem = divmod((r + 1) * comb(n * p + r + 1, n), n * p + r + 1)
    if rem:
        raise ArithmeticError("ballot quotient is not integral")
    return q
