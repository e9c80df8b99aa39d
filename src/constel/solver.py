"""Fixed-point solvers for the weight family as series in the x family.

With every white face of degree np carrying the weight x_n, each fall
weight V_i satisfies

    V_i = 1 + V_i * sum_n x_n * (mid-path sum at level i)

and the level-free limit V obeys the closed scalar equation with the
binomial count of the mid paths.  Both are solved by iterating from the
all-ones family; one sweep fixes one more total degree in x, so deg
sweeps are exact.

The per-level sweep needs no pinned tail, because each level reads only
a bounded window of levels above it.  A mid path at level i runs from
height i-1 to height i with n rises of p-1, so it falls from at most
height i-1+(p-1)n, and V_i reads levels 1..i+w with
w = max(0, (p-1)*kmax - 1).  Start from the all-ones family on levels
1..imax+w*deg, and let each sweep return the levels whose window it
holds, 1..len(family)-w.  Claim: after s sweeps the family covers levels
1..imax+w*(deg-s) and each of them agrees with the true V_i through
degree s.  For s = 0 every V_i has constant term 1.  For the step, the
new V_i is 1 plus x_n times products of V_i and of levels up to i+w, all
held and exact through degree s, so it is exact through degree s+1.
After deg sweeps, levels 1..imax are exact through the truncation order.
Sweep s needs only order-s arithmetic, because its inputs are exact
through degree s-1 and every new term carries a factor x_n: it runs on
the family of sweep s-1 lifted to order s, its degree-s terms zero.

The value of a level after s sweeps does not depend on the top either, so
``solve_vi`` keeps the whole sweep history per (p, deg, kmax) in a
bounded cache.  A request for a smaller imax reads the levels it needs;
a larger one sweeps only the new levels of each sweep.  ``solve_family``
runs the same solve without the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb

from .algebra import XSeries
from .paths import _weight_dp, f_poly


@dataclass(frozen=True)
class SolverConfig:
    """Problem size: step p, x-degree deg, active x_1..x_kmax, V_1..V_imax."""

    p: int
    deg: int
    kmax: int
    imax: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.deg < 0:
            raise ValueError("deg must be >= 0")
        if self.kmax < 0:
            raise ValueError("kmax must be >= 0")
        if self.imax < 1:
            raise ValueError("imax must be >= 1")

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
    return _limit(cfg.p, cfg.deg, cfg.kmax)


@lru_cache(maxsize=32)
def _limit(p: int, deg: int, kmax: int) -> XSeries:
    # keyed as _sweeps: the limit does not read imax; sweep s at order s
    cfg = SolverConfig(p, deg, kmax, 1)
    v = XSeries.const(1, 0)
    for s in range(1, deg + 1):
        v = v_update(cfg, v._lift(s))
    return v


def vi_update(cfg: SolverConfig, family: dict[int, XSeries],
              start: int = 1) -> dict[int, XSeries]:
    """One parallel sweep of the per-level fixed point.

    ``family`` holds levels 1..L at one order, at which the sweep runs; it
    returns levels start..L-window, the ones whose mid paths stay inside
    the family.
    """
    order = family[1].order
    one = XSeries.const(1, order)
    weight = family.__getitem__
    new = {}
    for i in range(start, len(family) - cfg.window + 1):
        total = XSeries.zero(order)
        for n in range(1, cfg.kmax + 1):
            mid = _weight_dp(cfg.p, n * cfg.p - 1, i - 1, i, weight, one)
            total = total + XSeries.var(n, order) * mid
        new[i] = one + family[i] * total
    return new


def _grow(cfg: SolverConfig, sweeps: list) -> dict[int, XSeries]:
    """Extend the sweep history ``sweeps`` until it holds levels 1..imax.

    ``sweeps[s]`` is the family after s sweeps, at order s.  A level's
    value after s sweeps does not depend on how many levels the family
    holds, so a history serves every smaller imax as it stands and reaches
    a larger one by sweeping only the new levels.
    """
    if len(sweeps) == cfg.deg + 1 and len(sweeps[-1]) >= cfg.imax:
        return sweeps[-1]
    if not sweeps:
        sweeps.append({})
    ones, one = sweeps[0], XSeries.const(1, 0)
    for i in range(len(ones) + 1, cfg.imax + cfg.window * cfg.deg + 1):
        ones[i] = one
    for s in range(1, cfg.deg + 1):
        if len(sweeps) == s:
            sweeps.append({})
        lifted = {i: v._lift(s) for i, v in sweeps[s - 1].items()}
        sweeps[s].update(vi_update(cfg, lifted, len(sweeps[s]) + 1))
    return sweeps[-1]


def solve_family(cfg: SolverConfig) -> dict[int, XSeries]:
    """Levels 1..imax solved from the all-ones family, with no cache.

    The cap-doubling certificates compare ``solve_vi`` with this, so that
    their two sides come from independent solves.
    """
    return _grow(cfg, [])


@lru_cache(maxsize=32)
def _sweeps(p: int, deg: int, kmax: int) -> list:
    # the sweep history of one (p, deg, kmax), shared by every imax
    return []


def solve_vi(cfg: SolverConfig) -> dict[int, XSeries]:
    """Per-level weights V_1..V_imax as series in x_1..x_kmax."""
    family = _grow(cfg, _sweeps(cfg.p, cfg.deg, cfg.kmax))
    return {i: family[i] for i in range(1, cfg.imax + 1)}


def f_from_v(cfg: SolverConfig, n: int) -> XSeries:
    """Excursion series of index n written in the limit weight alone.

    The closed form trades the per-level family for powers of the limit
    series; the bracket coefficients are exact integers even though the
    intermediate fractions are not.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p = cfg.p
    v = solve_v(cfg)
    lead_num = comb(n * p + 1, n)
    lead, rem = divmod(lead_num, n * p + 1)
    if rem:
        raise ArithmeticError("excursion count is not integral")
    out = lead * v.pow(n * (p - 1) + 1)
    for k in range(1, cfg.kmax + 1):
        bracket = Fraction(0)
        for j in range(0, min(n, k * (p - 1) - 1) + 1):
            bracket += Fraction(j * p + 1, n * p + 1) \
                * comb(n * p + 1, n - j) * comb(k * p - 1, k + j)
        if bracket.denominator != 1:
            raise ArithmeticError("bracket coefficient is not integral")
        term = XSeries.var(k, cfg.deg) * v.pow((k + n) * (p - 1))
        out = out - int(bracket) * term
    return out


def f1_tutte_check(cfg: SolverConfig, n: int) -> bool:
    """Check the one-level-up splitting against the excursion series.

    The series of paths started one level up equals the face-marked sum
    of deeper excursions plus the convolution of excursion series.  Only
    meaningful for p = 3, where one rise spans exactly two levels.
    """
    if cfg.p != 3:
        raise ValueError("the splitting identity is specific to p = 3")
    if n < 0:
        raise ValueError("n must be >= 0")
    need = 2 * (n + cfg.kmax) + 1
    big = cfg if cfg.imax >= need else \
        SolverConfig(cfg.p, cfg.deg, cfg.kmax, need)
    family = solve_vi(big)

    def sub(poly):
        if poly.is_zero():
            return XSeries.zero(cfg.deg)
        return poly.substitute(family, order=cfg.deg)

    lhs = sub(f_poly(3, n, 1))
    rhs = XSeries.zero(cfg.deg)
    for l in range(1, cfg.kmax + 1):
        rhs = rhs + XSeries.var(l, cfg.deg) * sub(f_poly(3, n + l, 0))
    for i in range(n + 1):
        rhs = rhs + sub(f_poly(3, i, 0)) * sub(f_poly(3, n - i, 0))
    return lhs == rhs
