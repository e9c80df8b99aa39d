"""Cross-module identity checks with first-counterexample reporting.

Each check compares two independently computed objects.  A ``plan_*``
function lists its checks as (name, params, fn) triples, and ``run``
calls them in order, reporting one line per parameter point.
"""

from __future__ import annotations

from collections import namedtuple

from . import contfrac, eulerian, hankel, paths, solver
from .algebra import MultiPoly, NonUnitConstant, XSeries, _at_least
from .hankel import HankelSpec, IdentityViolation, NonUniqueNILP

# the errors that report a failed identity: a FAIL line here, exit 1 in the CLI
_REFUSALS = (IdentityViolation, NonUniqueNILP, NonUnitConstant)


class CheckResult(namedtuple("CheckResult", "name params ok detail",
                             defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        tail = f"  {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.name} {self.params}{tail}"


def run(jobs) -> list[CheckResult]:
    """Run (name, params, fn) checks in order: fn returns None when the
    identity holds, else the failure's detail, or raises a refusal."""
    results = []
    for name, params, fn in jobs:
        try:
            detail = fn()
            results.append(CheckResult(name, params, detail is None,
                                       detail or ""))
        except _REFUSALS as exc:
            results.append(CheckResult(name, params, False, str(exc)))
    return results


def _diff(kind, a, b):
    if a == b:
        return None
    return f"{kind}: {a} != {b}"


def plan_paths(p_values, n_max) -> list:
    jobs = []
    for p in p_values:
        for n in range(n_max + 1):
            jobs += [("paths.top-level-shift", f"p={p} n={n}",
                      lambda p=p, n=n: _diff(
                          "one level below the roof equals the next excursion",
                          paths.f_poly(p, n, p - 1), paths.f_poly(p, n + 1, 0))),
                     ("paths.count-closed-form", f"p={p} n={n}",
                      lambda p=p, n=n: _diff(
                          "excursion count", paths.count_paths(p, n, 0),
                          paths.count_closed(p, n, 0)))]
    return jobs


def plan_contfrac(p_values, n_max) -> list:
    # the checks expand when they run, so building the plan does no work
    jobs = []
    for p in p_values:
        for n in range(n_max + 1):
            jobs += [("contfrac.fraction-vs-paths", f"p={p} n={n}",
                      lambda p=p, n=n: _diff(
                          "fraction coefficient",
                          contfrac.expand_fraction(p, n_max).coeff(n),
                          paths.f_poly(p, n, 0))),
                     ("contfrac.recursion-vs-paths", f"p={p} n={n}",
                      lambda p=p, n=n: _diff(
                          "recursion coefficient",
                          contfrac.expand_f(p, 0, 0, n_max).coeff(n),
                          paths.f_poly(p, n, 0)))]
    return jobs


def plan_hankel(p_values, n_max) -> list:
    return [("hankel.det-collapse", f"p={p} m={m} n={n}",
             lambda p=p, m=m, n=n: _diff(
                 "determinant vs weight product",
                 hankel.hankel_det(HankelSpec(p, m, n)),
                 hankel.hankel_product(HankelSpec(p, m, n))))
            for p in p_values for m in range(p) for n in range(-1, n_max + 1)]


def plan_inversion(p_values, n_max) -> list:
    return [("hankel.recover-weight", f"p={p} i={i}",
             lambda p=p, i=i: _diff("recovered weight", hankel.recover_vi(p, i),
                                    MultiPoly.v_var(i)))
            for p in p_values for i in range(1, p * n_max + p)]


def plan_lgv(p_values, n_max) -> list:
    jobs = []
    for p in p_values:
        if p > 3:
            continue  # brute force is desk-scale only
        for m in range(p):
            for n in range(min(n_max, 2) + 1):
                spec = HankelSpec(p, m, n)
                jobs += [("hankel.lgv-signed-sum", f"p={p} m={m} n={n}",
                          lambda s=spec: _diff(
                              "signed path-system sum vs determinant",
                              hankel.lgv_signed_sum(s), hankel.hankel_det(s))),
                         ("hankel.nilp-unique", f"p={p} m={m} n={n}",
                          lambda s=spec: _nilp_check(s))]
    return jobs


def _nilp_check(spec):
    _, weight = hankel.nilp_unique(spec)
    return _diff("disjoint configuration weight", weight,
                 hankel.hankel_product(spec))


def plan_solver(order) -> list:
    cfg = solver.SolverConfig(p=3, deg=min(order, 4), kmax=2, imax=6)

    def scalar_fixed_point():
        v = solver.solve_v(cfg)
        return None if solver.v_update(cfg, v) == v else "V is not a fixed point"

    def family_fixed_point():
        fam = solver.solve_vi(cfg._replace(imax=cfg.imax + cfg.window))
        new = solver.vi_update(cfg, fam)
        bad = [i for i in range(1, cfg.imax + 1) if new[i] != fam[i]]
        return f"levels {bad} moved under one more sweep" if bad else None

    def from_limit():
        fam = solver.solve_vi(cfg)
        one = XSeries.const(1, cfg.deg)
        # the excursion sums of lengths 0, 3 and 6 off one walk DP
        direct = paths._weight_dp(3, 6, 0, 0, fam.__getitem__, one, every=True)
        for n in range(0, 3):
            if direct[3 * n] != solver.f_from_v(cfg, n):
                return f"excursion series n={n} differs"
        return None

    def cap_doubling():
        a = solver.solve_vi(cfg)
        b = solver.solve_family(cfg._replace(imax=2 * cfg.imax))
        bad = [i for i in a if a[i] != b[i]]
        return f"levels {bad} moved under cap doubling" if bad else None

    def tutte():
        for n in range(0, 3):
            if not solver.f1_tutte_check(cfg, n):
                return f"splitting identity fails at n={n}"
        return None

    params = f"p=3 deg={cfg.deg}"
    return [("solver.scalar-fixed-point", params, scalar_fixed_point),
            ("solver.family-fixed-point", params, family_fixed_point),
            ("solver.excursions-from-limit", params, from_limit),
            ("solver.cap-doubling", params, cap_doubling),
            ("solver.one-level-splitting", params, tutte)]


def plan_euler(order) -> list:
    return [("euler.level-weight-closed-form", f"i={i} order={order}",
             lambda i=i: _diff("series vs closed level weight",
                               eulerian.v_series(i, order),
                               eulerian.v_closed(i, order)))
            for i in range(0, 5)] + plan_ladder(2, order, 12)


def plan_ladder(kmax, order, n_max) -> list:
    """The cubic determinant ladder, and fib_poly's cleared substitution."""
    def fib():
        bad = [n for n in range(1, n_max + 1)
               if not eulerian.fib_chebyshev_check(n)]
        return f"cleared substitution fails at {bad}" if bad else None

    return [("euler.determinant-ladder", f"kmax={kmax} order={order}",
             lambda: None if eulerian.verify_det3(kmax, order)
             else "determinant ladder failed"),
            ("euler.cleared-substitution", f"n<={n_max}", fib)]


def run_all(p_values, n_max, order) -> list[CheckResult]:
    """Run every identity suite; returns one result per parameter point."""
    _at_least(0, n_max=n_max, order=order)
    return run(plan_paths(p_values, n_max) + plan_contfrac(p_values, n_max)
               + plan_hankel(p_values, n_max) + plan_inversion(p_values, n_max)
               + plan_lgv(p_values, n_max) + plan_solver(order)
               + plan_euler(min(order, 10)))
