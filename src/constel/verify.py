"""Cross-module identity checks with first-counterexample reporting.

Each check compares two independently computed objects and reports one
line per parameter point, in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import contfrac, eulerian, hankel, paths, solver
from .algebra import MultiPoly
from .hankel import HankelSpec, IdentityViolation, NonUniqueNILP


@dataclass
class CheckResult:
    name: str
    params: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        tail = f"  {self.detail}" if self.detail and not self.ok else ""
        return f"{status} {self.name} {self.params}{tail}"


@dataclass
class CheckPlan:
    """A named list of independent check callables, run then aggregated."""

    jobs: list = field(default_factory=list)

    def add(self, name: str, params: str, fn):
        self.jobs.append((name, params, fn))

    def run(self) -> list[CheckResult]:
        results = []
        for name, params, fn in self.jobs:
            try:
                detail = fn()
                results.append(CheckResult(name, params, detail is None,
                                           detail or ""))
            except (IdentityViolation, NonUniqueNILP) as exc:
                results.append(CheckResult(name, params, False, str(exc)))
        return results


def _diff(kind, a, b):
    if a == b:
        return None
    return f"{kind}: {a} != {b}"


def plan_paths(p_values, n_max) -> CheckPlan:
    plan = CheckPlan()
    for p in p_values:
        for n in range(n_max + 1):
            plan.add("paths.top-level-shift", f"p={p} n={n}",
                     lambda p=p, n=n: _diff(
                         "one level below the roof equals the next excursion",
                         paths.f_poly(p, n, p - 1), paths.f_poly(p, n + 1, 0)))
            plan.add("paths.count-closed-form", f"p={p} n={n}",
                     lambda p=p, n=n: _diff(
                         "excursion count", paths.count_paths(p, n, 0),
                         paths.count_closed3(n, 0) if p == 3 else
                         _fuss(p, n)))
    return plan


def _fuss(p, n):
    from math import comb
    return comb(n * p + 1, n) // (n * p + 1)


def plan_contfrac(p_values, n_max) -> CheckPlan:
    plan = CheckPlan()
    for p in p_values:
        series = contfrac.expand_fraction(p, n_max)
        ladder = contfrac.expand_f(p, 0, 0, n_max)
        for n in range(n_max + 1):
            plan.add("contfrac.fraction-vs-paths", f"p={p} n={n}",
                     lambda p=p, n=n, s=series: _diff(
                         "fraction coefficient", s.coeff(n),
                         paths.f_poly(p, n, 0)))
            plan.add("contfrac.recursion-vs-paths", f"p={p} n={n}",
                     lambda p=p, n=n, s=ladder: _diff(
                         "recursion coefficient", s.coeff(n),
                         paths.f_poly(p, n, 0)))
    return plan


def plan_hankel(p_values, n_max) -> CheckPlan:
    plan = CheckPlan()
    for p in p_values:
        for m in range(p):
            for n in range(-1, n_max + 1):
                plan.add("hankel.det-collapse", f"p={p} m={m} n={n}",
                         lambda p=p, m=m, n=n: _diff(
                             "determinant vs weight product",
                             hankel.hankel_det(HankelSpec(p, m, n)),
                             hankel.hankel_product(HankelSpec(p, m, n))))
    return plan


def plan_inversion(p_values, n_max) -> CheckPlan:
    plan = CheckPlan()
    for p in p_values:
        for i in range(1, p * n_max + p):
            plan.add("hankel.recover-weight", f"p={p} i={i}",
                     lambda p=p, i=i: _diff(
                         "recovered weight", hankel.recover_vi(p, i),
                         MultiPoly.v_var(i)))
    return plan


def plan_lgv(p_values, n_max) -> CheckPlan:
    plan = CheckPlan()
    for p in p_values:
        if p > 3:
            continue  # brute force is desk-scale only
        for m in range(p):
            for n in range(min(n_max, 2) + 1):
                spec = HankelSpec(p, m, n)
                plan.add("hankel.lgv-signed-sum", f"p={p} m={m} n={n}",
                         lambda s=spec: _diff(
                             "signed path-system sum vs determinant",
                             hankel.lgv_signed_sum(s), hankel.hankel_det(s)))
                plan.add("hankel.nilp-unique", f"p={p} m={m} n={n}",
                         lambda s=spec: _nilp_check(s))
    return plan


def _nilp_check(spec):
    count, weight = hankel.nilp_unique(spec)
    if count != 1:
        return f"configuration count {count} != 1"
    return _diff("disjoint configuration weight", weight,
                 hankel.hankel_product(spec))


def plan_solver(order) -> CheckPlan:
    plan = CheckPlan()
    cfg = solver.SolverConfig(p=3, deg=min(order, 4), kmax=2, imax=6)

    def scalar_fixed_point():
        v = solver.solve_v(cfg)
        return None if solver.v_update(cfg, v) == v else "V is not a fixed point"

    def family_fixed_point():
        fam = solver.solve_vi(replace(cfg, imax=cfg.imax + cfg.window))
        new = solver.vi_update(cfg, fam)
        bad = [i for i in range(1, cfg.imax + 1) if new[i] != fam[i]]
        return f"levels {bad} moved under one more sweep" if bad else None

    def substitution_match():
        fam = solver.solve_vi(cfg)
        for n in range(0, 3):
            direct = paths.f_poly(3, n, 0).substitute(fam, order=cfg.deg)
            if direct != solver.f_from_v(cfg, n):
                return f"excursion series n={n} differs"
        return None

    def cap_doubling():
        a = solver.solve_vi(cfg)
        b = solver.solve_family(replace(cfg, imax=2 * cfg.imax))
        bad = [i for i in a if a[i] != b[i]]
        return f"levels {bad} moved under cap doubling" if bad else None

    def tutte():
        for n in range(0, 3):
            if not solver.f1_tutte_check(cfg, n):
                return f"splitting identity fails at n={n}"
        return None

    plan.add("solver.scalar-fixed-point", f"p=3 deg={cfg.deg}", scalar_fixed_point)
    plan.add("solver.family-fixed-point", f"p=3 deg={cfg.deg}", family_fixed_point)
    plan.add("solver.excursions-from-limit", f"p=3 deg={cfg.deg}", substitution_match)
    plan.add("solver.cap-doubling", f"p=3 deg={cfg.deg}", cap_doubling)
    plan.add("solver.one-level-splitting", f"p=3 deg={cfg.deg}", tutte)
    return plan


def plan_euler(order, kmax=2) -> CheckPlan:
    plan = CheckPlan()

    def level_match(i):
        return _diff("series vs closed level weight",
                     eulerian.v_series(i, order), eulerian.v_closed(i, order))

    for i in range(0, 5):
        plan.add("euler.level-weight-closed-form", f"i={i} order={order}",
                 lambda i=i: level_match(i))

    def dets():
        return None if eulerian.verify_det3(kmax, order) else \
            "determinant ladder failed"

    plan.add("euler.determinant-ladder", f"kmax={kmax} order={order}", dets)

    def fib():
        bad = [n for n in range(1, 13) if not eulerian.fib_chebyshev_check(n)]
        return f"cleared substitution fails at {bad}" if bad else None

    plan.add("euler.cleared-substitution", "n<=12", fib)
    return plan


def run_all(p_values=(2, 3, 4), n_max=3, order=10) -> list[CheckResult]:
    """Run every identity suite; returns one result per parameter point."""
    plan = CheckPlan()
    for sub in (plan_paths(p_values, n_max),
                plan_contfrac(p_values, n_max),
                plan_hankel(p_values, n_max),
                plan_inversion(p_values, n_max),
                plan_lgv(p_values, n_max),
                plan_solver(order),
                plan_euler(min(order, 10))):
        plan.jobs.extend(sub.jobs)
    return plan.run()
