"""The four workloads: fixed calls into constel, each checked against oracles.

``build`` turns a workload name, a seeded random source and the imported
constel modules into a list of operations.  Everything that depends only
on the seed (integer points, projection coefficients, oracle values) is
computed here, before the clock starts.  Each operation then calls
constel, checks the outputs and returns an observation of them: a hash
of the exact output terms, which does not depend on the seed, so every
round of a run, traced or not, must observe the same thing.

Sizes are fixed: the seed picks the points at which outputs are checked,
never how much work the program does.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from functools import partial

import oracles as o
from oracles import Mismatch

# walk_fraction: (p, order) with coefficients of thousands of terms
WALK_SIZES = ((2, 12), (3, 8), (4, 6))
# hankel_ladder: the (p, m, n) grid up to n_max per p, and the recover sweep
HANKEL_NMAX = {2: 4, 3: 4, 4: 3}
SWEEP_P, SWEEP_I = 3, 16
# solver_series: (p, deg, kmax, imax), the cubic ladder, the determinant check
SOLVER_CFG = (3, 6, 2, 6)
LADDER_I, LADDER_ORDER = 8, 12
DET3 = (3, 12)

WORKLOADS = ("walk_fraction", "hankel_ladder", "solver_series", "verify_all")


def _expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def _points(rng, count=64):
    # w[h] is the integer value of V_h; w[0] is never read
    return [None] + [rng.randrange(2, 1 << 20) for _ in range(count)]


def _digest(terms: dict) -> int:
    return hash(frozenset(terms.items()))


def build(name: str, rng, mods) -> list[tuple[str, object]]:
    """The operations of one round: a list of (name, callable)."""
    return {"walk_fraction": walk_fraction, "hankel_ladder": hankel_ladder,
            "solver_series": solver_series, "verify_all": verify_all}[name](rng, mods)


# ---------------------------------------------------------------------------
# walk_fraction


def walk_fraction(rng, mods):
    ops = []
    for p, order in WALK_SIZES:
        w = _points(rng)
        walks = [o.f_value(p, n, 0, w) for n in range(order + 1)]
        if o.fraction_coeffs(p, order, w) != walks:
            raise o.OracleError(f"nested fraction disagrees with walks at p={p}")
        counts = [o.fuss_count(p, n, 0) for n in range(order + 1)]
        ops.append((f"f_poly p={p} n<={order}",
                    partial(_f_poly_op, mods, p, order, w, walks, counts)))
        for kind in ("expand_f", "expand_fraction"):
            ops.append((f"{kind} p={p} order={order}",
                        partial(_series_op, mods, kind, p, order, w, walks)))
    return ops


def _check_walk_poly(poly, p, n, w, walk, count):
    terms = o.poly_terms(poly.to_json())
    _expect(o.eval_terms(terms, w) == walk, f"walk sum p={p} n={n} at the point")
    _expect(sum(terms.values()) == count, f"walk count p={p} n={n} at all-ones")
    return _digest(terms)


def _f_poly_op(mods, p, order, w, walks, counts):
    return [_check_walk_poly(mods["paths"].f_poly(p, n, 0), p, n, w, walks[n], counts[n])
            for n in range(order + 1)]


def _series_op(mods, kind, p, order, w, walks):
    if kind == "expand_f":
        series = mods["contfrac"].expand_f(p, 0, 0, order)
    else:
        series = mods["contfrac"].expand_fraction(p, order)
    _expect(series.order == order, f"{kind} order {series.order} != {order}")
    for n in range(order + 1):
        _expect(series.coeff(n) == mods["paths"].f_poly(p, n, 0),
                f"{kind} coefficient {n} differs from f_poly")
    # the f_poly operation checks every coefficient at the point; the top
    # one, the largest, is checked here too so that this result stands alone
    terms = o.poly_terms(series.coeff(order).to_json())
    _expect(o.eval_terms(terms, w) == walks[order], f"{kind} coefficient {order} at the point")
    return _digest(terms)


# ---------------------------------------------------------------------------
# hankel_ladder


def hankel_ladder(rng, mods):
    w = _points(rng)
    ops = []
    for p, n_max in HANKEL_NMAX.items():
        for m in range(p):
            for n in range(-1, n_max + 1):
                exps = o.hankel_exponents(p, m, n)
                if o.hankel_int_det(p, m, n, w) != o.monomial_value(exps, w):
                    raise o.OracleError(f"banded determinant p={p} m={m} n={n}")
                want = {tuple(sorted(exps.items())): 1}
                ops.append((f"hankel_det p={p} m={m} n={n}",
                            partial(_hankel_op, mods, p, m, n, want)))
    for i in range(1, SWEEP_I + 1):
        ops.append((f"recover_vi p={SWEEP_P} i={i}",
                    partial(_recover_op, mods, SWEEP_P, i)))
    return ops


def _hankel_op(mods, p, m, n, want):
    hk = mods["hankel"]
    terms = o.poly_terms(hk.hankel_det(hk.HankelSpec(p, m, n)).to_json())
    _expect(terms == want, f"determinant p={p} m={m} n={n} is not the weight product")
    return _digest(terms)


def _recover_op(mods, p, i):
    terms = o.poly_terms(mods["hankel"].recover_vi(p, i).to_json())
    _expect(terms == {((i, 1),): 1}, f"recover_vi p={p} i={i} is not V{i}")
    return _digest(terms)


# ---------------------------------------------------------------------------
# solver_series


def solver_series(rng, mods):
    p, deg, kmax, imax = SOLVER_CFG
    cs = [None] + [rng.randrange(1, 1 << 16) for _ in range(kmax)]
    levels = o.level_weights(p, kmax, deg, imax, cs)
    c1 = [None, rng.randrange(1, 1 << 16)]
    ladder = o.level_weights(3, 1, LADDER_ORDER, LADDER_I, c1)
    ops = [("solve_v", partial(_solve_v_op, mods, o.limit_coeffs(p, kmax, deg))),
           ("solve_vi", partial(_solve_vi_op, mods, cs, levels))]
    for n in range(3):
        ops.append((f"f_from_v n={n}",
                    partial(_f_from_v_op, mods, n, cs,
                            o.series_walk_sum(p, n * p, 0, 0, levels.__getitem__, deg))))
    for i in range(LADDER_I + 1):
        ops.append((f"v_series/v_closed i={i} order={LADDER_ORDER}",
                    partial(_ladder_op, mods, i, c1, ladder.get(i))))
    ops.append((f"verify_det3 kmax={DET3[0]} order={DET3[1]}",
                partial(_det3_op, mods)))
    return ops


def _config(mods):
    return mods["solver"].SolverConfig(*SOLVER_CFG)


def _solve_v_op(mods, want):
    deg = SOLVER_CFG[1]
    terms = o.series_terms(mods["solver"].solve_v(_config(mods)).to_json(), deg)
    _expect(terms == want, "limit weight differs from the Lagrange form")
    return _digest(terms)


def _solve_vi_op(mods, cs, levels):
    p, deg, kmax, imax = SOLVER_CFG
    fam = mods["solver"].solve_vi(_config(mods))
    _expect(sorted(fam) == list(range(1, imax + 1)), f"levels {sorted(fam)}")
    terms = {i: o.series_terms(fam[i].to_json(), deg) for i in fam}
    got = {i: o.project_terms(terms[i], cs, deg) for i in fam}
    for i in fam:
        _expect(got[i] == levels[i], f"level weight V{i} differs from the oracle")
    # the fixed point, read on constel's own levels where they suffice
    for i in range(1, imax + 2 - (p - 1) * kmax):
        _expect(o.fixed_point_rhs(p, kmax, i, got.__getitem__, cs, deg) == got[i],
                f"level weight V{i} is not a fixed point")
    return [_digest(terms[i]) for i in sorted(terms)]


def _f_from_v_op(mods, n, cs, want):
    deg = SOLVER_CFG[1]
    terms = o.series_terms(mods["solver"].f_from_v(_config(mods), n).to_json(), deg)
    _expect(o.project_terms(terms, cs, deg) == want,
            f"excursion series n={n} differs from walks over the levels")
    return _digest(terms)


def _ladder_op(mods, i, c1, want):
    eu = mods["eulerian"]
    series = eu.v_series(i, LADDER_ORDER)
    _expect(series == eu.v_closed(i, LADDER_ORDER), f"v_series != v_closed at i={i}")
    terms = o.series_terms(series.to_json(), LADDER_ORDER)
    if want is None:
        want = [0] * (LADDER_ORDER + 1)  # V_0 is the zero boundary
    _expect(o.project_terms(terms, c1, LADDER_ORDER) == want,
            f"level weight V{i} differs from the oracle")
    return _digest(terms)


def _det3_op(mods):
    _expect(mods["eulerian"].verify_det3(*DET3) is True, "determinant ladder failed")
    return True


# ---------------------------------------------------------------------------
# verify_all


def verify_all(rng, mods):
    return [("constel verify-all", partial(_verify_all_op, mods))]


def _verify_all_op(mods):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = mods["cli"].run(["verify-all"])
    text = out.getvalue()
    lines = text.splitlines()
    _expect(bool(lines), "verify-all printed nothing")
    checks = lines[:-1]
    bad = [line for line in checks if not line.startswith("ok  ")]
    _expect(not bad, f"{len(bad)} checks did not pass: {bad[:3]}")
    _expect(lines[-1] == f"{len(checks)} checks, 0 failures" and checks,
            f"summary line {lines[-1]!r}")
    _expect(rc == 0, f"exit code {rc}")
    return hashlib.sha256(text.encode()).hexdigest()
