"""Acceptance checks.

Each test covers one advertised criterion at its full scale, asserts
exact equality throughout, enforces the stated wall-clock budget, and
prints a single PASS or FAIL line so a log scrape sees the verdict.
"""

import time
from math import comb

from constel.algebra import MultiPoly, XSeries
from constel.contfrac import expand_fraction
from constel.eulerian import (fib_chebyshev_check, fib_poly, f1_closed,
                              f_closed, make_context, t_n, v_closed, v_series,
                              verify_det3)
from constel.hankel import (HankelSpec, hankel_det, hankel_product,
                            lgv_signed_sum, nilp_unique, recover_vi)
from constel.paths import (count_closed, count_paths, enumerate_paths,
                           f_poly, path_weight)
from constel.solver import (SolverConfig, f1_tutte_check, f_from_v,
                            solve_family, solve_v, solve_vi, v_update,
                            vi_update)

import _props
from _props import f_mid

V = MultiPoly.v_var


def criterion(name, budget_s, body):
    start = time.time()
    try:
        body()
        elapsed = time.time() - start
        assert elapsed < budget_s, f"{name}: {elapsed:.1f}s over budget"
    except BaseException:
        print(f"FAIL {name}", flush=True)
        raise
    print(f"PASS {name} ({time.time() - start:.2f}s)", flush=True)


def test_criterion_1_golden_walk_polynomials():
    def body():
        assert str(f_poly(3, 1, 0)) == "V1*V2"
        assert str(f_poly(3, 2, 0)) == "V1^2*V2^2 + V1*V2^2*V3 + V1*V2*V3*V4"
        assert f_poly(3, 0, 1) == V(1)
        assert f_poly(3, 1, 1) == V(1) * V(2) * (V(1) + V(3))
        assert f_mid(3, 1, 1) == V(2)
        assert f_mid(3, 1, 2) == V(1) + V(3)
        assert f_mid(2, 1, 1) == MultiPoly.one()
        assert count_paths(3, 3, 0) == 12

    criterion("criterion-1 golden-walk-polynomials", 1.0, body)


def test_criterion_2_fraction_expansion_matches_walks():
    def body():
        for p in (2, 3, 4):
            series = expand_fraction(p, 6)
            for n in range(7):
                assert series.coeff(n) == f_poly(p, n, 0), (p, n)

    criterion("criterion-2 fraction-matches-walks", 30.0, body)


def test_criterion_3_determinants_collapse_to_weight_products():
    def body():
        for p in (2, 3, 4):
            for m in range(p):
                for n in range(-1, 4):
                    spec = HankelSpec(p, m, n)
                    assert hankel_det(spec) == hankel_product(spec), (p, m, n)

    criterion("criterion-3 determinant-collapse", 120.0, body)


def test_criterion_4_determinant_ratios_recover_weights():
    def body():
        for p in (2, 3, 4):
            for i in range(1, 2 * p + 3):
                assert recover_vi(p, i) == V(i), (p, i)

    criterion("criterion-4 weight-recovery", 60.0, body)


def test_criterion_5_disjoint_path_systems():
    def body():
        for p in (2, 3):
            for m in range(p):
                for n in range(-1, 3):
                    spec = HankelSpec(p, m, n)
                    det = hankel_det(spec)
                    assert lgv_signed_sum(spec) == det, (p, m, n)
                    count, weight = nilp_unique(spec)
                    assert count == 1 and weight == det, (p, m, n)

    criterion("criterion-5 disjoint-path-systems", 60.0, body)


def test_criterion_6_counting_formulas():
    def body():
        for p in range(2, 6):
            for n in range(7):
                for r in range(p + 1):
                    want = (r + 1) * comb(n * p + r + 1, n) \
                        // (n * p + r + 1)
                    assert count_paths(p, n, r) == want, (p, n, r)
        for n in range(7):
            for r in range(4):
                assert count_closed(3, n, r) == count_paths(3, n, r)
            if n >= 1:
                assert count_closed(3, n, 1) == count_closed(3, n, 0) \
                    + count_closed(3, n - 1, 3)
        for p in (2, 3):
            for n in range(4):
                got = len(enumerate_paths(p, (0, 0), (n * p, 0)))
                assert got == count_paths(p, n, 0)

    criterion("criterion-6 counting-formulas", 30.0, body)


def test_criterion_7_degree_marked_solver():
    def body():
        cfg = SolverConfig(p=3, deg=4, kmax=2, imax=6)
        v = solve_v(cfg)
        assert v_update(cfg, v) == v
        family = solve_vi(SolverConfig(p=3, deg=4, kmax=2, imax=9))
        swept = vi_update(cfg, family)
        for i in range(1, cfg.imax + 1):
            assert swept[i] == family[i], i
        one = XSeries.const(1, cfg.deg)
        for n in range(4):
            direct = _props.evaluate(f_poly(3, n, 0), family, {}, one)
            assert f_from_v(cfg, n) == direct, n
        wide = SolverConfig(p=3, deg=4, kmax=2, imax=12)
        a, b = solve_vi(cfg), solve_family(wide)  # b is a fresh solve
        for i in range(1, 7):
            assert a[i] == b[i], i
        for n in range(3):
            assert f1_tutte_check(cfg, n), n

    criterion("criterion-7 degree-marked-solver", 60.0, body)


def test_criterion_8_solvable_cubic_family():
    def body():
        for i in range(9):
            assert v_series(i, 16) == v_closed(i, 16), i
        limit = solve_v(SolverConfig(p=3, deg=10, kmax=1, imax=1))
        for i in range(1, 12):
            gap = _props.valuation(limit - v_closed(i, 10))
            assert gap is None or gap >= min(i, 11), i
        ctx = make_context(12)
        family = solve_vi(SolverConfig(p=3, deg=12, kmax=1, imax=9))
        one = XSeries.const(1, 12)
        for n in range(5):
            assert f_closed(n, ctx) \
                == _props.evaluate(f_poly(3, n, 0), family, {}, one), n
            assert f1_closed(n, ctx) \
                == _props.evaluate(f_poly(3, n, 1), family, {}, one), n
        ts = {n: t_n(n, ctx) for n in range(1, 16)}
        for n in range(1, 13):
            assert ts[n] == _props.evaluate(fib_poly(n), {}, {1: ctx.xV}, one), n
            assert ts[n + 3] == (one - ctx.xV) * ts[n + 1] - ctx.xV * ts[n], n
            assert fib_chebyshev_check(n), n
        assert verify_det3(3, 12)

    criterion("criterion-8 solvable-cubic-family", 120.0, body)


def test_criterion_9_randomized_algebra_properties():
    def body():
        floors = (
            _props.check_ring_laws(seed=11, cases=120),
            _props.check_exact_div(seed=22, cases=120),
            _props.check_det_oracle(seed=33, cases=120),
            _props.check_series_inv(seed=44, cases=120),
            _props.check_weight_dp_evaluates(seed=55, cases=120),
            _props.check_json_roundtrip(seed=66, cases=120),
        )
        assert all(done >= 100 for done in floors)

    criterion("criterion-9 randomized-properties", 120.0, body)
