import inspect
import sys
from collections import Counter
from itertools import product

import pytest

from constel._layered import _Layered
from constel.algebra import XSeries
from constel.eulerian import make_context
from constel.paths import f_poly
import constel.solver as solver_mod
from constel.solver import (SolverConfig, f1_tutte_check, f_from_v,
                            solve_family, solve_v, solve_vi, v_update,
                            vi_update)

import _props


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(p=1, deg=2, kmax=1, imax=1)
        with pytest.raises(ValueError):
            SolverConfig(p=3, deg=-1, kmax=1, imax=1)
        with pytest.raises(ValueError):
            SolverConfig(p=3, deg=2, kmax=-1, imax=1)
        with pytest.raises(ValueError):
            SolverConfig(p=3, deg=2, kmax=1, imax=0)

    def test_window(self):
        # V_i reads levels up to i-1+(p-1)*kmax; no width is user-set
        assert SolverConfig(p=3, deg=2, kmax=1, imax=4).window == 1
        assert SolverConfig(p=3, deg=2, kmax=5, imax=4).window == 9
        assert SolverConfig(p=4, deg=2, kmax=2, imax=4).window == 5
        assert SolverConfig(p=2, deg=2, kmax=1, imax=4).window == 0
        assert SolverConfig(p=3, deg=2, kmax=0, imax=4).window == 0


class TestScalarLimit:
    def test_cubic_one_degree_coeffs(self):
        cfg = SolverConfig(p=3, deg=5, kmax=1, imax=1)
        assert _props.univar_coeffs(solve_v(cfg)) == [1, 2, 8, 40, 224, 1344]

    def test_quadratic_one_degree_is_geometric(self):
        cfg = SolverConfig(p=2, deg=6, kmax=1, imax=1)
        assert _props.univar_coeffs(solve_v(cfg)) == [1] * 7

    def test_fixed_point(self):
        for p in (2, 3, 4):
            cfg = SolverConfig(p=p, deg=4, kmax=2, imax=1)
            v = solve_v(cfg)
            assert v_update(cfg, v) == v, p

    def test_cache_ignores_imax(self):
        # the limit reads neither imax nor deg, so no imax may solve it
        # again, and every order reads the layers of one cached limit
        solver_mod._limit.cache_clear()
        for deg, imax in product((4, 6), (1, 7)):
            cfg = SolverConfig(p=3, deg=deg, kmax=2, imax=imax)
            assert solve_v(cfg) == _props.full_order_limit(cfg), cfg
        assert solver_mod._limit.cache_info().misses == 1

    def test_unique_given_constant_one(self):
        # iterating from a different unit constant still lands on the branch
        # picked by the update map itself
        cfg = SolverConfig(p=3, deg=4, kmax=1, imax=1)
        v = XSeries.const(1, 4)
        for _ in range(6):
            v = v_update(cfg, v)
        assert v == solve_v(cfg)


class TestFamily:
    def test_golden_series(self):
        cfg = SolverConfig(p=3, deg=3, kmax=1, imax=3)
        vi = solve_vi(cfg)
        assert _props.univar_coeffs(vi[1]) == [1, 1, 3, 12]
        assert _props.univar_coeffs(vi[2]) == [1, 2, 7, 31]
        assert _props.univar_coeffs(vi[3]) == [1, 2, 8, 39]
        # no faces: the window clamps from -1 to 0 and every level is 1
        flat = solve_vi(SolverConfig(p=3, deg=4, kmax=0, imax=5))
        assert all(flat[i] == XSeries.const(1, 4) for i in range(1, 6))
        # p=2 with x_1 alone: window 0, every level is 1/(1-x1)
        geo = solve_vi(SolverConfig(p=2, deg=6, kmax=1, imax=5))
        assert all(_props.univar_coeffs(geo[i]) == [1] * 7 for i in range(1, 6))

    def test_fixed_point(self):
        cfg = SolverConfig(p=3, deg=3, kmax=2, imax=4)
        family = solve_vi(SolverConfig(p=3, deg=3, kmax=2, imax=7))
        swept = vi_update(cfg, family)
        for i in range(1, cfg.imax + 1):
            assert swept[i] == family[i], i

    def test_sweep_reads_the_mid_path_polynomials(self):
        # the walk DP over series weights equals the mid-path polynomial
        # evaluated term by term: V_i <- 1 + V_i * sum_n x_n * f_mid(p, n, i)(V)
        for p, kmax in ((2, 2), (3, 2), (4, 1)):
            cfg = SolverConfig(p=p, deg=3, kmax=kmax, imax=3)
            family = solve_vi(cfg._replace(imax=3 + cfg.window))
            swept = vi_update(cfg, family)
            assert len(swept) == 3
            one = XSeries.const(1, 3)
            for i, got in swept.items():
                mids = sum((XSeries.var(n, 3) * _props.evaluate(
                                _props.f_mid(p, n, i), family, {}, one)
                            for n in range(1, kmax + 1)), XSeries.zero(3))
                assert got == 1 + family[i] * mids, (p, i)

    def test_imax_does_not_disturb_low_indices(self):
        # two fresh solves: solve_vi serves both from one cached family,
        # which relies on exactly this property
        lo = solve_family(SolverConfig(p=3, deg=4, kmax=1, imax=2))
        hi = solve_family(SolverConfig(p=3, deg=4, kmax=1, imax=6))
        assert len(lo) == 2 and len(hi) == 6
        for i in (1, 2):
            assert lo[i] == hi[i]

    @pytest.mark.parametrize("p, kmax", [(3, 3), (4, 2), (2, 3), (2, 1),
                                         (3, 1), (5, 2), (4, 3)])
    def test_window_reaches_the_limit(self, p, kmax):
        # layer t of V_i is the limit's layer t for every i > w*t, and not
        # at i = w*t: the boundary is felt exactly w levels further per layer.
        # The solver starts each level from those layers, so the property
        # is checked on the full-order sweeps, which never read the limit
        cfg = SolverConfig(p=p, deg=4, kmax=kmax, imax=1)
        w = cfg.window
        family = _props.full_order_family(cfg._replace(imax=w * cfg.deg + 2))
        limit = _props.full_order_limit(cfg)

        def layer(s, t):
            return {x: c for x, c in s.sorted_terms()
                    if _props.t_degree(x) == t}
        for t in range(cfg.deg + 1):
            for i, vi in family.items():
                assert (layer(vi, t) == layer(limit, t)) == (i > w * t), \
                    (t, i)

    def test_cap_doubling_certificate(self):
        cfg = SolverConfig(p=3, deg=3, kmax=2, imax=3)
        wide = SolverConfig(p=3, deg=3, kmax=2, imax=6)
        # the wide side is a fresh solve, never a slice of the cached one
        a, b = solve_vi(cfg), solve_family(wide)
        for i in range(1, 4):
            assert a[i] == b[i], i

    def test_fresh_solve_reads_no_cached_limit(self, monkeypatch):
        # the two sides of the cap-doubling certificate share no cached
        # object: solve_family starts its levels from a limit of its own
        def refuse(p, kmax):
            raise AssertionError("solve_family read the cached limit")
        monkeypatch.setattr(solver_mod, "_limit", refuse)
        cfg = SolverConfig(p=3, deg=4, kmax=2, imax=3)
        assert solve_family(cfg) == _props.full_order_family(cfg)

    def test_growing_imax_computes_each_layer_once(self, monkeypatch):
        # the v_series ladder asks for imax 1, 2, ..., 8 in turn; its
        # family makes each layer of each level once, in the graph of that
        # level's rule, and never again in a rebuilt one.  Level i starts
        # with the limit's layers 0..(i-1)//w, so it builds a rule only if
        # it is asked for a layer past them
        cfg = SolverConfig(p=3, deg=6, kmax=1, imax=8)
        fresh = solve_family(cfg)
        roots, made = {}, Counter()
        rule, step = solver_mod._Family._rule, _Layered._next

        def spy_rule(family, i, vi):
            root = rule(family, i, vi)
            roots[root] = i
            return root

        def spy_step(node, t):
            if node in roots:
                made[roots[node], t] += 1
            return step(node, t)
        monkeypatch.setattr(solver_mod._Family, "_rule", spy_rule)
        monkeypatch.setattr(_Layered, "_next", spy_step)
        solver_mod._family.cache_clear()
        ladder = [solve_vi(cfg._replace(imax=i)) for i in range(1, 9)]
        # w = 1: level i is asked for layers through min(6, 14 - i) and
        # knows layers 0..min(6, i - 1), so levels 1..6 build a rule, whose
        # graph makes each of layers 0..6 once; levels 7..13 build none
        assert made == {(i, t): 1 for i in range(1, 7) for t in range(7)}
        for i, fam in enumerate(ladder, 1):
            assert sorted(fam) == list(range(1, i + 1))
            assert all(fam[j] == fresh[j] for j in fam), i

    def test_solve_vi_returns_requested_levels(self):
        cfg = SolverConfig(p=3, deg=2, kmax=1, imax=2)
        assert set(solve_vi(cfg)) == set(range(1, cfg.imax + 1))


class TestGrowingOrder:
    def test_matches_full_order_sweeps(self):
        # the solver makes each layer once; the oracle runs deg sweeps of
        # the fixed point, every one at the full order
        for p, deg, kmax, imax in product((2, 3, 4), (0, 1, 3, 5), (0, 1, 2),
                                          (1, 5)):
            cfg = SolverConfig(p, deg, kmax, imax)
            assert solve_family(cfg) == _props.full_order_family(cfg), cfg
            assert solve_v(cfg) == _props.full_order_limit(cfg), cfg
        for order in (0, 1, 3, 5, 12):
            assert make_context(order).y == _props.full_order_y(order), order

    def test_stack_depth_does_not_grow(self):
        # layer t of every level is asked for before layer t+1 of any, so
        # a request recurses through one level's walk DP and no further:
        # these solves fit a fixed margin above the caller's stack
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            deep = solve_family(SolverConfig(p=3, deg=30, kmax=1, imax=4))
            wide = solve_family(SolverConfig(p=4, deg=3, kmax=3, imax=4))
            limit_v = solver_mod._limit.__wrapped__(3, 1).series(30)
            context = make_context.__wrapped__(30)
        finally:
            sys.setrecursionlimit(limit)
        assert _props.univar_coeffs(deep[1])[:4] == [1, 1, 3, 12]
        assert wide == _props.full_order_family(SolverConfig(4, 3, 3, 4))
        assert limit_v == solve_v(SolverConfig(3, 30, 1, 1))
        assert context.y.order == 30


class TestExcursionsFromLimit:
    def test_degenerate_excursion_is_one(self):
        cfg = SolverConfig(p=3, deg=5, kmax=2, imax=1)
        assert f_from_v(cfg, 0) == XSeries.const(1, 5)

    def test_matches_substituted_walks(self):
        cfg = SolverConfig(p=3, deg=5, kmax=2, imax=1)
        family = solve_vi(SolverConfig(p=3, deg=5, kmax=2, imax=6))
        one = XSeries.const(1, cfg.deg)
        for n in range(4):
            direct = _props.evaluate(f_poly(3, n, 0), family, {}, one)
            assert f_from_v(cfg, n) == direct, n

    def test_matches_other_step_sizes(self):
        for p in (2, 4):
            cfg = SolverConfig(p=p, deg=4, kmax=1, imax=1)
            family = solve_vi(SolverConfig(p=p, deg=4, kmax=1, imax=6))
            one = XSeries.const(1, cfg.deg)
            for n in range(3):
                direct = _props.evaluate(f_poly(p, n, 0), family, {}, one)
                assert f_from_v(cfg, n) == direct, (p, n)

    def test_bracket_matches_fraction_sum(self):
        # a sum of Raney numbers: the sum of fractions it replaced is an
        # integer on the whole grid, and the same one
        for p, n, k in product(range(2, 6), range(12), range(1, 6)):
            want = _props.fraction_bracket(p, n, k)
            assert want.denominator == 1, (p, n, k)
            assert solver_mod._bracket(p, n, k) == want, (p, n, k)


class TestOneLevelSplitting:
    def test_holds_through_degree(self):
        cfg = SolverConfig(p=3, deg=4, kmax=2, imax=1)
        for n in range(3):
            assert f1_tutte_check(cfg, n), n

    def test_rejects_other_step_sizes(self):
        cfg = SolverConfig(p=4, deg=2, kmax=1, imax=1)
        with pytest.raises(ValueError):
            f1_tutte_check(cfg, 1)
