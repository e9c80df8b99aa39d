from math import comb

import pytest

import constel.solver as solver_mod
from constel import eulerian
from constel._layered import _Layered
from constel.algebra import MultiPoly, XSeries, _Minors
from constel.eulerian import (EulerContext, f1_closed, f_closed,
                              fib_chebyshev_check, fib_poly, make_context,
                              t_n, v_closed, v_series, verify_det3)
from constel.paths import count_closed, f_poly
from constel.solver import SolverConfig, solve_v, solve_vi

import _props


ORDER = 12


@pytest.fixture(scope="module")
def ctx() -> EulerContext:
    return make_context(ORDER)


class TestFibLadder:
    def test_first_members(self):
        z = MultiPoly.x_var(1)
        assert fib_poly(0) == MultiPoly.zero()
        assert fib_poly(1) == MultiPoly.one()
        assert fib_poly(2) == MultiPoly.one()
        assert fib_poly(3) == 1 - z
        assert fib_poly(4) == 1 - 2 * z
        assert fib_poly(5) == 1 - 3 * z + z ** 2
        assert fib_poly(6) == 1 - 4 * z + 3 * z ** 2

    def test_recurrence(self):
        z = MultiPoly.x_var(1)
        for n in range(2, 14):
            assert fib_poly(n + 1) == fib_poly(n) - z * fib_poly(n - 1)

    def test_deep_member(self):
        # sum_j (-1)^j C(n-1-j, j) z^j, past any recursion limit
        n = 1500
        want = MultiPoly.from_terms(((None, {1: j}), (-1) ** j * comb(n - 1 - j, j))
                                    for j in range((n + 1) // 2))
        assert fib_poly(n) == want

    def test_cleared_substitution(self):
        for n in range(1, 13):
            assert fib_chebyshev_check(n), n
        with pytest.raises(ValueError):
            fib_chebyshev_check(0)


class TestContext:
    def test_y_series(self, ctx):
        assert _props.univar_coeffs(ctx.y)[:4] == [0, 1, 4, 21]

    def test_v_matches_scalar_solver(self, ctx):
        assert ctx.V == solve_v(SolverConfig(p=3, deg=ORDER, kmax=1, imax=1))

    def test_xv_product(self, ctx):
        assert ctx.xV == XSeries.var(1, ORDER) * ctx.V

    def test_quadratic_limit_equation(self, ctx):
        one = XSeries.const(1, ORDER)
        assert ctx.V == one + 2 * ctx.xV * ctx.V

    def test_one_context_per_order(self, ctx):
        assert make_context(ORDER) is ctx
        assert make_context(ORDER + 1) is not ctx

    def test_orders_share_the_layers_of_v(self, monkeypatch):
        # a higher order makes only the layers of V that no lower one made
        solver_mod._limit.cache_clear()
        make_context.__wrapped__(10)
        limit, step, made = solver_mod._limit(3, 1), _Layered._next, []

        def spy_step(node, t):
            if node is limit:
                made.append(t)
            return step(node, t)
        monkeypatch.setattr(_Layered, "_next", spy_step)
        assert make_context.__wrapped__(12).V == \
            solve_v(SolverConfig(p=3, deg=12, kmax=1, imax=1))
        assert made == [11, 12]


class TestLevelWeights:
    def test_closed_matches_iterated(self):
        for i in range(9):
            assert v_series(i, 16) == v_closed(i, 16), i

    def test_boundary_level_vanishes(self):
        assert v_series(0, 6).is_zero() and v_closed(0, 6).is_zero()

    def test_convergence_to_limit(self):
        order = 10
        limit = solve_v(SolverConfig(p=3, deg=order, kmax=1, imax=1))
        for i in range(1, 13):
            gap = limit - v_closed(i, order)
            val = _props.valuation(gap)
            floor = min(i, order + 1)
            assert val is None or val >= floor, (i, val)


class TestClosedExcursions:
    def test_base_matches_substituted_walks(self, ctx):
        family = solve_vi(SolverConfig(p=3, deg=ORDER, kmax=1, imax=9))
        one = XSeries.const(1, ORDER)
        for n in range(5):
            direct = _props.evaluate(f_poly(3, n, 0), family, {}, one)
            assert f_closed(n, ctx) == direct, n

    def test_lifted_matches_substituted_walks(self, ctx):
        family = solve_vi(SolverConfig(p=3, deg=ORDER, kmax=1, imax=9))
        one = XSeries.const(1, ORDER)
        for n in range(5):
            direct = _props.evaluate(f_poly(3, n, 1), family, {}, one)
            assert f1_closed(n, ctx) == direct, n

    def test_alternate_base_form(self, ctx):
        # same excursion series written against the one-higher count family
        one = XSeries.const(1, ORDER)
        for n in range(5):
            alt = (count_closed(3, n, 0) * (one - 2 * ctx.xV)
                   - count_closed(3, n - 1, 3) * ctx.xV) * ctx.V.pow(2 * n + 1)
            assert f_closed(n, ctx) == alt, n


class TestTriangularLadder:
    def test_low_fixtures(self, ctx):
        one = XSeries.const(1, ORDER)
        assert t_n(1, ctx) == one
        assert t_n(2, ctx) == one
        assert t_n(3, ctx) == one - ctx.xV
        assert t_n(4, ctx) == one - 2 * ctx.xV
        assert t_n(4, ctx) == ctx.V.inv()

    def test_fifth_is_first_level_over_square(self, ctx):
        want = v_closed(1, ORDER) * ctx.V.pow(-2)
        got = t_n(5, ctx)
        assert got == want
        assert _props.univar_coeffs(got)[:3] == [1, -3, -5]

    def test_equals_fib_ladder(self, ctx):
        # n = 22, 25, 28 and 31 are 7x7 to 10x10 determinants; every pivot
        # is a smaller t determinant, a unit series, so none refuses
        one = XSeries.const(1, ORDER)
        for n in [*range(1, 13), 22, 25, 28, 31]:
            want = _props.evaluate(fib_poly(n), {}, {1: ctx.xV}, one)
            assert t_n(n, ctx) == want, n

    def test_three_term_recurrence(self, ctx):
        one = XSeries.const(1, ORDER)
        ts = {n: t_n(n, ctx) for n in range(1, 16)}
        for n in range(1, 13):
            assert ts[n + 3] == (one - ctx.xV) * ts[n + 1] - ctx.xV * ts[n], n

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            t_n(0, ctx)

    def test_full_ladder_check(self):
        assert verify_det3(3, 12)

    def test_branch_ladders_by_the_shift_recurrence(self, ctx):
        # row i+2 of a branch ladder is row i moved one column left; LU
        # factors are unique, so every minor is the plain elimination's
        for ladder in eulerian._ladders(ctx):
            assert ladder._shift == 2
            plain = _Minors(ladder._entry)
            for n in range(8):
                assert ladder.minor(n) == plain.minor(n), n

    def test_branch_ladders_match_one_shot(self, ctx, monkeypatch):
        # verify_det3 reads every T_n off the three branch ladders of the
        # cached context, one per (n-1) mod 3; each equals the T_n of a
        # fresh context, whose ladders start empty and make it in one shot:
        # an equal context shares the cached ladders, so they are dropped
        seen = {}
        real = eulerian.t_n

        def spy(n, context):
            seen[n] = real(n, context)
            return seen[n]
        monkeypatch.setattr(eulerian, "t_n", spy)
        assert verify_det3(12, ORDER)
        monkeypatch.undo()
        assert sorted(seen) == list(range(1, 43))
        for n in range(1, 40):
            eulerian._ladders.cache_clear()
            fresh = EulerContext(ctx.order, ctx.V, ctx.y, ctx.xV)
            assert seen[n] == t_n(n, fresh), n
