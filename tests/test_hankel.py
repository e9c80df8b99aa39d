from functools import cache, partial
from random import Random

import pytest

from constel import algebra
import constel.hankel as hankel_mod
from constel.algebra import MultiPoly, NotDivisible
from constel.hankel import (HankelSpec, IdentityViolation, NonUniqueNILP,
                            _ends, hankel_det, hankel_matrix, hankel_product,
                            lgv_signed_sum, nilp_unique, qr, recover_vi)
from constel.paths import _weight_dp, f_poly

import _props

V = MultiPoly.v_var


class _Z(int):
    """The integers as a ring of ``_Minors``, and of ``recover_vi``'s ratio:
    a product that stays in the class, a pivot's exact division, which
    refuses with ``NotDivisible`` as ``MultiPoly``'s does, the elimination
    update, and the exact quotient; +, - and bool are int's."""

    def _divider(self):
        def divide(a):
            if not self or a % self:
                raise NotDivisible(f"{self} does not divide {a}")
            return _Z(a // self)
        return divide

    def __mul__(self, other):
        return _Z(int(self) * other)

    def _minus_products(self, pairs):
        return _Z(self - sum(a * b for a, b in pairs))

    def exact_div(self, other):
        return other._divider()(self)


def _primes(count: int) -> list[int]:
    found: list[int] = []
    k = 2
    while len(found) < count:
        if all(k % q for q in found if q * q <= k):
            found.append(k)
        k += 1
    return found


def _walk_lu(p: int, m: int, size: int, cols: int, weight, one):
    """L and U of the (p, m) Hankel matrix as walk sums, by the walk DP
    alone (Viennot's combinatorial LU, in the p-step form of Petreolle,
    Sokal and Zhu, arXiv:1807.03271).  Every path from row k's source to
    a sink crosses height h_j = jp + m at x = -m for one j: L[k][j] sums
    the walks up from the source to (-m, h_j), U[j][c] those from there
    down to (cp, 0).  L is size x size, U has size rows and cols columns,
    each U row the sums of every length from one sweep."""
    lower = []
    for k in range(size):
        q, r = qr(m + k, p)
        lower.append([_weight_dp(p, q * p + r - m, r, j * p + m, weight, one)
                      for j in range(size)])
    upper = [_weight_dp(p, (cols - 1) * p + m, j * p + m, 0, weight, one,
                        every=True)[m::p] for j in range(size)]
    return lower, upper


def _check_walk_lu(ladder, n: int, entry, lower, upper, one):
    # H = L*U on the leading (n+1) x (n+1) block, L unit lower triangular,
    # every U cell the ladder has made (far columns too) the walk U, and
    # every minor the running product of U's diagonal
    zero = one - one
    for i in range(n + 1):
        for c in range(n + 1):
            got = sum((lower[i][j] * upper[j][c] for j in range(i + 1)), zero)
            assert entry(i, c) == got, (i, c)
        assert lower[i][i] == one and lower[i][i + 1:] == [zero] * (n - i), i
    assert len(ladder.minors) == n + 1
    assert max(c for row in ladder._upper for c in row) > n
    for k, row in enumerate(ladder._upper):
        for c, u in row.items():
            assert u == upper[k][c], (k, c)
    det = one
    for k in range(n + 1):
        det = det * upper[k][k]
        assert ladder.minors[k] == det, k


class TestSpec:
    def test_qr(self):
        assert qr(5, 3) == (2, 1)
        assert qr(0, 4) == (0, 0)
        assert [qr(k, 2) for k in range(4)] == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            HankelSpec(1, 0, 0)
        with pytest.raises(ValueError):
            HankelSpec(3, 3, 0)
        with pytest.raises(ValueError):
            HankelSpec(3, 0, -2)

    def test_matrix_entries(self):
        spec = HankelSpec(3, 1, 1)
        rows = hankel_matrix(spec)
        assert [len(row) for row in rows] == [2, 2]
        # row k reads from the walk family selected by divmod(k+m, p-1)
        assert rows[0][0] == f_poly(3, 0, 1)
        assert rows[0][1] == f_poly(3, 1, 1)
        assert rows[1][0] == f_poly(3, 1, 0)
        assert rows[1][1] == f_poly(3, 2, 0)


class TestCollapse:
    def test_det_equals_weight_product(self):
        for p in (2, 3, 4):
            for m in range(p):
                for n in range(-1, 3):
                    spec = HankelSpec(p, m, n)
                    assert hankel_det(spec) == hankel_product(spec), (p, m, n)

    def test_empty_case(self):
        assert hankel_det(HankelSpec(3, 2, -1)) == MultiPoly.one()

    def test_single_entry_cases(self):
        # a 1x1 determinant is the walk polynomial itself
        for p in (2, 3, 4):
            for m in range(p):
                q, r = qr(m, p)
                assert hankel_det(HankelSpec(p, m, 0)) == f_poly(p, q, r)

    def test_known_monomial(self):
        spec = HankelSpec(3, 2, 0)
        got = hankel_det(spec)
        assert got == f_poly(3, 1, 0) == V(1) * V(2)
        assert got != f_poly(3, 2, 0)

    def test_product_formula_shape(self):
        got = hankel_product(HankelSpec(3, 1, 1))
        # prod_{i<=1} prod_{j<=3i+1} V_j = V1 * (V1 V2 V3 V4)
        assert got == V(1, 2) * V(2) * V(3) * V(4)


class TestInversion:
    def test_recovers_each_weight(self):
        for p in (2, 3, 4):
            for i in range(1, 2 * p + 3):
                assert recover_vi(p, i) == V(i), (p, i)

    def test_validation(self):
        with pytest.raises(ValueError):
            recover_vi(3, 0)
        with pytest.raises(ValueError):
            recover_vi(1, 1)

    def test_sweep_computes_each_determinant_once(self, monkeypatch):
        # recover_vi reads four determinants, most of them shared with
        # neighbouring i; each is a leading minor of its (p, m) ladder, and
        # each border of each ladder is eliminated once, up to the largest n
        top = {}
        for i in range(1, 17):
            n, m = divmod(i, 3)
            if m:
                specs = [(m, n), (m - 1, n - 1), (m, n - 1), (m - 1, n)]
            else:
                specs = [(0, n), (2, n - 2), (0, n - 1), (2, n - 1)]
            for family, size in specs:
                top[family] = max(top.get(family, -1), size)
        grown = []
        eliminate = algebra._Minors._eliminate

        def spy(ladder, n):
            grown.append((id(ladder), n))
            return eliminate(ladder, n)
        monkeypatch.setattr(algebra._Minors, "_eliminate", spy)
        hankel_mod._ladder.cache_clear()
        for i in range(1, 17):
            assert recover_vi(3, i) == V(i), i
        assert hankel_mod._ladder.cache_info().misses == 3
        want = [(id(hankel_mod._ladder(3, m)), n)
                for m in range(3) for n in range(top[m] + 1)]
        assert sorted(grown) == sorted(want)
        assert [top[m] for m in range(3)] == [5, 5, 4]

    def test_corruption_surfaces_as_violation(self, crooked_walks):
        # perturbing a single walk polynomial breaks the telescoping ratio
        real = f_poly

        def crooked(p, n, r):
            base = real(p, n, r)
            return base + 1 if (n, r) == (1, 0) else base

        crooked_walks(crooked)
        with pytest.raises(IdentityViolation):
            recover_vi(3, 3)

    def test_crooked_entry_refuses_in_a_recurrence_row(self, crooked_walks):
        # one crooked entry, f(4, 0), leaves pivots 0..2 single terms but a
        # multiplier of row 3, a shift-recurrence row, inexact: the ladder
        # refuses every minor from there on at once, and keeps its three
        # good borders
        real = f_poly

        def crooked(p, n, r):
            base = real(p, n, r)
            return base + 1 if (n, r) == (4, 0) else base

        crooked_walks(crooked)
        for n in (6, 3, 5):
            with pytest.raises(IdentityViolation):
                hankel_det(HankelSpec(3, 1, n))
            assert len(hankel_mod._ladder(3, 1)._upper) == 3, n
        for n in range(3):
            spec = HankelSpec(3, 1, n)
            assert hankel_det(spec) == hankel_product(spec), n


# the LGV grid: n = -1..2 at p = 2, 3, and the empty system at p = 4
_LGV_SPECS = [HankelSpec(p, m, n) for p in (2, 3) for m in range(p)
              for n in range(-1, 3)] + [HankelSpec(4, m, -1) for m in range(4)]


class TestLGV:
    def test_graph_geometry(self):
        sources, sinks = _ends(HankelSpec(3, 1, 1))
        assert sinks == [(0, 0), (3, 0)]
        assert sources == [(-1, 1), (-3, 0)]

    def test_signed_sum_is_determinant(self):
        # at n = -1 the one empty permutation, of sign 1, gives 1
        for spec in _LGV_SPECS:
            assert lgv_signed_sum(spec) == hankel_det(spec), spec

    def test_disjoint_system_unique_with_product_weight(self):
        # at n = -1 the empty path system is the one disjoint system
        for spec in _LGV_SPECS:
            count, weight = nilp_unique(spec)
            assert count == 1, spec
            assert weight == hankel_product(spec), spec

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            lgv_signed_sum(HankelSpec(3, 0, 4))
        with pytest.raises(ValueError):
            nilp_unique(HankelSpec(3, 0, 4))

    def test_corruption_breaks_uniqueness_contract(self, monkeypatch):
        # collapsing the sinks onto one vertex kills every disjoint system
        spec = HankelSpec(2, 0, 1)
        sources, sinks = _ends(spec)
        monkeypatch.setattr(hankel_mod, "_ends",
                            lambda s: (sources, [sinks[-1]] * 2))
        with pytest.raises(NonUniqueNILP):
            nilp_unique(spec)


class TestEngineAgreement:
    def test_elimination_matches_leibniz(self):
        # every pivot of a banded Hankel matrix is a single term, so plain
        # elimination never refuses: its determinant is the weight product,
        # and the Leibniz expansion's up to 3x3
        specs = [HankelSpec(p, m, n) for p in (2, 3, 4) for m in range(p)
                 for n in range(5)] + [HankelSpec(3, 1, 5)]
        for spec in specs:
            rows = hankel_matrix(spec)
            det = _props.eliminated(rows)
            assert det == hankel_product(spec), spec
            if spec.n <= 2:
                assert det == _props.perm_expansion_det(rows), spec

    def test_large_determinants_collapse(self):
        # both by plain elimination, without the shift recurrence
        for spec in (HankelSpec(2, 0, 8), HankelSpec(3, 1, 6)):
            rows = hankel_matrix(spec)
            got = algebra._Minors(lambda i, j: rows[i][j]).minor(spec.n)
            assert got == hankel_product(spec), spec

    def test_ladder_grid_without_fallback(self):
        # n ascending: each determinant borders the one before on its ladder
        hankel_mod._ladder.cache_clear()
        for p in (2, 3, 4):
            for m in range(p):
                for n in range(-1, 6):
                    spec = HankelSpec(p, m, n)
                    assert hankel_det(spec) == hankel_product(spec), spec

    def test_shift_recurrence_matches_elimination(self):
        # from row p-1 on, the ladder's U rows come from the shift
        # recurrence and read no entry; LU factors are unique, so U, and
        # with it every minor, is the one plain elimination gives
        for p, n_max in ((2, 7), (3, 5), (4, 4)):
            for m in range(p):
                rows_read = set()
                shifted = hankel_mod._banded(p, m, partial(hankel_mod._walks, p))
                entry = shifted._entry

                def spy(i, j, entry=entry):
                    rows_read.add(i)
                    return entry(i, j)
                shifted._entry = spy
                plain = algebra._Minors(entry)
                for n in range(n_max + 1):
                    assert shifted.minor(n) == plain.minor(n), (p, m, n)
                rows = hankel_matrix(HankelSpec(p, m, n_max))
                assert shifted.minor(n_max) == algebra._Minors(
                    lambda i, j: rows[i][j]).minor(n_max), (p, m)
                assert rows_read == set(range(p - 1)), (p, m)
                for k in range(n_max + 1):
                    mine, theirs = shifted._upper[k], plain._upper[k]
                    for c in mine.keys() & theirs.keys():
                        assert mine[c] == theirs[c], (p, m, k, c)

    def test_integer_images_of_the_collapse(self, monkeypatch):
        # V_h -> the h-th prime is a ring map to the integers: each cell is
        # a walk DP over ints, and every minor of the production ladder,
        # shift recurrence and all, is the image of its weight product,
        # far past the sizes the polynomial ladders reach; recover_vi's
        # ratio of four of those minors is then the image of V_i
        primes = [0, *_primes(120)]  # primes[h] is the h-th prime
        for p, n_max in ((2, 30), (3, 25), (4, 20), (5, 15)):
            @cache
            def cell(n, r, p=p):
                return _Z(_weight_dp(p, n * p + r, r, 0, primes.__getitem__, 1))
            ladders = [hankel_mod._banded(p, m, cell) for m in range(p)]
            for m, ladder in enumerate(ladders):
                for n in range(n_max + 1):
                    want = hankel_product(HankelSpec(p, m, n))
                    assert ladder.minor(n) == _props.evaluate(want, primes, {}, 1), \
                        (p, m, n)

            def det(spec, ladders=ladders):
                return ladders[spec.m].minor(spec.n) if spec.n >= 0 else _Z(1)
            monkeypatch.setattr(hankel_mod, "hankel_det", det)
            # V_i reads minor i // p at most, so i stops short of p*(n_max+1)
            for i in range(1, p * (n_max + 1)):
                assert recover_vi(p, i) == primes[i], (p, i)

    def test_seven_by_seven(self):
        # L*U with constant multipliers and single-term pivots, its entries
        # up to four terms: the ladder gives the Leibniz expansion
        rng = Random(7)
        zero, one = MultiPoly.zero(), MultiPoly.one()

        def small():
            return V(rng.randint(1, 3)) * rng.randint(-2, 2) \
                + MultiPoly.const(rng.randint(0, 2))
        lower = [[one if i == k else MultiPoly.const(rng.randint(-2, 2))
                  if k < i else zero for k in range(7)] for i in range(7)]
        upper = [[V(rng.randint(1, 3)) * rng.choice((-1, 1)) if k == j
                  else small() if k < j else zero for j in range(7)]
                 for k in range(7)]
        rows = [[sum((lower[i][k] * upper[k][j] for k in range(7)), zero)
                 for j in range(7)] for i in range(7)]
        det = algebra._Minors(lambda i, j: rows[i][j]).minor(6)
        assert det == _props.perm_expansion_det(rows)
        assert not det.is_zero()


class TestWalkLU:
    # the ladders against their walk-sum LU: an oracle that shares neither
    # the excursion cells nor the elimination, and checks every U cell the
    # ladder has made, the far columns only the shift recurrence reads too
    @pytest.mark.parametrize("p, m, n", [(2, 0, 5), (3, 1, 5), (3, 2, 4),
                                         (4, 2, 5), (5, 3, 4)])
    def test_ladder_is_the_walk_lu(self, p, m, n):
        ladder = hankel_mod._banded(p, m, partial(hankel_mod._walks, p))
        ladder.minor(n)
        cols = 1 + max(c for row in ladder._upper for c in row)
        one = MultiPoly.one()
        lower, upper = _walk_lu(p, m, n + 1, cols, V, one)
        rows = hankel_matrix(HankelSpec(p, m, n))
        _check_walk_lu(ladder, n, lambda i, c: rows[i][c], lower, upper, one)

    @pytest.mark.parametrize("p, m, n", [(3, 1, 30), (4, 2, 20)])
    def test_integer_image(self, p, m, n):
        # V_h -> the h-th prime, in plain ints: rows far past the sizes the
        # polynomial ladders reach
        primes = [0, *_primes(160)]  # primes[h] is the h-th prime
        weight = primes.__getitem__

        @cache
        def cell(k, r):
            return _Z(_weight_dp(p, k * p + r, r, 0, weight, 1))

        def walks(i, c):
            # entry (i, c) of the matrix: the walks from source i to sink c
            q, r = qr(m + i, p)
            return cell(q + c, r)
        ladder = hankel_mod._banded(p, m, cell)
        ladder.minor(n)
        cols = 1 + max(c for row in ladder._upper for c in row)
        lower, upper = _walk_lu(p, m, n + 1, cols, weight, 1)
        _check_walk_lu(ladder, n, walks, lower, upper, 1)
