from random import Random

import pytest

from constel.algebra import (MultiPoly, NonUnitConstant, NotDivisible,
                             XSeries, _Minors)

import _props

V = MultiPoly.v_var
X = MultiPoly.x_var
C = MultiPoly.const
ORDER = 4
ok = _props.ok


def S(k):
    return XSeries.var(k, ORDER)


def term(v=None, x=None, coeff=1) -> MultiPoly:
    return MultiPoly.from_terms([((v, x), coeff)])


class TestMonomial:
    # a monomial is the pair (v, x): made by from_terms, read by sorted_terms
    def test_make_normalizes(self):
        # mappings or (index, exp) pairs; zero exponents vanish, repeats add
        assert term({1: 2, 3: 0}, {2: 1}) == V(1, 2) * X(2)
        assert term([(3, 0), (1, 1), (1, 1)], [(2, 1)]) == V(1, 2) * X(2)
        assert term() == term({}, []) == MultiPoly.one()

    def test_make_rejects_bad_indices(self):
        for v, x in (({0: 1}, None), ({1: -1}, None), (None, {0: 1}),
                     (None, [(1, -1)])):
            with pytest.raises(ValueError):
                term(v, x)

    def test_degree_and_text(self):
        m = term({1: 2, 2: 1}, {3: 1})
        assert m.total_degree() == 4
        assert str(m) == "V1^2*V2*x3"
        assert str(term()) == "1"

    def test_order_grades_by_degree_then_word(self):
        # degree dominates; within a degree V letters precede x letters
        p = V(1) * V(2) + V(1, 2) + X(1) + V(3) + V(2)
        assert [m for m, _ in p.sorted_terms()] == [
            (((2, 1),), ()), (((3, 1),), ()), ((), ((1, 1),)),
            (((1, 2),), ()), (((1, 1), (2, 1)), ())]
        assert str(p) == "V2 + V3 + x1 + V1^2 + V1*V2"


class TestMultiPoly:
    def test_text_fixtures(self):
        assert str(MultiPoly.zero()) == "0"
        assert str(MultiPoly.one()) == "1"
        assert str(C(-1)) == "-1"
        assert str(MultiPoly.one() + V(1)) == "1 + V1"
        assert str(V(2) - 3 * V(1, 2)) == "V2 - 3*V1^2"
        assert str(V(1) * V(2) * 2 - X(1)) == "-x1 + 2*V1*V2"

    def test_accessors(self):
        p = 2 * V(1, 2) + X(1) - 5
        assert p.nterms == 3
        assert p.constant_term() == -5
        assert p.sorted_terms() == [(((), ()), -5), (((), ((1, 1),)), 1),
                                    ((((1, 2),), ()), 2)]
        assert p.total_degree() == 2
        assert not p.is_zero()
        assert MultiPoly.zero().is_zero()

    def test_from_terms_merges_and_drops_zeros(self):
        m = ({1: 1}, None)
        p = MultiPoly.from_terms([(m, 2), (m, -2), (((), ()), 5)])
        assert p == C(5) and p.nterms == 1

    def test_pow(self):
        p = V(1) + 1
        assert p ** 0 == MultiPoly.one()
        assert p ** 2 == V(1, 2) + 2 * V(1) + 1
        with pytest.raises(ValueError):
            p ** -1

    def test_exact_div_fixture(self):
        num = 6 * V(1, 2) * V(2) - 4 * V(1) * X(1)
        assert num.exact_div(-2 * V(1)) == 2 * X(1) - 3 * V(1) * V(2)
        assert MultiPoly.zero().exact_div(V(3)) == MultiPoly.zero()

    def test_exact_div_errors(self):
        with pytest.raises(ZeroDivisionError):
            V(1).exact_div(MultiPoly.zero())
        # V1^2 - V2^2 = (V1 - V2)(V1 + V2), but the divisor has two terms
        with pytest.raises(NotDivisible):
            (V(1, 2) - V(2, 2)).exact_div(V(1) - V(2))
        with pytest.raises(NotDivisible):
            (V(1) + 1).exact_div(V(2))
        with pytest.raises(NotDivisible):
            (V(1) * V(2) + V(1, 2)).exact_div(V(2))
        with pytest.raises(NotDivisible):
            V(1).exact_div(C(2))

    def test_json_shape(self):
        data = (2 * V(1) * X(2)).to_json()
        assert data == [{"coeff": "2", "V": {"1": 1}, "x": {"2": 1}}]
        assert MultiPoly.from_json(data) == 2 * V(1) * X(2)


@pytest.mark.parametrize("c", [0, 1, -1, 3])
def test_constants_hash_as_their_int(c):
    # a constant of either ring equals its int, so a set or dict finds it
    # by that int, and the int by it
    for const in (C(c), XSeries.const(c, ORDER)):
        assert const == c and hash(const) == hash(c)
        assert c in {const} and const in {c}
        assert {c: c}[const] == c


def test_bool_constants_store_an_int():
    # True is an int to isinstance, but "True" is no JSON coefficient
    for got, want in ((C(True), C(1)), (C(True) + 0, C(1)),
                      (V(1) + True, V(1) + 1),
                      (XSeries.const(True, 2), XSeries.const(1, 2))):
        assert _props.ok(got) == want
        assert type(got).from_json(got.to_json()) == want
    with pytest.raises(AssertionError):
        MultiPoly({0: True})._check()


class TestXSeries:
    def test_basics(self):
        s = XSeries.var(1, 5)
        assert s.coeff({1: 1}) == 1 and s.coeff({1: 2}) == 0
        assert _props.valuation(s * s) == 2
        assert _props.valuation(XSeries.zero(3)) is None
        assert s.truncate(2).order == 2
        with pytest.raises(ValueError):
            s.truncate(9)
        zero = XSeries.zero(3)
        assert s.nterms == 1 and not s.is_zero() and s.constant_term() == 0 and s
        assert zero.nterms == 0 and zero.is_zero() and zero.constant_term() == 0
        assert not zero

    def test_equality_includes_order(self):
        assert XSeries.const(1, 3) != XSeries.const(1, 4)

    def test_rings_never_mix(self):
        # a polynomial and a series refuse each other's operands
        v1, s = MultiPoly.v_var(1), XSeries.var(1, 3)
        for left, right in ((v1, s), (s, v1), ("a", s)):
            with pytest.raises(TypeError, match="for -:"):
                left - right
        with pytest.raises(TypeError):
            v1 + s
        with pytest.raises(TypeError):
            s * v1
        assert (v1 == s) is False and (s == v1) is False

    def test_truncating_arithmetic(self):
        a = XSeries.var(1, 5)
        b = XSeries.var(1, 2)
        assert (a + b).order == 2
        assert (a * b).order == 2

    def test_inv_fixture(self):
        order = 6
        s = XSeries.const(1, order) - XSeries.var(1, order)
        geo = s.inv()
        assert _props.univar_coeffs(geo) == [1] * (order + 1)
        assert s * geo == XSeries.const(1, order)

    def test_inv_requires_unit(self):
        with pytest.raises(NonUnitConstant):
            (XSeries.const(2, 3)).inv()
        with pytest.raises(NonUnitConstant):
            XSeries.var(1, 3).inv()

    def test_json_shape(self):
        s = XSeries.var(1, 2) * 3 + 1
        data = s.to_json()
        assert data["truncation_order"] == 2
        assert XSeries.from_json(data) == s

    def test_text_and_terms_in_the_polynomial_order(self):
        # text, JSON and sorted_terms read MultiPoly's canonical order, in
        # several x as in one: x1^2 before x1*x2 before x2^2
        assert str((S(1) + S(2)) ** 2) == "x1^2 + 2*x1*x2 + x2^2"
        for make in (lambda a, b, c: (a + b) ** 2,
                     lambda a, b, c: 3 * a * c - b ** 3 + a * b * c + 2 - c):
            series, poly = make(S(1), S(2), S(3)), make(X(1), X(2), X(3))
            assert str(series) == str(poly)
            assert series.sorted_terms() == [(x, c) for (_, x), c in poly.sorted_terms()]
            assert [t["x"] for t in series.to_json()["terms"]] == \
                [t["x"] for t in poly.to_json()]

    def test_from_json_sums_terms_within_the_order(self):
        data = {"truncation_order": 2, "terms": [
            {"coeff": "2", "x": {"1": 1}}, {"coeff": "-2", "x": {"1": 1}},
            {"coeff": "3", "x": {"1": 1, "2": 1}}, {"coeff": "4", "x": {"2": 3}},
            {"coeff": "5", "x": {}}, {"coeff": "1", "x": {}}]}
        got = _props.ok(XSeries.from_json(data))
        assert got == 6 + 3 * XSeries.var(1, 2) * XSeries.var(2, 2)


class TestPowerMemo:
    """``XSeries.pow`` keeps each power and the inverse on its series."""

    @staticmethod
    def repeated(s: XSeries, e: int) -> XSeries:
        out = XSeries.const(1, s.order)
        for _ in range(e):
            out = out * s
        return out

    @pytest.mark.parametrize("nvars", [1, 2], ids=["univariate", "multivariate"])
    def test_pow_matches_repeated_multiplication(self, nvars):
        rng = Random(230 + nvars)
        for _ in range(25):
            s = _props.rand_series(rng, rng.randint(2, 8), max_terms=5, nvars=nvars)
            # out of order first, so that later powers read kept sub-powers
            for e in (7, 3, 12, 7, *range(13)):
                assert _props.ok(s.pow(e)) == self.repeated(s, e), (s, e)
            assert s.pow(7) is s.pow(7) and s ** 12 is s.pow(12)

    @pytest.mark.parametrize("nvars", [1, 2], ids=["univariate", "multivariate"])
    def test_negative_pow_is_the_inverse_repeated(self, nvars):
        rng = Random(240 + nvars)
        for _ in range(25):
            order = rng.randint(2, 8)
            s = _props.rand_series(rng, order, nvars=nvars) * XSeries.var(1, order) \
                + rng.choice((1, -1))
            for e in (5, 2, 9, 5, 1):
                assert _props.ok(s.pow(-e)) == self.repeated(s.inv(), e), (s, e)
            assert s.inv() is s.pow(-1) and s.pow(-3) is s.inv().pow(3)
            assert s.pow(-4) * s.pow(4) == XSeries.const(1, order)

    def test_each_power_is_made_once(self, monkeypatch):
        real, made = XSeries.__mul__, []

        def counted(a, b):
            made.append(1)
            return real(a, b)
        monkeypatch.setattr(XSeries, "__mul__", counted)
        s = XSeries.const(1, 6) + S(1) - 2 * S(2)
        first = s.pow(12)  # s^3 = s^2 * s, s^6, s^12: four products
        assert len(made) == 4
        assert s.pow(12) is first and s ** 12 is first
        made.clear()
        s.pow(3), s.pow(6), s.pow(7)  # only s^7 = (s^3)^2 * s is new
        assert len(made) == 2
        inverse = s.inv()
        assert s.pow(-1) is inverse and s.pow(-6) is inverse.pow(6)

    def test_no_failure_is_kept(self):
        s = XSeries.const(2, 4) + XSeries.var(1, 4)
        for _ in range(2):
            with pytest.raises(NonUnitConstant):
                s.inv()
        for _ in range(2):
            with pytest.raises(NonUnitConstant):
                s.pow(-2)
        assert s.pow(2) == s * s

    def test_equality_and_hash_ignore_the_memo(self):
        rng = Random(25)
        for _ in range(25):
            order = rng.randint(2, 6)
            s = _props.rand_series(rng, order) * XSeries.var(2, order) + 1
            twin = XSeries.from_json(s.to_json())
            before = hash(s)
            s.pow(5), s.pow(-3), s.inv()
            assert s == twin and twin == s
            assert hash(s) == hash(twin) == before
            assert len({s, twin}) == 1
            assert s.pow(5) == twin.pow(5)


def key_of(poly: MultiPoly) -> int:
    (key,) = poly._terms
    return key


class TestCanonicalCheck:
    def test_canonical_terms_pass(self):
        poly = 3 * V(1) * X(2) ** 2 - 1
        assert poly._check() is poly
        series = S(1) * S(2) + 1
        assert series._check() is series

    @pytest.mark.parametrize("terms", [
        {key_of(V(1)): 0},                 # a zero coefficient
        {key_of(V(1)): 1.5},               # a coefficient that is no int
        {key_of(V(1)): 2, -1: 1},          # a negative key
        {(1 << 16) | 2: 1},                # field sum 1, degree 2: a carry
    ])
    def test_poly_rejects(self, terms):
        with pytest.raises(AssertionError):
            MultiPoly(terms)._check()

    @pytest.mark.parametrize("order, terms", [
        (2, {key_of(X(1, 3)): 1}),         # a term past the order
        (4, {key_of(V(1)): 1}),            # a V field in a series key
        (4, {key_of(X(1)): 0}),            # a zero coefficient
        (4, {(1 << 32) | 2: 1}),           # a carried key
    ])
    def test_series_rejects(self, order, terms):
        with pytest.raises(AssertionError):
            XSeries(order, terms)._check()


def known(poly: MultiPoly) -> MultiPoly:
    poly.total_degree()  # caches the degree, as a product's operands have it
    return poly


def top_part(poly: MultiPoly) -> MultiPoly:
    deg = poly.total_degree()
    return MultiPoly.from_terms(
        (m, c) for m, c in poly.sorted_terms()
        if sum(e for part in m for _, e in part) == deg)


class TestCarriedDegree:
    """A sum or product carries a degree only when it is the one a fresh
    scan finds; ``_props.ok`` compares the two."""

    def test_cancellations_drop_the_degree(self):
        head = known(X(1, 2) + X(1))
        assert head._deg == 2
        total = ok(head + known(-X(1, 2)))  # the top degree cancels alone
        assert total == X(1) and total._deg is None
        assert total.total_degree() == 1
        assert ok(head - head)._deg is None and (head - head).is_zero()
        assert ok(known(V(1) - V(2)) + known(V(2)))._deg is None

    def test_sums_without_cancellation_keep_the_larger_degree(self):
        low, high = known(V(1) + 3), known(2 * V(1) * V(2))
        assert ok(low + high)._deg == ok(high - low)._deg == 2
        assert ok(low + low)._deg == 1  # coefficients double, none cancels
        assert ok(V(1) + high)._deg is None  # an operand of unknown degree

    def test_zero_operands(self):
        zero, a = known(MultiPoly.zero()), known(3 * V(2) ** 2 - X(1))
        for result in (zero + a, a + zero, a - zero, zero - a, zero + zero,
                       zero * a, a * zero, zero * zero):
            ok(result)
        assert (zero + a)._deg == (zero - a)._deg == 2
        assert (zero + zero)._deg == 0

    def test_one_term_products_match_the_naive_product(self):
        rng = Random(1111)
        for _ in range(150):
            a = _props.rand_poly(rng)
            b = MultiPoly.from_terms([(_props.rand_monomial(rng),
                                       rng.choice((-6, -2, -1, 1, 3, 7)))])
            if rng.random() < 0.5:
                known(a)
            for prod in (ok(a * b), ok(b * a), ok(a * known(b))):
                assert _props.t_poly(prod) == _props.t_mul(_props.t_poly(a),
                                                           _props.t_poly(b))

    def test_random_sums_and_products(self):
        rng = Random(1212)
        for _ in range(150):
            a, b = (_props.rand_poly(rng) for _ in range(2))
            if rng.random() < 0.7:
                known(a), known(b)
            for c in (a, b, a * b, a - top_part(a), a + top_part(b)):
                ok(c)
                ok(c + a), ok(c - a), ok(c - c), ok(c * b), ok(known(c) * a)


def full_minor(rows):
    # the determinant: the last leading minor of one ladder over the rows
    return _Minors(lambda i, j: rows[i][j]).minor(len(rows) - 1)


class TestDeterminants:
    def test_two_by_two(self):
        # the multiplier a*c / a stays in the ring
        a, b, c, d = V(1), V(2), V(3), V(4)
        rows = [[a, b], [a * c, d]]
        assert full_minor(rows) == a * d - a * b * c
        assert full_minor(rows) == _props.perm_expansion_det(rows)

    def test_identity_and_zero_row(self):
        one, zero = MultiPoly.one(), MultiPoly.zero()
        eye = [[one if i == j else zero for j in range(3)] for i in range(3)]
        assert full_minor(eye) == one
        eye[2] = [zero, zero, zero]
        assert full_minor(eye) == zero
        # a zero pivot before the last has no divider: the ladder gives the
        # zero minor it ends, and refuses every minor past it
        eye[1], eye[2] = eye[2], [zero, zero, one]
        ladder = _Minors(lambda i, j: eye[i][j])
        assert ladder.minor(1) == zero
        with pytest.raises(NotDivisible):
            ladder.minor(2)

    def test_engines_agree_on_5x5(self):
        # L*U with two-term multipliers and single-term pivots: every
        # leading minor of the ladder is the Leibniz expansion of its block
        zero = MultiPoly.zero()
        lower = [[C(1) if i == k else V((i + k) % 3 + 1) + C(i * k % 4)
                  if k < i else zero for k in range(5)] for i in range(5)]
        upper = [[V(k + 1) if k == j else V((k + j) % 3 + 1) + C(k * j % 4)
                  if k < j else zero for j in range(5)] for k in range(5)]
        rows = [[sum((lower[i][k] * upper[k][j] for k in range(5)), zero)
                 for j in range(5)] for i in range(5)]
        assert _props.ladder_matches_leibniz(rows, MultiPoly.one())

    @pytest.mark.parametrize("pivot, below", [
        (C(0), V(1)),              # zero pivot
        (V(1) + V(2), V(3)),       # two-term pivot
        (V(2), V(1)),              # pivot monomial does not divide
        (V(1) * 3, V(1) * 2),      # pivot coefficient does not divide
        (S(1), S(2)),              # series pivot, constant term 0
        (S(1) + 2, S(2)),          # series pivot, constant term 2
    ])
    def test_elimination_falls_back_unchanged(self, pivot, below):
        # step 0 eliminates on the unit pivot and leaves `pivot` at (1, 1)
        # over `below`, where step 2 has to give up with the ring's error;
        # the single terms var(5) and var(1) left in column 2 would let a
        # step 2 that went on end in a wrong single-term product
        if isinstance(pivot, MultiPoly):
            var, one, error = V, MultiPoly.one(), NotDivisible
        else:
            var, one, error = S, XSeries.const(1, ORDER), NonUnitConstant
        rows = [[one, var(2), var(3)],
                [var(4), var(4) * var(2) + pivot, var(4) * var(3) + var(5)],
                [var(6), var(6) * var(2) + below, var(6) * var(3) + var(1)]]
        before = [[dict(e._terms) for e in row] for row in rows]
        ladder = _Minors(lambda i, j: rows[i][j])
        with pytest.raises(error):
            ladder.minor(2)
        assert [[e._terms for e in row] for row in rows] == before
        assert ladder.minor(0) == _props.perm_expansion_det([[rows[0][0]]], one)

    @pytest.mark.parametrize("last", [V(1) + V(2), S(1) + 2])
    def test_last_pivot_needs_no_divider(self, last):
        # L*U with unit pivots but the last, which has no divider: bordered
        # elimination never divides by the last pivot, so it needs none
        if isinstance(last, MultiPoly):
            var, one, zero = V, MultiPoly.one(), MultiPoly.zero()
        else:
            var, one, zero = S, XSeries.const(1, ORDER), XSeries.zero(ORDER)
        lower = [[one, zero, zero], [var(1), one, zero], [var(2), var(3), one]]
        upper = [[one, var(4), var(5)], [zero, -one, var(6)], [zero, zero, last]]
        rows = [[sum((lower[i][k] * upper[k][j] for k in range(3)), zero)
                 for j in range(3)] for i in range(3)]
        assert _Minors(lambda i, j: rows[i][j]).minor(2) == -last

    def test_border_that_raises_leaves_ladder_unchanged(self):
        # border 1 refuses, on every request for minor(1) or past it, with
        # the ring's own error; the ladder keeps border 0 as it was, and
        # still answers minor(0)
        def state(ladder):
            # everything a ladder keeps, copied
            return ([dict(row) for row in ladder._upper], list(ladder._lower),
                    list(ladder.minors))
        for pivot, below, error in (
                (V(1) + V(2), V(3), NotDivisible),    # two-term pivot
                (V(2), V(1), NotDivisible),           # inexact multiplier
                (S(1) + 2, S(2), NonUnitConstant)):   # series, constant 2
            one = pivot ** 0
            rows = [[pivot, one, one], [below, one, one], [one, one, one]]
            ladder = _Minors(lambda i, j: rows[i][j])
            assert ladder.minor(0) == pivot
            before = state(ladder)
            for n in (1, 2, 1):
                with pytest.raises(error):
                    ladder.minor(n)
                assert state(ladder) == before, (pivot, n)
            assert ladder.minor(0) == pivot


# randomized suites; counts well above the hundred-case floor
def test_prop_ring_laws():
    assert _props.check_ring_laws(seed=101, cases=150) >= 100


def test_prop_exact_div():
    assert _props.check_exact_div(seed=202, cases=120) >= 100


def test_prop_det_oracle():
    assert _props.check_det_oracle(seed=303, cases=120) >= 100


def test_prop_lu_elimination():
    assert _props.check_lu_elimination(seed=707, cases=120) >= 100


def test_prop_ladder_minors():
    assert _props.check_ladder_minors(seed=909, cases=120) >= 100


def test_prop_series_lu_elimination():
    assert _props.check_series_lu_elimination(seed=808, cases=120) >= 100


def test_prop_series_inv():
    assert _props.check_series_inv(seed=404, cases=120) >= 100


def test_prop_layered_ring():
    assert _props.check_layered_ring(seed=1010, cases=120) >= 100


def test_prop_weight_dp_evaluates():
    assert _props.check_weight_dp_evaluates(seed=505, cases=120) >= 100


def test_prop_json_roundtrip():
    assert _props.check_json_roundtrip(seed=606, cases=120) >= 100
