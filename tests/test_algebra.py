import pytest

from constel.algebra import (Monomial, MultiPoly, NonSquare, NonUnitConstant,
                             NotDivisible, UnassignedVariable, XSeries,
                             _det_cofactor, _det_eliminate, det_elements)

import _props

V = MultiPoly.v_var
X = MultiPoly.x_var
C = MultiPoly.const
ORDER = 4


def S(k):
    return XSeries.var(k, ORDER)


class TestMonomial:
    def test_make_normalizes(self):
        assert Monomial.make({1: 2, 3: 0}, {2: 1}) == Monomial.make({1: 2}, {2: 1})
        assert Monomial.make() == Monomial.make({}, {})

    def test_make_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            Monomial.make({0: 1})
        with pytest.raises(ValueError):
            Monomial.make({1: -1})

    def test_degree_and_text(self):
        m = Monomial.make({1: 2, 2: 1}, {3: 1})
        assert m.degree == 4
        assert m.text() == "V1^2*V2*x3"
        assert Monomial.make().text() == "1"

    def test_multiply_divide(self):
        a = Monomial.make({1: 1, 2: 2})
        b = Monomial.make({2: 1}, {1: 1})
        ab = a * b
        assert ab == Monomial.make({1: 1, 2: 3}, {1: 1})
        assert ab.divide(b) == a
        assert b.divide(a) is None

    def test_order_grades_by_degree_then_word(self):
        # degree dominates; within a degree V letters precede x letters
        assert Monomial.make({2: 1}) < Monomial.make({1: 2})
        assert Monomial.make({1: 2}) < Monomial.make({1: 1, 2: 1})
        assert Monomial.make({3: 1}) < Monomial.make(x={1: 1})
        assert sorted([Monomial.make({1: 1, 2: 1}), Monomial.make({1: 2})]) \
            == [Monomial.make({1: 2}), Monomial.make({1: 1, 2: 1})]


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
        assert p.coefficient(Monomial.make({1: 2})) == 2
        assert p.coefficient(Monomial.make({9: 1})) == 0
        assert p.v_indices() == {1}
        assert p.x_indices() == {1}
        assert p.total_degree() == 2
        assert not p.is_zero()
        assert MultiPoly.zero().is_zero()

    def test_from_terms_merges_and_drops_zeros(self):
        m = Monomial.make({1: 1})
        p = MultiPoly.from_terms([(m, 2), (m, -2), (Monomial.make(), 5)])
        assert p == C(5) and p.nterms == 1

    def test_pow(self):
        p = V(1) + 1
        assert p ** 0 == MultiPoly.one()
        assert p ** 2 == V(1, 2) + 2 * V(1) + 1
        with pytest.raises(ValueError):
            p ** -1

    def test_exact_div_fixture(self):
        num = V(1, 2) - V(2, 2)
        assert num.exact_div(V(1) - V(2)) == V(1) + V(2)

    def test_exact_div_errors(self):
        with pytest.raises(ZeroDivisionError):
            V(1).exact_div(MultiPoly.zero())
        with pytest.raises(NotDivisible):
            (V(1) + 1).exact_div(V(2))
        with pytest.raises(NotDivisible):
            V(1).exact_div(C(2))

    def test_json_shape(self):
        data = (2 * V(1) * X(2)).to_json()
        assert data == [{"coeff": "2", "V": {"1": 1}, "x": {"2": 1}}]
        assert MultiPoly.from_json(data) == 2 * V(1) * X(2)


class TestSubstitute:
    def test_infers_order_from_assignments(self):
        s = V(1).substitute({1: XSeries.var(1, 4) + 1})
        assert s.order == 4 and s == XSeries.var(1, 4) + 1

    def test_order_is_min_of_used(self):
        v_assign = {1: XSeries.var(1, 6), 2: XSeries.var(1, 3)}
        assert (V(1) * V(2)).substitute(v_assign).order == 3

    def test_missing_assignment_raises(self):
        with pytest.raises(UnassignedVariable):
            V(7).substitute({1: XSeries.var(1, 3)})
        with pytest.raises(UnassignedVariable):
            X(2).substitute({}, {1: XSeries.var(1, 3)})

    def test_constant_needs_explicit_order(self):
        with pytest.raises(ValueError):
            C(3).substitute({})
        assert C(3).substitute({}, order=2) == XSeries.const(3, 2)


class TestXSeries:
    def test_basics(self):
        s = XSeries.var(1, 5)
        assert s.coeff({1: 1}) == 1 and s.coeff({1: 2}) == 0
        assert (s * s).valuation() == 2
        assert XSeries.zero(3).valuation() is None
        assert s.truncate(2).order == 2
        with pytest.raises(ValueError):
            s.truncate(9)

    def test_equality_includes_order(self):
        assert XSeries.const(1, 3) != XSeries.const(1, 4)
        assert XSeries.const(1, 3).agrees_through(XSeries.const(1, 4), 3)

    def test_truncating_arithmetic(self):
        a = XSeries.var(1, 5)
        b = XSeries.var(1, 2)
        assert (a + b).order == 2
        assert (a * b).order == 2

    def test_inv_fixture(self):
        order = 6
        s = XSeries.const(1, order) - XSeries.var(1, order)
        geo = s.inv()
        assert geo.univar_coeffs(1) == [1] * (order + 1)
        assert s * geo == XSeries.const(1, order)

    def test_inv_requires_unit(self):
        with pytest.raises(NonUnitConstant):
            (XSeries.const(2, 3)).inv()
        with pytest.raises(NonUnitConstant):
            XSeries.var(1, 3).inv()

    def test_univar_guard(self):
        s = XSeries.var(1, 3) + XSeries.var(2, 3)
        with pytest.raises(ValueError):
            s.univar_coeffs(1)

    def test_json_shape(self):
        s = XSeries.var(1, 2) * 3 + 1
        data = s.to_json()
        assert data["truncation_order"] == 2
        assert XSeries.from_json(data) == s


class TestDeterminants:
    def test_two_by_two(self):
        a, b, c, d = V(1), V(2), V(3), V(4)
        got = det_elements([[a, b], [c, d]])
        assert got == a * d - b * c

    def test_identity_and_zero_row(self):
        one, zero = MultiPoly.one(), MultiPoly.zero()
        eye = [[one if i == j else zero for j in range(3)] for i in range(3)]
        assert det_elements(eye) == one
        eye[1] = [zero, zero, zero]
        assert det_elements(eye) == zero

    def test_non_square_and_ragged(self):
        for rows in ([[V(1), V(2)]], [[V(1), V(2)], [V(3)]],
                     [[V(1)], [V(2), V(3)]]):
            with pytest.raises(NonSquare):
                det_elements(rows)

    def test_empty_matrix(self):
        # callers return their ring's one for the empty matrix themselves
        with pytest.raises(NonSquare):
            det_elements([])

    def test_engines_agree_on_5x5(self):
        rows = [[V((i + j) % 3 + 1) + C(i * j % 4) for j in range(5)]
                for i in range(5)]
        want = _props.perm_expansion_det(rows)
        assert det_elements(rows) == want
        assert _det_cofactor(rows) == want

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
        # over `below`, where step 1 has to give up; the single terms var(5)
        # and var(1) left in column 2 would let a step 1 that went on end in
        # a wrong single-term product
        if isinstance(pivot, MultiPoly):
            var, one = V, MultiPoly.one()
        else:
            var, one = S, XSeries.const(1, ORDER)
        rows = [[one, var(2), var(3)],
                [var(4), var(4) * var(2) + pivot, var(4) * var(3) + var(5)],
                [var(6), var(6) * var(2) + below, var(6) * var(3) + var(1)]]
        before = [[dict(e._terms) for e in row] for row in rows]
        assert _det_eliminate(rows) is None
        got = det_elements(rows)
        assert got == _det_cofactor(rows)
        assert got == _props.perm_expansion_det(rows, one)
        assert [[e._terms for e in row] for row in rows] == before


# randomized suites; counts well above the hundred-case floor
def test_prop_ring_laws():
    assert _props.check_ring_laws(seed=101, cases=150) >= 100


def test_prop_exact_div():
    assert _props.check_exact_div(seed=202, cases=120) >= 100


def test_prop_det_oracle():
    assert _props.check_det_oracle(seed=303, cases=120) >= 100


def test_prop_lu_elimination():
    assert _props.check_lu_elimination(seed=707, cases=120) >= 100


def test_prop_series_lu_elimination():
    assert _props.check_series_lu_elimination(seed=808, cases=120) >= 100


def test_prop_series_inv():
    assert _props.check_series_inv(seed=404, cases=120) >= 100


def test_prop_substitute_morphism():
    assert _props.check_substitute_morphism(seed=505, cases=120) >= 100


def test_prop_json_roundtrip():
    assert _props.check_json_roundtrip(seed=606, cases=120) >= 100
