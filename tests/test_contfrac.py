import _props
import pytest

from constel.algebra import (ExponentOverflow, Monomial, MultiPoly,
                             _sum_products)
from constel.contfrac import TSeries, expand_f, expand_fraction
from constel.paths import f_poly

V = MultiPoly.v_var


def shift_indices(poly: MultiPoly, s: int) -> MultiPoly:
    """Rename every V_i to V_{i+s}."""
    pairs = []
    for mono, c in poly.sorted_terms():
        moved = Monomial.make({i + s: e for i, e in mono.v}, dict(mono.x))
        pairs.append((moved, c))
    return MultiPoly.from_terms(pairs)


class TestTSeries:
    def test_one_and_coeff(self):
        s = TSeries.one(3)
        assert s.coeff(0) == MultiPoly.one()
        assert s.coeff(3) == MultiPoly.zero()

    def test_mul_truncates(self):
        s = TSeries((MultiPoly.one(), V(1), V(2)))
        t = s.mul(s, 2)
        assert t.coeff(0) == MultiPoly.one()
        assert t.coeff(1) == 2 * V(1)
        assert t.coeff(2) == V(1, 2) + 2 * V(2)

    def test_json_shape(self):
        data = TSeries.one(1).to_json()
        assert data["order"] == 1 and len(data["coeffs"]) == 2

    def test_kernel_matches_naive_loops(self):
        assert _props.check_tseries_kernel(seed=808, cases=150) >= 100

    def test_kernel_degree_overflow(self):
        # V1^40000 squared has degree 80000, past the 16-bit field
        big = TSeries((MultiPoly.one(), V(1, 40000), MultiPoly.zero()))
        with pytest.raises(ExponentOverflow):
            big.mul(big, 2)

    def test_sum_of_products_leaves_degree_unset(self):
        # the degree-2 products cancel, so the sum has degree 1
        total = _sum_products([(V(1), V(1)), (V(1), -V(1)),
                               (V(2), MultiPoly.const(2))])
        assert _props.ok(total) == 2 * V(2)
        assert total.total_degree() == 1


class TestRecursiveExpansion:
    def test_matches_paths(self):
        for p in (2, 3, 4):
            for r in range(p):
                series = expand_f(p, r, shift=0, order=4)
                for n in range(5):
                    assert series.coeff(n) == f_poly(p, n, r), (p, r, n)

    def test_shift_covariance(self):
        for p in (2, 3):
            for r in range(p):
                for s in (1, 2):
                    lifted = expand_f(p, r, shift=s, order=3)
                    base = expand_f(p, r, shift=0, order=3)
                    for n in range(4):
                        assert lifted.coeff(n) == shift_indices(base.coeff(n), s)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand_f(1, 0, 0, 2)
        with pytest.raises(ValueError):
            expand_f(3, 3, 0, 2)
        with pytest.raises(ValueError):
            expand_f(3, 0, -1, 2)
        with pytest.raises(ValueError):
            expand_f(3, 0, 0, -1)


class TestNestedFraction:
    def test_classic_p2_prefix(self):
        # the p=2 case is the classical continued fraction
        s = expand_fraction(2, 3)
        assert s.coeff(0) == MultiPoly.one()
        assert s.coeff(1) == V(1)
        assert s.coeff(2) == V(1, 2) + V(1) * V(2)
        assert str(s.coeff(2)) == "V1^2 + V1*V2"

    def test_matches_paths(self):
        for p in (2, 3, 4):
            s = expand_fraction(p, 5)
            for n in range(6):
                assert s.coeff(n) == f_poly(p, n, 0), (p, n)

    def test_agrees_with_splitting_recursion(self):
        # order 4, then the benchmark sizes
        for p, order in ((2, 4), (3, 4), (4, 4), (2, 12), (3, 8), (4, 6)):
            assert expand_fraction(p, order) == expand_f(p, 0, 0, order), \
                (p, order)

    def test_shrinking_order_matches_full_order_oracle(self):
        for p in (2, 3, 4):
            for order in range(7):
                got = expand_fraction(p, order)
                for c in got.coeffs:
                    _props.ok(c)
                # nesting past depth order changes no coefficient
                for depth in range(order, order + 4):
                    assert got == _props.full_order_fraction(p, order, depth), \
                        (p, order, depth)
