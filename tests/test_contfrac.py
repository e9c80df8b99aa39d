from random import Random

import _props
import pytest

from constel import contfrac
from constel.algebra import ExponentOverflow, MultiPoly, _layer_sum
from constel.contfrac import _Excursions, TSeries, expand_f, expand_fraction
from constel.paths import f_poly

V = MultiPoly.v_var


def shift_indices(poly: MultiPoly, s: int) -> MultiPoly:
    """Rename every V_i to V_{i+s}."""
    return MultiPoly.from_terms((([(i + s, e) for i, e in v], x), c)
                                for (v, x), c in poly.sorted_terms())


class TestTSeries:
    def test_one_and_coeff(self):
        s = TSeries.one(3)
        assert s.coeff(0) == MultiPoly.one()
        assert s.coeff(3) == MultiPoly.zero()

    def test_mul_truncates(self):
        s = TSeries((MultiPoly.one(), V(1), V(2)))
        t = _props.tseries_mul(s, s, 2)
        assert t.coeff(0) == MultiPoly.one()
        assert t.coeff(1) == 2 * V(1)
        assert t.coeff(2) == V(1, 2) + 2 * V(2)

    def test_json_shape(self):
        data = TSeries.one(1).to_json()
        assert data["order"] == 1 and len(data["coeffs"]) == 2

    def test_kernel_matches_naive_loops(self):
        # the convolution loop of every relaxed expansion
        assert _props.check_layer_sum(seed=808, cases=150) >= 100

    def test_kernel_degree_overflow(self):
        # V1^40000 squared has degree 80000, past the 16-bit field
        big = TSeries((MultiPoly.one(), V(1, 40000), MultiPoly.zero()))
        with pytest.raises(ExponentOverflow):
            _props.tseries_mul(big, big, 2)

    def test_cancelled_layer_sum_leaves_degree_unset(self):
        # the degree-2 products cancel, so the sum is zero, of no degree
        total = _layer_sum([([V(1)], [V(1)], 0, 0), ([V(1)], [-V(1)], 0, 0)],
                           0, 2)
        assert _props.ok(total) == MultiPoly.zero()
        assert total._deg is None
        # an elimination update never sets it
        assert V(1)._minus_products([(V(1), V(2, 2))])._deg is None


class TestRecursiveExpansion:
    def test_matches_paths(self):
        for p in (2, 3, 4):
            for r in range(p):
                series = expand_f(p, r, shift=0, order=4)
                for n in range(5):
                    assert series.coeff(n) == f_poly(p, n, r), (p, r, n)

    def test_every_cell_carries_its_exact_degree(self):
        # cell (n, r) is homogeneous of degree n(p-1)+r, which _layer_sum
        # sets; cell (0, 0) is the unit, not a sum, and its degree is read
        # by a scan
        for p, order in ((2, 8), (3, 6), (4, 5)):
            cells = _Excursions(p)
            cells.coeff(order, p - 1)
            for r, column in enumerate(cells._e):
                for n, cell in enumerate(column):
                    if n or r:
                        assert cell._deg == n * (p - 1) + r == \
                            MultiPoly(cell._terms).total_degree(), (p, n, r)

    def test_shift_covariance(self):
        for p in (2, 3):
            for r in range(p):
                for s in (1, 2):
                    lifted = expand_f(p, r, shift=s, order=3)
                    base = expand_f(p, r, shift=0, order=3)
                    for n in range(4):
                        assert lifted.coeff(n) == shift_indices(base.coeff(n), s)

    def test_matches_splitting_recursion_oracle(self):
        # every remainder and shift, each order up to 6 (5 at p = 5, where
        # the oracle alone takes 3.8 s at order 6)
        for p in (2, 3, 4, 5):
            for r in range(p):
                for s in (0, 1, 2, 5):
                    for order in range(7 if p < 5 else 6):
                        got = expand_f(p, r, s, order)
                        assert [_props.ok(c) for c in got.coeffs] == list(
                            _props.splitting_recursion(p, r, s, order).coeffs), \
                            (p, r, s, order)
        for p, order in ((2, 12), (3, 8), (4, 6)):
            assert expand_f(p, 0, 0, order) == \
                _props.splitting_recursion(p, 0, 0, order), (p, order)

    def test_validation(self):
        with pytest.raises(ValueError):
            expand_f(1, 0, 0, 2)
        with pytest.raises(ValueError):
            expand_f(3, 3, 0, 2)
        with pytest.raises(ValueError):
            expand_f(3, 0, -1, 2)
        with pytest.raises(ValueError):
            expand_f(3, 0, 0, -1)


class TestExcursions:
    GRID = {2: 10, 3: 7, 4: 5}

    @staticmethod
    def orders(p, n_max):
        asks = [(n, r) for n in range(n_max + 1) for r in range(p)]
        # r outermost, n running up and down in turn
        interleaved = [(n, r) for r in range(p)
                       for n in range(n_max + 1)[::1 if r % 2 else -1]]
        shuffled = list(asks)
        Random(p).shuffle(shuffled)
        return asks, asks[::-1], interleaved, shuffled

    def test_matches_f_poly_in_any_request_order(self):
        # the Hankel entries: cells are made on request, in a fixed order,
        # whatever order they are asked in
        for p, n_max in self.GRID.items():
            for asks in self.orders(p, n_max):
                cells = _Excursions(p)
                for n, r in asks:
                    assert cells.coeff(n, r) == f_poly(p, n, r), (p, n, r, asks)

    def test_makes_no_cell_past_the_request(self):
        # cells go in order of n, then r: asking for (4, 1) at p = 3 makes
        # rows 0..3 whole and row 4 through r = 1
        cells = _Excursions(3)
        cells.coeff(4, 1)
        assert [len(column) for column in cells._e] == [5, 5, 4]
        cells.coeff(2, 2)  # made already
        assert [len(column) for column in cells._e] == [5, 5, 4]

    def test_a_failed_step_keeps_whole_cells(self, monkeypatch):
        # a MemoryError inside a step leaves every cell made before it, and
        # no half-made one, in the cached expansion: the retry convolves
        # only the cells still missing
        real, calls, made = contfrac._layer_sum, [], []
        cells = _Excursions(3)

        def failing(blocks, n, deg):
            # the cell (n, j) being made: b is column j - 1
            (a, b, lo, hi), = blocks
            calls.append((n, 1 + [c is b for c in cells._e].index(True)))
            if len(calls) == 3:
                made.append([len(c) for c in cells._e])
                raise MemoryError
            return real(blocks, n, deg)
        monkeypatch.setattr(contfrac, "_layer_sum", failing)
        with pytest.raises(MemoryError):
            cells.coeff(3, 2)
        lens, = made
        assert [len(c) for c in cells._e] == lens
        assert cells.coeff(3, 2) == f_poly(3, 3, 2)
        assert calls[3:] == [(n, j) for n in range(4) for j in (1, 2)
                             if n >= lens[j]]
        for r, column in enumerate(cells._e):
            for n, cell in enumerate(column):
                assert cell == f_poly(3, n, r), (n, r)


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

    def test_matches_full_order_oracle_at_benchmark_sizes(self):
        # order 4, then the benchmark sizes; the oracle inverts each level
        # on its own instead of reading the splitting recursion
        for p, order in ((2, 4), (3, 4), (4, 4), (2, 12), (3, 8), (4, 6)):
            assert expand_fraction(p, order) == \
                _props.full_order_fraction(p, order), (p, order)

    def test_shrinking_order_matches_full_order_oracle(self):
        for p in (2, 3, 4):
            for order in range(7):
                got = expand_fraction(p, order)
                for c in got.coeffs:
                    _props.ok(c)
                # the oracle expands every level at every depth on its own;
                # nesting past depth order changes no coefficient
                for depth in range(order, order + 4):
                    assert got == _props.full_order_fraction(p, order, depth), \
                        (p, order, depth)
