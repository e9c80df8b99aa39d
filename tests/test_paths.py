from math import comb

import pytest

from constel.algebra import MultiPoly
from constel.paths import (PPath, count_closed, count_paths, enumerate_paths,
                           f_poly, path_weight)

import _props
from _props import f_mid

V = MultiPoly.v_var


def weight_sum(paths):
    total = MultiPoly.zero()
    for q in paths:
        total = total + path_weight(q)
    return total


class TestPPath:
    def test_geometry(self):
        q = PPath(3, (0, 0), ("R", "F", "F"))
        assert q.heights() == [0, 2, 1, 0]
        assert q.points() == [(0, 0), (1, 2), (2, 1), (3, 0)]
        assert q.end == (3, 0)
        assert q.fall_heights() == (1, 2)
        assert path_weight(q) == V(1) * V(2)

    def test_rejects_dips_below_zero(self):
        with pytest.raises(ValueError):
            PPath(3, (0, 0), ("F",))

    def test_rejects_bad_symbols_and_p(self):
        with pytest.raises(ValueError):
            PPath(3, (0, 0), ("R", "Q", "F"))
        with pytest.raises(ValueError):
            PPath(1, (0, 0), ())

    def test_empty_path(self):
        q = PPath(4, (2, 5), ())
        assert q.end == (2, 5) and q.fall_heights() == ()
        assert path_weight(q) == MultiPoly.one()


class TestEnumerate:
    def test_counts_match_dp(self):
        for p in (2, 3):
            for n in range(4):
                for r in range(p + 1):
                    got = len(enumerate_paths(p, (0, r), (n * p + r, 0)))
                    assert got == count_paths(p, n, r), (p, n, r)

    def test_weights_match_dp(self):
        for p in (2, 3):
            for n in range(3):
                for r in range(p):
                    paths = enumerate_paths(p, (0, r), (n * p + r, 0))
                    assert weight_sum(paths) == f_poly(p, n, r), (p, n, r)

    def test_path_longer_than_the_recursion_limit(self):
        # one rise to height 1199 and 1199 falls: 1200 steps, more than
        # Python's default recursion limit of 1000
        path, = enumerate_paths(1200, (0, 0), (1200, 0))
        assert path.steps == ("R",) + ("F",) * 1199
        assert path.fall_heights() == tuple(range(1, 1200))

    def test_unreachable_endpoint(self):
        assert enumerate_paths(3, (0, 0), (4, 0)) == []
        assert enumerate_paths(3, (0, 0), (-3, 0)) == []


class TestClosedWalks:
    def test_golden_strings(self):
        assert str(f_poly(3, 0, 0)) == "1"
        assert str(f_poly(3, 1, 0)) == "V1*V2"
        assert str(f_poly(3, 2, 0)) == \
            "V1^2*V2^2 + V1*V2^2*V3 + V1*V2*V3*V4"
        assert str(f_poly(3, 3, 0)) == (
            "V1^3*V2^3 + 2*V1^2*V2^3*V3 + 2*V1^2*V2^2*V3*V4 + V1*V2^3*V3^2"
            " + 2*V1*V2^2*V3^2*V4 + V1*V2^2*V3*V4*V5 + V1*V2*V3^2*V4^2"
            " + V1*V2*V3*V4^2*V5 + V1*V2*V3*V4*V5*V6")

    def test_golden_arithmetic(self):
        v1, v2, v3, v4 = V(1), V(2), V(3), V(4)
        assert f_poly(3, 1, 0) == v1 * v2
        assert f_poly(3, 2, 0) == v1 * v2 * (v1 * v2 + v2 * v3 + v3 * v4)
        assert f_poly(3, 0, 1) == v1
        assert f_poly(3, 1, 1) == v1 * v2 * (v1 + v3)

    def test_start_level_shift(self):
        # finishing a rise-first excursion equals starting one level set up
        for p in (2, 3, 4):
            for n in range(3):
                assert f_poly(p, n, p - 1) == f_poly(p, n + 1, 0), (p, n)

    def test_homogeneous_degree(self):
        for p in (2, 3, 4):
            for n in range(4):
                for r in range(p):
                    poly = f_poly(p, n, r)
                    want = n * (p - 1) + r
                    assert all(_props.t_degree(v) == want
                               for (v, _), _ in poly.sorted_terms())

    def test_index_window(self):
        # falls can never happen above the running height ceiling
        for p in (2, 3):
            for n in range(1, 4):
                for r in range(p):
                    idx = {i for (v, _), _ in f_poly(p, n, r).sorted_terms()
                           for i, _ in v}
                    assert idx and min(idx) >= 1
                    assert max(idx) <= r + n * (p - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            f_poly(1, 1, 0)
        with pytest.raises(ValueError):
            f_poly(3, 1, 3)
        with pytest.raises(ValueError):
            f_poly(3, -1, 0)


class TestMidWalks:
    def test_fixtures(self):
        assert f_mid(3, 1, 1) == V(2)
        assert f_mid(3, 1, 2) == V(1) + V(3)
        assert f_mid(2, 1, 1) == MultiPoly.one()
        assert f_mid(2, 2, 1) == V(1) + V(2)

    def test_against_enumeration(self):
        for p in (2, 3):
            for n in (1, 2):
                for i in (1, 2, 3):
                    paths = enumerate_paths(p, (0, i - 1), (n * p - 1, i))
                    assert weight_sum(paths) == f_mid(p, n, i), (p, n, i)

    def test_validation(self):
        with pytest.raises(ValueError):
            f_mid(3, 0, 1)
        with pytest.raises(ValueError):
            f_mid(3, 1, 0)

    def test_every_length_from_one_sweep(self):
        # the solver reads every n's mid-path sum off the longest walk DP
        assert _props.check_weight_dp_lengths(seed=1111, cases=120) >= 100


class TestCounts:
    def test_cycle_lemma_formula(self):
        for p in range(2, 6):
            for n in range(7):
                for r in range(p + 1):
                    want = (r + 1) * comb(n * p + r + 1, n) // (n * p + r + 1)
                    assert count_paths(p, n, r) == want, (p, n, r)
                    assert count_closed(p, n, r) == want, (p, n, r)

    def test_closed3_agrees_with_dp(self):
        for n in range(7):
            for r in range(4):
                assert count_closed(3, n, r) == count_paths(3, n, r)

    def test_closed3_edge_cases(self):
        assert count_closed(3, -1, 0) == 0
        assert count_closed(3, -1, 3) == 0
        assert count_closed(3, 0, 2) == 1
        with pytest.raises(ValueError):
            count_closed(1, 2, 0)
        with pytest.raises(ValueError):
            count_closed(3, 2, -1)

    def test_splice_identity(self):
        # raising the start level by one splits off a top-level excursion
        for n in range(1, 7):
            assert count_closed(3, n, 1) == count_closed(3, n, 0) \
                + count_closed(3, n - 1, 3)

    def test_fixture_twelve(self):
        assert count_paths(3, 3, 0) == 12
