from random import Random

import pytest

from constel.algebra import (MultiPoly, _det_cofactor, _det_eliminate,
                             det_elements)
from constel.hankel import (HankelSpec, IdentityViolation, LGVGraph,
                            NonUniqueNILP, check_hankel, hankel_det,
                            hankel_matrix, hankel_product, lgv_signed_sum,
                            nilp_unique, qr, recover_vi)
from constel.paths import f_poly

import _props

V = MultiPoly.v_var


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

    def test_check_passes_and_reports_corruption(self, crooked_walks):
        assert check_hankel(HankelSpec(3, 1, 1)) == hankel_product(
            HankelSpec(3, 1, 1))
        crooked_walks(lambda p, n, r: MultiPoly.one())
        with pytest.raises(IdentityViolation) as err:
            check_hankel(HankelSpec(3, 1, 1))
        assert "p=3 m=1 n=1" in str(err.value)


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

    def test_sweep_computes_each_determinant_once(self):
        # recover_vi reads four determinants, most of them shared with
        # neighbouring i; the memo computes each distinct one once
        specs = []
        for i in range(1, 17):
            n, m = divmod(i, 3)
            if m:
                specs += [(m, n), (m - 1, n - 1), (m, n - 1), (m - 1, n)]
            else:
                specs += [(0, n), (2, n - 2), (0, n - 1), (2, n - 1)]
        hankel_det.cache_clear()
        for i in range(1, 17):
            assert recover_vi(3, i) == V(i), i
        info = hankel_det.cache_info()
        assert info.misses == len(set(specs)) == 20
        assert info.hits == len(specs) - len(set(specs))

    def test_corruption_surfaces_as_violation(self, crooked_walks):
        # perturbing a single walk polynomial breaks the telescoping ratio
        real = f_poly

        def crooked(p, n, r):
            base = real(p, n, r)
            return base + 1 if (n, r) == (1, 0) else base

        crooked_walks(crooked)
        with pytest.raises(IdentityViolation):
            recover_vi(3, 3)


class TestLGV:
    def test_graph_geometry(self):
        g = LGVGraph.for_spec(HankelSpec(3, 1, 1))
        assert g.sinks == ((0, 0), (3, 0))
        assert g.sources == ((-1, 1), (-3, 0))

    def test_signed_sum_is_determinant(self):
        for p in (2, 3):
            for m in range(p):
                for n in range(-1, 3):
                    spec = HankelSpec(p, m, n)
                    assert lgv_signed_sum(spec) == hankel_det(spec), (p, m, n)

    def test_disjoint_system_unique_with_product_weight(self):
        for p in (2, 3):
            for m in range(p):
                for n in range(-1, 3):
                    spec = HankelSpec(p, m, n)
                    count, weight = nilp_unique(spec)
                    assert count == 1, (p, m, n)
                    assert weight == hankel_product(spec), (p, m, n)

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            lgv_signed_sum(HankelSpec(3, 0, 4))
        with pytest.raises(ValueError):
            nilp_unique(HankelSpec(3, 0, 4))

    def test_corruption_breaks_uniqueness_contract(self, monkeypatch):
        # collapsing the sinks onto one vertex kills every disjoint system
        spec = HankelSpec(2, 0, 1)
        real = LGVGraph.for_spec(spec)
        pinched = LGVGraph(spec.p, real.sources, (real.sinks[-1],) * 2)
        monkeypatch.setattr(LGVGraph, "for_spec",
                            classmethod(lambda cls, s: pinched))
        with pytest.raises(NonUniqueNILP):
            nilp_unique(spec)


class TestEngineAgreement:
    def test_elimination_matches_cofactor(self):
        # every pivot of a banded Hankel matrix is a single term, so the
        # elimination, not its fallback, gives det_elements' value
        specs = [HankelSpec(p, m, n) for p in (2, 3, 4) for m in range(p)
                 for n in range(5)] + [HankelSpec(3, 1, 5)]
        for spec in specs:
            rows = hankel_matrix(spec)
            det = _det_eliminate(rows)
            assert det is not None, spec
            assert det == det_elements(rows), spec
            assert det == _det_cofactor(rows), spec

    def test_large_determinants_collapse(self, no_cofactor):
        # both by elimination: by cofactor the 7x7 took 5 s, and the 9x9
        # had not finished after 120 s by the characteristic-polynomial
        # scheme that used to serve sizes past 8x8
        for spec in (HankelSpec(2, 0, 8), HankelSpec(3, 1, 6)):
            got = det_elements(hankel_matrix(spec))
            assert got == hankel_product(spec), spec

    def test_seven_by_seven(self):
        rng = Random(7)
        rows = [[V(rng.randint(1, 3)) * rng.randint(-2, 2)
                 + MultiPoly.const(rng.randint(0, 2)) for _ in range(7)]
                for _ in range(7)]
        det = det_elements(rows)
        assert det == _props.perm_expansion_det(rows)
        assert _det_cofactor(rows) == det
        assert not det.is_zero()
