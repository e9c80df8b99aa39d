"""The packed-monomial rings against the tuple-form oracle in ``_props``.

Inputs use variable indices up to 200 and exponents up to the field
limit: each factor's monomials have degree at most half the 16-bit field,
so every product fits and some reach the limit exactly.  Examples are
derandomized and bounded, so the suite runs the same cases every time.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from constel.algebra import (_FIELD, ExponentOverflow, MultiPoly,
                             NotDivisible, XSeries)

import _props
from _props import ok

HALF = _FIELD // 2

PACKED = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                  suppress_health_check=[HealthCheck.too_slow])

INDEX = st.integers(1, 200)
COEFF = st.one_of(st.integers(-9, 9), st.integers(-(1 << 70), 1 << 70))


@st.composite
def exponents(draw, budget):
    """A sorted ((index, exp), ...) tuple whose degree is at most budget."""
    out = {}
    for idx in draw(st.lists(INDEX, max_size=3, unique=True)):
        exp = draw(st.integers(0, budget))
        budget -= exp
        if exp:
            out[idx] = exp
    return tuple(sorted(out.items()))


@st.composite
def monomials(draw, budget=HALF):
    # degree at most budget over both families
    budget = draw(st.sampled_from((3, budget)))
    v = draw(exponents(budget))
    x = draw(exponents(budget - _props.t_degree(v)))
    return v, x


def polys(budget=HALF, max_size=5):
    """Tuple-form polynomials: {(v, x): coeff}, no zero coefficients."""
    return st.dictionaries(monomials(budget), COEFF, max_size=max_size) \
        .map(_props.drop_zeros)


@st.composite
def series(draw, order=None):
    """(tuple-form series, order); degrees stay within the order."""
    if order is None:
        order = draw(st.sampled_from((0, 1, 3, 6, _FIELD)))
    budget = min(order, HALF)
    terms = draw(st.dictionaries(exponents(budget), COEFF, max_size=5))
    return _props.drop_zeros(terms), order


@PACKED
@given(polys(), polys())
def test_mul_and_add_match_oracle(a, b):
    pa, pb = ok(_props.t_to_poly(a)), ok(_props.t_to_poly(b))
    assert _props.t_poly(ok(pa * pb)) == _props.t_mul(a, b)
    assert _props.t_poly(ok(pa + pb)) == _props.t_add(a, b)
    assert _props.t_poly(ok(pa - pb)) == _props.t_add(
        a, {m: -c for m, c in b.items()})


@PACKED
@given(polys())
def test_sorted_terms_and_json_match_oracle(a):
    p = _props.t_to_poly(a)
    assert [m for m, _ in p.sorted_terms()] == \
        sorted(a, key=_props.t_word_key)
    assert p.to_json() == _props.t_json(a)
    assert ok(MultiPoly.from_json(p.to_json())) == p


@st.composite
def wide_polys(draw):
    """36 terms: every product of six V parts with six x parts.

    The parts of one family share their exponents, placed on six
    rotations of a permutation of (1, 2, 3, 4, 199, 200), so every tie on
    the V part is a tie of degree too, and the keys of the tied terms
    differ in width.  Exponents reach past one byte.
    """
    def parts():
        exps = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(255, 400)),
                             min_size=1, max_size=3))
        idx = draw(st.permutations((1, 2, 3, 4, 199, 200)))
        return [tuple(sorted(zip(idx[i:] + idx[:i], exps))) for i in range(6)]
    vs, xs = parts(), parts()
    return {(v, x): draw(COEFF.filter(bool)) for v in vs for x in xs}


@PACKED
@given(polys())
def test_text_matches_oracle(a):
    assert str(_props.t_to_poly(a)) == _props.t_text(a)


@PACKED
@given(wide_polys())
def test_wide_polys_match_oracle(a):
    # keys of one polynomial differ in width; the order must not
    p = _props.t_to_poly(a)
    assert str(p) == _props.t_text(a)
    assert [m for m, _ in p.sorted_terms()] == \
        sorted(a, key=_props.t_word_key)
    assert p.to_json() == _props.t_json(a)


# fixed cases of the ordering kernel, as {(v, x): coeff}
ORDER_CASES = {
    # packed fields interleave V and x, so x1 (field 2) would sort before
    # V2 (field 3) and put V2*x1 first
    "v_before_x": {(((2, 2),), ()): 1, (((2, 1),), ((1, 1),)): -3},
    # the fields differ in both bytes: a little-endian key compares the low
    # bytes first and puts V1^255*V2^256 first
    "both_bytes": {(((1, 256), (2, 255)), ()): 1, (((1, 255), (2, 256)), ()): 2},
    # one degree, keys of 2 to 401 fields, both families
    "degree_ties": {(((1, 2),), ()): 1, ((), ((1, 1), (200, 1))): -1,
                    (((200, 2),), ()): 4, (((1, 1),), ((2, 1),)): 5, ((), ((1, 2),)): 7},
    # a wider key of lower degree comes first
    "degree_first": {(((200, 1),), ()): 1, (((1, 2),), ()): -1, ((), ()): 2},
    "zero": {},
    "constant": {((), ()): -5},
    "single_term": {(((3, 1), (7, 2)), ((2, 1),)): 9},
}


@pytest.mark.parametrize("a", ORDER_CASES.values(), ids=ORDER_CASES.keys())
def test_order_kernel_cases(a):
    p = _props.t_to_poly(a)
    assert str(p) == _props.t_text(a)
    assert p.to_json() == _props.t_json(a)
    assert p.sorted_terms() == sorted(a.items(), key=lambda kv: _props.t_word_key(kv[0]))


@PACKED
@given(polys(), monomials(), COEFF.filter(bool), polys(max_size=3))
def test_exact_div_of_a_product(a, mono, coeff, b):
    # exact division takes a single term; by more, no product divides
    pa, pt, pb = (_props.t_to_poly(t) for t in (a, {mono: coeff}, b))
    assert ok((pa * pt).exact_div(pt)) == pa
    if pb.nterms > 1:
        with pytest.raises(NotDivisible):
            (pa * pb).exact_div(pb)


@PACKED
@given(polys(budget=3), polys(budget=3, max_size=3))
def test_exact_div_matches_oracle(a, b):
    if not b:
        return
    pa, pb = _props.t_to_poly(a), _props.t_to_poly(b)
    try:
        want = _props.t_exact_div(a, b)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            pa.exact_div(pb)
    else:
        assert _props.t_poly(ok(pa.exact_div(pb))) == want


@PACKED
@given(series(), series())
def test_series_ring_and_truncate_match_oracle(sa, sb):
    (a, oa), (b, ob) = sa, sb
    xa, xb = ok(_props.t_to_series(a, oa)), ok(_props.t_to_series(b, ob))
    order = min(oa, ob)
    prod = ok(xa * xb)
    assert prod.order == order
    assert _props.t_series(prod) == _props.t_series_mul(a, b, order)
    ta, tb = _props.t_truncate(a, order), _props.t_truncate(b, order)
    assert _props.t_series(ok(xa + xb)) == _props.t_add(ta, tb)
    assert _props.t_series(ok(xa - xb)) == _props.t_add(
        ta, {k: -c for k, c in tb.items()})
    assert _props.t_series(ok(5 - xa)) == _props.t_add(
        {(): 5}, {k: -c for k, c in a.items()})
    assert _props.t_series(ok(-xa)) == {k: -c for k, c in a.items()}
    assert _props.t_series(ok(xa.truncate(order))) == _props.t_truncate(a, order)
    assert xa.sorted_terms() == _props.t_sorted_series(a)


@PACKED
@given(series(order=6), st.sampled_from((1, -1)))
def test_series_inv_matches_oracle(sa, unit):
    a, order = sa
    a = dict(a)
    a[()] = unit
    s = ok(_props.t_to_series(a, order))
    assert _props.t_series(ok(s.inv())) == _props.t_series_inv(a, order)


def test_product_at_the_field_limit():
    top = MultiPoly.v_var(1, HALF + 1) * MultiPoly.v_var(1, HALF)
    assert ok(top) == MultiPoly.v_var(1, _FIELD)
    assert ok(MultiPoly.x_var(200, HALF) * MultiPoly.x_var(200, HALF + 1)) \
        == MultiPoly.x_var(200, _FIELD)
    assert ok(XSeries.var(200, _FIELD).pow(_FIELD)).coeff({200: _FIELD}) == 1


def test_product_past_the_field_raises():
    with pytest.raises(ExponentOverflow):
        MultiPoly.v_var(1, _FIELD) * MultiPoly.v_var(2)
    with pytest.raises(ExponentOverflow):
        MultiPoly.x_var(200, HALF + 1) * MultiPoly.x_var(200, HALF + 1)
    with pytest.raises(ExponentOverflow):
        MultiPoly.v_var(1, _FIELD) * MultiPoly.x_var(1)
    with pytest.raises(ExponentOverflow):
        MultiPoly.v_var(1, _FIELD + 1)
    with pytest.raises(ExponentOverflow):
        MultiPoly.from_terms([(({1: HALF + 1}, {1: HALF + 1}), 1)])
    # past the field only an order above it could keep the product
    big = XSeries.var(1, _FIELD + 1).pow(HALF + 1)
    with pytest.raises(ExponentOverflow):
        big * big
    assert issubclass(ExponentOverflow, ArithmeticError)



V_POLYS = st.dictionaries(exponents(HALF).map(lambda v: (v, ())), COEFF,
                          max_size=5).map(_props.drop_zeros)


@PACKED
@given(V_POLYS, exponents(HALF), COEFF.filter(bool), st.integers(0, 60))
def test_raised_matches_rebuild(a, mono, coeff, s):
    # term * sigma^s(a), sigma raising every V index by one, against the
    # same polynomial rebuilt from raised exponent tuples
    term = MultiPoly.from_terms([((mono, ()), coeff)])
    got = ok(_props.t_to_poly(a)._raised(s, term))
    rebuilt = MultiPoly.from_terms(((tuple((i + s, e) for i, e in v), x), c)
                                   for (v, x), c in a.items())
    assert got == rebuilt * term
    # the degree is carried over, and equals a scan of the keys
    assert got._deg == (max(k & _FIELD for k in got._terms) if a else None)


def test_raised_rule_for_x_and_the_field_limit():
    # sigma moves V fields only, so a polynomial with an x variable is
    # refused, while the term may carry one; the degree check still holds
    v1, x1 = MultiPoly.v_var(1), MultiPoly.x_var(1)
    with pytest.raises(ValueError):
        (v1 + x1)._raised(1, MultiPoly.one())
    assert ok(v1._raised(2, x1)) == MultiPoly.v_var(3) * x1
    with pytest.raises(ExponentOverflow):
        MultiPoly.v_var(1, _FIELD)._raised(1, v1)
    assert ok(MultiPoly.v_var(1, _FIELD)._raised(1, MultiPoly.const(3))) \
        == 3 * MultiPoly.v_var(2, _FIELD)
