"""Randomized property suites shared by the unit and acceptance tests.

Each check_* function builds its own seeded Random, runs `cases`
independent trials, asserts inside, and returns the number of trials it
actually performed so callers can enforce a minimum.
"""

from itertools import permutations
from random import Random

from constel.algebra import (Monomial, MultiPoly, NotDivisible, PolyMatrix,
                             XSeries, _det_berkowitz, _det_cofactor,
                             det_division_free)


def rand_monomial(rng: Random, max_idx=4, max_exp=3) -> Monomial:
    v = {i: rng.randint(0, max_exp) for i in rng.sample(range(1, max_idx + 1),
                                                        rng.randint(0, 2))}
    x = {i: rng.randint(0, max_exp) for i in rng.sample(range(1, 3),
                                                        rng.randint(0, 1))}
    return Monomial.make(v, x)


def rand_poly(rng: Random, max_terms=4, max_idx=4, max_exp=3) -> MultiPoly:
    pairs = [(rand_monomial(rng, max_idx, max_exp), rng.randint(-9, 9))
             for _ in range(rng.randint(0, max_terms))]
    return MultiPoly.from_terms(pairs)


def rand_series(rng: Random, order=5, max_terms=4) -> XSeries:
    out = XSeries.zero(order)
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randint(1, 2)
        e = rng.randint(0, order)
        out = out + XSeries.var(k, order).pow(e) * rng.randint(-5, 5)
    return out


def _nonzero_poly(rng: Random, **kw) -> MultiPoly:
    while True:
        p = rand_poly(rng, **kw)
        if not p.is_zero():
            return p


def check_ring_laws(seed: int, cases: int) -> int:
    rng = Random(seed)
    zero, one = MultiPoly.zero(), MultiPoly.one()
    for _ in range(cases):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == zero
        assert a * one == a and a * zero == zero
        assert a ** 3 == a * a * a
        rebuilt = MultiPoly.from_terms(a.sorted_terms())
        assert rebuilt == a and hash(rebuilt) == hash(a)
    return cases


def check_exact_div(seed: int, cases: int) -> int:
    rng = Random(seed)
    for _ in range(cases):
        a = _nonzero_poly(rng)
        b = _nonzero_poly(rng)
        assert (a * b).exact_div(b) == a
        assert (a * 2).exact_div(MultiPoly.const(2)) == a
        if b.total_degree() >= 1:
            try:
                (a * b + MultiPoly.one()).exact_div(b)
            except NotDivisible:
                pass
            else:
                raise AssertionError(f"division should have failed: "
                                     f"({a})*({b})+1 by {b}")
    return cases


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def perm_expansion_det(rows) -> MultiPoly:
    """Textbook Leibniz determinant, the independent oracle."""
    n = len(rows)
    total = MultiPoly.zero()
    for perm in permutations(range(n)):
        prod = MultiPoly.const(_perm_sign(perm))
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        total = total + prod
    return total


def check_det_oracle(seed: int, cases: int) -> int:
    rng = Random(seed)
    one = MultiPoly.one()
    for _ in range(cases):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng, max_terms=2, max_idx=3, max_exp=2)
                 for _ in range(n)] for _ in range(n)]
        want = perm_expansion_det(rows)
        assert det_division_free(PolyMatrix(rows)) == want
        # both engines over the same matrix, whatever the size cutoff
        assert _det_cofactor(rows, one) == want
        assert _det_berkowitz(rows, one) == want
    return cases


def check_series_inv(seed: int, cases: int) -> int:
    rng = Random(seed)
    for _ in range(cases):
        order = rng.randint(3, 7)
        unit = rng.choice((1, -1))
        s = rand_series(rng, order) * XSeries.var(1, order) \
            + XSeries.const(unit, order)
        t = rand_series(rng, order) * XSeries.var(2, order) \
            + XSeries.const(rng.choice((1, -1)), order)
        one = XSeries.const(1, order)
        assert s * s.inv() == one
        assert (s * t).inv() == t.inv() * s.inv()
        assert s.pow(-2) == s.inv() * s.inv()
    return cases


def check_substitute_morphism(seed: int, cases: int) -> int:
    rng = Random(seed)
    order = 5
    for _ in range(cases):
        a = rand_poly(rng, max_idx=3)
        b = rand_poly(rng, max_idx=3)
        v_assign = {i: rand_series(rng, order) for i in range(1, 4)}
        x_assign = {k: rand_series(rng, order) for k in range(1, 3)}

        def sub(p):
            return p.substitute(v_assign, x_assign, order=order)

        assert sub(a + b) == sub(a) + sub(b)
        assert sub(a * b) == sub(a) * sub(b)
        assert sub(MultiPoly.const(7)) == XSeries.const(7, order)
    return cases


def check_json_roundtrip(seed: int, cases: int) -> int:
    rng = Random(seed)
    for _ in range(cases):
        p = rand_poly(rng)
        assert MultiPoly.from_json(p.to_json()) == p
        s = rand_series(rng, rng.randint(2, 6))
        back = XSeries.from_json(s.to_json())
        assert back == s and back.order == s.order
    return cases
