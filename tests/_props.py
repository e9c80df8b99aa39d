"""Randomized property suites shared by the unit and acceptance tests.

Each check_* function builds its own seeded Random, runs `cases`
independent trials, asserts inside, and returns the number of trials it
actually performed so callers can enforce a minimum.  Every ring result
they compute passes through ``ok``, the opt-in canonical-form check.

``full_order_fraction`` is the nested fraction with every level at the
full t-order, the oracle of ``expand_fraction``.

The second half is the tuple-form oracle: the exponent-tuple monomials
the packed ring replaced, kept as the reference the property tests in
``test_packed.py`` compare against.
"""

from functools import cache
from itertools import permutations
from random import Random

from constel.algebra import (Monomial, MultiPoly, NotDivisible, XSeries,
                             _det_cofactor, _det_eliminate, det_elements)
from constel.contfrac import TSeries


def ok(value):
    """The value, after its canonical-form check."""
    return value._check()


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
        ok(a), ok(b), ok(c)
        assert ok(ok(a + b) + c) == ok(a + ok(b + c))
        assert a + b == ok(b + a)
        assert ok(a * b) == ok(b * a)
        assert ok(ok(a * b) * c) == ok(a * ok(b * c))
        assert a * (b + c) == ok(ok(a * b) + ok(a * c))
        assert ok(a - a) == zero
        assert ok(a - b) == ok(a + ok(-b)) and ok(3 - a) == 3 + ok(-a)
        assert ok(a * one) == a and ok(a * zero) == zero
        assert ok(a ** 3) == a * a * a
        rebuilt = ok(MultiPoly.from_terms(a.sorted_terms()))
        assert rebuilt == a and hash(rebuilt) == hash(a)
    return cases


def check_exact_div(seed: int, cases: int) -> int:
    rng = Random(seed)
    for _ in range(cases):
        a = _nonzero_poly(rng)
        b = _nonzero_poly(rng)
        assert ok((a * b).exact_div(b)) == a
        assert ok((a * 2).exact_div(MultiPoly.const(2))) == a
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


def perm_expansion_det(rows, one=MultiPoly.one()):
    """Textbook Leibniz determinant over the ring of ``one``, the
    independent oracle."""
    n = len(rows)
    total = one - one
    for perm in permutations(range(n)):
        prod = one * _perm_sign(perm)
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        total = total + prod
    return total


def check_det_oracle(seed: int, cases: int) -> int:
    rng = Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng, max_terms=2, max_idx=3, max_exp=2)
                 for _ in range(n)] for _ in range(n)]
        want = ok(perm_expansion_det(rows))
        assert ok(det_elements(rows)) == want
        # the cofactor fallback on every matrix, whatever the elimination does
        assert ok(_det_cofactor(rows)) == want
        det = _det_eliminate(rows)
        assert det is None or ok(det) == want
    return cases


def _rand_term(rng: Random) -> MultiPoly:
    coeff = rng.choice((-3, -2, -1, 1, 2, 3))
    return MultiPoly.from_terms([(rand_monomial(rng, 3, 2), coeff)])


def check_lu_elimination(seed: int, cases: int) -> int:
    """L*U up to 6x6, L unit lower and U upper on single-term diagonals.

    Elimination on single-term pivots must run to the end on such a
    product (its multipliers are L's entries) and give U's diagonal
    product, which the Leibniz expansion confirms.
    """
    rng = Random(seed)
    zero, one = MultiPoly.zero(), MultiPoly.one()
    for _ in range(cases):
        n = rng.randint(1, 6)
        lower = [[one if i == j else
                  rand_poly(rng, max_terms=2, max_idx=3, max_exp=1)
                  if j < i else zero for j in range(n)] for i in range(n)]
        upper = [[_rand_term(rng) if i == j else
                  rand_poly(rng, max_terms=2, max_idx=3, max_exp=1)
                  if j > i else zero for j in range(n)] for i in range(n)]
        rows = [[ok(sum((lower[i][k] * upper[k][j] for k in range(n)), zero))
                 for j in range(n)] for i in range(n)]
        want = one
        for k in range(n):
            want = want * upper[k][k]
        assert ok(_det_eliminate(rows)) == want
        assert ok(det_elements(rows)) == want
        assert ok(perm_expansion_det(rows)) == want
    return cases


def _rand_unit_series(rng: Random, order: int) -> XSeries:
    # constant term +1 or -1 plus random terms of degree >= 1
    return rand_series(rng, order) * XSeries.var(rng.randint(1, 2), order) \
        + XSeries.const(rng.choice((1, -1)), order)


def check_series_lu_elimination(seed: int, cases: int) -> int:
    """L*U over XSeries up to 6x6, L unit lower and U upper on unit diagonals.

    The series form of ``check_lu_elimination``: every pivot of such a
    product is a unit of the truncated ring, so the elimination runs to
    the end and gives U's diagonal product, which ``det_elements``, the
    cofactor expansion and the Leibniz expansion confirm.
    """
    rng = Random(seed)
    for _ in range(cases):
        order = rng.randint(3, 7)
        n = rng.randint(1, 6)
        zero, one = XSeries.zero(order), XSeries.const(1, order)
        lower = [[one if i == j else rand_series(rng, order) if j < i else zero
                  for j in range(n)] for i in range(n)]
        upper = [[_rand_unit_series(rng, order) if i == j else
                  rand_series(rng, order) if j > i else zero
                  for j in range(n)] for i in range(n)]
        rows = [[ok(sum((lower[i][k] * upper[k][j] for k in range(n)), zero))
                 for j in range(n)] for i in range(n)]
        want = one
        for k in range(n):
            want = want * upper[k][k]
        det = _det_eliminate(rows)
        assert det is not None
        assert ok(det) == want
        assert ok(det_elements(rows)) == want
        assert ok(_det_cofactor(rows)) == want
        assert ok(perm_expansion_det(rows, one)) == want
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
        assert ok(s * ok(s.inv())) == one
        assert ok(ok(s * t).inv()) == ok(ok(t.inv()) * s.inv())
        assert ok(s.pow(-2)) == s.inv() * s.inv()
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
            return ok(p.substitute(v_assign, x_assign, order=order))

        assert sub(a + b) == ok(sub(a) + sub(b))
        assert sub(a * b) == ok(sub(a) * sub(b))
        assert sub(MultiPoly.const(7)) == XSeries.const(7, order)
    return cases


def check_json_roundtrip(seed: int, cases: int) -> int:
    rng = Random(seed)
    for _ in range(cases):
        p = rand_poly(rng)
        assert ok(MultiPoly.from_json(p.to_json())) == p
        s = ok(rand_series(rng, rng.randint(2, 6)))
        back = ok(XSeries.from_json(s.to_json()))
        assert back == s and back.order == s.order
    return cases


def _rand_tseries(rng: Random, max_len=5) -> TSeries:
    # rand_poly is zero one time in five; one coefficient is zeroed outright
    coeffs = [rand_poly(rng, max_terms=3) for _ in range(rng.randint(1, max_len))]
    coeffs[rng.randrange(len(coeffs))] = MultiPoly.zero()
    return TSeries(coeffs)


def naive_tseries_mul(a: TSeries, b: TSeries, order: int) -> list:
    out = [MultiPoly.zero()] * (order + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j <= order:
                out[i + j] = out[i + j] + x * y
    return out


def naive_inv_unit(s: TSeries) -> list:
    out = [MultiPoly.one()]
    for n in range(1, s.order + 1):
        acc = MultiPoly.zero()
        for k in range(1, n + 1):
            acc = acc + s.coeffs[k] * out[n - k]
        out.append(-acc)
    return out


def check_tseries_kernel(seed: int, cases: int) -> int:
    """TSeries.mul against double loops over MultiPoly + and *.

    Operands have unequal lengths and zero coefficients, and the requested
    order runs up to two past the full product.
    """
    rng = Random(seed)
    for _ in range(cases):
        a, b = _rand_tseries(rng), _rand_tseries(rng)
        order = rng.randint(0, a.order + b.order + 2)
        got = a.mul(b, order)
        assert got.order == order
        assert [ok(c) for c in got.coeffs] == naive_tseries_mul(a, b, order)
    return cases


def full_order_fraction(p: int, order: int, depth: int | None = None) -> TSeries:
    """Expansion of the nested fraction, exact through t^order.

    The oracle of ``constel.contfrac.expand_fraction``: the same fraction
    with every level computed through the full t-order, as it was before
    each level was cut to the order it can still reach.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if order < 0:
        raise ValueError("order must be >= 0")
    if depth is None:
        depth = order
    if depth < order:
        raise ValueError("depth below order loses exactness")

    @cache  # scoped to this call, as in expand_f
    def fraction(shift, depth):
        if depth == 0:
            return TSeries.one(order)
        prod = None
        for i in range(1, p):
            factor = fraction(shift + i, depth - 1) \
                .scale(MultiPoly.v_var(shift + i))
            prod = factor if prod is None else prod.mul(factor, order)
        denom = [MultiPoly.one()]
        denom.extend(-c for c in prod.coeffs[:order])
        return TSeries(naive_inv_unit(TSeries(denom)))

    out = fraction(0, depth)
    fraction.cache_clear()
    return out


# ---------------------------------------------------------------------------
# tuple-form oracle.  A monomial is (v, x), each a sorted ((index, exp), ...)
# tuple; a polynomial is {monomial: coeff}; a series is {x tuple: coeff}.


def t_merge(a, b):
    out = dict(a)
    for idx, exp in b:
        out[idx] = out.get(idx, 0) + exp
    return tuple(sorted(out.items()))


def t_div(a, b):
    d = dict(a)
    for idx, exp in b:
        have = d.get(idx, 0)
        if have < exp:
            return None
        if have == exp:
            del d[idx]
        else:
            d[idx] = have - exp
    return tuple(sorted(d.items()))


def t_degree(t) -> int:
    return sum(e for _, e in t)


def t_word_key(mono):
    # graded, then the expanded (family, index) word with V before x
    v, x = mono
    word = [(0, i) for i, e in v for _ in range(e)]
    word += [(1, i) for i, e in x for _ in range(e)]
    return len(word), tuple(word)


def t_text(a: dict) -> str:
    """The text form, written term by term in t_word_key order."""
    out = ""
    for (v, x), c in sorted(a.items(), key=lambda kv: t_word_key(kv[0])):
        body = "*".join([f"{fam}{i}" + (f"^{e}" if e > 1 else "")
                         for fam, t in (("V", v), ("x", x)) for i, e in t])
        mag = abs(c)
        term = f"{mag}*{body}" if body and mag > 1 else body or str(mag)
        if out:
            out += (" - " if c < 0 else " + ") + term
        else:
            out = ("-" if c < 0 else "") + term
    return out or "0"


def t_poly(p: MultiPoly) -> dict:
    """Tuple form of a MultiPoly, read back through its JSON."""
    return {(tuple(sorted((int(i), e) for i, e in t["V"].items())),
             tuple(sorted((int(i), e) for i, e in t["x"].items()))): int(t["coeff"])
            for t in p.to_json()}


def t_to_poly(terms: dict) -> MultiPoly:
    return MultiPoly.from_terms((Monomial(v, x), c) for (v, x), c in terms.items())


def drop_zeros(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


def t_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return drop_zeros(out)


def t_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (va, xa), ca in a.items():
        for (vb, xb), cb in b.items():
            m = (t_merge(va, vb), t_merge(xa, xb))
            out[m] = out.get(m, 0) + ca * cb
    return drop_zeros(out)


def t_json(a: dict) -> list:
    return [{"coeff": str(c), "V": {str(i): e for i, e in v},
             "x": {str(i): e for i, e in x}}
            for (v, x), c in sorted(a.items(), key=lambda kv: t_word_key(kv[0]))]


def t_exact_div(a: dict, b: dict) -> dict:
    """Leading-term division in the graded word order; NotDivisible if none."""
    lead_b = max(b, key=t_word_key)
    rem = dict(a)
    quo = {}
    while rem:
        lead_a = max(rem, key=t_word_key)
        mono_q = (t_div(lead_a[0], lead_b[0]), t_div(lead_a[1], lead_b[1]))
        if None in mono_q:
            raise NotDivisible("leading monomial")
        c, r = divmod(rem[lead_a], b[lead_b])
        if r:
            raise NotDivisible("leading coefficient")
        quo[mono_q] = c
        for (vb, xb), cb in b.items():
            m = (t_merge(mono_q[0], vb), t_merge(mono_q[1], xb))
            rem[m] = rem.get(m, 0) - c * cb
            if not rem[m]:
                del rem[m]
    return quo


def t_series(s: XSeries) -> dict:
    """Tuple form of an XSeries, read back through its JSON."""
    return {tuple(sorted((int(i), e) for i, e in t["x"].items())): int(t["coeff"])
            for t in s.to_json()["terms"]}


def t_to_series(terms: dict, order: int) -> XSeries:
    return XSeries.from_json({"truncation_order": order, "terms": [
        {"coeff": str(c), "x": {str(i): e for i, e in key}}
        for key, c in terms.items()]})


def t_truncate(a: dict, order: int) -> dict:
    return {k: c for k, c in a.items() if t_degree(k) <= order}


def t_series_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if t_degree(ka) + t_degree(kb) <= order:
                k = t_merge(ka, kb)
                out[k] = out.get(k, 0) + ca * cb
    return drop_zeros(out)


def t_series_inv(a: dict, order: int) -> dict:
    # degree d of the inverse: -c0 times degree d of (a - c0) * inverse
    c0 = a.get((), 0)
    rest = {k: c for k, c in a.items() if k}
    inv = {(): c0}
    for d in range(1, order + 1):
        layer = t_series_mul(rest, inv, d)
        inv.update({k: -c0 * c for k, c in layer.items() if t_degree(k) == d})
    return inv


def t_sorted_series(a: dict) -> list:
    return sorted(a.items(), key=lambda kv: (t_degree(kv[0]), kv[0]))
