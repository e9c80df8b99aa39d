"""Randomized property suites shared by the unit and acceptance tests.

Each check_* function builds its own seeded Random, runs `cases`
independent trials, asserts inside, and returns the number of trials it
actually performed so callers can enforce a minimum.  Every ring result
they compute passes through ``ok``, the opt-in canonical-form check.

``full_order_fraction`` is the nested fraction with every level at the
full t-order, inverted level by level, the oracle of ``expand_fraction``
(which reads column 0 of the splitting recursion), and
``splitting_recursion`` expands every shifted level of the splitting
recursion on its own, the oracle of ``expand_f``; both multiply by
``tseries_mul``.  ``full_order_family``, ``full_order_limit`` and
``full_order_y`` run every solver sweep at the full x-order, the oracles
of ``solve_family``, ``solve_v`` and ``make_context``'s y;
``fraction_bracket`` sums ``f_from_v``'s bracket in ``Fraction``s, the
oracle of ``solver._bracket``.  ``f_mid`` is
the polynomial mid-path sum, the oracle of the walk DP inside a solver
sweep, and ``evaluate`` puts series into a polynomial term by term, the
oracle of the walk DP run over series weights; ``univar_coeffs`` and
``valuation`` read series through ``sorted_terms``, and ``layered``
reads a layered series.

The second half is the tuple-form oracle: the exponent-tuple monomials
the packed ring replaced, kept as the reference the property tests in
``test_packed.py`` compare against.
"""

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import permutations, product
from math import comb
from operator import mul
from random import Random

from constel._layered import _Layered
from constel.algebra import (MultiPoly, NonUnitConstant, NotDivisible,
                             XSeries, _Minors, _layer_sum)
from constel.contfrac import TSeries
from constel.paths import _weight_dp, f_poly
from constel.solver import SolverConfig, v_update, vi_update


def ok(value):
    """The value, after its canonical-form check; a polynomial's degree,
    when it carries one, must be the one a fresh scan finds."""
    deg = getattr(value, "_deg", None)
    assert deg is None or deg == MultiPoly(value._terms).total_degree(), deg
    return value._check()


def rand_monomial(rng: Random, max_idx=4, max_exp=3) -> tuple:
    # (v, x) exponent maps, as MultiPoly.from_terms takes them
    v = {i: rng.randint(0, max_exp) for i in rng.sample(range(1, max_idx + 1),
                                                        rng.randint(0, 2))}
    x = {i: rng.randint(0, max_exp) for i in rng.sample(range(1, 3),
                                                        rng.randint(0, 1))}
    return v, x


def rand_poly(rng: Random, max_terms=4, max_idx=4, max_exp=3) -> MultiPoly:
    pairs = [(rand_monomial(rng, max_idx, max_exp), rng.randint(-9, 9))
             for _ in range(rng.randint(0, max_terms))]
    return MultiPoly.from_terms(pairs)


def rand_series(rng: Random, order=5, max_terms=4, nvars=2) -> XSeries:
    # a sum of up to max_terms terms c * x_k^e with 1 <= k <= nvars
    out = XSeries.zero(order)
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randint(1, nvars)
        e = rng.randint(0, order)
        out = out + XSeries.var(k, order).pow(e) * rng.randint(-5, 5)
    return out


def univar_coeffs(s: XSeries, k: int = 1) -> list[int]:
    """Coefficient list [c_0 .. c_order] of a series in x_k alone."""
    out = [0] * (s.order + 1)
    for xs, c in s.sorted_terms():
        assert all(i == k for i, _ in xs), f"{s} involves more than x{k}"
        out[t_degree(xs)] = c
    return out


def valuation(s: XSeries):
    """Smallest total degree with a nonzero coefficient, None if zero."""
    terms = s.sorted_terms()  # by degree first
    return t_degree(terms[0][0]) if terms else None


def f_mid(p: int, n: int, i: int) -> MultiPoly:
    """Weight polynomial of the p-paths from (0, i-1) to (np-1, i).

    These are the path sums sitting inside the weight-family fixed point:
    one such path per white face of degree np attached at level i.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    if i < 1:
        raise ValueError("i must be >= 1")
    return _weight_dp(p, n * p - 1, i - 1, i, MultiPoly.v_var, MultiPoly.one())


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
    """Division by a term c*m recovers every product with it; a remainder
    or a divisor of several terms raises NotDivisible."""
    rng = Random(seed)
    for _ in range(cases):
        a = _nonzero_poly(rng)
        t = _nonzero_poly(rng, max_terms=1)
        assert ok(ok(a * t).exact_div(t)) == a
        assert ok((a * 2).exact_div(MultiPoly.const(2))) == a
        b = _nonzero_poly(rng)
        failing = [(a * b, b)] if b.nterms > 1 else []
        if t.total_degree() >= 1:
            failing.append((a * t + MultiPoly.one(), t))
        for num, den in failing:
            try:
                num.exact_div(den)
            except NotDivisible:
                pass
            else:
                raise AssertionError(f"division should have failed: "
                                     f"{num} by {den}")
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


def eliminated(rows):
    """The determinant by one ladder, None when it refuses a pivot with its
    ring's error."""
    try:
        return _Minors(lambda i, j: rows[i][j]).minor(len(rows) - 1)
    except (NotDivisible, NonUnitConstant):
        return None


def ladder_matches_leibniz(rows, one) -> bool:
    """Every minor one ladder gives is the Leibniz expansion of its leading
    block: True when it gives them all, False when it refuses a pivot with
    its ring's error (any other error propagates)."""
    ladder = _Minors(lambda i, j: rows[i][j])
    for k in range(len(rows)):
        try:
            det = ladder.minor(k)
        except (NotDivisible, NonUnitConstant):
            return False
        block = [row[:k + 1] for row in rows[:k + 1]]
        assert ok(det) == ok(perm_expansion_det(block, one)), k
    return True


def check_det_oracle(seed: int, cases: int) -> int:
    """Random general matrices up to 4x4 over MultiPoly, each asked of one
    ladder.  A matrix it refuses is followed by an L*U product up to 4x4,
    over each ring in turn, which it must answer in full.  Returns the
    number of full determinants compared with the Leibniz expansion."""
    rng = Random(seed)
    compared = refused = 0
    for _ in range(cases):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng, max_terms=2, max_idx=3, max_exp=2)
                 for _ in range(n)] for _ in range(n)]
        if not ladder_matches_leibniz(rows, MultiPoly.one()):
            refused += 1
            draw = rand_lu_series if refused % 2 else rand_lu_poly
            rows, diag = draw(rng, 4)
            assert ladder_matches_leibniz(rows, diag[0] ** 0)
        compared += 1
    # both paths ran: matrices answered in full, and refusals
    assert 0 < refused < cases, refused
    return compared


def _rand_term(rng: Random) -> MultiPoly:
    coeff = rng.choice((-3, -2, -1, 1, 2, 3))
    return MultiPoly.from_terms([(rand_monomial(rng, 3, 2), coeff)])


def _lu_rows(lower, upper, zero):
    n = len(lower)
    return [[ok(sum((lower[i][k] * upper[k][j] for k in range(n)), zero))
             for j in range(n)] for i in range(n)]


def rand_lu_poly(rng: Random, max_n=6):
    """(rows, U's diagonal) of L*U up to max_n x max_n over MultiPoly, L
    unit lower and U upper on single-term diagonals."""
    zero, one = MultiPoly.zero(), MultiPoly.one()
    n = rng.randint(1, max_n)
    lower = [[one if i == j else
              rand_poly(rng, max_terms=2, max_idx=3, max_exp=1)
              if j < i else zero for j in range(n)] for i in range(n)]
    upper = [[_rand_term(rng) if i == j else
              rand_poly(rng, max_terms=2, max_idx=3, max_exp=1)
              if j > i else zero for j in range(n)] for i in range(n)]
    return _lu_rows(lower, upper, zero), [upper[k][k] for k in range(n)]


def _rand_unit_series(rng: Random, order: int) -> XSeries:
    # constant term +1 or -1 plus random terms of degree >= 1
    return rand_series(rng, order) * XSeries.var(rng.randint(1, 2), order) \
        + XSeries.const(rng.choice((1, -1)), order)


def rand_lu_series(rng: Random, max_n=6):
    """(rows, U's diagonal) of L*U up to max_n x max_n over XSeries, L
    unit lower and U upper on unit diagonals."""
    order = rng.randint(3, 7)
    n = rng.randint(1, max_n)
    zero, one = XSeries.zero(order), XSeries.const(1, order)
    lower = [[one if i == j else rand_series(rng, order) if j < i else zero
              for j in range(n)] for i in range(n)]
    upper = [[_rand_unit_series(rng, order) if i == j else
              rand_series(rng, order) if j > i else zero
              for j in range(n)] for i in range(n)]
    return _lu_rows(lower, upper, zero), [upper[k][k] for k in range(n)]


def leading_minors(diag) -> list:
    """The leading minors of L*U: running products of U's diagonal."""
    out = [diag[0]]
    for d in diag[1:]:
        out.append(out[-1] * d)
    return out


def check_lu_elimination(seed: int, cases: int) -> int:
    """L*U up to 6x6, L unit lower and U upper on single-term diagonals.

    Elimination on single-term pivots must run to the end on such a
    product (its multipliers are L's entries) and give U's diagonal
    product, which the Leibniz expansion confirms.
    """
    rng = Random(seed)
    for _ in range(cases):
        rows, diag = rand_lu_poly(rng)
        want = leading_minors(diag)[-1]
        assert ok(eliminated(rows)) == want
        assert ok(perm_expansion_det(rows)) == want
    return cases


def check_series_lu_elimination(seed: int, cases: int) -> int:
    """L*U over XSeries up to 6x6, L unit lower and U upper on unit diagonals.

    The series form of ``check_lu_elimination``: every pivot of such a
    product is a unit of the truncated ring, so the elimination runs to
    the end and gives U's diagonal product, which the Leibniz expansion
    confirms.
    """
    rng = Random(seed)
    for _ in range(cases):
        rows, diag = rand_lu_series(rng)
        want = leading_minors(diag)[-1]
        det = eliminated(rows)
        assert det is not None
        assert ok(det) == want
        assert ok(perm_expansion_det(rows, diag[0] ** 0)) == want
    return cases


def check_ladder_minors(seed: int, cases: int) -> int:
    """Leading minors of L*U up to 6x6, over both rings, from a ladder.

    Asked in ascending and in descending order, and of a fresh ladder on
    each leading block, every minor is U's running
    diagonal product, which the Leibniz expansion confirms; each ladder
    fetches each entry once, however often its minors are asked again.
    """
    rng = Random(seed)
    for case in range(cases):
        rows, diag = (rand_lu_series if case % 2 else rand_lu_poly)(rng)
        n = len(rows)
        want = leading_minors(diag)
        for asked in (range(n), range(n - 1, -1, -1)):
            fetched = Counter()

            def entry(i, j):
                fetched[i, j] += 1
                return rows[i][j]
            ladder = _Minors(entry)
            got = {k: ok(ladder.minor(k)) for k in asked}
            assert [got[k] for k in range(n)] == want
            assert [ladder.minor(k) for k in asked] == [got[k] for k in asked]
            assert fetched == Counter(product(range(n), repeat=2))
        for k in range(n):
            block = [row[:k + 1] for row in rows[:k + 1]]
            assert ok(eliminated(block)) == want[k]
            assert ok(perm_expansion_det(block, diag[0] ** 0)) == want[k]
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


def layered(node: _Layered, order: int) -> XSeries:
    """A layered series through ``order`` as an XSeries, after checking
    that each layer made is canonical and holds x terms of its degree."""
    out = ok(node.series(order))
    for t, layer in enumerate(node._layers):
        for (v, x), _ in ok(layer).sorted_terms():
            assert not v and sum(e for _, e in x) == t, (t, layer)
    return out


def as_layered(s: XSeries) -> _Layered:
    """The terms of ``s`` as a layered sum of products of x variables."""
    out = _Layered.const(0)
    for xs, c in s.sorted_terms():
        term = _Layered.const(c)
        for k, e in xs:
            for _ in range(e):
                term = term * _Layered.var(k)
        out = out + term
    return out


def check_layered_ring(seed: int, cases: int) -> int:
    """The layered series against XSeries: operands built from their
    terms, +, - and *, with int operands, with operands of valuation >= 1,
    with nodes read twice (one of them folded into a sum before its second
    reader exists), and the fixed point s = 1 + r*s, r of valuation >= 1,
    which is 1/(1 - r), also when started from its first layers."""
    rng = Random(seed)
    for _ in range(cases):
        order = rng.randint(0, 6)
        a, b = rand_series(rng, order), rand_series(rng, order)
        if rng.random() < 0.5:
            b = b * XSeries.var(rng.randint(1, 2), order)
        r = rand_series(rng, order) * XSeries.var(1, order)
        la, lb, lr = as_layered(a), as_layered(b), as_layered(r)
        assert layered(la, order) == a and layered(lr, order) == r
        assert layered(la + lb, order) == ok(a + b)
        assert layered(la - lb, order) == ok(a - b)
        assert layered(la * lb, order) == ok(a * b)
        assert layered(3 + la * 2 + 0, order) == ok(3 + a * 2)
        assert layered(_Layered.const(0) - la, order) == ok(-a)
        x2 = XSeries.var(2, order)
        assert layered(_Layered.var(2) * lb, order) == ok(x2 * b)
        both = la * lb  # a summand of one sum and a factor of another
        assert layered(both + lb, order) == ok(a * b + b)
        assert layered(both * la, order) == ok(a * b * a)
        once = la + lb  # both factors of one product
        assert layered(once * once - la, order) == ok((a + b) * (a + b) - a)
        fixed = _Layered.later(lambda s: 1 + lr * s)
        assert layered(fixed, order) == ok((1 - r).inv())
        # started from its first layers, the rule makes only the rest
        known = fixed._layers[:rng.randint(1, order + 1)]
        started = _Layered.later(lambda s: 1 + lr * s, list(known))
        assert layered(started, order) == layered(fixed, order)
        assert all(a is b for a, b in zip(started._layers, known))
    return cases


def check_weight_dp_lengths(seed: int, cases: int) -> int:
    """``_weight_dp``'s per-length sums, read off one sweep over the
    longest length, against a separate walk DP for each length: over the
    ints, MultiPoly, XSeries and the layered series."""
    rng = Random(seed)
    for _ in range(cases):
        p, nsteps = rng.randint(2, 4), rng.randint(0, 8)
        h_start, h_end = rng.randint(0, 3), rng.randint(0, 3)
        order = rng.randint(1, 4)
        weights = [XSeries.const(1, order) + rand_series(rng, order)
                   for _ in range(h_start + (p - 1) * nsteps + 2)]
        rings = ((lambda h: h + 2, 1, lambda v: v),
                 (MultiPoly.v_var, MultiPoly.one(), ok),
                 (weights.__getitem__, XSeries.const(1, order), ok),
                 (lambda h: as_layered(weights[h]), _Layered.const(1),
                  lambda v: layered(v, order)))
        for weight, one, read in rings:
            sums = _weight_dp(p, nsteps, h_start, h_end, weight, one,
                              every=True)
            assert len(sums) == nsteps + 1
            for length, got in enumerate(sums):
                want = _weight_dp(p, length, h_start, h_end, weight, one)
                assert read(got) == read(want), (p, length, h_start, h_end)
    return cases


def evaluate(poly: MultiPoly, v_at, x_at, one):
    """poly at V_i = v_at[i] and x_k = x_at[k], term by term: the sum of
    c * prod s^e over ``sorted_terms``, in the ring whose unit is one."""
    total = one - one
    for (v, x), c in poly.sorted_terms():
        factors = [v_at[i] ** e for i, e in v] + [x_at[k] ** e for k, e in x]
        total = total + reduce(mul, factors, c * one)
    return total


def check_weight_dp_evaluates(seed: int, cases: int) -> int:
    """``_weight_dp`` over random unit-constant series weights against
    ``evaluate`` applied to the expanded f_poly(p, n, r), p in 2..4."""
    rng = Random(seed)
    for _ in range(cases):
        p = rng.randint(2, 4)
        n, r = rng.randint(0, 8 // p), rng.randint(0, p - 1)
        order = rng.randint(1, 4)
        levels = {h: _rand_unit_series(rng, order) for h in range(1, n * p + p)}
        one = XSeries.const(1, order)
        got = _weight_dp(p, n * p + r, r, 0, levels.__getitem__, one)
        assert ok(got) == ok(evaluate(f_poly(p, n, r), levels, {}, one)), \
            (p, n, r)
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


def tseries_mul(a: TSeries, b: TSeries, order: int) -> TSeries:
    """Product through t^order by the double loop over ``MultiPoly`` + and
    *; either operand may be the shorter.  It shares no kernel with the
    expansion."""
    out = [MultiPoly.zero()] * (order + 1)
    for i, x in enumerate(a.coeffs[:order + 1]):
        for j, y in enumerate(b.coeffs[:order + 1 - i]):
            out[i + j] = out[i + j] + x * y
    return TSeries(out)


def tseries_scale(s: TSeries, poly: MultiPoly) -> TSeries:
    return TSeries([poly * c for c in s.coeffs])


def naive_inv_unit(s: TSeries) -> list:
    out = [MultiPoly.one()]
    for n in range(1, s.order + 1):
        acc = MultiPoly.zero()
        for k in range(1, n + 1):
            acc = acc + s.coeffs[k] * out[n - k]
        out.append(-acc)
    return out


def _rand_layer(rng: Random, t: int) -> MultiPoly:
    # up to three signed terms V1^a x1^b x2^c with a + b + c = t, so that
    # products of two such layers often share a monomial
    pairs = []
    for _ in range(rng.randint(0, 3)):
        a = rng.randint(0, t)
        b = rng.randint(0, t - a)
        pairs.append((({1: a}, {1: b, 2: t - a - b}),
                      rng.choice((-2, -1, 1, 2))))
    return MultiPoly.from_terms(pairs)


def check_layer_sum(seed: int, cases: int) -> int:
    """``algebra._layer_sum`` against the double loop over ``MultiPoly`` +
    and *.

    Each block is two lists of homogeneous layers (layer u of degree u)
    with signed coefficients, so that products cancel, and a random
    (lo, hi) range, empty ones among them; a block is sometimes followed
    by the same products negated.  The sum's degree must be t, as a fresh
    scan finds, or None when the sum is zero.
    """
    rng = Random(seed)
    zeros = 0
    for _ in range(cases):
        t = rng.randint(0, 6)
        blocks = []
        for _ in range(rng.randint(1, 3)):
            a = [_rand_layer(rng, u) for u in range(t + 1)]
            b = [_rand_layer(rng, u) for u in range(t + 1)]
            lo = rng.randint(0, t)
            hi = rng.randint(lo - 1, t)
            blocks.append((a, b, lo, hi))
            if rng.random() < 0.2:
                blocks.append((a, [-c for c in b], lo, hi))
        want = MultiPoly.zero()
        for a, b, lo, hi in blocks:
            for u in range(lo, hi + 1):
                want = want + a[u] * b[t - u]
        got = ok(_layer_sum(blocks, t, t))
        assert got == want, (t, blocks)
        assert got._deg == (t if got else None), got._deg
        zeros += not got
    assert zeros, "no sum cancelled to zero"
    return cases


def splitting_recursion(p: int, r: int, shift: int, order: int) -> TSeries:
    """The splitting recursion with one memoized series per (r, shift, order).

    The oracle of ``constel.contfrac.expand_f``: every shifted level is
    expanded on its own, where ``expand_f`` raises the V indices of its
    shift-0 series.
    """
    @cache  # scoped to this call; it refers to itself, so it is cleared
    def series(r, shift, order):
        if r == 0:  # 1 + t * series(p - 1, shift, order - 1)
            tail = series(p - 1, shift, order - 1).coeffs if order else ()
            return TSeries((MultiPoly.one(),) + tail)
        top = series(0, shift + r, order)
        rest = series(r - 1, shift, order)
        return tseries_scale(tseries_mul(top, rest, order),
                             MultiPoly.v_var(shift + r))

    out = series(r, shift, order)
    series.cache_clear()
    return out


def full_order_fraction(p: int, order: int, depth: int | None = None) -> TSeries:
    """Expansion of the nested fraction, exact through t^order.

    The oracle of ``constel.contfrac.expand_fraction``: the same fraction
    with every level at every depth expanded on its own through the full
    t-order, inverted by the naive loop.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if order < 0:
        raise ValueError("order must be >= 0")
    if depth is None:
        depth = order
    if depth < order:
        raise ValueError("depth below order loses exactness")

    @cache  # scoped to this call, as in splitting_recursion
    def fraction(shift, depth):
        if depth == 0:
            return TSeries.one(order)
        prod = None
        for i in range(1, p):
            factor = tseries_scale(fraction(shift + i, depth - 1),
                                   MultiPoly.v_var(shift + i))
            prod = factor if prod is None else tseries_mul(prod, factor, order)
        denom = [MultiPoly.one()]
        denom.extend(-c for c in prod.coeffs[:order])
        return TSeries(naive_inv_unit(TSeries(denom)))

    out = fraction(0, depth)
    fraction.cache_clear()
    return out


def full_order_family(cfg: SolverConfig) -> dict:
    """Levels 1..imax after deg sweeps from the all-ones family, every
    sweep at the full order: the oracle of ``solve_family``."""
    one = XSeries.const(1, cfg.deg)
    family = {i: one for i in range(1, cfg.imax + cfg.window * cfg.deg + 1)}
    for _ in range(cfg.deg):
        family = vi_update(cfg, family)
    return family


def full_order_limit(cfg: SolverConfig) -> XSeries:
    """The level-free limit after deg sweeps, every sweep at the full
    order: the oracle of ``solve_v``."""
    v = XSeries.const(1, cfg.deg)
    for _ in range(cfg.deg):
        v = v_update(cfg, v)
    return v


def full_order_y(order: int) -> XSeries:
    """The substitution variable after ``order`` steps of y = xV (1+y)^2,
    every step at the full order: the oracle of ``make_context``'s y."""
    xv = XSeries.var(1, order) \
        * full_order_limit(SolverConfig(p=3, deg=order, kmax=1, imax=1))
    one = XSeries.const(1, order)
    y = XSeries.zero(order)
    for _ in range(order):
        y = xv * (one + y).pow(2)
    return y


def fraction_bracket(p: int, n: int, k: int) -> Fraction:
    """The bracket of ``f_from_v`` as a sum of fractions, each term
    (jp+1)/(np+1) * C(np+1, n-j) * C(kp-1, k+j): the oracle of
    ``solver._bracket``, integral or not."""
    return sum((Fraction(j * p + 1, n * p + 1) * comb(n * p + 1, n - j)
                * comb(k * p - 1, k + j) for j in range(min(n, k * (p - 1) - 1) + 1)),
               Fraction(0))


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
    return MultiPoly.from_terms(terms.items())


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
    """Division by the single term of b, term by term; NotDivisible if b
    has several terms or its term fails to divide one of a."""
    if len(b) != 1:
        raise NotDivisible("divisor of several terms")
    ((vb, xb), cb), = b.items()
    quo = {}
    for (v, x), c in a.items():
        mono_q = (t_div(v, vb), t_div(x, xb))
        q, r = divmod(c, cb)
        if None in mono_q or r:
            raise NotDivisible("term not divisible")
        quo[mono_q] = q
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
    # the canonical order of polynomials, t_word_key, on x tuples
    return sorted(a.items(), key=lambda kv: t_word_key(((), kv[0])))
