"""Exact arithmetic over two indexed variable families.

Everything downstream lives in the ring Z[V_1, V_2, ...; x_1, x_2, ...]:
the V family carries fall-height weights, the x family carries face
weights.  ``MultiPoly`` is the exact sparse polynomial type; ``XSeries``
is a power series in the x family truncated at a total-degree bound,
which is what the fixed-point solvers produce.  Both rings share one term
store, ``_Terms``, with every member that reads only the terms; the rest
is each ring's own.  Coefficients are plain Python integers, so there is
no precision ceiling anywhere and equality is literal equality.  Every
determinant, over either ring, is a leading minor of ``_Minors``, one
growing LU.  A pivot that breaks its ring's rule raises that ring's error
(``NotDivisible``, ``NonUnitConstant``); there is no second engine to
fall back on.
Every convolution of homogeneous coefficients is one ``_layer_sum``: a
layer of ``_layered._Layered``, the solvers' relaxed series, which joins
them by ``XSeries._of_layers`` and so never sees a packed key, a layer of
``XSeries.inv``, and an excursion cell of ``contfrac``.  The one other
sum of products, the elimination update, is ``MultiPoly._minus_products``.
Both rings raise to a power by halving, s^e = (s^(e//2))^2 * s^(e&1); an
``XSeries`` keeps each power it makes, and its inverse, in a memo of its
own (``_memo``), so its sub-powers are shared across exponents and it is
inverted once.

Packed monomials: inside both types a monomial is one non-negative
Python int made of fixed-width fields of ``_WIDTH`` = 16 bits.  Field 0,
the low bits, holds the total degree; V_i owns field 2i-1 and x_k owns
field 2k, so the two families interleave and neither index is bounded.
Multiplying two monomials adds their ints, the degree is
``key & _FIELD``, and hashing and equality are int operations.  A field
holds at most 2^16-1, and no exponent exceeds the degree, so a product
whose factors' degrees sum past that limit raises ``ExponentOverflow``
(an ``ArithmeticError``) instead of carrying into the next field: one
degree check per multiply covers every field.  Only this module sees
packed keys: elsewhere a monomial is the pair (v, x) of sorted
(index, exp) tuples, which ``from_terms`` takes and ``sorted_terms`` gives.

Canonical form: zero coefficients are never stored; terms print in order
of total degree, then lexicographically on the expanded (family, index)
word with V before x.  The empty polynomial prints as "0", the unit
monomial with coefficient c prints as "c".  Two words of one degree
first differ where one has the larger exponent on the earlier variable:
the order is ascending degree, then descending V fields, then x fields.
``_ordered`` gives it to every reader of keys by field: each key is
padded to the width of the OR of all keys (``_used``), its sort key is
one ``bytes`` of its fields big-endian, the degree complemented and, only
when both families occur, the V fields moved before the x fields; one
descending sort gives the order, and each term's fields are decoded
from one native buffer of all keys as the term is read.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import compress, count
from operator import or_


class NotDivisible(ArithmeticError):
    """Exact polynomial division has no quotient in the integer ring."""


class ExponentOverflow(ArithmeticError):
    """A monomial degree does not fit its packed 16-bit field."""


class NonUnitConstant(ArithmeticError):
    """Series inversion needs constant term +1 or -1."""


class OutOfRange(ValueError):
    """An argument lies outside the range its function documents."""


def _at_least(low: int, **values: int) -> None:
    """Refuse the first of ``values``, in keyword order, below ``low``."""
    for name, value in values.items():
        if value < low:
            raise OutOfRange(f"{name} must be >= {low}")


def _at_most(high: int, **values: int) -> None:
    """Refuse the first of ``values``, in keyword order, above ``high``."""
    for name, value in values.items():
        if value > high:
            raise OutOfRange(f"{name} must be <= {high}")


# ---------------------------------------------------------------------------
# packed monomials: one int, a 16-bit field per (family, index), degree low

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1  # one field's mask, and the largest degree
_NAMES: list[str] = []  # _NAMES[j] is str(j + 1), grown by _used


def _as_exponents(data) -> tuple[tuple[int, int], ...]:
    # sorted ((index, exp), ...) with index >= 1, exp >= 1
    if not data:
        return ()
    items = data.items() if isinstance(data, Mapping) else data
    seen: dict[int, int] = {}
    for idx, exp in items:
        idx = int(idx)
        exp = int(exp)
        if idx < 1:
            raise ValueError(f"variable index must be >= 1, got {idx}")
        if exp < 0:
            raise ValueError(f"exponent must be >= 0, got {exp}")
        if exp:
            seen[idx] = seen.get(idx, 0) + exp
    return tuple(sorted(seen.items()))


def _pack(v, x) -> int:
    # v and x as returned by _as_exponents
    key = deg = 0
    for idx, exp in v:
        key |= exp << (_WIDTH * (2 * idx - 1))
        deg += exp
    for idx, exp in x:
        key |= exp << (_WIDTH * 2 * idx)
        deg += exp
    _check_degree(deg)
    return key | deg


def _check_degree(deg: int) -> int:
    if deg > _FIELD:
        raise ExponentOverflow(f"monomial degree {deg} exceeds the "
                               f"{_WIDTH}-bit field limit {_FIELD}")
    return deg


def _used(terms) -> tuple[list, list]:
    """The V fields and the x fields of the OR of all keys, each nonzero iff
    some key uses it: a key padded to their width has 1 + both lengths."""
    used = reduce(or_, terms, 0)
    n = used.bit_length() // _WIDTH + 1
    _NAMES.extend(map(str, range(len(_NAMES) + 1, n + 1)))
    f = memoryview(used.to_bytes(2 * n, sys.byteorder)).cast("H").tolist()
    return f[1::2], f[2::2]


def _ordered(terms: dict):
    """(coeff, V fields, x fields) per term in canonical order; a family
    that no key uses gives () for its fields."""
    v, x = _used(terms)
    n, vs, xs = 1 + len(v) + len(x), any(v), any(x)
    raw = b"".join([(k ^ _FIELD).to_bytes(2 * n, sys.byteorder) for k in terms])
    f, coeffs = memoryview(raw).cast("H"), list(terms.values())
    order = range(len(coeffs))
    if len(coeffs) > 1:
        big = bytearray(raw)  # each field big-endian
        if sys.byteorder == "little":
            big[::2], big[1::2] = raw[1::2], raw[::2]
        if vs and xs:  # the V fields before the x fields
            fields, big = memoryview(bytes(big)).cast("H"), memoryview(big).cast("H")
            for new, old in enumerate([0, *range(1, n, 2), *range(2, n, 2)]):
                big[new::n] = fields[old::n]
        big = bytes(big)
        keys = [big[j:j + 2 * n] for j in range(0, len(big), 2 * n)]
        order = sorted(order, key=keys.__getitem__, reverse=True)
        del big, keys  # the sort keys are not read past the sort
    for i in order:
        j = i * n
        yield coeffs[i], f[j + 1:j + n:2].tolist() if vs else (), \
            f[j + 2:j + n:2].tolist() if xs else ()


def _nonzero(fields, index):
    # (index, exp) for every nonzero entry of a V or x field list: index
    # is count(1), or _NAMES for index strings (grown by _used)
    return compress(zip(index, fields), fields)


def _quotient(a: int, b: int):
    """Packed a / b, or None when b does not divide a."""
    rest, shift = b, 0
    while rest:
        if rest & _FIELD > (a >> shift) & _FIELD:
            return None
        rest >>= _WIDTH
        shift += _WIDTH
    return a - b


def _merge(a: dict, b: dict, sign: int) -> tuple[dict, bool]:
    """a + sign*b for sign +1 or -1, as one copy of a and one pass over b,
    and whether a coefficient cancelled: when none did, every key of a and
    b survives, so the sum's degree is the larger of theirs."""
    if sign == 1 and len(a) < len(b):  # a sum copies its larger operand
        a, b = b, a
    out, cancelled = dict(a), False
    get = out.get
    for key, coeff in b.items():
        c = get(key, 0) + sign * coeff
        if c:
            out[key] = c
        else:
            del out[key]
            cancelled = True
    return out, cancelled


def _text(v, x) -> str:
    # v and x as (index, exp) pairs, the index an int or its string
    parts = [f"V{i}" if e == 1 else f"V{i}^{e}" for i, e in v]
    parts += [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in x]
    return "*".join(parts) or "1"


class _Terms:
    """The packed terms of both rings, and every member that reads only them."""

    __slots__ = ("_terms",)

    @property
    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def __bool__(self):
        return bool(self._terms)

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        terms = self._terms
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    def _check(self):
        """Assert canonical form: nonzero int coefficients (no bool), and
        non-negative keys whose fields sum to their degree (a carry breaks
        that)."""
        for key, coeff in self._terms.items():
            if type(coeff) is not int or not coeff or key < 0:
                raise AssertionError(f"stored term {key!r}: {coeff!r}")
            if sum(map(sum, _used((key,)))) != key & _FIELD:
                raise AssertionError(f"packed monomial {key:#x} is not canonical")
        return self

    def __neg__(self):
        return self * -1

    def __rsub__(self, other):
        # other + (-self), so a foreign operand still gets NotImplemented
        return (-self).__add__(other)

    def __str__(self):
        return _terms_text((_text(_nonzero(v, _NAMES), _nonzero(x, _NAMES)), c)
                           for c, v, x in _ordered(self._terms))


class MultiPoly(_Terms):
    """Sparse polynomial in Z[V_*; x_*] with exact integer coefficients; its
    terms live in ``_Terms``, and it keeps what its own ring decides."""

    __slots__ = ("_deg",)

    def __init__(self, terms: dict):
        # trusts the caller: packed keys, no zero coefficients
        self._terms = terms
        self._deg = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls({})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({0: int(c)}) if c else cls({})

    @classmethod
    def v_var(cls, i: int, exp: int = 1) -> "MultiPoly":
        return cls({_pack(_as_exponents(((i, exp),)), ()): 1})

    @classmethod
    def x_var(cls, k: int, exp: int = 1) -> "MultiPoly":
        return cls({_pack((), _as_exponents(((k, exp),))): 1})

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[tuple, int]]) -> "MultiPoly":
        """Sum of ((v, x), coeff) pairs; v and x map index to exponent,
        as a mapping or as (index, exp) pairs."""
        acc: dict[int, int] = {}
        for (v, x), coeff in pairs:
            key = _pack(_as_exponents(v), _as_exponents(x))
            c = acc.get(key, 0) + coeff
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]
        return cls(acc)

    # -- inspection ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """((v, x), coeff) pairs in canonical order."""
        return [((tuple(_nonzero(v, count(1))), tuple(_nonzero(x, count(1)))), c)
                for c, v, x in _ordered(self._terms)]

    def total_degree(self) -> int:
        deg = self._deg
        if deg is None:
            deg = self._deg = max((k & _FIELD for k in self._terms), default=0)
        return deg

    # -- ring operations ------------------------------------------------

    def __add__(self, other, sign=1):
        """self + sign*other.  The sum carries the larger of the operands'
        known degrees when no coefficient cancelled, else none."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out, cancelled = _merge(self._terms, other._terms, sign)
        total = MultiPoly(out)
        da, db = self._deg, other._deg
        if not cancelled and da is not None and db is not None:
            total._deg = da if da > db else db
        return total

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return MultiPoly({})
        # no field of a product exceeds its degree, so one check covers all
        deg = _check_degree(self.total_degree() + other.total_degree())
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:  # a key shift: no two keys collide, no zero appears
            (ma, ca), = a.items()
            prod = MultiPoly({ma + mb: ca * cb for mb, cb in b.items()})
        else:
            out: dict[int, int] = {}
            get = out.get
            for ma, ca in a.items():
                for mb, cb in b.items():
                    m = ma + mb
                    c = get(m, 0) + ca * cb
                    if c:
                        out[m] = c
                    elif m in out:
                        del out[m]
            prod = MultiPoly(out)
        prod._deg = deg  # the top-degree parts cannot cancel over Z
        return prod

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if e < 2:
            return self if e else MultiPoly.one()
        half = self ** (e >> 1)  # as ``XSeries.pow``, with no memo
        return half * half * self if e & 1 else half * half

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = _Terms.__hash__  # defining __eq__ unsets it

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact quotient q with q * other == self, other a single term.

        The division is ``other._divider()``, the rule of the elimination
        pivots; a divisor of several terms, or a term c*m where c or m
        fails to divide some term of self, raises NotDivisible.
        """
        if not other._terms:
            raise ZeroDivisionError("exact division by the zero polynomial")
        return other._divider()(self)

    def _divider(self):
        """Division by this polynomial as an elimination pivot.

        The pivot must be a single term c*m, else NotDivisible.  The
        callable returns entry / (c*m), and raises NotDivisible when m or c
        fails to divide some term.
        """
        if len(self._terms) != 1:
            raise NotDivisible(f"the divisor has {len(self._terms)} terms, not one")
        (mono, coeff), = self._terms.items()

        def divide(entry):
            quo = {}
            for key, c in entry._terms.items():
                q_key = _quotient(key, mono)
                q, r = divmod(c, coeff)
                if q_key is None or r:
                    raise NotDivisible(f"the divisor {self} does not divide "
                                       "every term")
                quo[q_key] = q
            return MultiPoly(quo)
        return divide

    def _raised(self, s: int, term: "MultiPoly") -> "MultiPoly":
        """term * sigma^s(self), term one term and self free of x: sigma
        raises every V index by one, moving each V field two fields up."""
        if any(_used(self._terms)[1]):
            raise ValueError("only a polynomial in the V family is raised")
        (mono, coeff), = term._terms.items()
        deg = _check_degree(self.total_degree() + term.total_degree())
        up = _WIDTH * (2 * s + 1)
        out = MultiPoly({((k >> _WIDTH) << up) + (k & _FIELD) + mono: c * coeff
                         for k, c in self._terms.items()})
        out._deg = deg if out._terms else None
        return out

    def _minus_products(self, pairs) -> "MultiPoly":
        """self - sum of a*b over (a, b) pairs: one elimination update.

        Every product accumulates into one dict and zeros are dropped once
        at the end, where a running difference would copy it once per
        product (the sum-of-products form of Monagan & Pearce, *Sparse
        polynomial division using a heap*, JSC 2011).  The degree check of
        ``__mul__`` runs per pair.  ``__mul__`` keeps its own loop, which
        drops zeros as it goes: routed through this one, the hankel_ladder
        benchmark ran 10% slower.
        """
        out = dict(self._terms)
        get = out.get
        top = -1
        for a, b in pairs:
            ta, tb = a._terms, b._terms
            if not ta or not tb:
                continue
            deg = a.total_degree() + b.total_degree()
            if deg > top:  # a degree at most top passed the check already
                top = _check_degree(deg)
            if len(ta) > len(tb):
                ta, tb = tb, ta
            for ma, ca in ta.items():
                for mb, cb in tb.items():
                    m = ma + mb
                    out[m] = get(m, 0) - ca * cb
        return MultiPoly({m: c for m, c in out.items() if c})

    # -- text and JSON ---------------------------------------------------

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json(self) -> list[dict]:
        return list(self._json_terms())

    def _json_terms(self):
        # the entries of to_json, one at a time
        for c, v, x in _ordered(self._terms):
            yield {"coeff": str(c), "V": dict(_nonzero(v, _NAMES)) if v else {},
                   "x": dict(_nonzero(x, _NAMES)) if x else {}}

    @classmethod
    def from_json(cls, data: Sequence[Mapping]) -> "MultiPoly":
        return cls.from_terms(((term.get("V"), term.get("x")), int(term["coeff"]))
                              for term in data)


def _layer_sum(blocks, t: int, deg: int) -> MultiPoly:
    """Coefficient t of a product of series given by their homogeneous
    coefficients: the sum over (a, b, lo, hi) blocks of a[u] * b[t-u] for
    lo <= u <= hi.  Every product has degree ``deg``: t for a layer of
    ``_layered._Layered`` or ``XSeries.inv``, n(p-1)+r for the excursion
    cell (n, r) of ``contfrac``.  So one degree check covers the sum, and
    its degree is ``deg`` unless it is zero."""
    _check_degree(deg)
    out: dict[int, int] = {}
    get = out.get
    for a, b, lo, hi in blocks:
        for u in range(lo, hi + 1):
            ta, tb = a[u]._terms, b[t - u]._terms
            if len(ta) > len(tb):
                ta, tb = tb, ta
            for ma, ca in ta.items():
                for mb, cb in tb.items():
                    m = ma + mb
                    out[m] = get(m, 0) + ca * cb
    if 0 in out.values():  # a coefficient cancelled: rare in a layer
        out = {m: c for m, c in out.items() if c}
    layer = MultiPoly(out)
    layer._deg = deg if out else None
    return layer


def _coerce(value):
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int):
        return MultiPoly.const(value)
    return NotImplemented


def _terms_text(pairs) -> str:
    # pairs of (monomial text, coeff) in order
    chunks = []
    for body, coeff in pairs:
        mag = abs(coeff)
        term = str(mag) if body == "1" else body if mag == 1 else f"{mag}*{body}"
        chunks.append((" - " if coeff < 0 else " + ") + term)
    if not chunks:
        return "0"
    text = "".join(chunks)
    return ("-" if text[1] == "-" else "") + text[3:]


# ---------------------------------------------------------------------------
# truncated power series in the x family


class XSeries(_Terms):
    """Power series in Z[[x_1, x_2, ...]] truncated at total degree ``order``.

    Every x_k counts one toward the degree regardless of k.  Arithmetic
    truncates at the smaller operand order; equality means same order and
    identical coefficients through it.  Its terms live in ``_Terms``, as
    in ``MultiPoly``, x fields only; what reads the order is its own.
    """

    __slots__ = ("order", "_memo")

    def __init__(self, order: int, terms: dict):
        self.order = order
        self._terms = terms
        self._memo = None  # {e: self**e for e >= 2, -1: the inverse}, on demand

    @classmethod
    def zero(cls, order: int) -> "XSeries":
        return cls(order, {})

    @classmethod
    def const(cls, c: int, order: int) -> "XSeries":
        return cls(order, {0: int(c)} if c else {})

    @classmethod
    def var(cls, k: int, order: int) -> "XSeries":
        _at_least(1, k=k)
        if order < 1:
            return cls(order, {})
        return cls(order, {_pack((), ((k, 1),)): 1})

    def coeff(self, exponents) -> int:
        return self._terms.get(_pack((), _as_exponents(exponents)), 0)

    def truncate(self, order: int) -> "XSeries":
        if order >= self.order:
            if order == self.order:
                return self
            raise ValueError("cannot extend a truncated series")
        return XSeries(order, {k: c for k, c in self._terms.items()
                               if k & _FIELD <= order})

    @classmethod
    def _of_layers(cls, layers: Sequence[MultiPoly]) -> "XSeries":
        """The series at order len(layers) - 1 whose degree-t part is
        layers[t], a homogeneous polynomial in the x family."""
        terms: dict[int, int] = {}
        for layer in layers:
            terms.update(layer._terms)
        return cls(len(layers) - 1, terms)

    def _check(self) -> "XSeries":
        """Assert canonical form: as ``_Terms._check``, within the order,
        and x fields only."""
        super()._check()
        if any(k & _FIELD > self.order for k in self._terms):
            raise AssertionError(f"a term's degree is past order {self.order}")
        if any(_used(self._terms)[0]):
            raise AssertionError("V variable in a series key")
        return self

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other, sign=1):
        # self + sign*other, both truncated to the smaller order
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        return XSeries(order, _merge(self.truncate(order)._terms,
                                     other.truncate(order)._terms, sign)[0])

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        a, b = self._terms, other._terms
        if not a or not b:
            return XSeries(order, {})
        # only products of degree <= order are formed
        if order > _FIELD:
            _check_degree(max(k & _FIELD for k in a) + max(k & _FIELD for k in b))
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        b_items = sorted((k & _FIELD, k, c) for k, c in b.items())
        for ka, ca in a.items():
            room = order - (ka & _FIELD)
            for db, kb, cb in b_items:
                if db > room:
                    break
                k = ka + kb
                c = get(k, 0) + ca * cb
                if c:
                    out[k] = c
                elif k in out:
                    del out[k]
        return XSeries(order, out)

    __rmul__ = __mul__

    def inv(self) -> "XSeries":
        """Multiplicative inverse, kept in the memo; constant term +1 or -1."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if -1 in memo:
            return memo[-1]
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NonUnitConstant(f"constant term {c0} is not a unit")
        order = self.order
        _check_degree(order)  # the inverse has terms up to the order
        by_deg: list[dict] = [{} for _ in range(order + 1)]
        for key, coeff in self._terms.items():
            by_deg[key & _FIELD][key] = -c0 * coeff
        # inverse layer d is the sum over k >= 1 of -c0 * a_k * inverse_(d-k)
        layers, inv = [MultiPoly(terms) for terms in by_deg], [MultiPoly({0: c0})]
        for d in range(1, order + 1):
            inv.append(_layer_sum([(layers, inv, 1, d)], d, d))
        return memo.setdefault(-1, XSeries._of_layers(inv))

    def _divider(self):
        """Division by this series as an elimination pivot: the product with
        its inverse, which never leaves the ring.  ``inv`` raises
        NonUnitConstant unless the constant term is +1 or -1."""
        return self.inv().__mul__

    def _minus_products(self, pairs) -> "XSeries":
        """self - sum of a*b over (a, b) pairs, by plain ring operations."""
        out = self
        for a, b in pairs:
            if a and b:
                out = out - a * b
        return out

    def pow(self, e: int) -> "XSeries":
        """self**e by halving, each power kept in the memo, so sub-powers are
        shared across exponents; self**-e is the inverse's own power e."""
        if e in (0, 1):
            return self if e else XSeries.const(1, self.order)
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if e < 0:
            return (memo[-1] if -1 in memo else self.inv()).pow(-e)
        if e not in memo:
            half = self.pow(e >> 1)
            memo[e] = half * half * self if e & 1 else half * half
        return memo[e]

    __pow__ = pow

    def __eq__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self._terms == other._terms

    __hash__ = _Terms.__hash__  # equal series have equal terms

    # -- text and JSON ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """(x exponent tuple, coefficient) pairs in canonical order."""
        return [(tuple(_nonzero(x, count(1))), c) for c, _, x in _ordered(self._terms)]

    def __repr__(self):
        return f"XSeries(order={self.order}, {self})"

    def to_json(self) -> dict:
        return {
            "truncation_order": self.order,
            "terms": [{"coeff": str(c), "x": dict(_nonzero(x, _NAMES)) if x else {}}
                      for c, _, x in _ordered(self._terms)],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "XSeries":
        order = int(data["truncation_order"])
        poly = MultiPoly.from_terms(((None, term.get("x")), int(term["coeff"]))
                                    for term in data["terms"])
        return cls(order, {k: c for k, c in poly._terms.items() if k & _FIELD <= order})


def _coerce_series(value, order):
    if isinstance(value, XSeries):
        return value
    if isinstance(value, int):
        return XSeries.const(value, order)
    return NotImplemented


# ---------------------------------------------------------------------------
# determinants: the leading minors of one elimination


class _Minors:
    """The leading minors of one matrix, by bordered (Doolittle) elimination.

    Border n makes row n of L and pivot u[n][n] of a = L*U, L unit lower
    triangular; minor(n) = minor(n-1) * u[n][n].  Row n's residual at
    column c, base(n, c) - sum_j l[n][j] u[j][c] over the multipliers made
    so far, is one ring ``_minus_products``: at c < n pivot c's
    ``_divider()`` turns it into l[n][c] (the last pivot needs none), and
    at c >= n it is u[n][c].  Each U entry is made once, when first read.

    base(k, c) is the entry a[k][c], except that with ``shift`` = s the
    caller promises that row k >= s of a is row k-s moved one column left,
    and base(k, c) is u[k-s][c+1]: those rows read no entry.  This is
    exact: row k-s of U moved left is row k of a plus a combination of the
    rows above it, and clearing its columns before k leaves row k of U,
    which is unique.  It is zero before column k-s-1, so row k has at most
    s+1 multipliers (the modified Chebyshev algorithm; Gautschi, SIAM J.
    Sci. Stat. Comput. 3, 1982).

    A pivot that breaks its ring's rule, or a quotient that leaves the
    ring, raises the ring's own error (``NotDivisible``,
    ``NonUnitConstant``) on every request for a minor past it; the ladder
    keeps the borders before it, and never falls back.
    """

    __slots__ = ("_entry", "_shift", "_lower", "_upper", "minors")

    def __init__(self, entry, shift=None):
        self._entry = entry
        self._shift = shift
        self._lower = []   # _lower[k]: (j0, l[k][j0 .. k-1]); 0 before j0
        self._upper = []   # _upper[k]: {c: u[k][c]} made so far
        self.minors = []   # minors[n]: the leading (n+1) x (n+1) minor

    def minor(self, n: int):
        """Determinant of the leading (n+1) x (n+1) block, n >= 0."""
        # a border that raises leaves the ladder as it was (its U entries
        # made so far are exact, and kept)
        while len(self.minors) <= n:
            self._eliminate(len(self.minors))
        return self.minors[n]

    def _u(self, k: int, c: int):
        # u[k][c] for c >= k, made once
        row = self._upper[k]
        u = row.get(c)
        if u is None:
            u = row[c] = self._residual(k, c, *self._lower[k])
        return u

    def _residual(self, k: int, c: int, j0: int, mults):
        shift = self._shift
        if shift is None or k < shift:
            base = self._entry(k, c)
        else:
            base = self._u(k - shift, c + 1)
        if not mults:
            return base
        ups = [self._u(j, c) for j in range(j0, j0 + len(mults))]
        return base._minus_products(zip(mults, ups))

    def _eliminate(self, n: int):
        # row n of L and U's pivot n, then minor(n); kept only at the end
        shift = self._shift
        j0 = 0 if shift is None or n < shift else max(0, n - shift - 1)
        # the pivots' dividers first: a pivot that breaks its ring's rule
        # refuses before any work on this border
        dividers = [self._upper[j][j]._divider() for j in range(j0, n)]
        mults = []
        for j, divide in enumerate(dividers, j0):
            mult = self._residual(n, j, j0, mults)
            mults.append(divide(mult) if mult else mult)
        pivot = self._residual(n, n, j0, mults)
        det = self.minors[-1] * pivot if n else pivot
        self._lower.append((j0, mults))
        self._upper.append({n: pivot})
        self.minors.append(det)
