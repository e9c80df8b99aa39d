"""Exact arithmetic over two indexed variable families.

Everything downstream lives in the ring Z[V_1, V_2, ...; x_1, x_2, ...]:
the V family carries fall-height weights, the x family carries face
weights.  ``MultiPoly`` is the exact sparse polynomial type; ``XSeries``
is a power series in the x family truncated at a total-degree bound,
which is what the fixed-point solvers produce.  Coefficients are plain
Python integers, so there is no precision ceiling anywhere and equality
is literal equality.  ``det_elements`` is the one determinant, over
either ring: a list of rows in, the ring element out.

Packed monomials: inside both types a monomial is one non-negative
Python int made of fixed-width fields of ``_WIDTH`` = 16 bits.  Field 0,
the low bits, holds the total degree; V_i owns field 2i-1 and x_k owns
field 2k, so the two families interleave and neither index is bounded.
Multiplying two monomials adds their ints, the degree is
``key & _FIELD``, and hashing and equality are int operations.  A field
holds at most 2^16-1, and no exponent exceeds the degree, so a product
whose factors' degrees sum past that limit raises ``ExponentOverflow``
(an ``ArithmeticError``) instead of carrying into the next field: one
degree check per multiply covers every field.  ``Monomial`` is the
unpacked form used at construction and coefficient lookup.

Canonical form: zero coefficients are never stored; terms print in order
of total degree, then lexicographically on the expanded (family, index)
word with V before x.  The empty polynomial prints as "0", the unit
monomial with coefficient c prints as "c".  Sorted output, text and JSON
read the keys in C (``_decode``): each is padded to the width of the OR
of all keys, and its bytes, cast to native 16-bit fields, give the
degree, the V fields (odd) and the x fields (even) as lists of one
length.  Two words of one degree first differ where one has the larger
exponent on the earlier variable, so the canonical order is descending
(-degree, V fields, x fields); ``Monomial`` compares by the same sort.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Sequence
from functools import reduce, total_ordering
from itertools import compress, count
from operator import or_


class NotDivisible(ArithmeticError):
    """Exact polynomial division has no quotient in the integer ring."""


class ExponentOverflow(ArithmeticError):
    """A monomial degree does not fit its packed 16-bit field."""


class NonSquare(ValueError):
    """Determinant of a non-square matrix was requested."""


class NonUnitConstant(ArithmeticError):
    """Series inversion needs constant term +1 or -1."""


class UnassignedVariable(KeyError):
    """Substitution met a variable without an assigned series."""


# ---------------------------------------------------------------------------
# packed monomials: one int, a 16-bit field per (family, index), degree low

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1  # one field's mask, and the largest degree
_NAMES: list[str] = []  # _NAMES[j] is str(j + 1), grown by _decode


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


def _check_degree(deg: int):
    if deg > _FIELD:
        raise ExponentOverflow(f"monomial degree {deg} exceeds the "
                               f"{_WIDTH}-bit field limit {_FIELD}")


def _fields(key):
    """(field, exp) for every nonzero variable field of a packed key."""
    key >>= _WIDTH
    field = 1
    while key:
        exp = key & _FIELD
        if exp:
            yield field, exp
        key >>= _WIDTH
        field += 1


def _decode(terms: dict) -> list:
    """(-degree, V fields, x fields, coeff, key) per term, in dict order.

    Every key is padded to the width of the OR of all keys, so the field
    lists have one length, and the keys are read in C: one ``to_bytes``
    in native byte order and one 16-bit ``cast`` for all of them.
    """
    nfields = reduce(or_, terms, 0).bit_length() // _WIDTH + 1
    while len(_NAMES) < nfields:
        _NAMES.append(str(len(_NAMES) + 1))
    f = memoryview(b"".join([k.to_bytes(2 * nfields, sys.byteorder) for k in terms])) \
        .cast("H").tolist()
    return [(-f[j], f[j + 1:j + nfields:2], f[j + 2:j + nfields:2], c, k)
            for j, (k, c) in zip(range(0, len(f), nfields), terms.items())]


def _canonical(terms: dict) -> list:
    # the keys are unique, so the sort never compares past the x fields
    return sorted(_decode(terms), reverse=True)


def _nonzero(fields, index):
    # (index, exp) for every nonzero entry of a V or x field list: index
    # is count(1), or _NAMES for index strings (grown by _decode)
    return zip(compress(index, fields), compress(fields, fields))


def _unpack(key) -> tuple[tuple, tuple]:
    _, v, x, _, _ = _decode({key: 0})[0]
    return tuple(_nonzero(v, count(1))), tuple(_nonzero(x, count(1)))


def _quotient(a: int, b: int):
    """Packed a / b, or None when b does not divide a."""
    rest, shift = b, 0
    while rest:
        if rest & _FIELD > (a >> shift) & _FIELD:
            return None
        rest >>= _WIDTH
        shift += _WIDTH
    return a - b


def _graded(key: int):
    # a multiplication-compatible order, graded so that division is bounded
    return key & _FIELD, key


def _check_term(key, coeff):
    if not isinstance(coeff, int) or not coeff:
        raise AssertionError(f"stored coefficient {coeff!r}")
    # a carry out of any field leaves the degree field off the field sum
    if key < 0 or sum(e for _, e in _fields(key)) != key & _FIELD:
        raise AssertionError(f"packed monomial {key:#x} is not canonical")


@total_ordering
class Monomial:
    """A product of variables from the two families, e.g. V1^2*V3*x2.

    The unpacked form: ``v`` and ``x`` are sorted (index, exponent)
    tuples, and ``key`` is the packed int that the rings store.  The
    order is the canonical term order.
    """

    __slots__ = ("v", "x", "key")

    def __init__(self, v=(), x=()):
        self.v = v
        self.x = x
        self.key = _pack(v, x)

    @classmethod
    def make(cls, v=None, x=None) -> "Monomial":
        return cls(_as_exponents(v), _as_exponents(x))

    @classmethod
    def _from_key(cls, key: int) -> "Monomial":
        mono = cls.__new__(cls)
        mono.v, mono.x = _unpack(key)
        mono.key = key
        return mono

    @property
    def degree(self) -> int:
        return self.key & _FIELD

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_degree(self.degree + other.degree)
        return Monomial._from_key(self.key + other.key)

    def divide(self, other: "Monomial"):
        """Exact quotient self / other, or None when not divisible."""
        key = _quotient(self.key, other.key)
        return None if key is None else Monomial._from_key(key)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __lt__(self, other):
        # self comes first in the canonical order of the pair
        return self.key != other.key and \
            _canonical({self.key: 0, other.key: 0})[0][4] == self.key

    def text(self) -> str:
        return _text(self.v, self.x)

    def __repr__(self):
        return f"Monomial({self.text()})"


def _text(v, x) -> str:
    # v and x as (index, exp) pairs, the index an int or its string
    parts = [f"V{i}" if e == 1 else f"V{i}^{e}" for i, e in v]
    parts += [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in x]
    return "*".join(parts) or "1"


class MultiPoly:
    """Sparse polynomial in Z[V_*; x_*] with exact integer coefficients."""

    __slots__ = ("_terms", "_hash", "_deg")

    def __init__(self, terms: dict):
        # trusts the caller: packed keys, no zero coefficients
        self._terms = terms
        self._hash = None
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
        return cls({0: c}) if c else cls({})

    @classmethod
    def v_var(cls, i: int, exp: int = 1) -> "MultiPoly":
        return cls({Monomial.make({i: exp}).key: 1})

    @classmethod
    def x_var(cls, k: int, exp: int = 1) -> "MultiPoly":
        return cls({Monomial.make(None, {k: exp}).key: 1})

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Monomial, int]]) -> "MultiPoly":
        acc: dict[int, int] = {}
        for mono, coeff in pairs:
            key = mono.key
            c = acc.get(key, 0) + coeff
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]
        return cls(acc)

    # -- inspection ----------------------------------------------------

    @property
    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono.key, 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return [(Monomial._from_key(k), c)
                for _, _, _, c, k in _canonical(self._terms)]

    def _used(self) -> tuple[tuple, tuple]:
        # a field is nonzero in the OR of the keys iff some key uses it
        return _unpack(reduce(or_, self._terms, 0))

    def v_indices(self) -> set[int]:
        return {i for i, _ in self._used()[0]}

    def x_indices(self) -> set[int]:
        return {i for i, _ in self._used()[1]}

    def total_degree(self) -> int:
        deg = self._deg
        if deg is None:
            deg = self._deg = max((k & _FIELD for k in self._terms), default=0)
        return deg

    def _check(self) -> "MultiPoly":
        """Assert canonical form: nonzero coefficients, consistent fields."""
        for key, coeff in self._terms.items():
            _check_term(key, coeff)
        return self

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = (self._terms, other._terms)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for mono, coeff in small.items():
            c = out.get(mono, 0) + coeff
            if c:
                out[mono] = c
            else:
                del out[mono]
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _difference(self._terms, other._terms)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _difference(other._terms, self._terms)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return MultiPoly({})
        # no field of a product exceeds its degree, so one check covers all
        deg = self.total_degree() + other.total_degree()
        _check_degree(deg)
        if len(a) > len(b):
            a, b = b, a
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
        result = MultiPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._terms.items()))
        return h

    def __bool__(self):
        return bool(self._terms)

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact quotient q with q * other == self; NotDivisible otherwise.

        Leading terms are taken in the graded order of ``_graded``; any
        multiplication-compatible order gives the same, unique, quotient.
        """
        if not other._terms:
            raise ZeroDivisionError("exact division by the zero polynomial")
        if not self._terms:
            return MultiPoly({})
        lead_b = max(other._terms, key=_graded)
        lc_b = other._terms[lead_b]
        rem = dict(self._terms)
        quo: dict[int, int] = {}
        while rem:
            lead_a = max(rem, key=_graded)
            mono_q = _quotient(lead_a, lead_b)
            if mono_q is None:
                raise NotDivisible("leading monomial not divisible")
            lc_a = rem[lead_a]
            c, r = divmod(lc_a, lc_b)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            quo[mono_q] = c
            # every mono_b is at most lead_b, so no sum passes lead_a's degree
            for mono_b, c_b in other._terms.items():
                m = mono_q + mono_b
                cc = rem.get(m, 0) - c * c_b
                if cc:
                    rem[m] = cc
                elif m in rem:
                    del rem[m]
        return MultiPoly(quo)

    def _divider(self):
        """Division by this polynomial as an elimination pivot, or None.

        The pivot must be a single term c*m.  The callable returns
        entry / (c*m), or None when m or c fails to divide some term.
        """
        if len(self._terms) != 1:
            return None
        (mono, coeff), = self._terms.items()

        def divide(entry):
            quo = {}
            for key, c in entry._terms.items():
                q_key = _quotient(key, mono)
                q, r = divmod(c, coeff)
                if q_key is None or r:
                    return None
                quo[q_key] = q
            return MultiPoly(quo)
        return divide

    def substitute(self, v_assign=None, x_assign=None, order=None) -> "XSeries":
        """Map V_i and x_k to XSeries values; the result is an XSeries.

        Every variable appearing in the polynomial must be assigned.  The
        truncation order defaults to the smallest order among the used
        assignments.  Powers of each assigned series are shared by all
        terms, each built from the next lower one by one multiply.
        """
        v_assign = v_assign or {}
        x_assign = x_assign or {}
        used_v, used_x = self._used()
        base: dict[int, XSeries] = {}
        for fam, assign, used in (("V", v_assign, used_v), ("x", x_assign, used_x)):
            for idx, _ in used:
                s = assign.get(idx)
                if s is None:
                    raise UnassignedVariable(f"{fam}{idx}")
                base[2 * idx - 1 if fam == "V" else 2 * idx] = s
        if order is None:
            if not base:
                raise ValueError("substitute needs an explicit order when "
                                 "no variable is assigned")
            order = min(s.order for s in base.values())
        # powers[field][e - 1] is the e-th power of that field's series
        powers = {field: [s.truncate(order)] for field, s in base.items()}
        acc: dict[int, int] = {}
        get = acc.get
        for key, coeff in self._terms.items():
            prod = None
            for field, exp in _fields(key):
                pw = powers[field]
                while len(pw) < exp:
                    pw.append(pw[-1] * pw[0])
                prod = pw[exp - 1] if prod is None else prod * pw[exp - 1]
            if prod is None:
                acc[0] = get(0, 0) + coeff
                continue
            for xm, c in prod._terms.items():
                acc[xm] = get(xm, 0) + coeff * c
        return XSeries(order, {k: c for k, c in acc.items() if c})

    # -- text and JSON ---------------------------------------------------

    def __str__(self):
        return _terms_text((_text(_nonzero(v, _NAMES), _nonzero(x, _NAMES)), c)
                           for _, v, x, c, _ in _canonical(self._terms))

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json(self) -> list[dict]:
        return [{"coeff": str(c), "V": dict(_nonzero(v, _NAMES)),
                 "x": dict(_nonzero(x, _NAMES))}
                for _, v, x, c, _ in _canonical(self._terms)]

    @classmethod
    def from_json(cls, data: Sequence[Mapping]) -> "MultiPoly":
        pairs = []
        for term in data:
            mono = Monomial.make(
                {int(i): int(e) for i, e in term.get("V", {}).items()},
                {int(i): int(e) for i, e in term.get("x", {}).items()})
            pairs.append((mono, int(term["coeff"])))
        return cls.from_terms(pairs)


def _difference(a: dict, b: dict) -> MultiPoly:
    # a - b as one copy of a and one pass over b
    out = dict(a)
    get = out.get
    for mono, coeff in b.items():
        c = get(mono, 0) - coeff
        if c:
            out[mono] = c
        else:
            del out[mono]
    return MultiPoly(out)


def _sum_products(pairs) -> MultiPoly:
    """The sum of a*b over an iterable of (a, b) MultiPoly pairs.

    Every product accumulates into one dict and zeros are dropped once at
    the end, where a running sum of products would copy the sum once per
    product (the sum-of-products form of Monagan & Pearce, *Sparse
    polynomial division using a heap*, JSC 2011).  The degree check of
    ``MultiPoly.__mul__`` runs per pair.  ``_deg`` stays unset: unlike a
    single product, top-degree terms can cancel across the sum.
    ``__mul__`` keeps its own loop, which drops zeros as it goes: routed
    through this kernel, the hankel_ladder benchmark ran 10% slower.
    """
    out: dict[int, int] = {}
    get = out.get
    for a, b in pairs:
        ta, tb = a._terms, b._terms
        if not ta or not tb:
            continue
        _check_degree(a.total_degree() + b.total_degree())
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
    return MultiPoly({m: c for m, c in out.items() if c})


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


class XSeries:
    """Power series in Z[[x_1, x_2, ...]] truncated at total degree ``order``.

    Every x_k counts one toward the degree regardless of k.  Arithmetic
    truncates at the smaller operand order; equality means same order and
    identical coefficients through it.  Terms are keyed by packed
    monomials, as in ``MultiPoly``, with only x fields in use.
    """

    __slots__ = ("order", "_terms")

    def __init__(self, order: int, terms: dict):
        self.order = order
        self._terms = terms

    @classmethod
    def zero(cls, order: int) -> "XSeries":
        return cls(order, {})

    @classmethod
    def const(cls, c: int, order: int) -> "XSeries":
        return cls(order, {0: c} if c else {})

    @classmethod
    def var(cls, k: int, order: int) -> "XSeries":
        if k < 1:
            raise ValueError("x index must be >= 1")
        if order < 1:
            return cls(order, {})
        return cls(order, {_pack((), ((k, 1),)): 1})

    @property
    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def coeff(self, exponents) -> int:
        return self._terms.get(_pack((), _as_exponents(exponents)), 0)

    def valuation(self):
        """Smallest total degree with a nonzero coefficient, None if zero."""
        if not self._terms:
            return None
        return min(k & _FIELD for k in self._terms)

    def truncate(self, order: int) -> "XSeries":
        if order >= self.order:
            if order == self.order:
                return self
            raise ValueError("cannot extend a truncated series")
        return XSeries(order, {k: c for k, c in self._terms.items()
                               if k & _FIELD <= order})

    def univar_coeffs(self, k: int = 1) -> list[int]:
        """Coefficient list [c_0 .. c_order] for a series in x_k alone."""
        shift = _WIDTH * 2 * k
        out = [0] * (self.order + 1)
        for key, c in self._terms.items():
            e = key & _FIELD
            if key != (e << shift) | e:
                raise ValueError(f"series involves more than x{k}")
            out[e] = c
        return out

    def _check(self) -> "XSeries":
        """Assert canonical form: as ``MultiPoly._check``, within the order,
        and x fields only."""
        for key, coeff in self._terms.items():
            _check_term(key, coeff)
            if key & _FIELD > self.order:
                raise AssertionError(f"term of degree {key & _FIELD} past "
                                     f"order {self.order}")
            if _unpack(key)[0]:
                raise AssertionError(f"V variable in series key {key:#x}")
        return self

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other, sign=1):
        # self + sign*other, as one copy of self and one pass over other
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        out = {k: c for k, c in self._terms.items() if k & _FIELD <= order}
        get = out.get
        for key, coeff in other._terms.items():
            if key & _FIELD > order:
                continue
            c = get(key, 0) + sign * coeff
            if c:
                out[key] = c
            elif key in out:
                del out[key]
        return XSeries(order, out)

    __radd__ = __add__

    def __neg__(self):
        return XSeries(self.order, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(self, -1)

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
        """Multiplicative inverse; the constant term must be +1 or -1."""
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NonUnitConstant(f"constant term {c0} is not a unit")
        order = self.order
        _check_degree(order)  # the inverse has terms up to the order
        by_deg: list[dict] = [dict() for _ in range(order + 1)]
        for key, coeff in self._terms.items():
            d = key & _FIELD
            if d <= order:
                by_deg[d][key] = coeff
        inv_layers: list[dict] = [{0: c0}]
        for d in range(1, order + 1):
            acc: dict[int, int] = {}
            for k in range(1, d + 1):
                layer_a = by_deg[k]
                if not layer_a:
                    continue
                layer_b = inv_layers[d - k]
                for ka, ca in layer_a.items():
                    for kb, cb in layer_b.items():
                        key = ka + kb
                        c = acc.get(key, 0) + ca * cb
                        if c:
                            acc[key] = c
                        elif key in acc:
                            del acc[key]
            inv_layers.append({k: -c0 * c for k, c in acc.items()})
        out: dict[int, int] = {}
        for layer in inv_layers:
            out.update(layer)
        return XSeries(order, out)

    def _divider(self):
        """Division by this series as an elimination pivot, or None.

        The pivot must be a unit, constant term +1 or -1; the callable
        multiplies by its inverse and never leaves the ring.
        """
        if self.constant_term() not in (1, -1):
            return None
        return self.inv().__mul__

    def pow(self, e: int) -> "XSeries":
        if e < 0:
            return self.inv().pow(-e)
        result = XSeries.const(1, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    __pow__ = pow

    def __eq__(self, other):
        if isinstance(other, int):
            other = XSeries.const(other, self.order)
        if not isinstance(other, XSeries):
            return NotImplemented
        return self.order == other.order and self._terms == other._terms

    def __hash__(self):
        return hash((self.order, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def agrees_through(self, other: "XSeries", degree: int) -> bool:
        if degree > min(self.order, other.order):
            raise ValueError("comparison degree exceeds a truncation order")
        for key in set(self._terms) | set(other._terms):
            if key & _FIELD <= degree and \
                    self._terms.get(key, 0) != other._terms.get(key, 0):
                return False
        return True

    # -- text and JSON ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """(x exponent tuple, coefficient) pairs by degree, then tuple."""
        rows = sorted((-d, tuple(_nonzero(x, count(1))), c)
                      for d, _, x, c, _ in _decode(self._terms))
        return [(xs, c) for _, xs, c in rows]

    def __str__(self):
        return _terms_text((_text((), xs), c) for xs, c in self.sorted_terms())

    def __repr__(self):
        return f"XSeries(order={self.order}, {self})"

    def to_json(self) -> dict:
        return {
            "truncation_order": self.order,
            "terms": [{"coeff": str(c), "x": {str(i): e for i, e in xs}}
                      for xs, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "XSeries":
        order = int(data["truncation_order"])
        terms: dict[int, int] = {}
        for term in data["terms"]:
            key = _pack((), _as_exponents({int(i): int(e)
                                           for i, e in term.get("x", {}).items()}))
            c = int(term["coeff"])
            if c and key & _FIELD <= order:
                terms[key] = terms.get(key, 0) + c
        return cls(order, {k: c for k, c in terms.items() if c})


def _coerce_series(value, order):
    if isinstance(value, XSeries):
        return value
    if isinstance(value, int):
        return XSeries.const(value, order)
    return NotImplemented


# ---------------------------------------------------------------------------
# division-free determinants


def det_elements(rows):
    """Determinant of a square matrix of MultiPoly or XSeries entries.

    The one determinant entry point, for both rings.  ``_det_eliminate``
    runs first, with each ring's pivot rule: a single term for
    ``MultiPoly``, constant term +1 or -1 for ``XSeries``.  When some
    pivot breaks the rule, the unchanged input goes to the division-free
    cofactor expansion.  An empty or ragged matrix raises ``NonSquare``:
    callers return their own ring's one for the empty case.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise NonSquare("determinant needs a non-empty square matrix")
    det = _det_eliminate(rows)
    return _det_cofactor(rows) if det is None else det


def _det_eliminate(rows):
    """Gaussian elimination inside the ring: the pivots' product, or None.

    Each pivot's ``_divider()`` gives the ring's exact division by it.
    None when a pivot has none (``MultiPoly``: zero or several terms;
    ``XSeries``: constant term other than +1 or -1), or when an entry
    below a pivot has no quotient in the ring.  The multipliers make up
    L, the pivots the diagonal of U, in rows = L*U; ``rows`` is left as
    it was, and the empty matrix gives None.
    """
    a = [list(row) for row in rows]
    det = None
    for k, row_k in enumerate(a):
        pivot = row_k[k]
        divide = pivot._divider()
        if divide is None:
            return None
        for row_i in a[k + 1:]:
            if not row_i[k]:
                continue
            mult = divide(row_i[k])
            if mult is None:
                return None
            for j in range(k + 1, len(a)):
                if row_k[j]:
                    row_i[j] = row_i[j] - mult * row_k[j]
        det = pivot if det is None else det * pivot
    return det


def _weight(element) -> int:
    return getattr(element, "nterms", 1)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _det_cofactor(rows):
    # Heavy lines should only ever multiply fully collapsed minors, so the
    # expansion is reordered: transpose if that makes the off-heavy mass
    # smaller, then sort lines by weight descending (line 0 enters last).
    n = len(rows)
    grid = [list(r) for r in rows]
    row_w = [sum(_weight(e) for e in r) for r in grid]
    col_w = [sum(_weight(grid[i][j]) for i in range(n)) for j in range(n)]
    if sum(col_w) - max(col_w) < sum(row_w) - max(row_w):
        grid = [[grid[i][j] for i in range(n)] for j in range(n)]
        row_w = col_w
    order = sorted(range(n), key=lambda i: row_w[i], reverse=True)
    sign = _perm_sign(order)
    grid = [grid[i] for i in order]

    one = grid[0][0] ** 0  # the ring's one: MultiPoly or XSeries at its order
    zero = one - one
    # minors[mask] = det of the last popcount(mask) lines on columns in mask
    minors = {0: one}
    for size in range(1, n + 1):
        line = grid[n - size]
        nxt: dict[int, object] = {}
        for cols in _masks(n, size):
            acc = None
            parity = 0
            m = cols
            while m:
                low = m & -m
                c = low.bit_length() - 1
                entry = line[c]
                if entry:
                    sub = minors[cols ^ low]
                    if sub:
                        piece = entry * sub
                        if parity & 1:
                            piece = -piece
                        acc = piece if acc is None else acc + piece
                parity += 1
                m ^= low
            nxt[cols] = zero if acc is None else acc
        minors = nxt
    det = minors[(1 << n) - 1]
    return det if sign == 1 else -det


def _masks(n, size):
    from itertools import combinations
    for combo in combinations(range(n), size):
        mask = 0
        for c in combo:
            mask |= 1 << c
        yield mask
