"""Exact arithmetic over two indexed variable families.

Everything downstream lives in the ring Z[V_1, V_2, ...; x_1, x_2, ...]:
the V family carries fall-height weights, the x family carries face
weights.  ``MultiPoly`` is the exact sparse polynomial type; ``XSeries``
is a power series in the x family truncated at a total-degree bound,
which is what the fixed-point solvers produce.  Coefficients are plain
Python integers, so there is no precision ceiling anywhere and equality
is literal equality.

Canonical form: zero coefficients are never stored; terms are ordered by
total degree, then lexicographically on the expanded (family, index)
word with V before x.  The empty polynomial prints as "0", the unit
monomial with coefficient c prints as "c".
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence


class NotDivisible(ArithmeticError):
    """Exact polynomial division has no quotient in the integer ring."""


class NonSquare(ValueError):
    """Determinant of a non-square matrix was requested."""


class NonUnitConstant(ArithmeticError):
    """Series inversion needs constant term +1 or -1."""


class UnassignedVariable(KeyError):
    """Substitution met a variable without an assigned series."""


# ---------------------------------------------------------------------------
# exponent tuples: sorted ((index, exp), ...) with index >= 1, exp >= 1


def _as_exponents(data) -> tuple[tuple[int, int], ...]:
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


def _merge_exponents(a, b):
    # multiply two exponent tuples; both already sorted by index
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ia, ea = a[i]
        ib, eb = b[j]
        if ia == ib:
            out.append((ia, ea + eb))
            i += 1
            j += 1
        elif ia < ib:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _exp_degree(t) -> int:
    return sum(e for _, e in t)


class Monomial:
    """A product of variables from the two families, e.g. V1^2*V3*x2."""

    __slots__ = ("v", "x", "_hash", "_key")

    def __init__(self, v=(), x=()):
        self.v = v
        self.x = x
        self._hash = None
        self._key = None

    @classmethod
    def make(cls, v=None, x=None) -> "Monomial":
        return cls(_as_exponents(v), _as_exponents(x))

    @property
    def degree(self) -> int:
        return _exp_degree(self.v) + _exp_degree(self.x)

    def sort_key(self):
        # graded order, ties broken on the expanded (family, index) word
        key = self._key
        if key is None:
            word = []
            for idx, exp in self.v:
                word.extend((0, idx) for _ in range(exp))
            for idx, exp in self.x:
                word.extend((1, idx) for _ in range(exp))
            key = (len(word), tuple(word))
            self._key = key
        return key

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(_merge_exponents(self.v, other.v),
                        _merge_exponents(self.x, other.x))

    def divide(self, other: "Monomial"):
        """Exact quotient self / other, or None when not divisible."""
        quo_v = _div_exponents(self.v, other.v)
        if quo_v is None:
            return None
        quo_x = _div_exponents(self.x, other.x)
        if quo_x is None:
            return None
        return Monomial(quo_v, quo_x)

    def __eq__(self, other):
        return (self is other) or (isinstance(other, Monomial)
                                   and self.v == other.v and self.x == other.x)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.v, self.x))
        return h

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __gt__(self, other):
        return self.sort_key() > other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __ge__(self, other):
        return self.sort_key() >= other.sort_key()

    def text(self) -> str:
        parts = [_var_text("V", i, e) for i, e in self.v]
        parts += [_var_text("x", i, e) for i, e in self.x]
        return "*".join(parts) or "1"

    def __repr__(self):
        return f"Monomial({self.text()})"


def _div_exponents(a, b):
    if not b:
        return a
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


def _var_text(fam: str, idx: int, exp: int) -> str:
    return f"{fam}{idx}" if exp == 1 else f"{fam}{idx}^{exp}"


_MONO_ONE = Monomial()


class MultiPoly:
    """Sparse polynomial in Z[V_*; x_*] with exact integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict):
        # trusts the caller: no zero coefficients, canonical monomials
        self._terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls({})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({_MONO_ONE: 1})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({_MONO_ONE: c}) if c else cls({})

    @classmethod
    def v_var(cls, i: int, exp: int = 1) -> "MultiPoly":
        return cls({Monomial.make({i: exp}): 1})

    @classmethod
    def x_var(cls, k: int, exp: int = 1) -> "MultiPoly":
        return cls({Monomial.make(None, {k: exp}): 1})

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Monomial, int]]) -> "MultiPoly":
        acc: dict[Monomial, int] = {}
        for mono, coeff in pairs:
            c = acc.get(mono, 0) + coeff
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]
        return cls(acc)

    # -- inspection ----------------------------------------------------

    @property
    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> int:
        return self._terms.get(_MONO_ONE, 0)

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def v_indices(self) -> set[int]:
        out: set[int] = set()
        for mono in self._terms:
            out.update(i for i, _ in mono.v)
        return out

    def x_indices(self) -> set[int]:
        out: set[int] = set()
        for mono in self._terms:
            out.update(i for i, _ in mono.x)
        return out

    def total_degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

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
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return MultiPoly({})
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, int] = {}
        get = out.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma * mb
                c = get(m, 0) + ca * cb
                if c:
                    out[m] = c
                elif m in out:
                    del out[m]
        return MultiPoly(out)

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
        """Exact quotient q with q * other == self; NotDivisible otherwise."""
        if not other._terms:
            raise ZeroDivisionError("exact division by the zero polynomial")
        if not self._terms:
            return MultiPoly({})
        lead_b = max(other._terms)
        lc_b = other._terms[lead_b]
        rem = dict(self._terms)
        quo: dict[Monomial, int] = {}
        while rem:
            lead_a = max(rem)
            mono_q = lead_a.divide(lead_b)
            if mono_q is None:
                raise NotDivisible("leading monomial not divisible")
            lc_a = rem[lead_a]
            c, r = divmod(lc_a, lc_b)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            quo[mono_q] = c
            for mono_b, c_b in other._terms.items():
                m = mono_q * mono_b
                cc = rem.get(m, 0) - c * c_b
                if cc:
                    rem[m] = cc
                elif m in rem:
                    del rem[m]
        return MultiPoly(quo)

    def substitute(self, v_assign=None, x_assign=None, order=None) -> "XSeries":
        """Map V_i and x_k to XSeries values; the result is an XSeries.

        Every variable appearing in the polynomial must be assigned.  The
        truncation order defaults to the smallest order among the used
        assignments.
        """
        v_assign = v_assign or {}
        x_assign = x_assign or {}
        used: list[XSeries] = []
        for mono in self._terms:
            for idx, _ in mono.v:
                s = v_assign.get(idx)
                if s is None:
                    raise UnassignedVariable(f"V{idx}")
                used.append(s)
            for idx, _ in mono.x:
                s = x_assign.get(idx)
                if s is None:
                    raise UnassignedVariable(f"x{idx}")
                used.append(s)
        if order is None:
            if not used:
                raise ValueError("substitute needs an explicit order when "
                                 "no variable is assigned")
            order = min(s.order for s in used)
        acc: dict[tuple, int] = {}
        pow_cache: dict[tuple, XSeries] = {}
        for mono, coeff in self._terms.items():
            prod = XSeries.const(coeff, order)
            for fam, assign in ((0, v_assign), (1, x_assign)):
                for idx, exp in (mono.v if fam == 0 else mono.x):
                    key = (fam, idx, exp)
                    power = pow_cache.get(key)
                    if power is None:
                        power = assign[idx].pow(exp).truncate(order)
                        pow_cache[key] = power
                    prod = prod * power
            for xm, c in prod._terms.items():
                cc = acc.get(xm, 0) + c
                if cc:
                    acc[xm] = cc
                elif xm in acc:
                    del acc[xm]
        return XSeries(order, acc)

    # -- text and JSON ---------------------------------------------------

    def __str__(self):
        return _terms_text(self.sorted_terms())

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json(self) -> list[dict]:
        out = []
        for mono, coeff in self.sorted_terms():
            out.append({
                "coeff": str(coeff),
                "V": {str(i): e for i, e in mono.v},
                "x": {str(i): e for i, e in mono.x},
            })
        return out

    @classmethod
    def from_json(cls, data: Sequence[Mapping]) -> "MultiPoly":
        pairs = []
        for term in data:
            mono = Monomial.make(
                {int(i): int(e) for i, e in term.get("V", {}).items()},
                {int(i): int(e) for i, e in term.get("x", {}).items()})
            pairs.append((mono, int(term["coeff"])))
        return cls.from_terms(pairs)


def _coerce(value):
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int):
        return MultiPoly.const(value)
    return NotImplemented


def _terms_text(pairs) -> str:
    if not pairs:
        return "0"
    chunks = []
    for mono, coeff in pairs:
        body = mono.text()
        mag = abs(coeff)
        if body == "1":
            term = str(mag)
        elif mag == 1:
            term = body
        else:
            term = f"{mag}*{body}"
        chunks.append(("-" if coeff < 0 else "+", term))
    sign, term = chunks[0]
    out = ("-" if sign == "-" else "") + term
    for sign, term in chunks[1:]:
        out += f" {sign} {term}"
    return out


# ---------------------------------------------------------------------------
# truncated power series in the x family


class XSeries:
    """Power series in Z[[x_1, x_2, ...]] truncated at total degree ``order``.

    Every x_k counts one toward the degree regardless of k.  Arithmetic
    truncates at the smaller operand order; equality means same order and
    identical coefficients through it.
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
        return cls(order, {(): c} if c else {})

    @classmethod
    def var(cls, k: int, order: int) -> "XSeries":
        if k < 1:
            raise ValueError("x index must be >= 1")
        if order < 1:
            return cls(order, {})
        return cls(order, {((k, 1),): 1})

    @property
    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> int:
        return self._terms.get((), 0)

    def coeff(self, exponents) -> int:
        return self._terms.get(_as_exponents(exponents), 0)

    def valuation(self):
        """Smallest total degree with a nonzero coefficient, None if zero."""
        if not self._terms:
            return None
        return min(_exp_degree(k) for k in self._terms)

    def truncate(self, order: int) -> "XSeries":
        if order >= self.order:
            if order == self.order:
                return self
            raise ValueError("cannot extend a truncated series")
        return XSeries(order, {k: c for k, c in self._terms.items()
                               if _exp_degree(k) <= order})

    def univar_coeffs(self, k: int = 1) -> list[int]:
        """Coefficient list [c_0 .. c_order] for a series in x_k alone."""
        out = [0] * (self.order + 1)
        for key, c in self._terms.items():
            if not key:
                out[0] = c
            elif len(key) == 1 and key[0][0] == k:
                out[key[0][1]] = c
            else:
                raise ValueError(f"series involves more than x{k}")
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        out = {k: c for k, c in self._terms.items() if _exp_degree(k) <= order}
        for key, coeff in other._terms.items():
            if _exp_degree(key) > order:
                continue
            c = out.get(key, 0) + coeff
            if c:
                out[key] = c
            elif key in out:
                del out[key]
        return XSeries(order, out)

    __radd__ = __add__

    def __neg__(self):
        return XSeries(self.order, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_series(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, int] = {}
        get = out.get
        b_items = [(k, _exp_degree(k), c) for k, c in b.items()]
        for ka, ca in a.items():
            da = _exp_degree(ka)
            room = order - da
            if room < 0:
                continue
            for kb, db, cb in b_items:
                if db > room:
                    continue
                k = _merge_exponents(ka, kb)
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
        by_deg: list[dict] = [dict() for _ in range(order + 1)]
        for key, coeff in self._terms.items():
            d = _exp_degree(key)
            if d <= order:
                by_deg[d][key] = coeff
        inv_layers: list[dict] = [{(): c0}]
        for d in range(1, order + 1):
            acc: dict[tuple, int] = {}
            for k in range(1, d + 1):
                layer_a = by_deg[k]
                if not layer_a:
                    continue
                layer_b = inv_layers[d - k]
                for ka, ca in layer_a.items():
                    for kb, cb in layer_b.items():
                        key = _merge_exponents(ka, kb)
                        c = acc.get(key, 0) + ca * cb
                        if c:
                            acc[key] = c
                        elif key in acc:
                            del acc[key]
            inv_layers.append({k: -c0 * c for k, c in acc.items()})
        out: dict[tuple, int] = {}
        for layer in inv_layers:
            out.update(layer)
        return XSeries(order, out)

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
            if _exp_degree(key) <= degree and \
                    self._terms.get(key, 0) != other._terms.get(key, 0):
                return False
        return True

    # -- text and JSON ----------------------------------------------------

    def sorted_terms(self):
        return sorted(self._terms.items(),
                      key=lambda kv: (_exp_degree(kv[0]), kv[0]))

    def __str__(self):
        pairs = [(Monomial((), key), coeff) for key, coeff in self.sorted_terms()]
        return _terms_text(pairs)

    def __repr__(self):
        return f"XSeries(order={self.order}, {self})"

    def to_json(self) -> dict:
        return {
            "truncation_order": self.order,
            "terms": [{"coeff": str(c), "x": {str(i): e for i, e in key}}
                      for key, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "XSeries":
        order = int(data["truncation_order"])
        terms: dict[tuple, int] = {}
        for term in data["terms"]:
            key = _as_exponents({int(i): int(e)
                                 for i, e in term.get("x", {}).items()})
            c = int(term["coeff"])
            if c and _exp_degree(key) <= order:
                terms[key] = terms.get(key, 0) + c
        return cls(order, {k: c for k, c in terms.items() if c})


def _coerce_series(value, order):
    if isinstance(value, XSeries):
        return value
    if isinstance(value, int):
        return XSeries.const(value, order)
    return NotImplemented


# ---------------------------------------------------------------------------
# matrices and division-free determinants


class PolyMatrix:
    """Immutable rectangular matrix of MultiPoly entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
        self.entries = rows

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"


def det_division_free(matrix: PolyMatrix) -> MultiPoly:
    """Determinant of a square MultiPoly matrix, computed without division."""
    if matrix.nrows != matrix.ncols:
        raise NonSquare(f"{matrix.nrows}x{matrix.ncols} matrix")
    return det_elements(matrix.entries, MultiPoly.one())


# Measured crossover (2 cores, Python 3.11).  On Hankel matrices only
# cofactor finishes in minutes: 6x6 (3,0,5) takes about 1 s and 7x7
# (2,0,6) 19 s, where Berkowitz passed 1 GiB within 4 minutes.  On the
# series matrices of eulerian.t_n cofactor is faster up to 7x7, the two
# tie at 8x8, and Berkowitz wins from 9x9 on (3x at 11x11), because
# cofactor expands all 2^n minors.
_COFACTOR_LIMIT = 8


def det_elements(rows, one):
    """Division-free determinant over any commutative ring.

    ``rows`` is a square sequence of sequences of ring elements supporting
    +, -, * among themselves; ``one`` is the multiplicative identity.
    Cofactor expansion with minor memoization up to ``_COFACTOR_LIMIT``,
    a characteristic-polynomial scheme beyond that.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare("matrix is not square")
    if n == 0:
        return one
    if n <= _COFACTOR_LIMIT:
        return _det_cofactor(rows, one)
    return _det_berkowitz(rows, one)


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


def _det_cofactor(rows, one):
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


def _det_berkowitz(rows, one):
    # characteristic polynomial vector by Toeplitz products; no division
    n = len(rows)
    zero = one - one
    coeffs = [one, -rows[0][0]]
    for k in range(2, n + 1):
        a = rows[k - 1][k - 1]
        r_vec = [rows[k - 1][j] for j in range(k - 1)]
        c_vec = [rows[i][k - 1] for i in range(k - 1)]
        toep = [one, -a]
        v = c_vec
        for _ in range(k - 1):
            dot = zero
            for rr, vv in zip(r_vec, v):
                if rr and vv:
                    dot = dot + rr * vv
            toep.append(-dot)
            v = [_row_dot(rows[i], v, k - 1, zero) for i in range(k - 1)]
        new = []
        for i in range(k + 1):
            acc = coeffs[i] if i <= k - 1 else zero
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                if j == i:
                    continue  # toep[0] handled above
                t = toep[i - j]
                p = coeffs[j]
                if t and p:
                    acc = acc + t * p
            new.append(acc)
        coeffs = new
    det = coeffs[n]
    return det if n % 2 == 0 else -det


def _row_dot(row, vec, width, zero):
    acc = zero
    for j in range(width):
        a = row[j]
        b = vec[j]
        if a and b:
            acc = acc + a * b
    return acc
