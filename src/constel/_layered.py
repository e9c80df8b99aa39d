"""Relaxed power series in the x family, one degree layer at a time.

The solvers define their series through themselves: V = 1 + V*S with S
of valuation >= 1.  ``_Layered`` evaluates such a definition one
homogeneous layer at a time, each layer once, on demand (relaxed
evaluation in its plain quadratic form: van der Hoeven, *Relax, but
don't be too lazy*, JSC 2002).  A layer is a ``MultiPoly`` in the x
family, so the arithmetic is ``algebra``'s own, and packed monomials
stay inside ``algebra``: a series is built from constants and x
variables, never from an ``XSeries``, and leaves through
``XSeries._of_layers``.  Each layer is one ``algebra._layer_sum`` of
degree t, the convolution that also makes ``XSeries.inv``'s layers and
``contfrac``'s excursion cells.
"""

from __future__ import annotations

from .algebra import MultiPoly, XSeries, _layer_sum

_EMPTY = MultiPoly.zero()
_NEVER = 1 << 62  # the valuation of zero; no bound on the degree
# how a _Layered node makes its layers; a _SUM is _FOLDED once it makes one
_KNOWN, _SUM, _FOLDED, _LATER = range(4)


class _Layered:
    """A power series in the x family, computed one degree layer at a time.

    ``layer(t)``, the homogeneous degree-t part as a ``MultiPoly``, is
    computed once, on first request, and kept.  A node is known (a
    constant or an x variable), a sum of products a*b of nodes (a summand
    s is the product s*1), or a node made by ``later`` from a rule that
    may read the node itself.  Layer t of a sum of products is the sum
    over its pairs and over u of a_u * b_(t-u), one ``_layer_sum``,
    where u runs only where both layers can be nonzero: ``val`` is a lower
    bound on a node's valuation and ``top`` an upper bound on its degree.
    So V = 1 + V*S is well defined whenever S has valuation >= 1, since
    layer t of V*S then reads only layers < t of V.

    Layers are made in order, so a request for layer t first makes the
    missing lower ones, and the recursion is as deep as the graph of
    nodes whose layers are missing.  A sum forces a factor's layers only
    when they are missing, and then reads the factor's own list, which
    only ever grows.  A sum, when it makes its first layer, takes over
    the pairs of each summand that no other node reads and that has made
    no layer: that summand's layers would be read once, so they are never
    kept, and the summand is freed.
    """

    __slots__ = ("val", "top", "_kind", "_parts", "_rule", "_layers", "_uses")

    def __init__(self, val, top, kind, parts=None, layers=None, rule=None):
        self.val, self.top, self._kind = val, top, kind
        # _SUM: the (a, b) pairs; _LATER: the graph ``rule`` returned
        self._parts, self._rule = parts, rule
        self._layers = layers or []
        self._uses = 0  # how many pairs read this node

    @classmethod
    def const(cls, c: int) -> "_Layered":
        if c == 1:
            return _ONE
        return cls(0, 0, _KNOWN, layers=[MultiPoly.const(c)]) if c \
            else cls(_NEVER, -1, _KNOWN)

    @classmethod
    def var(cls, k: int) -> "_Layered":
        return cls(1, 1, _KNOWN, layers=[_EMPTY, MultiPoly.x_var(k)])

    @classmethod
    def later(cls, rule, known=None) -> "_Layered":
        """The series s = rule(s), ``rule`` called when a layer is first
        needed; ``known`` lists layers 0, 1, ... that are known without
        it, so the rule is called only for a layer past them."""
        return cls(0, _NEVER, _LATER, None, known, rule)

    def forget(self):
        """Drop the graph of a ``later`` node's rule, keeping the layers
        made; a further layer calls the rule again."""
        self._parts = None

    def layer(self, t: int) -> MultiPoly:
        layers = self._layers
        while len(layers) <= t:
            layers.append(self._next(len(layers)))
        return layers[t]

    def _next(self, t: int) -> MultiPoly:
        kind, parts = self._kind, self._parts
        if kind == _LATER:
            if parts is None:
                parts = self._parts = self._rule(self)
            return parts.layer(t)
        if kind == _KNOWN:
            return _EMPTY
        if kind == _SUM:
            parts = self._fold()
        blocks = []
        for a, b in parts:
            # a_u * b_(t-u) for lo <= u <= hi: make those layers first
            lo, hi = t - b.top, t - b.val
            if lo < a.val:
                lo = a.val
            if hi > a.top:
                hi = a.top
            if lo <= hi:
                la, lb = a._layers, b._layers
                if len(la) <= hi:
                    a.layer(hi)
                if len(lb) <= t - lo:
                    b.layer(t - lo)
                blocks.append((la, lb, lo, hi))
        out = _layer_sum(blocks, t, t)
        return out if out._terms else _EMPTY

    def _fold(self) -> list:
        # take over the pairs of each summand s (the pair (s, 1)) that only
        # this sum reads and that has made no layer
        parts, todo = [], list(self._parts)
        while todo:
            a, b = todo.pop()
            if b is _ONE and a._kind == _SUM and a._uses == 1:
                todo += a._parts
            else:
                parts.append((a, b))
        self._kind, self._parts = _FOLDED, parts
        return parts

    def series(self, order: int) -> XSeries:
        """The layers 0..order as one ``XSeries``."""
        return XSeries._of_layers([self.layer(t) for t in range(order + 1)])

    def __add__(self, other, sign=1):
        if isinstance(other, int):
            other = _Layered.const(other)
        if other.val >= _NEVER:
            return self
        if self.val >= _NEVER and sign > 0:
            return other
        return _sum([(self, _ONE), (other, _Layered.const(sign))])

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            other = _Layered.const(other)
        if _ONE in (self, other):
            return other if self is _ONE else self
        return _sum([(self, other)])

    __rmul__ = __mul__


_ONE = _Layered(0, 0, _KNOWN, layers=[MultiPoly.one()])


def _sum(pairs) -> _Layered:
    # a sum of products, its bounds from its factors' bounds
    for a, b in pairs:
        a._uses += 1
        b._uses += 1
    return _Layered(min(a.val + b.val for a, b in pairs),
                    max(a.top + b.top for a, b in pairs), _SUM, pairs)
