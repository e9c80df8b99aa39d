"""Banded determinants of path polynomials and their inversion.

The matrix indexed by (i, j) holds the weight polynomial of the paths
from a staggered source ladder to the excursion endpoints (jp, 0).  Its
determinant collapses to one monomial, the product of every fall weight
V_1 .. V_{ip+m} over the rows, and ratios of neighbouring determinants
peel off a single V_i.  The (p, m) layout is one shifted elimination,
``_banded``, which the cubic case's ladders run over series cells.  A
signed brute-force sum over path systems and a direct search for
vertex-disjoint configurations, both between the sources and sinks of
``_ends``, give fully independent desk-scale checks of the same collapse.
They read the paths of each (p, source, sink), and their weight sum,
from bounded memos (``_paths``, ``_path_sum``), so each path family is
enumerated once per process.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import islice, permutations

from . import algebra
from .algebra import MultiPoly, NotDivisible, _at_least, _at_most
from .contfrac import _excursions
from .paths import enumerate_paths, path_weight


class IdentityViolation(ArithmeticError):
    """A checked identity failed to hold."""


class NonUniqueNILP(ArithmeticError):
    """The vertex-disjoint path configuration is not unique."""


def qr(k: int, p: int) -> tuple[int, int]:
    """Euclidean division of k by p-1: (quotient, remainder)."""
    _at_least(0, k=k)
    return divmod(k, p - 1)


class HankelSpec(namedtuple("HankelSpec", "p m n")):
    """Size parameters of one banded determinant."""

    __slots__ = ()

    def __new__(cls, p: int, m: int, n: int):
        _at_least(2, p=p)
        _at_least(0, m=m)
        _at_most(p - 1, m=m)
        _at_least(-1, n=n)
        return super().__new__(cls, p, m, n)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too


def hankel_matrix(spec: HankelSpec) -> list[list[MultiPoly]]:
    """Rows of the (n+1) x (n+1) matrix of path polynomials for (p, m, n)."""
    cell, size = partial(_walks, spec.p), spec.n + 1
    return [[_at(spec.p, spec.m, cell, i, j) for j in range(size)] for i in range(size)]


def _walks(p: int, n: int, r: int) -> MultiPoly:
    # f_poly(p, n, r) off the splitting recursion of p; ``_excursions`` is
    # looked up at call time, so a table installed in this module takes
    # effect on every matrix and every fresh ladder
    return _excursions(p).coeff(n, r)


def _at(p: int, m: int, cell, i: int, j: int):
    # entry (i, j) of the (p, m) layout
    q, r = qr(m + i, p)
    return cell(q + j, r)


def _banded(p: int, m: int, cell) -> algebra._Minors:
    """The leading minors of the (p, m) banded matrix over ``cell``.

    Entry (i, j) is cell(q+j, r) with (q, r) = qr(m+i, p).  Row i+p-1 has
    the same r and q one larger: it is row i moved one column left, so the
    ladder runs the shift recurrence from row p-1 on (``_Minors`` with
    shift p-1): each U row from there on is the U row p-1 above it moved
    left, less p multiples of the rows just above, and reads no entry.
    """
    return algebra._Minors(partial(_at, p, m, cell), shift=p - 1)


def hankel_det(spec: HankelSpec) -> MultiPoly:
    """Determinant of the banded matrix; the empty case n = -1 gives 1.

    The matrices of one (p, m) are the leading blocks of one matrix: this
    reads a leading minor of its memoized banded ladder, ``_ladder``, which
    computes each determinant once.  Every pivot is a ratio of neighbouring
    minors, a monomial, and every multiplier divides exactly; a ladder
    that finds otherwise refuses, and this raises ``IdentityViolation``.
    """
    if spec.n == -1:
        return MultiPoly.one()
    try:
        return _ladder(spec.p, spec.m).minor(spec.n)
    except NotDivisible as exc:
        raise IdentityViolation(f"the (p={spec.p}, m={spec.m}) ladder refuses "
                                f"minor {spec.n}: {exc}") from exc


@lru_cache(maxsize=16)
def _ladder(p: int, m: int) -> algebra._Minors:
    """The leading minors of the (p, m) Hankel matrix, one growing LU."""
    return _banded(p, m, partial(_walks, p))


def hankel_product(spec: HankelSpec) -> MultiPoly:
    """The collapsed value: product over rows i of V_1 .. V_{ip+m}."""
    exps: dict[int, int] = {}
    for i in range(spec.n + 1):
        for j in range(1, i * spec.p + spec.m + 1):
            exps[j] = exps.get(j, 0) + 1
    return MultiPoly.from_terms([((exps, ()), 1)])


def recover_vi(p: int, i: int) -> MultiPoly:
    """Recover the single weight V_i from determinant data alone.

    Only determinant values of the path polynomials enter; the answer is
    the exact quotient of two products of neighbouring determinants.
    """
    _at_least(2, p=p)
    _at_least(1, i=i)
    n, m = divmod(i, p)
    b, nb = (m - 1, n) if m else (p - 1, n - 1)  # i - 1 = nb*p + b
    num = hankel_det(HankelSpec(p, m, n)) * hankel_det(HankelSpec(p, b, nb - 1))
    den = hankel_det(HankelSpec(p, m, n - 1)) * hankel_det(HankelSpec(p, b, nb))
    try:
        return num.exact_div(den)
    except NotDivisible as exc:
        raise IdentityViolation(
            f"determinant ratio for V{i} is not a polynomial "
            f"(p={p}, i={i})") from exc


@lru_cache(maxsize=64)
def _paths(p, src, dst) -> tuple:
    # the paths from src to dst, enumerated once for every check that reads them
    return tuple(enumerate_paths(p, src, dst))


@lru_cache(maxsize=64)
def _path_sum(p, src, dst) -> MultiPoly:
    # every path's weight, V_h for each fall from height h, in one sum
    return MultiPoly.from_terms(((Counter(path.fall_heights()), ()), 1)
                                for path in _paths(p, src, dst))


def _perm_sign(perm) -> int:
    # (-1) to the number of even-length cycles
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


def _ends(spec: HankelSpec):
    # the sources and sinks of the path-system picture of one determinant
    sources = []
    for i in range(spec.n + 1):
        q, r = qr(spec.m + i, spec.p)
        sources.append((-spec.p * q - r, r))
    return sources, [(j * spec.p, 0) for j in range(spec.n + 1)]


def lgv_signed_sum(spec: HankelSpec) -> MultiPoly:
    """Brute-force signed sum over bijections of source-to-sink path sums."""
    _at_most(3, n=spec.n)  # brute force, at desk scale only
    sources, sinks = _ends(spec)
    size = spec.n + 1
    sums = [[_path_sum(spec.p, a, b) for b in sinks] for a in sources]
    total = MultiPoly.zero()
    for perm in permutations(range(size)):
        prod = MultiPoly.const(_perm_sign(perm))
        for i in range(size):
            prod = prod * sums[i][perm[i]]
            if prod.is_zero():
                break
        total = total + prod
    return total


def nilp_unique(spec: HankelSpec) -> tuple[int, MultiPoly]:
    """Count vertex-disjoint path tuples source i -> sink i, with weight.

    Exactly one configuration must exist; it is also checked to thread
    path i through the pinch point (-m, m + ip).  Returns (1, weight).
    """
    _at_most(3, n=spec.n)  # brute force, at desk scale only
    candidates = [_paths(spec.p, a, b) for a, b in zip(*_ends(spec))]
    found = list(islice(_disjoint(candidates, frozenset()), 2))
    if len(found) != 1:
        raise NonUniqueNILP(
            f"{len(found)} disjoint configurations at "
            f"p={spec.p} m={spec.m} n={spec.n}")
    weight = MultiPoly.one()
    for i, path in enumerate(found[0]):
        pinch = (-spec.m, spec.m + i * spec.p)
        if pinch not in path.points():
            raise IdentityViolation(
                f"disjoint path {i} misses the pinch point {pinch} at "
                f"p={spec.p} m={spec.m} n={spec.n}")
        weight = weight * path_weight(path)
    return 1, weight


def _disjoint(candidates, used):
    # each tuple of pairwise vertex-disjoint paths, one from each list of
    # candidates and none through a point of used, in depth-first order
    if not candidates:
        yield ()
        return
    for path in candidates[0]:
        pts = set(path.points())
        if not pts & used:
            for rest in _disjoint(candidates[1:], used | pts):
                yield (path, *rest)
