"""Banded determinants of path polynomials and their inversion.

The matrix indexed by (i, j) holds the weight polynomial of the paths
from a staggered source ladder to the excursion endpoints (jp, 0).  Its
determinant collapses to one monomial, the product of every fall weight
V_1 .. V_{ip+m} over the rows, and ratios of neighbouring determinants
peel off a single V_i.  A signed brute-force sum over path systems and a
direct search for vertex-disjoint configurations give fully independent
desk-scale checks of the same collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from . import algebra
from .algebra import Monomial, MultiPoly, NotDivisible, _perm_sign
from .paths import enumerate_paths, f_poly, path_weight


class IdentityViolation(ArithmeticError):
    """A checked identity failed to hold."""


class NonUniqueNILP(ArithmeticError):
    """The vertex-disjoint path configuration is not unique."""


def qr(k: int, p: int) -> tuple[int, int]:
    """Euclidean division of k by p-1: (quotient, remainder)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return divmod(k, p - 1)


@dataclass(frozen=True)
class HankelSpec:
    """Size parameters of one banded determinant."""

    p: int
    m: int
    n: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if not 0 <= self.m <= self.p - 1:
            raise ValueError("m must lie in [0, p-1]")
        if self.n < -1:
            raise ValueError("n must be >= -1")


@dataclass(frozen=True)
class LGVGraph:
    """Sources and sinks of the path-system picture of one determinant."""

    p: int
    sources: tuple[tuple[int, int], ...]
    sinks: tuple[tuple[int, int], ...]

    @classmethod
    def for_spec(cls, spec: HankelSpec) -> "LGVGraph":
        sources = []
        for i in range(spec.n + 1):
            q, r = qr(spec.m + i, spec.p)
            sources.append((-spec.p * q - r, r))
        sinks = [(j * spec.p, 0) for j in range(spec.n + 1)]
        return cls(spec.p, tuple(sources), tuple(sinks))


def hankel_matrix(spec: HankelSpec) -> list[list[MultiPoly]]:
    """Rows of the (n+1) x (n+1) matrix of path polynomials for (p, m, n)."""
    rows = []
    for i in range(spec.n + 1):
        q, r = qr(spec.m + i, spec.p)
        rows.append([f_poly(spec.p, q + j, r) for j in range(spec.n + 1)])
    return rows


@lru_cache(maxsize=128)
def hankel_det(spec: HankelSpec) -> MultiPoly:
    """Determinant of the banded matrix; the empty case n = -1 gives 1.

    Each leading minor of the matrix is the determinant of a smaller n,
    a single monomial, so the pivots of the elimination in
    ``algebra.det_elements`` are single monomials (ratios of neighbouring
    minors) and multiply to ``hankel_product``.  Its multipliers have
    divided exactly at every size tested, so it never leaves the ring;
    should one not, the cofactor expansion takes over.  Memoized per
    spec: ``recover_vi`` reads each determinant in up to four ratios.
    """
    if spec.n == -1:
        return MultiPoly.one()
    # through the module, the binding perfbench's tracer wraps
    return algebra.det_elements(hankel_matrix(spec))


def hankel_product(spec: HankelSpec) -> MultiPoly:
    """The collapsed value: product over rows i of V_1 .. V_{ip+m}."""
    exps: dict[int, int] = {}
    for i in range(spec.n + 1):
        for j in range(1, i * spec.p + spec.m + 1):
            exps[j] = exps.get(j, 0) + 1
    return MultiPoly.from_terms([(Monomial.make(exps), 1)])


def check_hankel(spec: HankelSpec) -> MultiPoly:
    """Determinant with the collapse identity enforced."""
    det = hankel_det(spec)
    if det != hankel_product(spec):
        raise IdentityViolation(
            f"determinant differs from the weight product at "
            f"p={spec.p} m={spec.m} n={spec.n}")
    return det


def recover_vi(p: int, i: int) -> MultiPoly:
    """Recover the single weight V_i from determinant data alone.

    Only determinant values of the path polynomials enter; the answer is
    the exact quotient of two products of neighbouring determinants.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if i < 1:
        raise ValueError("i must be >= 1")
    n, m = divmod(i, p)
    if m >= 1:
        num = hankel_det(HankelSpec(p, m, n)) \
            * hankel_det(HankelSpec(p, m - 1, n - 1))
        den = hankel_det(HankelSpec(p, m, n - 1)) \
            * hankel_det(HankelSpec(p, m - 1, n))
    else:
        num = hankel_det(HankelSpec(p, 0, n)) \
            * hankel_det(HankelSpec(p, p - 1, n - 2))
        den = hankel_det(HankelSpec(p, 0, n - 1)) \
            * hankel_det(HankelSpec(p, p - 1, n - 1))
    try:
        return num.exact_div(den)
    except NotDivisible as exc:
        raise IdentityViolation(
            f"determinant ratio for V{i} is not a polynomial "
            f"(p={p}, i={i})") from exc


_DESK_LIMIT = 3


def _path_sum(p, src, dst) -> MultiPoly:
    total = MultiPoly.zero()
    for path in enumerate_paths(p, src, dst):
        total = total + path_weight(path)
    return total


def lgv_signed_sum(spec: HankelSpec) -> MultiPoly:
    """Brute-force signed sum over bijections of source-to-sink path sums."""
    if spec.n > _DESK_LIMIT:
        raise ValueError(f"lgv_signed_sum is desk-scale only (n <= {_DESK_LIMIT})")
    if spec.n == -1:
        return MultiPoly.one()
    graph = LGVGraph.for_spec(spec)
    size = spec.n + 1
    sums = [[_path_sum(spec.p, graph.sources[i], graph.sinks[j])
             for j in range(size)] for i in range(size)]
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
    if spec.n > _DESK_LIMIT:
        raise ValueError(f"nilp_unique is desk-scale only (n <= {_DESK_LIMIT})")
    if spec.n == -1:
        return 1, MultiPoly.one()
    graph = LGVGraph.for_spec(spec)
    size = spec.n + 1
    candidates = [enumerate_paths(spec.p, graph.sources[i], graph.sinks[i])
                  for i in range(size)]
    found: list[list] = []

    def extend(i, used):
        if i == size:
            return
        for path in candidates[i]:
            pts = set(path.points())
            if pts & used:
                continue
            if i + 1 == size:
                found.append(stack + [path])
                if len(found) > 1:
                    return
            else:
                stack.append(path)
                extend(i + 1, used | pts)
                stack.pop()
            if len(found) > 1:
                return

    stack: list = []
    extend(0, frozenset())
    if len(found) != 1:
        raise NonUniqueNILP(
            f"{len(found)} disjoint configurations at "
            f"p={spec.p} m={spec.m} n={spec.n}")
    config = found[0]
    weight = MultiPoly.one()
    for i, path in enumerate(config):
        pinch = (-spec.m, spec.m + i * spec.p)
        if pinch not in path.points():
            raise IdentityViolation(
                f"disjoint path {i} misses the pinch point {pinch} at "
                f"p={spec.p} m={spec.m} n={spec.n}")
        weight = weight * path_weight(path)
    return 1, weight
