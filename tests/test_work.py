"""Work contracts: deterministic counts of the multiply kernels.

Timings on a shared machine cannot catch a 10% regression; the number of
term pairs a kernel multiplies on a fixed call is exact.  Each count must
stay at or below its pin; a change that lowers one lowers its pin.
"""

from constel import algebra, paths
import constel.hankel as hankel_mod
from constel.hankel import HankelSpec, hankel_det, hankel_product


def count_sum_products(monkeypatch):
    """Count the calls of ``algebra._sum_products`` and their term pairs."""
    real, counts = algebra._sum_products, {"calls": 0, "pairs": 0}

    def counted(pairs, start=(), sign=1):
        pairs = list(pairs)
        counts["calls"] += 1
        counts["pairs"] += sum(len(a._terms) * len(b._terms) for a, b in pairs)
        return real(pairs, start, sign)
    monkeypatch.setattr(algebra, "_sum_products", counted)
    return counts


def test_hankel_ladder_term_pairs(monkeypatch):
    # a cold (3, 1) ladder to n = 6: rows 2..6 by the shift recurrence, p
    # multipliers each; plain elimination of every row made 244,497 pairs
    # over 49 calls
    hankel_mod._ladder.cache_clear()
    paths._walk_table.cache_clear()
    counts = count_sum_products(monkeypatch)
    spec = HankelSpec(3, 1, 6)
    assert hankel_det(spec) == hankel_product(spec)
    assert counts["pairs"] <= 76_551
    assert counts["calls"] <= 36
