"""Work contracts: deterministic counts of the multiply kernels.

Timings on a shared machine cannot catch a 10% regression; the number of
term pairs a kernel multiplies on a fixed call is exact.  Each count must
stay at or below its pin; a change that lowers one lowers its pin.
"""

from constel import algebra, contfrac, paths
import constel.hankel as hankel_mod
from constel.hankel import HankelSpec, hankel_det, hankel_product


def count_sum_products(monkeypatch):
    """Count the calls of ``algebra._sum_products`` and their term pairs.

    ``contfrac`` binds the kernel by name, so its binding is patched too.
    """
    real, counts = algebra._sum_products, {"calls": 0, "pairs": 0}

    def counted(pairs, start=(), sign=1):
        pairs = list(pairs)
        counts["calls"] += 1
        counts["pairs"] += sum(len(a._terms) * len(b._terms) for a, b in pairs)
        return real(pairs, start, sign)
    monkeypatch.setattr(algebra, "_sum_products", counted)
    monkeypatch.setattr(contfrac, "_sum_products", counted)
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


def test_expand_fraction_term_pairs(monkeypatch):
    # only the shift-0 level is expanded, one coefficient at a time; each
    # level expanded on its own made 231,279 pairs over 200 calls
    counts = count_sum_products(monkeypatch)
    contfrac.expand_fraction(3, 10)
    assert counts["pairs"] <= 123_019
    assert counts["calls"] <= 20


def test_expand_f_term_pairs(monkeypatch):
    # as above; one memoized series per (r, shift, order) made 332,165
    # pairs over 770 calls
    counts = count_sum_products(monkeypatch)
    contfrac.expand_f(3, 0, 0, 10)
    assert counts["pairs"] <= 123_019
    assert counts["calls"] <= 20
