# keeps tests/ importable for the shared _props helpers
from functools import partial
from types import SimpleNamespace

import pytest

from constel import contfrac, eulerian, paths, solver
import constel.hankel as hankel_mod


@pytest.fixture
def crooked_walks(monkeypatch):
    """Install replacement Hankel entries in ``constel.hankel``.

    ``hankel`` reads every matrix entry, the polynomial ``f_poly(p, n, r)``,
    as ``_excursions(p).coeff(n, r)`` through its module-level name
    ``_excursions``; ``install(walk)`` swaps that name for tables that
    answer ``walk(p, n, r)``.  ``hankel_det`` reads the minors of a
    memoized ladder per (p, m), which holds factors computed from the
    entries it fetched, so the ladders are dropped when the table goes in
    and again at teardown: the replacement never reads an entry or a
    determinant of the real expansion, and no later test reads one of its
    own.
    """
    def install(walk):
        hankel_mod._ladder.cache_clear()
        monkeypatch.setattr(hankel_mod, "_excursions",
                            lambda p: SimpleNamespace(coeff=partial(walk, p)))
    yield install
    hankel_mod._ladder.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty every ``lru_cache`` of the computing modules before and after.

    A test that seeds a fault then sees no result made without it, and no
    later test reads a result made with it.
    """
    caches = [obj for mod in (paths, contfrac, hankel_mod, solver, eulerian)
              for obj in vars(mod).values() if hasattr(obj, "cache_clear")]
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
