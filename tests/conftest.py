# keeps tests/ importable for the shared _props helpers
import pytest

from constel import algebra
import constel.hankel as hankel_mod


@pytest.fixture
def crooked_walks(monkeypatch):
    """Install a replacement walk table in ``constel.hankel``.

    ``hankel_det`` is memoized per spec, so the memo is dropped when the
    table goes in and again at teardown: the replacement never reads a
    determinant of the real table, and no later test reads one of its own.
    """
    def install(table):
        hankel_mod.hankel_det.cache_clear()
        monkeypatch.setattr(hankel_mod, "f_poly", table)
    yield install
    hankel_mod.hankel_det.cache_clear()


@pytest.fixture
def no_cofactor(monkeypatch):
    """Make the cofactor fallback of ``det_elements`` raise.

    A determinant computed under this fixture comes from the elimination.
    """
    def refuse(rows, one):
        raise AssertionError(f"{len(rows)}x{len(rows)} determinant fell back "
                             "to cofactor expansion")
    monkeypatch.setattr(algebra, "_det_cofactor", refuse)
