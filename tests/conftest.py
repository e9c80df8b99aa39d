# keeps tests/ importable for the shared _props helpers
import pytest

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
