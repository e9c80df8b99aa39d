"""The five record types are named tuples with the checks of their fields.

Each keeps the repr, the field names and the hash it had as a frozen
record: the hash of the tuple of its fields.  ``_replace`` builds through
the checking constructor, and a record equals the plain tuple of its fields.
"""

import pytest

from constel.algebra import OutOfRange
from constel.eulerian import make_context
from constel.hankel import HankelSpec
from constel.paths import PPath
from constel.solver import SolverConfig
from constel.verify import CheckResult

CTX = ("EulerContext(order=2, V=XSeries(order=2, 1 + 2*x1 + 8*x1^2), "
       "y=XSeries(order=2, x1 + 4*x1^2), xV=XSeries(order=2, x1 + 2*x1^2))")

RECORDS = [
    (lambda: PPath(3, (0, 0), ("R", "F")), ("p", "start", "steps"),
     "PPath(p=3, start=(0, 0), steps=('R', 'F'))"),
    (lambda: HankelSpec(3, 1, 2), ("p", "m", "n"), "HankelSpec(p=3, m=1, n=2)"),
    (lambda: SolverConfig(3, 2, 1, 4), ("p", "deg", "kmax", "imax"),
     "SolverConfig(p=3, deg=2, kmax=1, imax=4)"),
    (lambda: CheckResult("a.b", "p=2", False, "x"), ("name", "params", "ok", "detail"),
     "CheckResult(name='a.b', params='p=2', ok=False, detail='x')"),
    (lambda: make_context(2), ("order", "V", "y", "xV"), CTX),
]


@pytest.mark.parametrize("make, fields, text", RECORDS,
                         ids=[text.split("(")[0] for _, _, text in RECORDS])
def test_repr_fields_and_hash(make, fields, text):
    record = make()
    assert repr(record) == text
    assert record._fields == fields
    plain = tuple(getattr(record, name) for name in fields)
    assert record == plain and hash(record) == hash(plain)
    # only the cubic context keeps a dict, for its cached ladders
    assert hasattr(record, "__dict__") == (type(record).__name__ == "EulerContext")


def test_replace_runs_the_checks():
    cfg = SolverConfig(3, 2, 1, 4)
    wider = cfg._replace(imax=9)
    assert type(wider) is SolverConfig and wider.window == 1
    with pytest.raises(OutOfRange, match="^imax must be >= 1$"):
        cfg._replace(imax=0)
    with pytest.raises(OutOfRange, match=r"^m must lie in \[0, p-1\]$"):
        HankelSpec(3, 1, 2)._replace(m=3)
    with pytest.raises(ValueError, match="dips below height 0"):
        PPath(3, (0, 0), ("R", "F"))._replace(steps=("F",))


def test_keywords_and_defaults():
    assert SolverConfig(p=3, deg=2, kmax=1, imax=4) == SolverConfig(3, 2, 1, 4)
    ok = CheckResult("a", "b", True)
    assert ok.detail == "" and ok.line() == "ok   a b"
    with pytest.raises(AttributeError):
        ok.ok = False
