"""Every module under ``src/constel`` uses each name it imports.

A deletion tends to leave its imports behind; this catches them.  A name
counts as used when it is read anywhere in the module, as a bare name or
as the root of an attribute, or when ``__all__`` lists it (a re-export).
A fresh ``import constel``, and the CLI's imports, must also leave
``fractions`` and ``dataclasses`` (with what it loads) unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "constel"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import *" binds no one name
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "from m import *\n__all__ = ['b']\nprint(os.sep)\n")
    assert unused_imports(source) == ["d (line 3)", "osp (line 2)"]


def test_import_leaves_fractions_out():
    # fractions, with the decimal module it imports, and dataclasses, with
    # inspect, ast and dis, are each milliseconds and hundreds of KiB of
    # every start; no module of the package needs them
    heavy = {"fractions", "decimal", "dataclasses", "inspect", "ast", "dis"}
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for imports in ("constel", "constel.cli, constel.verify"):
        code = f"import sys, {imports}; print(sorted({heavy!r} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", imports
