"""Source hygiene: every module of the package uses each name it imports, and
some module reads each private name a module defines."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import oddtown

MODULES = sorted(
    p for p in Path(oddtown.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in source reads.

    A name counts as read when it appears as a Name node, also inside a
    quoted annotation such as "BitSubset | int".  __future__ imports bind
    nothing.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        quoted = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(quoted) if quoted else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                inner = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import comb, gcd, isqrt as root\n"
        "def f(x: 'gcd') -> 'list[root]':\n"
        "    'comb'\n"
    )
    assert unused_imports(source) == ["os", "comb"]


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level _names (dunders aside) that no module of sources reads.

    A name is defined by a def, class or assignment at the top level of
    its module, and read when it appears anywhere as a loaded Name, an
    attribute or an imported name.
    """
    defined: list[str] = []
    read: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_every_private_name_is_read():
    package = Path(oddtown.__file__).parent.glob("*.py")
    assert unread_private_names([p.read_text(encoding="utf-8") for p in package]) == []


def test_unread_private_name_is_caught():
    sources = [
        "__all__ = ['f']\n_CAP = 3\n_LEFT = 1\ndef _used(): return _CAP\n",
        "from m import _used\nclass _Box: pass\ndef f(x): return _used() + x._Box\n",
    ]
    assert unread_private_names(sources) == ["_LEFT"]
