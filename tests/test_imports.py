"""Every name a package module imports is used in that module, and every
name a package module defines is used somewhere.

A re-export kept for a caller outside the module carries `# noqa: F401`
on its import line and is exempt; so are the names listed in `__all__`.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "choquard"


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def definitions(tree):
    """(name, first line, last line) of each module-level function, class
    and assignment target and each method, dunder names left out."""
    found = []
    for node in tree.body:
        members = [node]
        if isinstance(node, ast.ClassDef):
            members += [m for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for m in members:
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [m.name]
            elif isinstance(m, (ast.Assign, ast.AnnAssign)):
                targets = m.targets if isinstance(m, ast.Assign) else [m.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            found += [(name, m.lineno, m.end_lineno) for name in names
                      if not (name.startswith("__") and name.endswith("__"))]
    return found


def test_every_defined_name_is_used_outside_its_definition():
    """A name that no Python file under src/, tests/ or bench/ mentions
    outside its own definition is dead code."""
    texts = {path: path.read_text()
             for top in ("src", "tests", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for name, first, last in definitions(ast.parse(texts[path])):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(text) if other != path else any(
                    not first <= text.count("\n", 0, m.start()) + 1 <= last
                    for m in word.finditer(text))
                for other, text in texts.items())
            if not used:
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []
