"""Every name a package module imports is used in that module, every
name a package module defines is used somewhere, and every function and
method of the package is reached from program code, not from tests alone.

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


def _source_module(node, here):
    """The package module a from-import reads names out of: 'field' for
    `from .field import` and `from choquard.field import`, '' for the
    package itself (`from . import`, `from choquard import`), else None."""
    if node.level == 1 and here is not None:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "choquard":
        return node.module.partition(".")[2]
    return None


def references(path):
    """(module, name, line) of what the code of one file under src/ or
    bench/ names: a from-import of a package name, or `module.name`
    through a name bound to a package module, with line None; any other
    attribute, with module and line None; and in a package module each
    bare name, with its module and line."""
    tree = ast.parse(path.read_text())
    here = path.stem if path.parent == SRC else None
    modules, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source_module(node, here)
            for alias in node.names:
                if source == "":
                    modules[alias.asname or alias.name] = alias.name
                elif source is not None:
                    refs.add((source, alias.name, None))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            refs.add((modules.get(owner), node.attr, None))
        elif isinstance(node, ast.Name) and here is not None:
            refs.add((here, node.id, node.lineno))
    return refs


# bench/tracer.py binds this method by its name as a string
TRACER_ONLY = {"solver._Descent._ray_energy"}


def test_every_function_and_method_is_reached_from_program_code():
    """Each module-level function and method of the package is named by
    code under src/ or bench/, outside its own definition: by name in its
    module, by a from-import, as `module.name`, or, for a method, as an
    attribute.  An entry only tests call is dead code; `np.zeros` does not
    reach `field.zeros`.  The one exception is a method the tracer binds
    by its name as a string."""
    refs = set().union(*(references(path)
                         for top in ("src", "bench")
                         for path in sorted((ROOT / top).rglob("*.py"))))
    attributes = {name for module, name, line in refs if module is None}
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                own = range(node.lineno, node.end_lineno + 1)
                if not any(m == module and n == node.name and line not in own
                           for m, n, line in refs):
                    unreached.append(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                unreached += [
                    f"{module}.{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef) and m.name not in attributes
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    assert sorted(unreached) == sorted(TRACER_ONLY)
