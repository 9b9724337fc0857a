"""Nothing in src/randamp is reached only by tests.

Every top-level function and class of src/randamp/*.py, and every method
of such a class except dunders, needs a reference by name (a Name, an
Attribute or an import alias) from src/randamp (outside the name's own
definition and __init__.py) or from demos/.  A name that only tests reach
belongs in tests/helpers.py; a name kept as library API that nothing in
src/ or demos/ calls needs an entry in ALLOWED with a one-line reason.

Known gap: names are matched by spelling, not by binding, so definitions
that share a name cover each other (the two to_json methods: a call of
one counts for all).

Every module-level import of src/randamp/*.py must also be read, as a
Name, in its own module (`from __future__` aside), so that a deletion
does not leave its imports behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "randamp"

ALLOWED = {
    "cli.verify_manifest": "library API: checks a run's outputs against its manifest, as the bench does",
}


def _definitions(path: Path):
    """(qualified name, node) of each top-level function and class and of
    each non-dunder method of such a class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{path.stem}.{node.name}.{sub.name}", sub


def _references(path: Path):
    """(name, line) of every Name, Attribute and import alias in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def unreached(src: Path = SRC, demos: Path = ROOT / "demos") -> list:
    """Qualified names of the definitions under src that nothing in src
    (outside the definition and __init__.py) or demos refers to."""
    readers = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"] + sorted(demos.glob("*.py"))
    refs = {}
    for path in readers:
        for name, line in _references(path):
            refs.setdefault(name, []).append((path, line))
    missing = []
    for path in sorted(src.glob("*.py")):
        for qualified, node in _definitions(path):
            name = qualified.rpartition(".")[2]
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(ref != path or line not in inside for ref, line in refs.get(name, ())):
                missing.append(qualified)
    return missing


def unread_imports(src: Path = SRC) -> list:
    """module.name of every name a module-level import under src binds
    that its own module never reads as a Name."""
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):  # `import a.b` binds a
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.stem}.{name}" for name in bound if name not in read]
    return unread


def test_every_src_name_is_reached_from_src_or_demos():
    missing = [name for name in unreached() if name not in ALLOWED]
    assert not missing, f"reached only by tests (move them to tests/helpers.py, or allow them): {missing}"


def test_every_allowed_name_is_still_unreached():
    stale = sorted(set(ALLOWED) - set(unreached()))
    assert not stale, f"allowed but reached, or gone: drop them from ALLOWED: {stale}"


def test_scan_finds_an_unreferenced_function(tmp_path):
    """The scan itself: a public function that only its own body names is
    found, and one a sibling module calls is not."""
    src, demos = tmp_path / "src", tmp_path / "demos"
    src.mkdir()
    demos.mkdir()
    (src / "__init__.py").write_text("from .a import lonely, used\n")
    (src / "a.py").write_text(
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Box:\n    def shown(self):\n        return 2\n\n    def hidden(self):\n        return 3\n"
    )
    (src / "b.py").write_text("from .a import used\n\n\ndef main():\n    return used()\n")
    (demos / "demo.py").write_text("from a import Box, main\n\nBox().shown()\nmain()\n")
    assert unreached(src, demos) == ["a.lonely", "a.Box.hidden"]


def test_every_src_import_is_read():
    unread = unread_imports()
    assert not unread, f"imported but never read: drop the imports: {unread}"


def test_import_scan_finds_an_unread_import(tmp_path):
    """The import scan itself: an import, an alias and a from-import that
    their module never reads are found; `import a.b` read through a, a name
    read only in a nested function and `from __future__` are not."""
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import collections\nimport math\nimport os.path\nimport numpy as np\n"
        "from .b import used, unused as alias\n\n\n"
        "def f():\n    def g():\n        return used()\n\n    return math.pi, os.path.sep, g\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    return 1\n")
    assert unread_imports(tmp_path) == ["a.collections", "a.np", "a.alias"]
