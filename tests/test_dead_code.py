"""Guard against library code that nothing uses.

Every function and class in `src/rectrep`, and every method and
property of its classes (dunders aside), must be referenced (as a name
or an attribute) somewhere in `src/` outside its own body.  Code that
only tests call belongs in the test tree.  `__init__.py` only re-exports,
so its imports and `__all__` count for nothing.

The one exception is `verify_certificate`, the certificate re-check
that is independent of detection: it is there for callers outside
`src/` (the README documents it, the benchmark checks every certificate
with it), and the detector deliberately does not call it.
"""

import ast
from collections import Counter
from pathlib import Path

import rectrep

SRC = Path(rectrep.__file__).resolve().parent
ENTRY_POINTS = {"verify_certificate"}


def _references(node) -> Counter:
    """How often each name is used under node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(definition, enclosing class or None) for each module-level
    function and class and each non-dunder method of such a class."""
    for d in tree.body:
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
            yield d, None
        if isinstance(d, ast.ClassDef):
            yield from ((m, d) for m in d.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__")))


def unreferenced(src: Path) -> list[str]:
    """Names of the definitions that nothing live references.

    Repeated until nothing changes: code that only dead code uses is
    dead too.
    """
    trees = [ast.parse(f.read_text()) for f in sorted(src.glob("*.py"))
             if f.name != "__init__.py"]
    defs = [(d, owner, _references(d))
            for t in trees for d, owner in _definitions(t)]
    total = sum((_references(t) for t in trees), Counter())
    dead: set = set()
    while True:
        live = total.copy()
        # a dead class's references already cover its methods
        for d, owner, refs in defs:
            if d in dead and owner not in dead:
                live.subtract(refs)
        fresh = {d for d, _, refs in defs if d not in dead
                 and live[d.name] <= refs[d.name]
                 and d.name not in ENTRY_POINTS}
        if not fresh:
            return sorted(d.name for d in dead)
        dead |= fresh


def test_no_unreferenced_library_code():
    assert unreferenced(SRC) == []


def test_guard_follows_dead_chains_into_methods(tmp_path):
    # helper is called only from a dead method, and Box.used only from helper
    (tmp_path / "m.py").write_text(
        "class Box:\n"
        "    def used(self):\n        return 1\n"
        "    def unused(self):\n        return helper()\n"
        "    def __len__(self):\n        return 0\n"
        "def helper():\n    return Box().used()\n"
        "def verify_certificate():\n    pass\n"
        "main = Box\n")
    (tmp_path / "__init__.py").write_text("from .m import helper\n")
    assert unreferenced(tmp_path) == ["helper", "unused", "used"]
