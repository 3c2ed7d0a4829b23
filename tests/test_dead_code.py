"""Guard against library code that nothing uses.

Every function and class in `src/rectrep`, and every method and
property of its classes (dunders aside), must be referenced somewhere in
`src/` outside its own body: a function or class as a name or an
attribute, a method or property only as an attribute, so a local
variable that shares a method's name does not keep the method alive.
Code that only tests call belongs in the test tree.  `__init__.py` only
re-exports, so its imports and `__all__` count for nothing.

One definition is exempt because its callers are outside `src/`:
`verify_certificate`, the certificate re-check that is independent of
detection (the README documents it, the benchmark checks every
certificate with it, and the detector deliberately does not call it).
"""

import ast
from collections import Counter
from pathlib import Path

import rectrep

SRC = Path(rectrep.__file__).resolve().parent
ENTRY_POINTS = {"verify_certificate"}


def _references(node) -> Counter:
    """How often each name is used under node: a bare name as itself, an
    attribute as "." + its name."""
    return Counter(n.id if isinstance(n, ast.Name) else "." + n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _uses(refs: Counter, d, owner) -> int:
    """References in refs that can reach d: for a method only attributes."""
    return refs["." + d.name] + (refs[d.name] if owner is None else 0)


def _qualname(d, owner) -> str:
    return d.name if owner is None else f"{owner.name}.{d.name}"


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
        fresh = {d for d, owner, refs in defs if d not in dead
                 and _uses(live, d, owner) <= _uses(refs, d, owner)
                 and _qualname(d, owner) not in ENTRY_POINTS}
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


def test_guard_counts_methods_only_through_attributes(tmp_path):
    # Point.block is dead although a local variable shares its name; a
    # module-level function reached as an attribute stays live
    (tmp_path / "m.py").write_text(
        "import m\n"
        "class Point:\n"
        "    def block(self):\n        return 1\n"
        "    def used(self):\n        return 2\n"
        "def split(coords):\n"
        "    block = coords[:1]\n    return block, Point().used()\n"
        "def helper():\n    return 3\n"
        "main = (split, m.helper)\n")
    assert unreferenced(tmp_path) == ["block"]
