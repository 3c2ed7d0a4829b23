"""Guard against library code that nothing uses.

Every module-level function or class in `src/rectrep` must be referenced
(as a name or an attribute) somewhere in `src/` outside its own body, or
be exported in `rectrep.__all__`.  Code that only tests call belongs in
the test tree.
"""

import ast
from collections import Counter
from pathlib import Path

import rectrep

SRC = Path(rectrep.__file__).resolve().parent


def _references(node) -> Counter:
    """How often each name is used under node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_no_unreferenced_library_code():
    trees = [ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))]
    everywhere = sum((_references(t) for t in trees), Counter())
    unused = [d.name for t in trees for d in t.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef))
              and everywhere[d.name] == _references(d)[d.name]
              and d.name not in rectrep.__all__]
    assert unused == []
