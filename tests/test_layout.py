"""Layout rules of the package: no code that only tests use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# functions, methods and properties, private ones included, allowed to have
# no caller in src/ or perfbench/, each with its reason
ALLOWED: dict = {}


class _Scan(ast.NodeVisitor):
    """Definitions of a module (dunders excepted) and the names it
    references; a name used inside a definition of the same name
    (recursion) is no use."""

    def __init__(self, path: Path):
        self.defs, self.refs = [], set()
        self._classes, self._functions = [path.stem], []
        self.visit(ast.parse(path.read_text(), filename=str(path)))

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        dunder = node.name.startswith("__") and node.name.endswith("__")
        if not dunder and not self._functions:
            self.defs.append(".".join(self._classes + [node.name]))
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    def visit_Name(self, node):
        if node.id not in self._functions:
            self.refs.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._functions:
            self.refs.add(node.attr)
        self.generic_visit(node)


def test_public_code_has_a_caller_outside_tests():
    package = [_Scan(p) for p in sorted((ROOT / "src" / "sbfem").glob("*.py"))
               if p.name != "__init__.py"]
    bench = [_Scan(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*(s.refs for s in package + bench))
    defs = [d for s in package for d in s.defs]
    assert len(defs) > 30          # the scan sees the package
    unused = [d for d in defs if d.rsplit(".", 1)[1] not in used
              and d not in ALLOWED]
    assert not unused, (
        f"code that nothing in src/ or perfbench/ calls: {unused}; "
        "move test-only helpers to tests/conftest.py")
