"""Layout rules of the package: no code and no stored state that only tests
use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import jittered_quad_mesh, mesh_to_json

ROOT = Path(__file__).resolve().parents[1]

# functions, methods and properties, private ones included, allowed to have
# no caller in src/ or perfbench/, each with its reason
ALLOWED: dict = {}


class _Scan(ast.NodeVisitor):
    """Definitions of a module (dunders excepted), the names it references,
    its functions' parameter names (a test requests a fixture by one), its
    dataclass fields, the attributes it reads outside dunder methods and
    its `np.<name>(...)` calls; a name used inside a definition of the same
    name (recursion) is no use."""

    def __init__(self, path: Path):
        self.defs, self.refs, self.fields, self.reads = [], set(), [], set()
        self.params, self.np_calls = set(), []
        self._classes, self._functions = [path.stem], []
        self.visit(ast.parse(path.read_text(), filename=str(path)))

    def visit_ClassDef(self, node):
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            self.fields += [f"{node.name}.{a.target.id}" for a in node.body
                            if isinstance(a, ast.AnnAssign)]
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        dunder = node.name.startswith("__") and node.name.endswith("__")
        if not dunder and not self._functions:
            self.defs.append(".".join(self._classes + [node.name]))
        self.params.update(a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg))
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    def visit_Name(self, node):
        if node.id not in self._functions:
            self.refs.add(node.id)

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Attribute) and ast.unparse(f.value) == "np":
            flags = {k.arg for k in node.keywords if not (
                isinstance(k.value, ast.Constant) and k.value.value is False)}
            self.np_calls.append((f.attr, node.lineno, flags))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr not in self._functions:
            self.refs.add(node.attr)
        if isinstance(node.ctx, ast.Load) and not any(
                f.startswith("__") and f.endswith("__") for f in self._functions):
            self.reads.add(node.attr)
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


def test_private_helpers_live_with_their_only_caller():
    # a private function that its own module never calls and exactly one
    # other module does belongs to that module: else two modules share
    # one decision
    package = {p.stem: _Scan(p) for p in sorted((ROOT / "src" / "sbfem").glob("*.py"))}
    private = [(m, d.split(".")[1]) for m, s in package.items() for d in s.defs
               if d.count(".") == 1 and d.split(".")[1].startswith("_")]
    assert len(private) > 20       # the scan sees the private helpers
    callers = {f"{m}.{f}": [u for u, s in package.items() if u != m and f in s.refs]
               for m, f in private if f not in package[m].refs}
    strays = {name: users for name, users in callers.items() if len(users) == 1}
    assert not strays, f"private helpers to move into their only caller: {strays}"


def test_dataclass_fields_are_read_outside_tests():
    # a field that only dunder methods (the constructor, __getitem__) and
    # tests read is stored state that no computation uses
    package = [_Scan(p) for p in sorted((ROOT / "src" / "sbfem").glob("*.py"))]
    bench = [_Scan(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    read = set().union(*(s.reads for s in package + bench))
    fields = [f for s in package for f in s.fields]
    assert len(fields) > 20        # the scan sees the dataclasses
    unread = [f for f in fields if f.rsplit(".", 1)[1] not in read]
    assert not unread, (
        f"dataclass fields that nothing in src/ or perfbench/ reads: {unread}; "
        "derive them in tests/conftest.py")


def test_conftest_helpers_have_a_user():
    # a helper or fixture of tests/conftest.py that no test module and no
    # other helper uses is an oracle that no test checks any more
    tests = [_Scan(p) for p in sorted((ROOT / "tests").glob("*.py"))]
    used = set().union(*(s.refs | s.params for s in tests))
    helpers = [d.split(".")[1] for d in _Scan(ROOT / "tests" / "conftest.py").defs
               if d.count(".") == 1]
    assert len(helpers) > 50       # the scan sees the helpers
    unused = [h for h in helpers if h not in used]
    assert not unused, f"conftest helpers that no test uses: {unused}"


def _run_after_import(check: str) -> None:
    """Run `check` in a fresh interpreter right after `import sbfem, sbfem.cli`."""
    code = f"import sys, sbfem, sbfem.cli\n{check}"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr


def test_package_import_loads_no_scipy():
    # scipy.sparse and scipy.linalg add about 125 ms to every start and
    # scipy.special about 3.5 MB of resident memory; the package's Gauss
    # rules and its CG solver need numpy alone
    _run_after_import("assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")


def test_package_import_builds_no_table():
    # reference tables are built on first use, in a run's cold pass, never
    # at import: a table built there would add to every start
    _run_after_import("""
from sbfem import mesh, polyspace
sizes = {n: f.cache_info().currsize for m in (mesh, polyspace)
         for n, f in vars(m).items() if hasattr(f, "cache_info")}
assert {"trace_basis", "facet_quadrature", "_basis_table", "radial_quadrature",
        "_corner_weights", "_node_corners"} <= sizes.keys(), sizes
assert not any(sizes.values()), sizes
""")


def test_pipeline_run_loads_no_numpy_ma(tmp_path):
    # numpy 2's value-only np.unique imports numpy.ma on first use: about
    # 12 ms and 1.3 MB of every start, which no result needs (`mesh._distinct`)
    probe = subprocess.run([sys.executable, "-c", "import sys, numpy\n"
                            "print('numpy.ma' in sys.modules)"],
                           capture_output=True, text=True, check=True)
    if probe.stdout.strip() == "True":
        pytest.skip("import numpy alone loads numpy.ma with this numpy (1.x)")
    mesh_file = tmp_path / "jittered.json"
    mesh_file.write_text(json.dumps(mesh_to_json(jittered_quad_mesh(4, 0.2, seed=3))))
    config = ROOT / "configs" / "coupled-singular.json"
    _run_after_import(f"""
from sbfem.mesh import gen_hex_mesh, gen_quad_mesh, import_mesh
from sbfem.postproc import get_exact, solution_errors
from sbfem.solver import apply_dirichlet, assemble_global, solve
for mesh, problem in ((gen_quad_mesh(2), "exp2d"), (gen_hex_mesh(2), "exp3d"),
                      (import_mesh({str(mesh_file)!r}), "exp2d")):
    exact = get_exact(problem)
    solution_errors(solve(apply_dirichlet(assemble_global(mesh, 2), exact.value)), exact)
assert sbfem.cli.main(["convergence", "--config", {str(config)!r}, "--levels", "1..2",
                       "--output", {str(tmp_path / "out")!r}]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
""")


# numpy 2's np.unique without index, inverse or counts asks np.ma.is_masked,
# which imports numpy.ma, as do the set operations built on it
_MA_SET_OPERATIONS = {"setdiff1d", "union1d", "intersect1d", "unique_values"}


def test_set_operations_leave_numpy_ma_unimported():
    # `test_pipeline_run_loads_no_numpy_ma` runs the common paths; this rule
    # covers the call sites that it does not reach
    calls = [(p.name, line, f, flags) for p in sorted((ROOT / "src" / "sbfem").glob("*.py"))
             for f, line, flags in _Scan(p).np_calls]
    assert sum(f == "unique" for _, _, f, _ in calls) > 5    # the scan sees the calls
    bad = [f"{name}:{line} np.{f}" for name, line, f, flags in calls
           if f in _MA_SET_OPERATIONS or f == "unique" and not flags & {
               "return_index", "return_inverse", "return_counts"}]
    assert not bad, (f"set operations that import numpy.ma: {bad}; "
                     "use mesh._distinct for the sorted distinct values")
