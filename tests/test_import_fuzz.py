"""Property test: how a mesh file lists a mesh does not change the mesh.

A file is rewritten with some vertices listed twice, each copy referenced
by different facets, with its vertex list permuted and relabelled, with the
facets of every S-element reordered, each facet's vertex list rotated the
same way in every S-element and reversed or not in each S-element on its
own, and possibly scaled by a power of two.  `import_mesh` either rejects
the result with an `SbfemError`, or returns a mesh with the same DOF count
and the same congruence classes, whose S-local DOFs match the per-element
oracle; unscaled, it also has the same interpolation errors (the exact
solutions are not scale-invariant).  A file with a stray facet, a facet of
one S-element listed again in another or in its own, is rejected.  The CLI
runs some rewritten files, an empty one among them, to an exit code.
"""
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from conftest import (assert_local_dofs_match, hybrid_mesh, interpolant,
                      jittered_quad_mesh, mesh_to_json, relabelled)
from sbfem.cli import main
from sbfem.errors import MeshError, SbfemError
from sbfem.mesh import (gen_hex_mesh, gen_quad_mesh, import_mesh, number_dofs,
                        singular_open_selement)
from sbfem.postproc import get_exact, solution_errors
from test_postproc import tensor_quad_mesh

# name -> (mesh, trace degree, exact solution)
MESHES = {
    "quad-2": (lambda: gen_quad_mesh(2), 2, "exp2d"),
    # classes of 4 and 2 S-elements
    "tensor-3x2": (lambda: tensor_quad_mesh([-1, 0, 1, 1.5], [-1, 0, 1]), 1,
                   "exp2d"),
    "jittered-3x3": (lambda: jittered_quad_mesh(3, 0.18), 2, "exp2d"),
    "singular-open-1": (lambda: singular_open_selement(1), 2, "sqrt2d"),
    "hex-2": (lambda: gen_hex_mesh(2), 1, "exp3d"),
    "hybrid": (hybrid_mesh, 1, "exp3d"),
}


def _figures(mesh, k, problem, errors=True):
    """DOF count, class count and, if `errors`, the interpolation (L2, H1)
    errors; checks the S-local DOFs against the oracle on the way."""
    numbering = number_dofs(mesh, k)
    assert_local_dofs_match(mesh, numbering)
    figures = (numbering.n_total, int(mesh._sel_class.max()) + 1)
    if not errors:
        return figures
    exact = get_exact(problem)
    sol = interpolant(mesh, numbering, exact.value)
    return figures + (solution_errors(sol, exact),)


@lru_cache(maxsize=None)
def _original(name):
    make, k, problem = MESHES[name]
    mesh = make()
    return mesh_to_json(mesh), _figures(mesh, k, problem)


@st.composite
def rewritten(draw):
    """(mesh name, binary exponent of the scale, its file rewritten, whether
    the file has a stray facet)."""
    name = draw(st.sampled_from(sorted(MESHES)))
    data, _ = _original(name)
    n, n_sels = len(data["vertices"]), len(data["selements"])
    # the second copy of a listed twice vertex takes every other reference
    twice = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    copy = {v: n + j for j, v in enumerate(twice)}
    uses = dict.fromkeys(twice, 0)
    exponent = draw(st.sampled_from([0, 0, -40, -3, 5, 40]))
    width = max(len(entry["facets"]) for entry in data["selements"])
    perm = draw(st.permutations(range(n + len(twice))))
    order = draw(st.permutations(range(width)))
    turns = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
    flips = draw(st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
                          min_size=n_sels, max_size=n_sels))
    # (S-element that lists it again, S-element and position of the facet)
    stray = draw(st.none() | st.tuples(st.integers(0, n_sels - 1),
                                       st.integers(0, n_sels - 1),
                                       st.integers(0, width - 1)))

    def listed(v):
        if v not in copy:
            return v
        uses[v] += 1
        return copy[v] if uses[v] % 2 == 0 else v

    sels = []
    for entry, flip in zip(data["selements"], flips):
        facets = []
        for p in (p for p in order if p < len(entry["facets"])):
            f = [listed(v) for v in entry["facets"][p]]
            t = turns[p] % len(f)
            f = f[t:] + f[:t]
            facets.append(f[::-1] if flip[p] else f)
        sels.append(dict(entry, facets=facets,
                         center=[c * 2.0 ** exponent for c in entry["center"]]))
    if stray is not None:
        e, source, p = stray
        extra = sels[source]["facets"]
        sels[e]["facets"] = sels[e]["facets"] + [extra[p % len(extra)]]
    vertices = [[c * 2.0 ** exponent for c in xyz]
                for xyz in data["vertices"] + [data["vertices"][v] for v in twice]]
    return name, exponent, relabelled(dict(data, vertices=vertices, selements=sels),
                                      perm), stray is not None


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rewritten())
def test_rewritten_file_imports_as_the_same_mesh(case):
    name, exponent, data, stray = case
    _, k, problem = MESHES[name]
    if stray:
        with pytest.raises(MeshError):
            import_mesh(data)
        return
    try:
        got = _figures(import_mesh(data), k, problem, errors=exponent == 0)
    except SbfemError:
        reject()
    dofs, classes, errors = _original(name)[1]
    assert got[:2] == (dofs, classes)
    if exponent == 0:
        assert got[2] == pytest.approx(errors, rel=1e-12, abs=0.0)


@settings(max_examples=12, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rewritten().filter(lambda case: case[1] == 0), st.booleans())
def test_cli_runs_rewritten_files_to_an_exit_code(case, empty):
    name, _, data, _ = case
    _, k, problem = MESHES[name]
    if empty:
        data = dict(data, selements=[])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.json"
        path.write_text(json.dumps(data))
        rc = main(["interp", "--mesh", f"file:{path}", "--k", str(k),
                   "--problem", problem, "--output", tmp])
    assert rc in ((1,) if empty else (0, 1, 2))
