"""Property test: how a mesh file lists a mesh does not change the mesh.

A file is rewritten with its vertex list permuted and relabelled, and with
the facets of every S-element reordered, and each facet's vertex list
rotated or flipped, the same way in every S-element.  `import_mesh` either
rejects the result with an `SbfemError`, or returns a mesh with the same
DOF count, the same congruence classes and the same interpolation errors.
Triangles are flipped but not rotated: the collapsed Gauss rule on a
triangle singles out its first vertex, so rotating one moves the error
integral by the rule's quadrature error (9e-7 relative on `hybrid`).
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from conftest import hybrid_mesh, jittered_quad_mesh, mesh_to_json, relabelled
from sbfem.errors import SbfemError
from sbfem.mesh import (gen_hex_mesh, gen_quad_mesh, import_mesh,
                        singular_open_selement)
from sbfem.postproc import get_exact, solution_errors
from sbfem.solver import sbfem_interpolate
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


def _figures(mesh, k, problem):
    """DOF count, class count and interpolation (L2, H1) errors."""
    exact = get_exact(problem)
    sol = sbfem_interpolate(mesh, k, exact.value)
    return sol.n_dofs, int(mesh._sel_class.max()) + 1, solution_errors(sol, exact)


@lru_cache(maxsize=None)
def _original(name):
    make, k, problem = MESHES[name]
    mesh = make()
    return mesh_to_json(mesh), _figures(mesh, k, problem)


@st.composite
def rewritten(draw):
    """(mesh name, its file rewritten)."""
    name = draw(st.sampled_from(sorted(MESHES)))
    data, _ = _original(name)
    width = max(len(entry["facets"]) for entry in data["selements"])
    perm = draw(st.permutations(range(len(data["vertices"]))))
    order = draw(st.permutations(range(width)))
    turns = draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
    flips = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    sels = []
    for entry in data["selements"]:
        facets = []
        for p in (p for p in order if p < len(entry["facets"])):
            f = entry["facets"][p]
            t = turns[p] % len(f) if len(f) != 3 else 0
            f = f[t:] + f[:t]
            facets.append(f[::-1] if flips[p] else f)
        sels.append(dict(entry, facets=facets))
    return name, relabelled(dict(data, selements=sels), perm)


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rewritten())
def test_rewritten_file_imports_as_the_same_mesh(case):
    name, data = case
    _, k, problem = MESHES[name]
    try:
        got = _figures(import_mesh(data), k, problem)
    except SbfemError:
        reject()
    dofs, classes, errors = _original(name)[1]
    assert got[:2] == (dofs, classes)
    assert got[2] == pytest.approx(errors, rel=1e-12, abs=0.0)
