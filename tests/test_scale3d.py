"""Opt-in checks at the paper's 3D scale (set SBFEM_SCALE3D=1; about 10 s
on one core): the error pass's member blocks on hex level 4 and
polyhedron-case1 level 4 at k = 2, their errors against one-member blocks,
and the per-class star-shape check on hex level 4 against the all-sector
oracle."""

import os

import pytest

from conftest import lowered_grid, on_member_fields, star_shape_verdicts
from sbfem import postproc, refgeom
from sbfem.mesh import gen_hex_mesh, gen_polyhedron_case1, import_mesh
from sbfem.postproc import get_exact, solution_errors
from sbfem.solver import apply_dirichlet, assemble_global, solve

RUN_SCALE3D = os.environ.get("SBFEM_SCALE3D", "") == "1"
pytestmark = pytest.mark.skipif(not RUN_SCALE3D,
                                reason="3D scale checks; set SBFEM_SCALE3D=1")


@pytest.mark.parametrize("make, widths", [
    (lambda: gen_hex_mesh(16), [109] * 37 + [63]),
    (lambda: gen_polyhedron_case1(8), [109] * 4 + [76])],
    ids=["hex-l4-k2", "polyhedron-case1-l4-k2"])
def test_error_blocks_at_scale(make, widths, monkeypatch):
    # every class of 4,096 (hex) or 512 (polyhedron) members contracts a
    # mode basis in blocks of up to 109 members at each facet position.
    # One-member blocks on the same path give the same errors to 1e-12
    # (measured 4.1e-14 and 3.3e-13); CHUNK_BUDGET = 1 also makes every
    # block take the coefficients first and subtract the closed form at the
    # points, whose round-off differs by up to 6.8e-12 (measured)
    mesh, exact = make(), get_exact("exp3d")
    system = assemble_global(mesh, 2)
    apply_dirichlet(system, exact.value, facet_ids=exact.dirichlet_facets(mesh))
    sol = solve(system)
    blocks = []
    with monkeypatch.context() as patch:
        on_member_fields(patch, lambda contraction, operands, coeffs:
                         blocks.append((contraction, coeffs.shape[-1])))
        got = solution_errors(sol, exact)
    assert blocks == [("basis", m) for m in widths] * (len(blocks) // len(widths))
    chunks = postproc._chunks
    with monkeypatch.context() as patch:
        patch.setattr(postproc, "_chunks", lambda n, per_member, budgets=1: (
            chunks(n, per_member) if budgets == 1 else [slice(i, i + 1) for i in range(n)]))
        assert got == pytest.approx(solution_errors(sol, exact), rel=1e-12, abs=0.0)
    monkeypatch.setattr(refgeom, "CHUNK_BUDGET", 1)
    assert got == pytest.approx(solution_errors(sol, exact), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("heights", [{}, {2000: 1e-15, 3000: 0.0}],
                         ids=["plain", "lowered-copies"])
def test_star_shape_verdict_at_scale(heights, monkeypatch):
    # hex level 4 with every centre 4e-14 above its bottom facet, one class:
    # each copy near failing is evaluated; two flat copies deep in the mesh
    # are named as the all-sector check names them
    data = lowered_grid(gen_hex_mesh(16), heights)
    got, want = star_shape_verdicts(monkeypatch, lambda: import_mesh(data))
    assert got == want
    assert (got is None) == (not heights)
    got, want = star_shape_verdicts(monkeypatch, lambda: gen_hex_mesh(16))
    assert got is want is None
