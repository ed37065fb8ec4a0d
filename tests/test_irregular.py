"""Property-based checks on irregular imported meshes (no reference tables)."""

import numpy as np
import pytest

from conftest import interpolant, jittered_quad_mesh, mesh_to_json
from sbfem import ematrix, mesh, modes, postproc, refgeom, solver
from sbfem.mesh import gen_hex_mesh, gen_quad_mesh, import_mesh, number_dofs
from sbfem.postproc import get_exact, solution_errors
from sbfem.solver import (apply_dirichlet, assemble_global, build_operators,
                          sbfem_interpolate, solve)


def sheared_hex_mesh(n):
    """Affine image of the uniform hex mesh: irregular but planar facets."""
    base = gen_hex_mesh(n)
    M = np.array([[1.0, 0.25, 0.1], [0.0, 1.0, 0.3], [0.05, 0.0, 1.0]])
    data = mesh_to_json(base)
    data["vertices"] = [list(M @ np.asarray(v)) for v in data["vertices"]]
    for entry in data["selements"]:
        entry["center"] = list(M @ np.asarray(entry["center"]))
    return import_mesh(data)


def test_jittered_mesh_validates_and_has_no_congruence():
    mesh = jittered_quad_mesh(3, 0.18)
    numbering = number_dofs(mesh, 2)
    ops = build_operators(mesh, numbering)
    assert len({id(op.modes) for op in ops}) == 9      # every element distinct


def test_jittered_mesh_spectral_properties():
    mesh = jittered_quad_mesh(3, 0.18)
    numbering = number_dofs(mesh, 2)
    for op in build_operators(mesh, numbering):
        lam = op.modes.all_eigenvalues
        scale = max(np.abs(lam).max(), 1.0)
        mirrored = -lam
        assert np.abs(np.sort_complex(lam)
                      - np.sort_complex(mirrored)).max() < 1e-8 * scale
        w = np.linalg.eigvalsh(op.K)
        assert w.min() > -1e-9 * np.linalg.norm(op.K)


def test_jittered_mesh_galerkin_convergence():
    exact = get_exact("exp2d")
    errs = []
    for n in (3, 6, 12):
        mesh = jittered_quad_mesh(n, 0.15, seed=4)
        system = assemble_global(mesh, 2)
        apply_dirichlet(system, exact.value)
        sol = solve(system)
        e = solution_errors(sol, exact)
        interp = interpolant(mesh, system.numbering, exact.value, system.operators)
        # optimality needs the shared nodal trace
        system2 = assemble_global(mesh, 2)
        apply_dirichlet(system2, exact.value, method="nodal")
        sol2 = solve(system2)
        e2 = solution_errors(sol2, exact)
        ei = solution_errors(interp, exact)
        assert e2[1] <= ei[1] * (1 + 1e-9)
        errs.append(e)
    rate_h1 = np.log2(errs[-2][1] / errs[-1][1])
    rate_l2 = np.log2(errs[-2][0] / errs[-1][0])
    assert rate_h1 == pytest.approx(2.0, abs=0.3)
    assert rate_l2 == pytest.approx(3.0, abs=0.4)


def test_sheared_hex_mesh_solves():
    exact = get_exact("exp3d")
    errs = []
    for n in (1, 2):
        mesh = sheared_hex_mesh(n)
        system = assemble_global(mesh, 2)
        apply_dirichlet(system, exact.value)
        sol = solve(system)
        errs.append(solution_errors(sol, exact))
        assert sol.residual < 1e-10
    assert errs[1][1] < 0.4 * errs[0][1]
    assert errs[1][0] < 0.25 * errs[0][0]


def test_mixed_polygon_mesh():
    # pentagon + triangle + quadrilateral sharing edges, fully irregular
    mesh = import_mesh({
        "dimension": 2,
        "vertices": [[0, 0], [1.2, 0], [1.6, 1.0], [0.7, 1.7], [-0.4, 1.0],
                     [2.4, 0.4], [2.2, 1.6]],
        "selements": [
            {"facets": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
            {"facets": [[1, 5], [5, 2], [2, 1]]},
            {"facets": [[5, 6], [6, 2], [2, 5]]},
        ],
    })
    exact = get_exact("exp2d")
    rel = {}
    for k in (3, 4):
        system = assemble_global(mesh, k)
        apply_dirichlet(system, exact.value)
        sol = solve(system)
        e_l2, e_h1 = solution_errors(sol, exact)
        zero = interpolant(mesh, system.numbering, 0.0, system.operators)
        u_l2, u_h1 = solution_errors(zero, exact)   # norms of the solution
        rel[k] = (e_l2 / u_l2, e_h1 / u_h1)
    assert rel[3][1] < 0.15 and rel[3][0] < 0.05
    # p-refinement pays off on the irregular mesh
    assert rel[4][1] < 0.4 * rel[3][1]
    assert rel[4][0] < 0.4 * rel[3][0]
    # linear exactness on the same mesh
    system = assemble_global(mesh, 3)
    apply_dirichlet(system, lambda x: 2.0 * x[:, 0] - x[:, 1] + 0.5)
    sol = solve(system)
    expect = 2.0 * system.numbering.coords[:, 0] \
        - system.numbering.coords[:, 1] + 0.5
    assert np.abs(sol.nodal - expect).max() < 1e-9


def test_assembly_work_does_not_grow_with_the_mesh(monkeypatch):
    # facet tangents are evaluated once per stacked pass, never per sector
    calls = []
    original = refgeom._facet_tangents

    def counted(*args):
        calls.append(None)
        return original(*args)

    for mod in (refgeom, mesh, ematrix, modes, solver, postproc):
        if getattr(mod, "_facet_tangents", None) is original:
            monkeypatch.setattr(mod, "_facet_tangents", counted)
    counts = []
    for n in (4, 8):
        calls.clear()
        assemble_global(jittered_quad_mesh(n, 0.18), 2)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_solver_work_is_one_per_class(monkeypatch):
    # one operator and one radial rule per congruence class, however many
    # S-elements share it, and one coefficient solve per error group (one
    # `_radial_factors` call each) inside solution_errors
    calls = {"rule": 0, "solve": 0, "group": 0}
    rule, linsolve, factors = (postproc._radial_rules, np.linalg.solve,
                               postproc._radial_factors)

    def counted(key, fn, count=lambda args: 1):
        def wrapper(*args):
            calls[key] += count(args)
            return fn(*args)
        return wrapper

    def errors(sol):
        calls.update(rule=0, solve=0, group=0)
        with monkeypatch.context() as m:
            # radial rules are rows of one array pass over the classes
            m.setattr(postproc, "_radial_rules",
                      counted("rule", rule, lambda args: len(args[0])))
            m.setattr(postproc, "_radial_factors", counted("group", factors))
            m.setattr(np.linalg, "solve", counted("solve", linsolve))
            solution_errors(sol, exact)
        return calls["rule"], calls["solve"], calls["group"]

    exact = get_exact("exp2d")
    for n in (4, 8):
        grid = gen_quad_mesh(n)
        system = assemble_global(grid, 2)
        sol = solve(apply_dirichlet(system, exact.value))
        classes = grid._sel_class.max() + 1
        assert len(system.operators) == classes
        assert errors(sol) == (classes, 1, 1)
    # classes of equal mode and member counts share a group and its stacked
    # solve: the 64 singleton classes of a jittered mesh make fewer calls
    jittered = jittered_quad_mesh(8, 0.18)
    sol = sbfem_interpolate(jittered, 2, exact.value)
    rules, solves, groups = errors(sol)
    assert (len(sol.operators), rules) == (64, 64)
    assert solves == groups < 64
