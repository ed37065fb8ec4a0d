import dataclasses
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from sbfem.errors import AssemblyError, SolveError
from sbfem.cli import build_mesh
from sbfem.mesh import (gen_coupled_singular, gen_hex_mesh, gen_polygon_case1,
                        gen_polyhedron_case1, gen_quad_mesh, gen_refined_square,
                        import_mesh, number_dofs, singular_open_selement)
from sbfem.polyspace import facet_quadrature, radial_quadrature
from sbfem.refgeom import FacetKind
from sbfem import solver
from sbfem.postproc import get_exact, solution_errors
from conftest import (affine_cube_mesh, coupled_mixed_mesh, dirichlet_map,
                      duffy_interpolant, evaluate_in_fe, evaluate_in_sector, global_csr,
                      harmonic_polynomial, hybrid_mesh, interpolant,
                      jittered_quad_mesh,
                      member_coefficients, mesh_to_json, modal_coefficients,
                      octahedron_mesh, on_member_fields, op_sectors,
                      open_element_pinned_first,
                      reference_cg, reference_mode_chain, reference_project_trace,
                      sector_jacobian, sector_rows, selement_dofs, selement_views)
from test_postproc import BATCH_CASES, _galerkin
from sbfem.solver import (DIRICHLET_METHODS, _project_trace, apply_dirichlet,
                          assemble_global, build_operators, fe_element_stiffness,
                          sbfem_interpolate, solve)


def test_fe_q1_unit_square():
    K = fe_element_stiffness(np.array([[[0, 0], [1, 0], [1, 1], [0, 1]]]), 1)[0]
    assert np.abs(np.diag(K) - 2.0 / 3.0).max() < 1e-13
    assert np.abs(K.sum(axis=1)).max() < 1e-13
    assert np.abs(K - K.T).max() < 1e-13


def test_fe_row_sums_vanish(rng):
    for _ in range(5):
        quad = np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) \
            + rng.uniform(-0.2, 0.2, (4, 2))
        for k in (1, 2, 3):
            K = fe_element_stiffness(quad[None], k)[0]
            assert np.abs(K.sum(axis=1)).max() < 1e-11


def test_fe_inverted_element_rejected():
    with pytest.raises(AssemblyError):
        fe_element_stiffness(np.array([[[0, 0], [0, 1], [1, 1], [1, 0]]]), 1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("make", [lambda: gen_coupled_singular(3), coupled_mixed_mesh],
                         ids=["coupled-l3", "coupled-mixed"])
def test_block_matrices_equal_their_transpose(make, k):
    # the block product multiplies a shared matrix from the right, so every
    # S-element and FE block matrix is symmetric bit for bit
    blocks = assemble_global(make(), k).K.blocks
    assert len(blocks) == 2
    for _, M in blocks:
        assert np.array_equal(M, np.swapaxes(M, 1, 2))


@pytest.mark.parametrize("make, k, first", [
    (lambda: gen_quad_mesh(2), 3, None), (lambda: gen_hex_mesh(2), 2, None),
    (lambda: gen_quad_mesh(2), 3, 1)], ids=["quad-2x2-k3", "hex-2x2x2-k2",
                                            "quad-2x2-k3-one-facet"])
def test_mass_blocks_equal_their_transpose(make, k, first, monkeypatch):
    # the trace mass blocks of the Dirichlet projection too; with a single
    # Dirichlet facet its kind's block is one shared matrix, multiplied from
    # the right, so x @ M[0] is M x only for a symmetric M
    operators, cg = [], solver._cg
    monkeypatch.setattr(solver, "_cg", lambda A, b, *args: (
        operators.append(A), cg(A, b, *args))[1])
    mesh = make()
    exact = get_exact("exp3d" if mesh.dimension == 3 else "exp2d")
    apply_dirichlet(assemble_global(mesh, k), exact.value,
                    facet_ids=mesh.boundary_facet_ids()[:first])
    (mass,) = operators
    assert [len(M) == 1 for _, M in mass.blocks] == [first == 1]
    for _, M in mass.blocks:
        assert np.array_equal(M, np.swapaxes(M, 1, 2))


def test_a_dof_in_no_block_is_refused(monkeypatch):
    # a numbering with one more DOF than the S-elements use
    numbering = solver.number_dofs

    def one_more(mesh, k):
        nd = numbering(mesh, k)
        return dataclasses.replace(nd, n_total=nd.n_total + 1)

    monkeypatch.setattr(solver, "number_dofs", one_more)
    n = numbering(gen_quad_mesh(2), 1).n_total
    with pytest.raises(AssemblyError, match=re.escape(
            f"1 DOFs receive no element contribution (first: [{n}])")):
        assemble_global(gen_quad_mesh(2), 1)


def test_single_selement_global_equals_element():
    mesh = gen_quad_mesh(1)
    system = assemble_global(mesh, 1)
    K = global_csr(system).toarray()
    op = selement_views(system)[0]
    assert np.abs(K[np.ix_(op.dofs_kept, op.dofs_kept)] - op.K).max() < 1e-14


def test_global_kernel_and_symmetry():
    system = assemble_global(gen_quad_mesh(2), 1)
    K = global_csr(system)
    ones = np.ones(system.numbering.n_total)
    assert np.abs(K @ ones).max() < 1e-10
    diff = (K - K.T)
    assert abs(diff).max() < 1e-10 * abs(K).max()


def test_constant_reproduced():
    exact = get_exact("const")
    for mesh in (gen_quad_mesh(2), gen_coupled_singular(1)):
        system = assemble_global(mesh, 1)
        has_fe = len(mesh._quads()) > 0
        facets = (mesh.boundary_facet_ids() if not has_fe
                  else exact.dirichlet_facets(mesh))
        if has_fe:
            # homogeneous side-face pin conflicts with u = 1; use plain mesh
            continue
        apply_dirichlet(system, 1.0, facet_ids=facets)
        sol = solve(system)
        assert np.abs(sol.nodal - 1.0).max() < 1e-11
        e_l2, e_h1 = solution_errors(sol, exact)
        assert e_l2 < 1e-11 and e_h1 < 1e-11


@pytest.mark.parametrize("method", ["nodal", "project"])
def test_linear_field_galerkin_exactness(method):
    mesh = gen_quad_mesh(3)
    system = assemble_global(mesh, 1)
    apply_dirichlet(system, lambda x: x[:, 0], method=method)
    sol = solve(system)
    assert np.abs(sol.nodal - system.numbering.coords[:, 0]).max() < 1e-9
    assert sol.residual < 1e-10


def test_interpolate_constant_and_xy():
    mesh = gen_quad_mesh(1)
    sol = sbfem_interpolate(mesh, 1, 1.0)
    exact = get_exact("const")
    e_l2, e_h1 = solution_errors(sol, exact)
    assert e_l2 < 1e-12 and e_h1 < 1e-12
    sol = sbfem_interpolate(mesh, 1, lambda x: x[:, 0] * x[:, 1])
    op = selement_views(sol)[0]
    rng = np.random.default_rng(5)
    xis = rng.uniform(0.05, 1.0, 6)
    for ctx in op_sectors(mesh, op, 0):
        etas = rng.uniform(-0.95, 0.95, (4, 1))
        pts, vals, grads = evaluate_in_sector(sol, 0, ctx, xis, etas)
        assert np.abs(vals - pts[..., 0] * pts[..., 1]).max() < 1e-9
        expect = np.stack([pts[..., 1], pts[..., 0]], axis=-1)
        assert np.abs(grads - expect).max() < 1e-9


def test_trace_interpolant_reproduces_nodal_data():
    mesh = gen_quad_mesh(2)
    k = 3
    sol = sbfem_interpolate(mesh, k, lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2)
    nd = sol.numbering
    f = np.sin(nd.coords[:, 0]) + nd.coords[:, 1] ** 2
    assert np.abs(sol.nodal - f).max() < 1e-12
    # reconstruction at xi=1 equals the nodal data
    for e, op in enumerate(selement_views(sol)):
        for ctx in op_sectors(mesh, op, e):
            nodes = ctx.basis.nodes
            pts, vals, _ = evaluate_in_sector(sol, e, ctx, np.array([1.0]),
                                              nodes)
            expect = sol.nodal[op.dofs_full[ctx.rows]]
            assert np.abs(vals[0] - expect).max() < 1e-9


REPRODUCTION_MESHES = {
    "jittered-8x8": lambda: jittered_quad_mesh(8, 0.18),
    "polygon-case1-2": lambda: gen_polygon_case1(2),
    "hybrid": hybrid_mesh,
    "octahedron": octahedron_mesh,
    "polyhedron-case1-2": lambda: gen_polyhedron_case1(2),
    "affine-cube": lambda: affine_cube_mesh(np.random.default_rng(7)),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(REPRODUCTION_MESHES))
def test_harmonic_polynomials_of_degree_k_are_reproduced(name, k):
    # each part of degree p <= k is xi^p phi(eta) with phi in the trace space
    # about any scaling centre, so the Galerkin solution and the interpolant
    # are the polynomial itself (measured: at most 6e-14 |u|_1)
    mesh = REPRODUCTION_MESHES[name]()
    exact = harmonic_polynomial(mesh.dimension, k)
    system = assemble_global(mesh, k)
    apply_dirichlet(system, exact.value)
    interp = sbfem_interpolate(mesh, k, exact.value)
    norm = solution_errors(dataclasses.replace(interp, nodal=0 * interp.nodal), exact)[1]
    for sol in (solve(system), interp):
        assert max(solution_errors(sol, exact)) <= 1e-11 * norm


def _galerkin_identity_residual(mesh, exact, k, **rules):
    """|(|u - Pi u|^2 - |u - u_h|^2 - d^T K d)| / |u - Pi u|^2, d = Pi u - u_h,
    for the interpolant Pi u and the Galerkin u_h on nodal Dirichlet data."""
    system = assemble_global(mesh, k)
    apply_dirichlet(system, exact.value, facet_ids=exact.dirichlet_facets(mesh),
                    method="nodal")
    sol, interp = solve(system), sbfem_interpolate(mesh, k, exact.value)
    d = interp.nodal - sol.nodal
    e_pi, e_h = (solution_errors(s, exact, **rules)[1] for s in (interp, sol))
    return abs(e_pi ** 2 - e_h ** 2 - d @ (system.K @ d)) / e_pi ** 2


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("make,problem", [
    (lambda: gen_quad_mesh(8), "exp2d"), (lambda: jittered_quad_mesh(8, 0.18), "exp2d"),
    (lambda: gen_polygon_case1(2), "exp2d"), (lambda: gen_hex_mesh(2), "exp3d"),
], ids=["quad-8", "jittered-8x8", "polygon-case1-2", "hex-2"])
def test_galerkin_error_is_the_interpolant_error_less_their_gap(make, problem, k):
    # u_h and the interpolant share the boundary trace, so Galerkin
    # orthogonality gives |u - Pi u|^2 = |u - u_h|^2 + d^T K d (measured: at
    # most 1.7e-10)
    assert _galerkin_identity_residual(make(), get_exact(problem), k) <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_galerkin_identity_on_the_coupled_singular_mesh(k):
    # the identity holds to round-off once the error rules integrate the
    # singular class exactly enough (measured with 40 radial points: 3.7e-12,
    # 5.4e-12, 1.1e-11)
    mesh, exact = gen_coupled_singular(3), get_exact("sqrt2d")
    assert _galerkin_identity_residual(mesh, exact, k, radial_points=40) <= 1e-10
    # with the default rules it reads 2.7e-12, 6.7e-8 and 1.4e-8: the error
    # rules, not the solution, miss it: `_radial_rules` gives the singular
    # class max(radial_points, k + 6) points per cell whatever its largest
    # exponent, where a regular class gets at least ceil(lambda_max + d/2)
    assert _galerkin_identity_residual(mesh, exact, k) <= 1e-7


DUFFY_MESHES = {
    "quad-1": lambda: gen_quad_mesh(1), "quad-4": lambda: gen_quad_mesh(4),
    "polygon-case1-2": lambda: gen_polygon_case1(2),
    "refined-square-2": lambda: gen_refined_square(2),
    "jittered-4x4": lambda: jittered_quad_mesh(4, 0.18),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(DUFFY_MESHES))
def test_interpolant_error_is_the_duffy_error_less_their_gap(name, k):
    # Pi_S u - Pi_D u vanishes on the skeleton, u is harmonic and Pi_S u is
    # orthogonal to the semi-discrete functions that vanish on each
    # S-element's boundary, so per S-element |u - Pi_D u|_1^2 =
    # |u - Pi_S u|_1^2 + |Pi_S u - Pi_D u|_1^2 (measured: at most 5.9e-12)
    mesh, exact = DUFFY_MESHES[name](), get_exact("exp2d")
    sol = sbfem_interpolate(mesh, k, exact.value)
    rad, frule = radial_quadrature(0.0, 40), facet_quadrature(FacetKind.SEGMENT, 30)
    xis, etas = rad.points[:, 0], frule.points
    for e, op in enumerate(selement_views(sol)):
        squares = np.zeros(3)
        for ctx in op_sectors(mesh, op, e):
            pts, _, g_s = evaluate_in_sector(sol, e, ctx, xis, etas)
            _, g_d = duffy_interpolant(exact.value, ctx.sector, k, xis, etas)
            g_u = exact.gradient(pts.reshape(-1, 2)).reshape(g_s.shape)
            w = np.outer(rad.weights * xis,
                         frule.weights * sector_jacobian(ctx.sector, etas)[1])
            squares += [np.sum(w * np.sum(g ** 2, axis=-1))
                        for g in (g_u - g_d, g_u - g_s, g_s - g_d)]
            # the two interpolants share the skeleton trace
            trace_s = evaluate_in_sector(sol, e, ctx, [1.0], etas)[1]
            trace_d = duffy_interpolant(exact.value, ctx.sector, k, [1.0], etas)[0]
            assert np.abs(trace_s - trace_d).max() <= 1e-12
        assert abs(squares[0] - squares[1] - squares[2]) <= 1e-10 * squares[0], e


def test_interface_trace_continuity_coupled():
    mesh = gen_coupled_singular(2)
    exact = get_exact("sqrt2d")
    system = assemble_global(mesh, 2)
    apply_dirichlet(system, exact.value, facet_ids=exact.dirichlet_facets(mesh))
    sol = solve(system)
    op = selement_views(sol)[0]
    interface = set(op.dofs_full.tolist())
    for q in range(len(mesh._quads())):
        dofs = system.numbering.fe_nodes[q]
        shared = [i for i, g in enumerate(dofs) if int(g) in interface]
        if not shared:
            continue
        k = system.numbering.k
        t = np.linspace(-1, 1, k + 1)
        u, v = np.meshgrid(t, t, indexing="ij")
        ref = np.column_stack([u.ravel(order="F"), v.ravel(order="F")])
        pts, vals, grads, det = evaluate_in_fe(sol, q, ref[shared])
        # FE nodal values at interface nodes agree with the SBFEM trace
        assert np.abs(vals - sol.nodal[dofs[shared]]).max() < 1e-9
    # SBFEM reconstruction at its Lagrange nodes equals the same nodal data
    for ctx in op_sectors(mesh, op, 0):
        pts, vals, _ = evaluate_in_sector(sol, 0, ctx, np.array([1.0]),
                                          ctx.basis.nodes)
        expect = sol.nodal[op.dofs_full[ctx.rows]]
        assert np.abs(vals[0] - expect).max() < 1e-9


def test_missing_dirichlet_rejected():
    system = assemble_global(gen_quad_mesh(1), 1)
    with pytest.raises(SolveError):
        apply_dirichlet(system, 1.0, facet_ids=[])


def test_unknown_dirichlet_method_rejected():
    system = assemble_global(gen_quad_mesh(1), 1)
    with pytest.raises(SolveError, match="^unknown Dirichlet method 'foo'$"):
        apply_dirichlet(system, 1.0, method="foo")


_BOUNDARY_QUAD_2 = [0, 3, 4, 5, 8, 9, 10, 11]    # gen_quad_mesh(2)'s boundary facets


@pytest.mark.parametrize("method", DIRICHLET_METHODS)
@pytest.mark.parametrize("bad", [999, -1, 1, 2.7, np.float64(3.0), "3"],
                         ids=["past-the-end", "negative", "interior", "float",
                              "numpy-float", "string"])
def test_dirichlet_refuses_a_facet_id_off_the_boundary(bad, method):
    # an id past the end or negative raised an IndexError under "project" and
    # was dropped under "nodal"; interior facet 1 pinned 18 DOFs instead of
    # 16, and 2.7 was read as interior facet 2
    system = assemble_global(gen_quad_mesh(2), 2)
    assert system.mesh.boundary_facet_ids() == _BOUNDARY_QUAD_2
    with pytest.raises(SolveError, match=f"^facet id {re.escape(repr(bad))} is not a "
                                         "boundary facet of the mesh$"):
        apply_dirichlet(system, get_exact("exp2d").value,
                        facet_ids=_BOUNDARY_QUAD_2[:3] + [bad] + _BOUNDARY_QUAD_2[3:],
                        method=method)
    assert system.dirichlet_dofs.size == 0


@pytest.mark.parametrize("method", DIRICHLET_METHODS)
def test_dirichlet_reads_facet_ids_as_integers(method):
    # None (every boundary facet), a list of ints, an int64 array and [] on
    # a pinned system agree with the default, bit for bit
    g = get_exact("exp2d").value
    systems = []
    for ids in (None, _BOUNDARY_QUAD_2, np.array(_BOUNDARY_QUAD_2),
                [np.int32(f) for f in _BOUNDARY_QUAD_2]):
        systems.append(apply_dirichlet(assemble_global(gen_quad_mesh(2), 2), g,
                                       facet_ids=ids, method=method))
    apply_dirichlet(systems[-1], g, facet_ids=[], method=method)
    for system in systems:
        assert system.dirichlet_dofs.tobytes() == systems[0].dirichlet_dofs.tobytes()
        assert system.dirichlet_values.tobytes() == systems[0].dirichlet_values.tobytes()
    assert systems[0].dirichlet_dofs.size == 16


@pytest.mark.parametrize("method", DIRICHLET_METHODS)
def test_dirichlet_counts_a_repeated_facet_id_once(method):
    # "project" weighted a facet listed twice twice in its mass and load: L2
    # error 2.330533e-01 instead of 2.331765e-01 with facet 0 repeated; a
    # repeat and a reversed list give the pins of every boundary facet
    g = get_exact("exp2d").value
    systems = [apply_dirichlet(assemble_global(gen_quad_mesh(2), 2), g,
                               facet_ids=ids, method=method)
               for ids in (None, _BOUNDARY_QUAD_2 + _BOUNDARY_QUAD_2[:1],
                           _BOUNDARY_QUAD_2[::-1])]
    for system in systems[1:]:
        assert system.dirichlet_dofs.tobytes() == systems[0].dirichlet_dofs.tobytes()
        assert system.dirichlet_values.tobytes() == systems[0].dirichlet_values.tobytes()


def test_dangling_sideface_dof_auto_pinned():
    # the Dirichlet side-face trace DOF of an open S-element receives no
    # element contribution; it must be pinned to zero rather than dangle
    mesh = singular_open_selement(2)
    system = assemble_global(mesh, 1)
    nd = system.numbering
    vid = mesh._dirichlet[0][0]
    dof = nd.vertex_dof[vid]
    in_K = np.diff(global_csr(system).indptr) > 0
    assert not in_K[dof]
    pins = dirichlet_map(system)
    assert pins[dof] == 0.0
    assert all(in_K[d] or d in pins for d in range(nd.n_total))


def test_empty_dirichlet_facets_keep_sideface_pin():
    # the side-face pin alone makes the open S-element's system solvable
    system = assemble_global(singular_open_selement(2), 1)
    pins = dirichlet_map(system)
    apply_dirichlet(system, 1.0, facet_ids=[])
    assert dirichlet_map(system) == pins
    assert np.abs(solve(system).nodal).max() == 0.0


_PROJECTION_CASES = {
    "quad-l2-k3": (lambda: build_mesh("quad", 2), 3, "exp2d", "all"),
    "hex-2-k2": (lambda: gen_hex_mesh(2), 2, "exp3d", "all"),
    "hybrid-k2": (hybrid_mesh, 2, "exp3d", "all"),
    "octahedron-k2": (octahedron_mesh, 2, "exp3d", "all"),
    "coupled-singular-l2-k2": (lambda: build_mesh("coupled-singular", 2), 2,
                               "sqrt2d", "exact"),
    "quad-l2-k2-constant": (lambda: build_mesh("quad", 2), 2, 0.75, "all"),
}


@pytest.mark.parametrize("case", list(_PROJECTION_CASES))
def test_stacked_projection_matches_per_facet_reference(case):
    make, k, problem, where = _PROJECTION_CASES[case]
    mesh = make()
    system = assemble_global(mesh, k)
    if isinstance(problem, str):
        exact = get_exact(problem)
        g = exact.value
        facet_ids = (exact.dirichlet_facets(mesh) if where == "exact"
                     else mesh.boundary_facet_ids())
    else:
        g, facet_ids = problem, mesh.boundary_facet_ids()
    dofs = system.numbering.facet_boundary_dofs(facet_ids)
    want = reference_project_trace(system, g, facet_ids, dofs)
    got = _project_trace(system, g, facet_ids, dofs)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_assembly_accepts_uniformly_scaled_mesh():
    # 2D stiffness is scale-invariant; the sector degeneracy test must be too
    unit = assemble_global(gen_quad_mesh(2), 2)
    tiny = assemble_global(gen_quad_mesh(2, domain=((0, 1e-13),) * 2), 2)
    for a, b in zip(unit.operators, tiny.operators):
        assert np.abs(a.K - b.K).max() <= 1e-12 * np.abs(a.K).max()
    sol = interpolant(tiny.mesh, tiny.numbering, 1.0, tiny.operators)
    assert np.isfinite(solution_errors(sol, get_exact("exp2d"))).all()


def test_congruence_keys_are_scale_relative():
    # keys rounded at a fixed 1e-12 put all 16 S-elements of the 1e-13
    # jittered mesh into one cache entry, and K was silently wrong
    unit = jittered_quad_mesh(4, 0.18)
    data = mesh_to_json(unit)
    data["vertices"] = [[1e-13 * c for c in v] for v in data["vertices"]]
    for entry in data["selements"]:
        entry["center"] = [1e-13 * c for c in entry["center"]]
    tiny = import_mesh(data)
    ops = [build_operators(mesh, number_dofs(mesh, 2)) for mesh in (unit, tiny)]
    assert [len({id(op.modes) for op in o}) for o in ops] == [16, 16]
    for a, b in zip(*ops):          # 2D stiffness is scale-invariant
        assert np.abs(a.K - b.K).max() <= 1e-12 * np.abs(a.K).max()
    # translated copies still share one entry; -0.0 and 0.0 offsets too
    for mesh in (gen_quad_mesh(16), gen_hex_mesh(4), gen_polygon_case1(3)):
        ops = build_operators(mesh, number_dofs(mesh, 2))
        assert len({id(op.modes) for op in ops}) == 1


def test_solver_residual_reported():
    exact = get_exact("exp2d")
    system = assemble_global(gen_quad_mesh(2), 2)
    apply_dirichlet(system, exact.value)
    sol = solve(system)
    assert sol.residual < 1e-10


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_block_operator_and_mass_solve_match_the_oracles(case, rng):
    make, k, problem = BATCH_CASES[case]
    mesh = make()
    system = assemble_global(mesh, k)
    K = global_csr(system)
    x = rng.standard_normal(K.shape[0])
    want = K @ x
    assert np.abs(system.K @ x - want).max() <= 1e-14 * np.abs(want).max()
    diag = K.diagonal()
    assert np.abs(system.K.diagonal() - diag).max() <= 1e-14 * diag.max()
    assert system.K.nnz == K.nnz
    # the CG mass solve of the Dirichlet projection against a dense solve
    exact = get_exact(problem)
    facet_ids = exact.dirichlet_facets(mesh)
    dofs = system.numbering.facet_boundary_dofs(facet_ids)
    want = reference_project_trace(system, exact.value, facet_ids, dofs)
    got = _project_trace(system, exact.value, facet_ids, dofs)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_cg_iterates_match_the_reference_bit_for_bit(case, monkeypatch):
    # the trace-mass solve of the Dirichlet projection and the solve on the
    # free DOFs: the in-place mask, the residual as sqrt(r @ r) and the block
    # products summed into the first change no bit of the result
    calls, cg = [], solver._cg
    monkeypatch.setattr(solver, "_cg", lambda A, b, *mask: (
        calls.append((A, b, *mask)), cg(A, b, *mask))[1])
    make, k, problem = BATCH_CASES[case]
    _galerkin(make(), k, problem)
    assert [len(c) for c in calls] == [2, 3]
    for A, b, *mask in calls:
        assert np.array_equal(cg(A, b, *mask), reference_cg(A, b, *mask))


def slid_quad_mesh():
    """The 4 x 4 grid with each boundary vertex off the corners slid along the
    boundary by up to 1e-13 x the extent: one snapped class per side."""
    rng, data = np.random.default_rng(0), mesh_to_json(gen_quad_mesh(4))
    for v in data["vertices"]:
        on_side = [abs(abs(c) - 1.0) < 1e-15 for c in v]
        if sum(on_side) == 1:
            v[on_side.index(False)] += 2.0e-13 * rng.uniform(-0.5, 0.5)
    return import_mesh(data)


@pytest.mark.parametrize("make, k, problem, classes, rtol", [
    (lambda: gen_hex_mesh(4), 2, "exp3d", 6, 1e-13),
    (lambda: gen_quad_mesh(16), 3, "exp2d", 4, 1e-13),
    (slid_quad_mesh, 3, "exp2d", 4, 1e-12)], ids=["hex-4-k2", "quad-16-k3", "slid-quad-4-k3"])
def test_projection_geometry_is_per_facet_class(make, k, problem, classes, rtol,
                                                monkeypatch):
    # tangents, |J| and mass blocks once per class of the Dirichlet facets
    # (hex: 96 facets, one class per cube face; quad: 64, one per side; the
    # slid grid's facets of a side share their first facet's |J|), the
    # values of g at every facet's own points
    rows, tangents = [], solver._facet_tangents
    monkeypatch.setattr(solver, "_facet_tangents", lambda kind, etas, v: (
        rows.append(len(v)), tangents(kind, etas, v))[1])
    mesh, exact = make(), get_exact(problem)
    system = assemble_global(mesh, k)
    facet_ids = mesh.boundary_facet_ids()
    dofs = system.numbering.facet_boundary_dofs(facet_ids)
    got = _project_trace(system, exact.value, facet_ids, dofs)
    assert rows == [classes]
    want = reference_project_trace(system, exact.value, facet_ids, dofs)
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_cg_failures_are_solve_errors(monkeypatch):
    # past the iteration cap, CG names the cap and the residual it reached;
    # a NaN pin value ends in the residual guard, not in a silent zero
    system = assemble_global(gen_quad_mesh(2), 2)
    exact = get_exact("exp2d")
    capped = r"^CG did not converge in 2 iterations: relative residual \d\.\d\de-\d\d$"
    with monkeypatch.context() as patch:
        patch.setattr(solver, "CG_MAX_ITERATIONS", 2)
        with pytest.raises(SolveError, match=capped):
            apply_dirichlet(system, exact.value)       # the mass solve
        apply_dirichlet(system, exact.value, method="nodal")
        with pytest.raises(SolveError, match=capped):
            solve(system)
    assert solve(system).residual < 1e-10
    system.dirichlet_values[0] = np.nan
    with pytest.raises(SolveError, match="^solver residual nan exceeds 1e-10$"):
        solve(system)


def test_congruence_cache_shares_modes():
    mesh = gen_quad_mesh(3)
    numbering = number_dofs(mesh, 1)
    ops = build_operators(mesh, numbering)
    assert len(ops) == 1                 # all nine are translates of one class
    assert (mesh._sel_class == 0).all()


@pytest.mark.parametrize("make", [lambda: jittered_quad_mesh(9, 0.18),
                                  lambda: gen_coupled_singular(2),
                                  coupled_mixed_mesh],
                         ids=["jittered-9x9", "coupled-singular-l2",
                              "coupled-mixed-fe"])
def test_stacked_scatter_and_coefficients_match_per_element(make):
    # 81 jittered S-elements span two mode-layer chunks; the coupled mesh
    # scatters FE blocks of another size
    mesh = make()
    system = assemble_global(mesh, 2)
    numbering = system.numbering
    K = np.zeros((numbering.n_total,) * 2)
    for op in selement_views(system):
        K[np.ix_(op.dofs_kept, op.dofs_kept)] += reference_mode_chain(
            op.E, 2)[2]
    for q, quad in enumerate(mesh._quads()):
        dofs = numbering.fe_nodes[q]
        K[np.ix_(dofs, dofs)] += fe_element_stiffness(mesh.vertices[quad][None], 2)[0]
    assert np.abs(global_csr(system).toarray() - K).max() <= 1e-12 * np.abs(K).max()
    exact = get_exact("exp2d")
    sol = interpolant(mesh, numbering, exact.value, system.operators)
    for e, op in enumerate(selement_views(sol)):
        want = np.linalg.solve(op.modes.A, sol.nodal[op.dofs_kept])
        c = member_coefficients(sol, e)
        assert np.abs(c - want).max() <= 1e-12 * np.abs(want).max()


RECORD_CASES = pytest.mark.parametrize("make,k,problem", [
    (lambda: gen_quad_mesh(4), 3, "exp2d"),
    (lambda: jittered_quad_mesh(6, 0.18), 2, "exp2d"),
    (lambda: gen_coupled_singular(2), 2, "sqrt2d"),
    (open_element_pinned_first, 2, "sqrt2d")],
    ids=["quad-4-k3", "jittered-6x6-k2", "coupled-l2-k2", "open-pinned-first-k2"])


@RECORD_CASES
def test_class_records_reproduce_the_per_element_view(make, k, problem):
    # the per-S-element oracle (DOFs and sector rows by lattice permutation,
    # kept indices from the pins, coefficients by one solve per element)
    # against the class records, the numbering's arrays (pins left out and
    # named -1) and the class coefficient arrays, bit for bit
    sol, _ = _galerkin(make(), k, problem)
    mesh, nd = sol.mesh, sol.numbering
    assert len(sol.operators) == mesh._sel_class.max() + 1
    views = selement_views(sol)
    if mesh._dirichlet:                 # the pins remove some S-local DOFs
        assert sum(len(v.kept_local) < len(v.dofs_full) for v in views)
    for e, view in enumerate(views):
        op = sol.operators[mesh._sel_class[e]]
        assert np.array_equal(selement_dofs(nd, e), view.dofs_kept)
        assert op.modes.n == len(view.kept_local)
        rows = sector_rows(mesh, nd, e)
        assert len(rows) == len(view.sector_rows)
        # the error pass's trace rows: modes.A and a zero row for the -1
        A = np.concatenate([op.modes.A, np.zeros((1, op.modes.n), complex)])
        assert all(np.array_equal(A[a], view.A_eval[b])
                   for a, b in zip(rows, view.sector_rows))
        assert np.array_equal(member_coefficients(sol, e), view.coefficients)


@RECORD_CASES
def test_error_pass_coefficients_match_the_class_oracle(make, k, problem,
                                                        monkeypatch):
    # every coefficient block the error pass contracts is its class's
    # oracle array A_r^-1 U of the realified modes, real, members in id
    # order, bit for bit, and every member gets its own coefficients once
    # per facet position
    sol, exact = _galerkin(make(), k, problem)
    mesh, blocks = sol.mesh, []
    on_member_fields(monkeypatch, lambda contraction, operands, coeffs:
                     blocks.append(coeffs.copy()))
    solution_errors(sol, exact)
    oracle = modal_coefficients(sol, realified=True)
    assert blocks and {b.dtype for b in blocks} == {np.dtype(float)}
    where = {c.tobytes(): (x, j) for x, C in enumerate(oracle)
             for j, c in enumerate(C)}
    uses = np.zeros(len(mesh._counts), dtype=int)
    for block in (b for C in blocks for b in C):                  # (n, members)
        x, j = where[block[:, 0].tobytes()]
        assert np.array_equal(block.T, oracle[x][j:j + block.shape[1]])
        uses[np.flatnonzero(mesh._sel_class == x)[j:j + block.shape[1]]] += 1
    assert np.array_equal(uses, mesh._counts)


def test_perfbench_health_values_are_finite():
    # perfbench's health report reads each class's E, modes and the
    # asymmetry of element_stiffness(modes); only `health` is called, since
    # `Tracer.install()` would patch the package for the rest of the session
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mesh, exact in ((gen_coupled_singular(2), get_exact("sqrt2d")),
                        (gen_hex_mesh(1), get_exact("exp3d"))):
        system = assemble_global(mesh, 2)
        sol = solve(apply_dirichlet(system, exact.value,
                                    facet_ids=exact.dirichlet_facets(mesh)))
        values = spans.health([sol])
        assert sorted(values) == ["ematrix.cond_E11_max", "modes.asymmetry_max",
                                  "modes.cond_A_max", "modes.lam_min_pos",
                                  "solver.residual_max"]
        assert all(np.isfinite(v) for v in values.values()), (mesh.dimension, values)
