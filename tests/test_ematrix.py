import re

import numpy as np
import pytest

from conftest import (Sector, apply_sideface_bc, fixture_meshes_2d,
                      fixture_meshes_3d, jittered_quad_mesh, mesh_sector,
                      mesh_to_json, op_sectors, operator_for, reference_assemble_E,
                      reference_local_dofs, sector_B, sector_E, sector_jacobian,
                      selement_view, volume_gradient_inner)
from sbfem import refgeom
from sbfem.errors import MeshError
from sbfem.mesh import (gen_coupled_singular, gen_hex_mesh, gen_polygon_case1,
                        gen_polyhedron_case1, gen_quad_mesh, import_mesh,
                        number_dofs)
from sbfem.polyspace import facet_quadrature, trace_basis
from sbfem.refgeom import FacetKind
from sbfem.solver import build_operators


def test_B2_annihilates_constants(rng):
    for name, mesh in fixture_meshes_2d() + fixture_meshes_3d():
        sector = mesh_sector(mesh, 0, 0)
        basis = trace_basis(sector.facet_kind, 2)
        for _ in range(5):
            if sector.facet_kind is FacetKind.SEGMENT:
                eta = rng.uniform(-0.9, 0.9, 1)
            elif sector.facet_kind is FacetKind.QUADRILATERAL:
                eta = rng.uniform(-0.9, 0.9, 2)
            else:
                eta = rng.dirichlet([1, 1, 1])[:2] * 0.9
            _, B2 = sector_B(sector, basis, eta)
            assert np.abs(B2.sum(axis=1)).max() < 1e-12


def test_constant_trace_gradient_is_inverse_jacobian_column():
    # alpha = 1, rho = xi: the mapped function has gradient J(1,eta)^-T e1
    mesh = gen_quad_mesh(1)
    sector = mesh_sector(mesh, 0, 0)
    basis = trace_basis(FacetKind.SEGMENT, 1)
    for eta in (-0.7, 0.0, 0.4):
        B1, B2 = sector_B(sector, basis, eta)
        J1, _ = sector_jacobian(sector, np.array([[eta]]))
        expect = np.linalg.solve(J1[0].T, np.eye(2)[:, 0])
        assert B1.sum(axis=1) == pytest.approx(expect)
        assert np.abs(B2.sum(axis=1)).max() < 1e-13


def test_fd_gradient_of_mapped_duffy_function(rng):
    # phi(x) = rho(xi) N_l(eta) with rho = xi: compare the B-vector gradient
    # against central differences in the parametric coordinates
    mesh = gen_quad_mesh(1)
    sector = mesh_sector(mesh, 0, 0)
    basis = trace_basis(FacetKind.SEGMENT, 1)
    step = 1e-6
    for l in range(2):
        for _ in range(5):
            xi = rng.uniform(0.3, 0.9)
            eta = rng.uniform(-0.8, 0.8)

            def phi_param(x, e):
                vals, _ = basis.eval_many(np.array([[e]]))
                return x * vals[0, l]

            dxi = (phi_param(xi + step, eta) - phi_param(xi - step, eta)) / (2 * step)
            deta = (phi_param(xi, eta + step) - phi_param(xi, eta - step)) / (2 * step)
            J1, _ = sector_jacobian(sector, np.array([[eta]]))
            J = J1[0].copy()
            J[:, 1:] *= xi
            grad_fd = np.linalg.solve(J.T, np.array([dxi, deta]))
            B1, B2 = sector_B(sector, basis, eta)
            grad = B1[:, l] * 1.0 + B2[:, l] * (xi / xi)
            assert grad == pytest.approx(grad_fd, rel=1e-6, abs=1e-8)


def test_sector_E_definiteness(rng):
    for name, mesh in fixture_meshes_2d() + fixture_meshes_3d():
        sector = mesh_sector(mesh, 0, 0)
        basis = trace_basis(sector.facet_kind, 2)
        rule = facet_quadrature(sector.facet_kind, 6)
        se = sector_E(sector, basis, rule)
        assert np.abs(se.E11 - se.E11.T).max() < 1e-12 * np.abs(se.E11).max()
        assert np.abs(se.E22 - se.E22.T).max() < 1e-12 * max(np.abs(se.E22).max(), 1)
        assert np.array_equal(se.E21, se.E12.T)
        assert np.linalg.eigvalsh(se.E11).min() > 0
        assert np.linalg.eigvalsh(se.E22).min() > -1e-12 * np.abs(se.E22).max()


def test_unit_square_sector_against_high_order_oracle():
    # right-edge sector of the [-1,1]^2 square, scaling center at the origin
    sector = Sector(collapsed_vertex=np.zeros(2),
                    facet_vertices=np.array([[1.0, -1.0], [1.0, 1.0]]),
                    facet_kind=FacetKind.SEGMENT)
    basis = trace_basis(FacetKind.SEGMENT, 1)
    se = sector_E(sector, basis, facet_quadrature(FacetKind.SEGMENT, 4))
    oracle = sector_E(sector, basis, facet_quadrature(FacetKind.SEGMENT, 20))
    for a, b in [(se.E11, oracle.E11), (se.E12, oracle.E12),
                 (se.E22, oracle.E22)]:
        assert np.abs(a - b).max() < 1e-12


def test_geometry_scaling_law():
    # 2D: invariant under uniform scaling; 3D: scales linearly
    from conftest import polygon_mesh, affine_cube_mesh
    base = polygon_mesh([[0, 0], [2, 0], [2.3, 1.7], [0.4, 2.1]])
    scaled = polygon_mesh(3.0 * np.array([[0, 0], [2, 0], [2.3, 1.7], [0.4, 2.1]]))
    E1 = operator_for(base, 2).E
    E2 = operator_for(scaled, 2).E
    for b1, b2 in zip(E1.blocks(), E2.blocks()):
        assert np.abs(b1 - b2).max() < 1e-11 * max(np.abs(b1).max(), 1)
    rngl = np.random.default_rng(11)
    cube = affine_cube_mesh(rngl)
    s = 2.5
    data = mesh_to_json(cube)
    data["vertices"] = [[s * c for c in v] for v in data["vertices"]]
    for entry in data["selements"]:
        entry["center"] = [s * c for c in entry["center"]]
    big = import_mesh(data)
    E1 = operator_for(cube, 1).E
    E2 = operator_for(big, 1).E
    for b1, b2 in zip(E1.blocks(), E2.blocks()):
        assert np.abs(s * b1 - b2).max() < 1e-11 * np.abs(b2).max()


def test_assembled_identities_closed():
    for name, mesh in fixture_meshes_2d() + fixture_meshes_3d():
        for k in (1, 2):
            op = operator_for(mesh, k)
            E = op.E
            ones = np.ones(E.n)
            scale = np.linalg.norm(E.E22) + np.linalg.norm(E.E12)
            assert np.linalg.norm(E.E22 @ ones) < 1e-10 * scale
            assert np.linalg.norm(E.E12 @ ones) < 1e-10 * scale
            assert np.array_equal(E.E21, E.E12.T)
            assert np.linalg.eigvalsh(E.E11).min() > 0
            assert np.isfinite(E.condition_number())


def test_square_selement_counts(square_mesh):
    op = operator_for(square_mesh, 1)
    assert op.E.n == 4
    assert np.linalg.norm(op.E.E22 @ np.ones(4)) < 1e-12


def test_cube_selement_counts(cube_mesh):
    op = operator_for(cube_mesh, 1)
    assert op.E.n == 8


def test_open_boundary_cross_sum_survives(wedge_mesh):
    # before side-face reduction the open chain keeps nonzero E12^T 1; the
    # numbering leaves the pins out, so the full S-local set is the oracle's
    from sbfem.mesh import number_dofs
    nd = number_dofs(wedge_mesh, 1)
    dofs, rows = reference_local_dofs(wedge_mesh, nd, 0, keep_pins=True)
    data = []
    for pos in range(len(rows)):
        sector = mesh_sector(wedge_mesh, 0, pos)
        data.append((sector, trace_basis(sector.facet_kind, 1), rows[pos], 4))
    E = reference_assemble_E(data, len(dofs))
    ones = np.ones(E.n)
    assert np.linalg.norm(E.E12.T @ ones) > 1e-3
    # the pointwise partition-of-unity identities still hold
    assert np.linalg.norm(E.E22 @ ones) < 1e-12
    assert np.linalg.norm(E.E12 @ ones) < 1e-12


@pytest.mark.parametrize("fixture_set", ["2d", "3d"])
def test_radial_form_matches_volume_integral(fixture_set, rng):
    meshes = fixture_meshes_2d() if fixture_set == "2d" else fixture_meshes_3d()
    for name, mesh in meshes:
        op = operator_for(mesh, 2)
        E = op.E
        d = mesh.dimension
        n_trials = 20 if fixture_set == "2d" else 4
        for _ in range(n_trials):
            alpha = rng.standard_normal(E.n)
            mu = rng.standard_normal(E.n)
            radial = (6 * alpha @ E.E11 @ mu + 2 * alpha @ E.E12 @ mu
                      + 3 * alpha @ E.E21 @ mu + alpha @ E.E22 @ mu) / (d + 3)
            vol = volume_gradient_inner(
                mesh, op, alpha, mu,
                rho=lambda x: x ** 2, drho=lambda x: 2 * x,
                sigma=lambda x: x ** 3, dsigma=lambda x: 3 * x ** 2)
            assert radial == pytest.approx(vol, rel=1e-8), name


def mixed_prism_mesh():
    """Triangular prism S-element, triangle and quadrilateral facets interleaved."""
    return import_mesh({
        "dimension": 3,
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1],
                     [0, 1, 1]],
        "selements": [{"facets": [[0, 1, 4, 3], [0, 2, 1], [1, 2, 5, 4],
                                  [3, 4, 5], [2, 0, 3, 5]]}],
    })


# (mesh, k, relative tolerance); 0 means bit for bit
E_CASES = {
    "quad-l1-k3": (lambda: gen_quad_mesh(4), 3, 0.0),
    "hex-l1-k2": (lambda: gen_hex_mesh(2), 2, 0.0),
    "polygon-case1-l1-k2": (lambda: gen_polygon_case1(2), 2, 0.0),
    "polyhedron-case1-l1-k2": (lambda: gen_polyhedron_case1(1), 2, 0.0),
    "jittered-8x8-k2": (lambda: jittered_quad_mesh(8, 0.18), 2, 0.0),
    "coupled-singular-l2-k2": (lambda: gen_coupled_singular(2), 2, 0.0),
    "mixed-prism-k2": (mixed_prism_mesh, 2, 1e-14),
}


@pytest.mark.parametrize("one_sector_chunks", [False, True])
@pytest.mark.parametrize("case", sorted(E_CASES))
def test_stacked_E_matches_per_sector_reference(case, one_sector_chunks,
                                                monkeypatch):
    if one_sector_chunks:
        monkeypatch.setattr(refgeom, "CHUNK_BUDGET", 1)
    make, k, rtol = E_CASES[case]
    mesh = make()
    numbering = number_dofs(mesh, k)
    ops = build_operators(mesh, numbering)
    for e in np.unique(mesh._sel_class, return_index=True)[1].tolist():
        op = selement_view(mesh, numbering, ops, e)     # a class representative
        n = len(op.dofs_full)
        data = [(ctx.sector, ctx.basis, ctx.rows, 2 * k + 2)
                for ctx in op_sectors(mesh, op, e)]
        ref = apply_sideface_bc(
            reference_assemble_E(data, n),
            np.setdiff1d(np.arange(n), op.kept_local))
        for got, want in zip(op.E.blocks(), ref.blocks()):
            if rtol == 0.0:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("facet", [[[0.0, 0.0], [2.0, 0.0]],     # degenerate
                                   [[0.0, 0.5], [2.0, 0.5]]])   # inverted
def test_bad_sector_error_names_selement_and_facet(facet):
    # assemble_E integrates only registered sectors: a bottom facet through
    # S-element 1's centre (1, 0), or seen from behind it, fails the import
    message = ("S-element 1 fails the star-shape check: facet (4, 5) is not "
               "fully visible" if facet[0][1] == 0.0 else
               "S-element 1 fails the star-shape check: facets (5, 4) and "
               "(5, 6) cannot both face")
    for scale in (1.0, 1e-13):     # the verdict does not depend on the scale
        data = {"dimension": 2,
                "vertices": (scale * np.array([[3, 0], [4, 0], [4, 1], [3, 1]]
                                              + facet + [[2, 2], [0, 2]])).tolist(),
                "selements": [{"facets": [[0, 1], [1, 2], [2, 3], [3, 0]]},
                              {"facets": [[4, 5], [5, 6], [6, 7], [7, 4]],
                               "center": [scale, 0.0]}]}
        with pytest.raises(MeshError, match=re.escape(message)):
            import_mesh(data)
