import numpy as np
import pytest

from conftest import duffy_map_many, mesh_sector
from sbfem.errors import GeometryError
from sbfem.refgeom import (FacetKind, Sector, duffy_jacobian, duffy_map,
                           jacobian_columns_many)


def tri_sector():
    # collapsed vertex at the origin, hypotenuse facet of the unit triangle
    return Sector(collapsed_vertex=np.zeros(2),
                  facet_vertices=np.array([[1.0, 0.0], [0.0, 1.0]]),
                  facet_kind=FacetKind.SEGMENT)


def pyramid_sector():
    # unit-cube pyramid: center to the z=0 face, outward orientation
    face = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=float)
    return Sector(collapsed_vertex=np.array([0.5, 0.5, 0.5]),
                  facet_vertices=face, facet_kind=FacetKind.QUADRILATERAL)


def test_unit_triangle_map_and_inverse():
    s = tri_sector()
    for xi, eta in [(0.3, -0.4), (1.0, 0.8), (0.55, 0.0)]:
        x = duffy_map(s, xi, eta)
        assert x == pytest.approx([xi * (1 - eta) / 2, xi * (1 + eta) / 2])
        # radial coordinate recovered as x + y
        assert x[0] + x[1] == pytest.approx(xi)


def test_collapse_to_center():
    s = tri_sector()
    for eta in (-1.0, 0.3, 1.0):
        assert duffy_map(s, 0.0, eta) == pytest.approx([0.0, 0.0])
    p = pyramid_sector()
    for eta in ([0.0, 0.0], [0.7, -0.2]):
        assert duffy_map(p, 0.0, eta) == pytest.approx([0.5, 0.5, 0.5])


def test_pyramid_face_midpoint():
    p = pyramid_sector()
    assert duffy_map(p, 1.0, [0.0, 0.0]) == pytest.approx([0.5, 0.5, 0.0])


def test_triangle_det_constant_half():
    s = tri_sector()
    for eta in (-0.9, 0.0, 0.5):
        jac = duffy_jacobian(s, 1.0, eta)
        assert jac.detJ1 == pytest.approx(0.5)


def test_det_factorization_exact():
    s = tri_sector()
    p = pyramid_sector()
    for sector in (s, p):
        jac = duffy_jacobian(sector, 1.0, np.zeros(sector.dim - 1))
        for xi in (0.2, 0.77):
            assert jac.detJ_at(xi) == pytest.approx(
                xi ** (sector.dim - 1) * jac.detJ1)


def test_pyramid_det_constant_over_flat_square():
    p = pyramid_sector()
    etas = np.array([[-0.8, -0.3], [0.1, 0.9], [0.6, -0.6]])
    _, det = jacobian_columns_many(p, etas)
    assert np.allclose(det, det[0], rtol=1e-13)
    assert det[0] == pytest.approx(0.125)


def test_map_affine_in_xi():
    rng = np.random.default_rng(3)
    for sector in (tri_sector(), pyramid_sector()):
        etas = rng.uniform(-0.9, 0.9, (5, sector.dim - 1)) \
            if sector.facet_kind is not FacetKind.SEGMENT \
            else rng.uniform(-0.9, 0.9, (5, 1))
        a0 = sector.collapsed_vertex
        ray = duffy_map_many(sector, np.array([1.0]), etas)[0] - a0
        for xi in (0.15, 0.6, 0.95):
            pts = duffy_map_many(sector, np.array([xi]), etas)[0]
            assert np.allclose(pts, a0 + xi * ray, atol=0, rtol=0)


def test_fd_jacobian_determinant_property(rng):
    from conftest import fixture_meshes_2d, fixture_meshes_3d
    step = 1e-6
    for name, mesh in fixture_meshes_2d() + fixture_meshes_3d():
        sel = mesh.selements[0]
        sector = mesh_sector(mesh, sel, 0)
        d = sector.dim
        for _ in range(10):
            xi = rng.uniform(0.2, 0.95)
            if sector.facet_kind is FacetKind.SEGMENT:
                eta = rng.uniform(-0.8, 0.8, 1)
            elif sector.facet_kind is FacetKind.QUADRILATERAL:
                eta = rng.uniform(-0.8, 0.8, 2)
            else:
                eta = rng.dirichlet([1, 1, 1])[:2] * 0.8
            cols = []
            x0 = duffy_map(sector, xi, eta)
            cols.append((duffy_map(sector, xi + step, eta)
                         - duffy_map(sector, xi - step, eta)) / (2 * step))
            for a in range(d - 1):
                e = np.zeros(d - 1)
                e[a] = step
                cols.append((duffy_map(sector, xi, eta + e)
                             - duffy_map(sector, xi, eta - e)) / (2 * step))
            det_fd = np.linalg.det(np.column_stack(cols))
            jac = duffy_jacobian(sector, xi, eta)
            assert det_fd == pytest.approx(jac.detJ_at(xi), rel=1e-6)


def test_reference_collapse_face_maps_to_center():
    for sector in (tri_sector(), pyramid_sector()):
        kind = sector.facet_kind
        if kind is FacetKind.SEGMENT:
            corners = np.array([[-1.0], [1.0]])
        elif kind is FacetKind.QUADRILATERAL:
            corners = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        else:
            corners = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        for eta in corners:
            assert duffy_map(sector, 0.0, eta) == pytest.approx(
                sector.collapsed_vertex)


def test_domain_errors():
    s = tri_sector()
    with pytest.raises(GeometryError):
        duffy_map(s, 0.5, 1.5)
    with pytest.raises(GeometryError):
        duffy_map(s, -0.1, 0.0)
    with pytest.raises(GeometryError):
        duffy_jacobian(s, 0.0, 0.0)
    p = pyramid_sector()
    with pytest.raises(GeometryError):
        duffy_map(p, 0.5, [1.5, 0.0])


def test_degenerate_sector_rejected():
    s = Sector(collapsed_vertex=np.array([0.5, 0.0]),
               facet_vertices=np.array([[0.0, 0.0], [1.0, 0.0]]),
               facet_kind=FacetKind.SEGMENT)
    with pytest.raises(GeometryError):
        duffy_jacobian(s, 1.0, 0.0)


def test_jacobian_inverse_factorization():
    for sector in (tri_sector(), pyramid_sector()):
        eta = np.zeros(sector.dim - 1) + 0.21
        jac = duffy_jacobian(sector, 1.0, eta)
        for xi in (0.3, 0.9):
            J = jac.J1.copy()
            J[:, 1:] *= xi
            assert np.allclose(jac.inverse_at(xi) @ J, np.eye(sector.dim),
                               atol=1e-13)
    with pytest.raises(GeometryError):
        duffy_jacobian(tri_sector(), 1.0, 0.0).inverse_at(0.0)
