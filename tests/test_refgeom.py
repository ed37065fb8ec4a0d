"""Duffy sector geometry, checked through the stacked kernels: mapped points
of `conftest._sector_points` (the error integration's point formula) and
Jacobians of `refgeom._sector_jacobians`."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GeometryError, Sector, duffy_map_many, mesh_sector,
                      reference_vertex_sum, sector_jacobian)
from sbfem.cli import MESH_FAMILIES, build_mesh
from sbfem.polyspace import facet_quadrature, trace_basis
from sbfem import refgeom
from sbfem.refgeom import (FacetKind, _det, _facet_points, _facet_tangents, _inv,
                           _sector_jacobians, _vertex_sum)


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


def duffy_map(sector, xi, eta):
    """The mapped point of one (xi, eta)."""
    return duffy_map_many(sector, [xi], np.atleast_1d(eta)[None, :])[0, 0]


def fd_jacobian(sector, xi, eta, step=1e-6):
    """Central-difference Jacobian of the mapped points at (xi, eta)."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    cols = [(duffy_map(sector, xi + step, eta)
             - duffy_map(sector, xi - step, eta)) / (2 * step)]
    for a in range(sector.dim - 1):
        e = np.zeros(sector.dim - 1)
        e[a] = step
        cols.append((duffy_map(sector, xi, eta + e)
                     - duffy_map(sector, xi, eta - e)) / (2 * step))
    return np.column_stack(cols)


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
    _, det = sector_jacobian(s, np.array([[-0.9], [0.0], [0.5]]))
    assert det == pytest.approx([0.5, 0.5, 0.5])


def test_det_factorization_exact():
    # |J(xi, eta)| = xi^(d-1) |J(1, eta)|, J(xi, eta) by differences
    for sector in (tri_sector(), pyramid_sector()):
        eta = np.zeros(sector.dim - 1)
        _, det1 = sector_jacobian(sector, eta[None, :])
        for xi in (0.2, 0.77):
            det = np.linalg.det(fd_jacobian(sector, xi, eta))
            assert det == pytest.approx(xi ** (sector.dim - 1) * det1[0],
                                        rel=1e-8)


def test_pyramid_det_constant_over_flat_square():
    p = pyramid_sector()
    etas = np.array([[-0.8, -0.3], [0.1, 0.9], [0.6, -0.6]])
    _, det = sector_jacobian(p, etas)
    assert np.allclose(det, det[0], rtol=1e-13)
    assert det[0] == pytest.approx(0.125)


def test_map_affine_in_xi():
    rng = np.random.default_rng(3)
    for sector in (tri_sector(), pyramid_sector()):
        etas = rng.uniform(-0.9, 0.9, (5, sector.dim - 1))
        a0 = sector.collapsed_vertex
        ray = duffy_map_many(sector, np.array([1.0]), etas)[0] - a0
        for xi in (0.15, 0.6, 0.95):
            pts = duffy_map_many(sector, np.array([xi]), etas)[0]
            assert np.allclose(pts, a0 + xi * ray, atol=0, rtol=0)


def test_fd_jacobian_determinant_property(rng):
    from conftest import fixture_meshes_2d, fixture_meshes_3d
    for name, mesh in fixture_meshes_2d() + fixture_meshes_3d():
        sector = mesh_sector(mesh, 0, 0)
        d = sector.dim
        for _ in range(10):
            xi = rng.uniform(0.2, 0.95)
            if sector.facet_kind is FacetKind.SEGMENT:
                eta = rng.uniform(-0.8, 0.8, 1)
            elif sector.facet_kind is FacetKind.QUADRILATERAL:
                eta = rng.uniform(-0.8, 0.8, 2)
            else:
                eta = rng.dirichlet([1, 1, 1])[:2] * 0.8
            det_fd = np.linalg.det(fd_jacobian(sector, xi, eta))
            _, det1 = sector_jacobian(sector, eta[None, :])
            assert det_fd == pytest.approx(xi ** (d - 1) * det1[0], rel=1e-6)


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


def test_degenerate_sector_rejected():
    s = Sector(collapsed_vertex=np.array([0.5, 0.0]),
               facet_vertices=np.array([[0.0, 0.0], [1.0, 0.0]]),
               facet_kind=FacetKind.SEGMENT)
    _, det = sector_jacobian(s, np.array([[0.0]]))
    assert det[0] == 0.0
    with pytest.raises(GeometryError, match=r"S-element 0, facet 0"):
        duffy_map(s, 1.0, 0.0)


def test_jacobian_inverse_factorization():
    # J(xi, eta) = J(1, eta) diag(1, xi I), so its inverse is
    # diag(1, I / xi) J(1, eta)^-1
    for sector in (tri_sector(), pyramid_sector()):
        eta = np.zeros(sector.dim - 1) + 0.21
        J1, _ = sector_jacobian(sector, eta[None, :])
        for xi in (0.3, 0.9):
            J = fd_jacobian(sector, xi, eta)
            assert np.allclose(J[:, 1:], xi * J1[0][:, 1:], atol=1e-9)
            scale = np.ones(sector.dim)
            scale[1:] = 1.0 / xi
            assert np.allclose((scale[:, None] * np.linalg.inv(J1[0])) @ J,
                               np.eye(sector.dim), atol=1e-9)


def _facet_grid(kind: FacetKind, n: int = 41) -> np.ndarray:
    """n points per side of the reference facet, its corners among them."""
    t = np.linspace(-1.0, 1.0, n)
    if kind is FacetKind.SEGMENT:
        return t[:, None]
    u, v = np.meshgrid(t, t, indexing="ij")
    grid = np.column_stack([u.ravel(), v.ravel()])
    if kind is FacetKind.TRIANGLE:
        grid = 0.5 * (grid + 1.0)
        grid = grid[grid.sum(axis=1) <= 1.0]
    return grid


coordinate = st.floats(-2.0, 2.0, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(FacetKind)), planar=st.booleans(),
       points=st.lists(st.lists(coordinate, min_size=3, max_size=3),
                       min_size=5, max_size=5))
def test_corners_decide_the_sign_of_the_sector_jacobian(kind, planar, points):
    # |J(1,eta)| is constant on a segment or triangle sector and bilinear on
    # a quadrilateral one, planar or not: its minimum over the facet is the
    # minimum at the reference corners, which registration checks (to
    # round-off relative to the sector's size)
    points = np.array(points)
    d, n = kind.ambient_dim, kind.n_vertices
    vertices = points[1:n + 1, :d]
    if kind is FacetKind.QUADRILATERAL and planar:
        vertices[:, 2] = vertices[:, :2] @ points[0, :2]
    centre = points[0, :d] if d == 2 else points[0]
    _, det = _sector_jacobians(kind, _facet_grid(kind), centre[None],
                               vertices[None])
    _, corner = _sector_jacobians(kind, trace_basis(kind, 1).nodes, centre[None],
                                  vertices[None])
    size = max(np.abs(vertices).max(), np.abs(centre).max())
    assert det.min() >= corner.min() - 1e-12 * size ** d


def assert_matches_lapack(J):
    # closed-form determinants and inverses within 1e-13 relative of LAPACK's,
    # each matrix against its own scale
    det, inv = np.linalg.det(J), np.linalg.inv(J)
    assert _det(J).shape == det.shape and _inv(J).shape == inv.shape
    assert (np.abs(_det(J) - det) <= 1e-13 * np.abs(det)).all()
    scale = np.abs(inv).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(_inv(J) - inv) <= 1e-13 * scale).all()


@pytest.mark.parametrize("family", sorted(MESH_FAMILIES))
def test_closed_form_jacobian_algebra_on_every_mesh_family(family):
    # J(1,eta) of every sector at the error rule's facet points, and the
    # Jacobians of the FE quads where the family has them
    mesh = build_mesh(family, 2)
    for kind, (centres, vertices, _) in mesh._stacks.items():
        J, det = _sector_jacobians(kind, facet_quadrature(kind, 8).points,
                                   centres, vertices)
        assert det.shape == J.shape[:-2] and np.array_equal(det, _det(J))
        assert_matches_lapack(J)
    quad = FacetKind.QUADRILATERAL
    if len(mesh._quads()):
        assert_matches_lapack(_facet_tangents(
            quad, facet_quadrature(quad, 8).points, mesh.vertices[mesh._quads()]))


@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_jacobian_algebra_on_random_stacks(d, rng):
    # well-conditioned stacks: rotations times singular values in [0.5, 2],
    # of either orientation, at scales from 1e-3 to 1e3
    Q = np.linalg.qr(rng.normal(size=(4, 50, d, d)))[0]
    s = rng.uniform(0.5, 2.0, (4, 50, 1, d)) * 10.0 ** rng.uniform(-3, 3, (4, 50, 1, 1))
    assert_matches_lapack((Q * s) @ np.swapaxes(Q, -1, -2)[..., ::-1, :])


@pytest.mark.parametrize("kind", list(FacetKind))
def test_vertex_sum_matches_the_reference_bit_for_bit(kind, rng, monkeypatch):
    # the point weights (n, q) and tangent weights (n, q, t) of each facet
    # kind, on vertex stacks with 0, 1 or 2 leading axes in 2D and 3D, some
    # coordinates +-0.0: the coordinate-major sum adds the same terms in the
    # same order from +0.0
    weights = []
    monkeypatch.setattr(refgeom, "_vertex_sum", lambda W, v: (
        weights.append(W), _vertex_sum(W, v))[1])
    etas = facet_quadrature(kind, 6).points
    _facet_points(kind, etas, np.zeros((kind.n_vertices, kind.ambient_dim)))
    _facet_tangents(kind, etas, np.zeros((kind.n_vertices, kind.ambient_dim)))
    assert [W.ndim for W in weights] == [2, 3]
    for W, lead, d in itertools.product(weights, [(), (5,), (3, 4)], [2, 3]):
        v = rng.standard_normal(lead + (kind.n_vertices, d))
        v[rng.random(v.shape) < 0.2] = 0.0
        v[rng.random(v.shape) < 0.1] = -0.0
        got = np.moveaxis(_vertex_sum(W, v), -W.ndim, -1)
        want = reference_vertex_sum(np.moveaxis(W, 0, -1), v)
        assert got.shape == want.shape == lead + W.shape[1:] + (d,)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
