"""Shared fixtures: canonical S-elements and numeric oracles."""

from collections import namedtuple

import numpy as np
import pytest

from sbfem import modes, postproc
from sbfem.ematrix import EMatrices
from sbfem.errors import AssemblyError, GeometryError
from sbfem.mesh import (PolytopalMesh, gen_hex_mesh, gen_polygon_case1,
                        gen_polyhedron_case1, gen_quad_mesh, import_mesh,
                        number_dofs, singular_open_selement)
from sbfem.polyspace import facet_quadrature, radial_quadrature, trace_basis
from sbfem.refgeom import (FacetKind, Sector, _facet_points, _facet_tangents,
                           jacobian_columns_many)
from sbfem.solver import build_operators


def mesh_sector(mesh, sel, pos):
    """The Sector of facet position `pos` of S-element `sel`."""
    return Sector(collapsed_vertex=sel.center,
                  facet_vertices=mesh.vertices[list(sel.facet_orders[pos])],
                  facet_kind=mesh.facets[sel.facet_ids[pos]].kind)


def facet_map_many(sector, etas):
    """F_L at several reference points; etas has shape (q, d-1)."""
    return _facet_points(sector.facet_kind, etas, sector.facet_vertices)


def facet_tangents_many(sector, etas):
    """d F_L / d eta at several points; returns shape (q, d, d-1)."""
    return _facet_tangents(sector.facet_kind, etas, sector.facet_vertices)


def duffy_map_many(sector, xis, etas):
    """Tensor evaluation of the Duffy map; returns shape (len(xis), q, d)."""
    a0 = sector.collapsed_vertex
    rays = facet_map_many(sector, etas) - a0
    return a0 + np.asarray(xis, dtype=float)[:, None, None] * rays[None, :, :]


def sector_B_many(sector, basis, etas):
    """Vectorized B-vectors: returns (B1, B2, detJ1) with B* of shape (q, d, m)."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    values, grads = basis.eval_many(etas)
    J1, det = jacobian_columns_many(sector, etas)
    if np.any(np.abs(det) < 1e-14):
        raise GeometryError(
            f"degenerate sector (center {sector.collapsed_vertex}): |J| ~ 0")
    Jinv_T = np.transpose(np.linalg.inv(J1), (0, 2, 1))
    d = sector.dim
    q, m = values.shape[0], basis.cardinality
    rhs = np.zeros((q, d, m))
    rhs[:, 0, :] = values
    B1 = Jinv_T @ rhs
    rhs = np.zeros((q, d, m))
    rhs[:, 1:, :] = grads
    B2 = Jinv_T @ rhs
    return B1, B2, det


SectorE = namedtuple("SectorE", "E11 E12 E21 E22")


def sector_E(sector, basis, rule):
    """Integrate the four B-vector Gram matrices over one facet."""
    if basis.facet_kind is not sector.facet_kind:
        raise AssemblyError("trace basis facet kind does not match the sector")
    B1, B2, det = sector_B_many(sector, basis, rule.points)
    if np.any(det <= 0.0):
        raise GeometryError(
            f"sector with center {sector.collapsed_vertex} is not positively "
            "oriented at the quadrature points")
    w = rule.weights * det
    E11 = np.einsum("q,qdi,qdj->ij", w, B1, B1)
    E12 = np.einsum("q,qdi,qdj->ij", w, B1, B2)
    E22 = np.einsum("q,qdi,qdj->ij", w, B2, B2)
    E11 = 0.5 * (E11 + E11.T)
    E22 = 0.5 * (E22 + E22.T)
    return SectorE(E11=E11, E12=E12, E21=E12.T.copy(), E22=E22)


def reference_assemble_E(sector_data, n_local, dim,
                         quad_order_for=facet_quadrature):
    """Per-sector oracle for the stacked `ematrix.assemble_E`.

    `sector_data` yields (Sector, TraceBasis, local_indices, order) tuples
    where `local_indices[l]` is the S-element trace index of sector shape
    function l.
    """
    E11 = np.zeros((n_local, n_local))
    E12 = np.zeros((n_local, n_local))
    E22 = np.zeros((n_local, n_local))
    for sector, basis, idx, order in sector_data:
        rule = quad_order_for(sector.facet_kind, order)
        se = sector_E(sector, basis, rule)
        ix = np.ix_(idx, idx)
        E11[ix] += se.E11
        E12[ix] += se.E12
        E22[ix] += se.E22
    return EMatrices(E11=E11, E12=E12, E22=E22, dim=dim)


def sector_B(sector, basis, eta):
    """B-vector matrices at one surface point; columns indexed by shape function.

    Column l of B1 is J(1,eta)^{-T} [N_l; 0], column l of B2 is
    J(1,eta)^{-T} [0; grad_eta N_l].
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    B1, B2, det = sector_B_many(sector, basis, eta[None, :])
    if det[0] <= 0.0:
        raise GeometryError(
            f"non-positive surface Jacobian {det[0]:.3e} at eta={eta} "
            f"(center {sector.collapsed_vertex})")
    return B1[0], B2[0]


def operator_for(mesh, k, quad_order=None):
    """The S-element operator of a (usually single-element) mesh."""
    numbering = number_dofs(mesh, k)
    return build_operators(mesh, numbering, quad_order=quad_order)[0]


def polygon_mesh(vertices) -> PolytopalMesh:
    """Closed single-polygon S-element mesh from CCW vertices."""
    vertices = np.asarray(vertices, dtype=float)
    m = len(vertices)
    return import_mesh({
        "dimension": 2,
        "vertices": [list(map(float, v)) for v in vertices],
        "selements": [{"facets": [[i, (i + 1) % m] for i in range(m)]}],
    })


def random_polygon_mesh(rng, n_vertices=None) -> PolytopalMesh:
    m = int(n_vertices or rng.integers(4, 9))
    angles = np.sort(rng.uniform(0, 2 * np.pi, m))
    while np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 0.25:
        angles = np.sort(rng.uniform(0, 2 * np.pi, m))
    radii = rng.uniform(0.75, 1.3, m)
    verts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return polygon_mesh(verts)


def jittered_quad_mesh(n, amplitude, seed=0):
    """n x n mesh of general quadrilateral S-elements on [-1,1]^2."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(-1, 1, n + 1)
    pts = {}
    for j in range(n + 1):
        for i in range(n + 1):
            p = np.array([xs[i], xs[j]])
            if 0 < i < n and 0 < j < n:
                p = p + rng.uniform(-amplitude, amplitude, 2) * (2.0 / n)
            pts[(i, j)] = p
    vertices = []
    vid = {}
    for key, p in pts.items():
        vid[key] = len(vertices)
        vertices.append([float(p[0]), float(p[1])])
    sels = []
    for j in range(n):
        for i in range(n):
            loop = [vid[(i, j)], vid[(i + 1, j)], vid[(i + 1, j + 1)],
                    vid[(i, j + 1)]]
            facets = [[loop[t], loop[(t + 1) % 4]] for t in range(4)]
            sels.append({"facets": facets})
    return import_mesh({"dimension": 2, "vertices": vertices,
                        "selements": sels})


def affine_cube_mesh(rng) -> PolytopalMesh:
    """Random parallelepiped (planar faces) as a single S-element."""
    while True:
        M = np.eye(3) + rng.uniform(-0.35, 0.35, (3, 3))
        if np.linalg.det(M) > 0.3:
            break
    cube = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)],
                    dtype=float)
    verts = cube @ M.T
    c = [0, 1, 3, 2, 4, 5, 7, 6]   # counter-clockwise bottom / top
    faces = [[c[0], c[3], c[2], c[1]], [c[4], c[5], c[6], c[7]],
             [c[0], c[1], c[5], c[4]], [c[1], c[2], c[6], c[5]],
             [c[2], c[3], c[7], c[6]], [c[3], c[0], c[4], c[7]]]
    return import_mesh({
        "dimension": 3,
        "vertices": [list(map(float, v)) for v in verts],
        "selements": [{"facets": faces}],
    })


def hybrid_mesh() -> PolytopalMesh:
    """Box with one corner cut off: quadrilateral and triangular facets."""
    verts = [[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0],
             [0, 0, 2], [2, 0, 2], [0, 2, 2],
             [2, 1, 2], [1, 2, 2], [2, 2, 1]]
    faces = [[0, 3, 2, 1], [0, 1, 5, 4], [3, 0, 4, 6],
             [1, 2, 9, 7, ], [1, 7, 5], [7, 9, 8],
             [2, 3, 6, 8], [2, 8, 9], [4, 5, 7, 8], [8, 6, 4],
             ]
    return import_mesh({"dimension": 3, "vertices": verts,
                        "selements": [{"facets": faces}]})


def octahedron_mesh() -> PolytopalMesh:
    """Regular octahedron: eight triangular facets, tetrahedral sectors."""
    verts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    faces = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
             [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    return import_mesh({"dimension": 3, "vertices": verts,
                        "selements": [{"facets": faces}]})


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def square_mesh():
    return gen_quad_mesh(1)


@pytest.fixture(scope="session")
def octagon_mesh():
    return gen_polygon_case1(1)


@pytest.fixture(scope="session")
def cube_mesh():
    return gen_hex_mesh(1)


@pytest.fixture(scope="session")
def cube24_mesh():
    return gen_polyhedron_case1(1)


@pytest.fixture(scope="session")
def wedge_mesh():
    return singular_open_selement(2)


@pytest.fixture(scope="session")
def pentagon_mesh(rng):
    return random_polygon_mesh(np.random.default_rng(7), 5)


def fixture_meshes_2d():
    return [("square", gen_quad_mesh(1)),
            ("octagon", gen_polygon_case1(1)),
            ("pentagon", random_polygon_mesh(np.random.default_rng(7), 5))]


def fixture_meshes_3d():
    return [("cube", gen_hex_mesh(1)),
            ("affine-cube", affine_cube_mesh(np.random.default_rng(11))),
            ("octahedron", octahedron_mesh())]


def volume_gradient_inner(op, alpha, mu, rho, drho, sigma, dsigma,
                          facet_order=24, radial_points=20):
    """Tensor-quadrature oracle for the gradient inner product of two Duffy
    functions with polynomial radial parts vanishing at the center."""
    d = op.E.dim
    rad = radial_quadrature(1.0, radial_points, 0)
    total = 0.0
    for ctx in op.sectors:
        frule = facet_quadrature(ctx.sector.facet_kind, facet_order)
        B1, B2, det = sector_B_many(ctx.sector, ctx.basis, frule.points)
        a = alpha[ctx.rows]
        m_ = mu[ctx.rows]
        for xi, wx in zip(rad.points[:, 0], rad.weights):
            gphi = (np.einsum("qdi,i->qd", B1, a) * drho(xi)
                    + np.einsum("qdi,i->qd", B2, a) * (rho(xi) / xi))
            gpsi = (np.einsum("qdi,i->qd", B1, m_) * dsigma(xi)
                    + np.einsum("qdi,i->qd", B2, m_) * (sigma(xi) / xi))
            total += wx * xi ** (d - 1) * np.sum(
                frule.weights * det * np.einsum("qd,qd->q", gphi, gpsi))
    return total


def fd_mode_gradients(op, ctx, xi, eta, step=1e-6):
    """Finite-difference oracle for the Cartesian mode gradients.

    Central differences of the mode values in the parametric coordinates,
    pushed through the (independently verified) surface Jacobian.
    """
    from sbfem.modes import shape_eval
    alpha = op.A_eval[ctx.rows]
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    dm1 = len(eta)
    partials = []
    vp, _ = shape_eval(op.modes, alpha, ctx.sector, ctx.basis, xi + step, eta)
    vm, _ = shape_eval(op.modes, alpha, ctx.sector, ctx.basis, xi - step, eta)
    partials.append((vp - vm) / (2 * step))
    for a in range(dm1):
        e = np.zeros(dm1)
        e[a] = step
        vp, _ = shape_eval(op.modes, alpha, ctx.sector, ctx.basis, xi, eta + e)
        vm, _ = shape_eval(op.modes, alpha, ctx.sector, ctx.basis, xi, eta - e)
        partials.append((vp - vm) / (2 * step))
    P = np.vstack(partials)                         # (d, n_modes) parametric
    J1, _ = jacobian_columns_many(ctx.sector, eta[None, :])
    J = J1[0].copy()
    J[:, 1:] *= xi
    return np.linalg.solve(J.T, P)


def evaluate_in_sector(solution, op, ctx, xis, etas):
    """The error kernel on one sector: points (R, Q, d), values (R, Q) and
    gradients (R, Q, d) of u_h on a (xi, eta) tensor grid."""
    c = solution.coefficients[op.selement.id]
    member = postproc._sector_data(op, ctx, c)
    pts, vals, grads, _ = modes._sector_fields(
        ctx.basis, np.asarray(xis, dtype=float), etas,
        *(np.asarray(a)[None] for a in member))
    return pts[0], vals[0], grads[0]


def evaluate_in_fe(solution, fe, ref_pts):
    """The error kernel on one FE quad: points, values, gradients, det J."""
    pts, vals, grads, det = postproc._fe_fields(solution, [fe], ref_pts)
    return pts[0], vals[0], grads[0], det[0]


# -- per-sector reference for the batched error integration ----------------------


def _reference_sector(solution, op, ctx, xis, etas):
    """u_h on one sector's (xi, eta) grid, one mode sum per sector."""
    md = op.modes
    c = solution.coefficients[op.selement.id]
    alpha = op.A_eval[ctx.rows, :]                     # (m, n_modes) complex
    nvals, _ = ctx.basis.eval_many(etas)               # (Q, m)
    xis = np.asarray(xis, dtype=float)
    Z, Z1 = md.radial_complex(xis)
    pts = duffy_map_many(ctx.sector, xis, etas)
    T = nvals @ alpha                                   # (Q, n_modes)
    values = ((Z * c[None, :]) @ T.T).real              # (R, Q)
    B1, B2, _ = sector_B_many(ctx.sector, ctx.basis, etas)
    C1 = np.einsum("qdm,mi->qdi", B1, alpha)
    C2 = np.einsum("qdm,mi->qdi", B2, alpha)
    W1 = Z1 * (md.lambdas * c)[None, :]
    W2 = Z1 * c[None, :]
    grads = (np.einsum("ri,qdi->rqd", W1, C1)
             + np.einsum("ri,qdi->rqd", W2, C2)).real
    return pts, values, grads


def _reference_fe(solution, fe, ref_pts):
    """u_h on one FE quad at reference points, through a 3D helper sector."""
    mesh, numbering = solution.mesh, solution.numbering
    basis = trace_basis(FacetKind.QUADRILATERAL, numbering.k)
    uel = solution.nodal[numbering.fe_nodes[fe.id]]
    nvals, ngrads = basis.eval_many(ref_pts)
    corners = mesh.vertices[list(fe.vertices)]
    helper = Sector(collapsed_vertex=np.zeros(3),
                    facet_vertices=np.column_stack([corners, np.zeros(4)]),
                    facet_kind=FacetKind.QUADRILATERAL)
    pts = facet_map_many(helper, ref_pts)[:, :2]
    tans = facet_tangents_many(helper, ref_pts)[:, :2, :]
    det = np.linalg.det(tans)
    JinvT = np.transpose(np.linalg.inv(tans), (0, 2, 1))
    values = nvals @ uel
    grads = np.einsum("qde,qem->qdm", JinvT, ngrads) @ uel
    return pts, values, grads, det


def reference_solution_errors(solution, exact, quad=None):
    """(L2, energy) errors by a loop over S-elements, sectors and FE quads.

    Oracle for `postproc.solution_errors`; it picks each S-element's radial
    rule with the same helper.
    """
    k = solution.k
    cfg = (quad or postproc.QuadratureConfig()).resolved(k)
    d = solution.mesh.dimension
    acc_l2 = 0.0
    acc_h1 = 0.0
    for op in solution.operators:
        rad = radial_quadrature(*postproc._radial_rule_args(op, cfg, k))
        xis = rad.points[:, 0]
        for ctx in op.sectors:
            frule = facet_quadrature(ctx.sector.facet_kind, cfg.facet_order)
            _, det = jacobian_columns_many(ctx.sector, frule.points)
            pts, vals, grads = _reference_sector(solution, op, ctx, xis,
                                                 frule.points)
            flat = pts.reshape(-1, d)
            ev = exact.value(flat).reshape(vals.shape)
            eg = exact.gradient(flat).reshape(grads.shape)
            w = np.outer(rad.weights * xis ** (d - 1), frule.weights * det)
            acc_l2 += float(np.sum(w * (vals - ev) ** 2))
            acc_h1 += float(np.sum(w * np.sum((grads - eg) ** 2, axis=2)))
    frule = facet_quadrature(FacetKind.QUADRILATERAL, cfg.facet_order)
    for fe in solution.mesh.fe_elements:
        pts, vals, grads, det = _reference_fe(solution, fe, frule.points)
        w = frule.weights * det
        acc_l2 += float(np.sum(w * (vals - exact.value(pts)) ** 2))
        acc_h1 += float(np.sum(w * np.sum((grads - exact.gradient(pts)) ** 2,
                                          axis=1)))
    return float(np.sqrt(acc_l2)), float(np.sqrt(acc_h1))
