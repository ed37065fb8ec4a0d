"""Shared fixtures: canonical S-elements, numeric oracles and the
diagnostics that only tests use."""

import itertools
import json
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse
from scipy.special import roots_jacobi, roots_legendre

from sbfem import modes, postproc, solver
from sbfem.ematrix import EMatrices
from sbfem.errors import MeshError, SbfemError, SolveError
from sbfem.mesh import (_KIND_BY_SIZE, DofNumbering, PolytopalMesh,
                        _corner_weights, _first_seen, _merge_vertices,
                        _open_mesh, _shape_keys, gen_hex_mesh, gen_polygon_case1,
                        gen_quad_mesh, import_mesh, number_dofs,
                        singular_open_selement)
from sbfem.polyspace import (COMPOSITE_RATIO, MAX_DEGREE, _gauss01, _gauss_jacobi,
                             facet_quadrature, radial_quadrature, trace_basis)
from sbfem.refgeom import (FacetKind, _det, _facet_points, _facet_tangents,
                           _inv, _sector_jacobians)
from sbfem.solver import DiscreteSolution, _evaluate_field, build_operators


class GeometryError(SbfemError):
    """Degenerate or mis-oriented sector geometry, as the reference sector
    checks below report it."""


class Sector(namedtuple("Sector", "collapsed_vertex facet_vertices facet_kind")):
    """One sector: a row of the mesh's sector stacks plus its facet kind."""

    @property
    def dim(self) -> int:
        return self.facet_kind.ambient_dim


# a sector of an S-element operator, its trace basis, S-local node rows and
# facet position
SectorRows = namedtuple("SectorRows", "sector basis rows pos")


def reference_gauss_jacobi(n: int, b: float = 0.0) -> tuple:
    """scipy's n-point Gauss rule for the weight (1 + x)^b on [-1, 1]: the
    rule `polyspace` took before its own Golub-Welsch routine."""
    return roots_jacobi(n, 0.0, b) if b else roots_legendre(n)



def reference_radial_quadrature(exponent_floor: float, order: int,
                                composite_levels: int = 0) -> tuple:
    """(points (n,), weights) of `polyspace.radial_quadrature` as it was with
    two inner cells: the plain Gauss cell for a floor above -1e-12, the
    Gauss-Jacobi cell of the weight xi^floor below it."""
    x01, w01 = _gauss01(order)
    if composite_levels == 0 or exponent_floor >= 1.0:
        return x01, w01
    pts, wts = [], []
    hi = 1.0
    for _ in range(composite_levels):
        lo = hi * COMPOSITE_RATIO
        pts.append(lo + (hi - lo) * x01)
        wts.append((hi - lo) * w01)
        hi = lo
    alpha = min(exponent_floor, 0.0)
    if alpha > -1e-12:
        pts.append(hi * x01)
        wts.append(hi * w01)
    else:
        xj, wj = _gauss_jacobi(order, alpha)
        x = hi * 0.5 * (xj + 1.0)
        w = wj * (hi / 2.0) ** (alpha + 1.0)
        pts.append(x)
        wts.append(w / x ** alpha)
    return np.concatenate(pts)[::-1], np.concatenate(wts)[::-1]

def reference_lattice_nodes(kind: FacetKind, k: int) -> np.ndarray:
    """Equispaced nodes of the degree-k trace space, one branch per facet
    kind, in the order of `polyspace._monomial_powers` (quad: n = j*(k+1) + i)."""
    if kind is FacetKind.SEGMENT:
        return np.linspace(-1.0, 1.0, k + 1)[:, None]
    if kind is FacetKind.QUADRILATERAL:
        t = np.linspace(-1.0, 1.0, k + 1)
        u, v = np.meshgrid(t, t, indexing="ij")
        return np.column_stack([u.ravel(order="F"), v.ravel(order="F")])
    nodes = [(i / k, j / k) for j in range(k + 1) for i in range(k + 1 - j)]
    return np.array(nodes, dtype=float)


def reference_monomials(powers, etas) -> np.ndarray:
    """eta^powers (q, m) by a loop over the variables: the Vandermonde matrix
    at the lattice nodes."""
    mono = np.ones((etas.shape[0], powers.shape[0]))
    for v in range(powers.shape[1]):
        mono *= etas[:, v][:, None] ** powers[:, v]
    return mono


def reference_eval_many(basis, etas) -> tuple[np.ndarray, np.ndarray]:
    """`TraceBasis.eval_many` with one loop per gradient direction and a
    masked product over the variables for each derivative monomial."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    q, (m, nvar) = etas.shape[0], basis.powers.shape
    grads = np.empty((q, nvar, m))
    for v in range(nvar):
        dm = np.ones((q, m))
        for w in range(nvar):
            pw = basis.powers[:, w] - (1 if w == v else 0)
            active = pw >= 0
            col = np.zeros((q, m))
            col[:, active] = etas[:, w][:, None] ** pw[active]
            dm *= col
        grads[:, v, :] = (dm * basis.powers[:, v][None, :]) @ basis.coeffs
    return reference_monomials(basis.powers, etas) @ basis.coeffs, grads


def reference_vertex_sum(W: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """sum_c W[..., c] vertices[..., c, :] for weights W (q, [t,] n_vertices)
    and vertices (..., n_vertices, d): (..., q, [t,] d), added term by term
    from +0.0 with the d coordinates innermost.

    Oracle for the coordinate-major `refgeom._vertex_sum`, which must match
    it bit for bit once its weight and output axes are moved.
    """
    vs = np.asarray(vertices, dtype=float)
    vs = vs.reshape(vs.shape[:-2] + (1,) * (W.ndim - 1) + vs.shape[-2:])
    out = 0.0
    for c in range(W.shape[-1]):
        out = out + W[..., c, None] * vs[..., c, :]
    return out


# -- the mesh's registration arrays, read per element --------------------------


def selement_facets(mesh, e) -> tuple[list, list]:
    """Facet ids and vertex orders (tuples) of the sectors of S-element e:
    its rows of the sector table."""
    start = int(mesh._counts[:e].sum())
    rows = range(start, start + int(mesh._counts[e]))
    return mesh._fid[start:rows.stop].tolist(), [mesh._listing(r) for r in rows]


def facet_vertices(mesh, fid) -> tuple:
    """The vertex ids of a facet, in the order of its first listing."""
    return mesh._listing(mesh._first[fid])


def facet_kind(mesh, fid) -> FacetKind:
    return _KIND_BY_SIZE[len(facet_vertices(mesh, fid))]


def facet_list(mesh) -> list[tuple]:
    """(vertex ids, kind) of every facet, by facet id."""
    return [(facet_vertices(mesh, f), facet_kind(mesh, f))
            for f in range(len(mesh._first))]


def is_open(mesh, e) -> bool:
    """Whether S-element e is open: a 2D chain with two ends, each a vertex
    that one facet of the element lists."""
    count = Counter(v for order in selement_facets(mesh, e)[1] for v in order)
    return mesh.dimension == 2 and sum(c == 1 for c in count.values()) == 2


def mesh_sector(mesh, e, pos):
    """The Sector of facet position `pos` of S-element e, read from
    `PolytopalMesh._stacks`."""
    for kind, (centres, vertices, owners) in mesh._stacks.items():
        hit = np.flatnonzero((owners == (e, pos)).all(axis=1))
        if hit.size:
            return Sector(centres[hit[0]], vertices[hit[0]], kind)
    raise KeyError((e, pos))


def op_sectors(mesh, op, e):
    """The SectorRows of every facet position of the operator of S-element e."""
    out = []
    for pos, rows in enumerate(op.sector_rows):
        sector = mesh_sector(mesh, e, pos)
        basis = next(b for b in (trace_basis(sector.facet_kind, k)
                                 for k in range(1, MAX_DEGREE + 1))
                     if len(b.nodes) == len(rows))
        out.append(SectorRows(sector, basis, rows, pos))
    return out


def facet_map_many(sector, etas):
    """F_L at several reference points; etas has shape (q, d-1)."""
    return _facet_points(sector.facet_kind, etas, sector.facet_vertices)


def sector_jacobian(sector, etas):
    """J(1, eta) (q, d, d) and its determinants (q,) by the stacked kernel
    `refgeom._sector_jacobians` on a stack of one."""
    J, det = _sector_jacobians(sector.facet_kind, np.atleast_2d(etas),
                               sector.collapsed_vertex[None],
                               sector.facet_vertices[None])
    return J[0], det[0]


def _sector_points(centres, xis, J):
    """Mapped points a0 + xi (F_L(eta) - a0) on the (xi, eta) grid of a stack
    of sectors with centres (..., d) and J(1,eta) (..., q, d, d): (..., R, q, d)."""
    return (centres[..., None, None, :]
            + np.asarray(xis)[:, None, None] * J[..., None, :, :, 0])


def radial_factors(xis, lambdas):
    """`postproc._radial_factors` at xis in [0, 1]: at the scaling center xi = 0
    both factors take their xi -> 0 limit, and a GeometryError names an
    exponent for which one has none."""
    xis = np.asarray(xis, dtype=float)
    at0 = xis <= 0.0
    Z, Z1 = postproc._radial_factors(np.where(at0, 1.0, xis), lambdas)
    if at0.any():
        lam = np.asarray(lambdas, dtype=complex)[..., None, :]
        const, unit = np.abs(lam) < 1e-14, np.abs(lam - 1.0) < 1e-14
        bad = ~const & ~unit & (lam.real <= 1.0)
        if bad.any():
            raise GeometryError(f"radial factors of exponent {lam[bad][0]:.3g} have "
                                "no limit at the scaling center")
        Z[..., at0, :] = const
        Z1[..., at0, :] = unit
    return Z, Z1


def sector_fields(basis, xis, etas, J, alpha, coeffs, lambdas):
    """`postproc._class_fields` on the basis table at `etas` and the radial
    factors at `xis`, followed by `postproc._coefficient_fields`: values
    (S, R, Q, m) and gradients (S, R, Q, m, d) of a stack of classes."""
    fields = postproc._coefficient_fields(
        *radial_factors(xis, lambdas),
        postproc._class_fields(basis.eval_many(etas), _inv(J), alpha, lambdas), coeffs)
    return fields[:, 0], np.moveaxis(fields[:, 1:], 1, -1)


def on_member_fields(monkeypatch, record):
    """Call record(contraction, operands, coeffs) before each member block
    of `postproc.solution_errors`: contraction "basis" with the mode basis,
    followed by the wave directions kappa (K, d) and member centres a0 (S, m,
    d) where the real and imaginary parts of the exact solution's plane
    waves are its last 2K columns, or "coefficients" with the radial factors
    and class fields (Z, Z1, F); and the block's modal coefficients."""
    for name, contraction, at in (("_basis_fields", "basis", 1),
                                  ("_coefficient_fields", "coefficients", 3)):
        def recorded(*args, kernel=getattr(postproc, name), contraction=contraction,
                     at=at):
            record(contraction, args[:at] + args[at + 1:], args[at])
            return kernel(*args)

        monkeypatch.setattr(postproc, name, recorded)


def force_contraction(monkeypatch, contraction):
    """Make every member block of `postproc.solution_errors` contract a mode
    basis ("basis") or its coefficients first ("coefficients"); the latter
    has no wave columns to route, so it asks for an exact solution without
    `waves`."""
    basis, coefficients, mode_basis = (postproc._basis_fields,
                                       postproc._coefficient_fields, postproc._mode_basis)
    if contraction == "basis":
        monkeypatch.setattr(postproc, "_coefficient_fields", lambda *args: basis(
            mode_basis(*args[:-1]), args[-1]))
    else:
        monkeypatch.setattr(postproc, "_mode_basis", lambda *fields: fields[:3])
        monkeypatch.setattr(postproc, "_basis_fields", lambda fields, coeffs:
                            coefficients(*fields, coeffs))


def check_sectors(J, det, owners):
    """Raise GeometryError naming (S-element, facet position) `owners[s]` of
    the first sector s of a stack, J(1,eta) (S, q, d, d) and |J| (S, q),
    whose |J| is at most 1e-14 x the product of J's column norms at one of
    its sample points: degenerate or inverted there."""
    norms = np.sqrt(np.einsum("...ij,...ij->...j", J, J))
    bad = (det <= 1e-14 * norms.prod(axis=-1)).any(axis=-1)
    if bad.any():
        (e, pos), low = owners[bad][0], det[bad][0].min()
        raise GeometryError(f"S-element {e}, facet {pos}: degenerate or inverted "
                            f"sector (|J(1,eta)| = {low:.3e})")


def duffy_map_many(sector, xis, etas):
    """Mapped points (len(xis), q, d) of one sector by the per-sector steps
    of the error integration: `refgeom._sector_jacobians`, a degeneracy
    check at the sample points (`check_sectors`, naming S-element 0, facet
    0) and the mapped-point formula."""
    centre = sector.collapsed_vertex[None]
    J, det = _sector_jacobians(sector.facet_kind, np.atleast_2d(etas), centre,
                               sector.facet_vertices[None])
    check_sectors(J, det, np.zeros((1, 2), dtype=int))
    return _sector_points(centre, np.asarray(xis, dtype=float), J)[0]


def mode_fields(op, ctx, xi, eta):
    """Complex values (n,) and Cartesian gradients (d, n) of all modes of an
    S-element at one (xi, eta) of sector `ctx`, by `sector_fields`.

    The kernel returns real parts: coefficient columns I and -iI give the
    real and the imaginary part of every mode, one class member each.
    """
    n = op.modes.n
    eta = np.atleast_1d(np.asarray(eta, dtype=float))[None, :]
    J, _ = sector_jacobian(ctx.sector, eta)
    values, grads = sector_fields(
        ctx.basis, [xi], eta, J[None], op.A_eval[ctx.rows][None],
        np.hstack([np.eye(n), -1j * np.eye(n)])[None], op.modes.lambdas[None])
    v, g = values[0, 0, 0], grads[0, 0, 0]
    return v[:n] + 1j * v[n:], (g[:n] + 1j * g[n:]).T


def sector_B_many(sector, basis, etas):
    """Vectorized B-vectors: returns (B1, B2, detJ1) with B* of shape (q, d, m)."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    values, grads = basis.eval_many(etas)
    J1, det = sector_jacobian(sector, etas)
    if np.any(np.abs(det) < 1e-14):
        raise GeometryError(
            f"degenerate sector (center {sector.collapsed_vertex}): |J| ~ 0")
    Jinv_T = np.transpose(_inv(J1), (0, 2, 1))
    N = values[:, None, :]
    B1 = Jinv_T @ np.concatenate([N, np.zeros_like(grads)], axis=1)
    B2 = Jinv_T @ np.concatenate([np.zeros_like(N), grads], axis=1)
    return B1, B2, det


SectorE = namedtuple("SectorE", "E11 E12 E21 E22")


def sector_E(sector, basis, rule):
    """Integrate the four B-vector Gram matrices over one facet."""
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


def reference_assemble_E(sector_data, n_local):
    """Per-sector oracle for the stacked `ematrix.assemble_E`.

    `sector_data` yields (Sector, TraceBasis, local_indices, order) tuples
    where `local_indices[l]` is the S-element trace index of sector shape
    function l.
    """
    E11 = np.zeros((n_local, n_local))
    E12 = np.zeros((n_local, n_local))
    E22 = np.zeros((n_local, n_local))
    for sector, basis, idx, order in sector_data:
        rule = facet_quadrature(sector.facet_kind, order)
        se = sector_E(sector, basis, rule)
        ix = np.ix_(idx, idx)
        E11[ix] += se.E11
        E12[ix] += se.E12
        E22[ix] += se.E22
    return EMatrices(E11=E11, E12=E12, E22=E22)


def apply_sideface_bc(E, constrained_local) -> EMatrices:
    """E-matrices with the side-face-constrained trace DOFs deleted: oracle
    for `build_operators`' assembly over the kept DOFs, which drops their
    entries while it scatters the sector Grams."""
    keep = np.setdiff1d(np.arange(E.n), constrained_local)
    ix = np.ix_(keep, keep)
    return EMatrices(E11=E.E11[ix], E12=E.E12[ix], E22=E.E22[ix])


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


_NO_CORNER = np.iinfo(np.int64).max      # id of a zero-weight pair; sorts last


def _node_names(kind: FacetKind, k: int, vertex_ids) -> np.ndarray:
    """Names of the lattice nodes of elements with corner ids (E, n_vertices):
    (E, L, 8), four (corner id, k^2 N_c) pairs per node sorted by id, the
    zero weights padded as (_NO_CORNER, 0).  A node shared by two elements
    has one name whatever order lists their corners."""
    W = _corner_weights(kind, k)
    ids = np.where(W > 0, np.asarray(vertex_ids, dtype=np.int64)[:, None, :],
                   _NO_CORNER)
    pairs = np.stack([ids, np.broadcast_to(W, ids.shape)], axis=-1)
    pairs = np.take_along_axis(pairs, np.argsort(ids)[..., None], axis=-2)
    pad = np.broadcast_to([_NO_CORNER, 0], ids.shape[:2] + (4 - W.shape[1], 2))
    return np.concatenate([pairs, pad], axis=-2).reshape(ids.shape[:2] + (8,))


def reference_number_dofs(mesh: PolytopalMesh, k: int) -> DofNumbering:
    """`number_dofs` by (corner id, weight) pair names: every lattice node
    is named by its four sorted pairs, and one `np.unique` over the 64-byte
    names finds the distinct nodes.  Oracle for the int64 names."""
    table, first, counts = mesh._table, mesh._first, mesh._counts
    n_rows, n_s, quads = len(table), counts.sum(), mesh._quads()
    corners = np.full((n_rows + len(quads), max(table.shape[1], 4)), -1)
    corners[:n_rows, :table.shape[1]] = table
    corners[n_rows:, :4] = quads
    size = (corners >= 0).sum(axis=1)
    nodes = np.array([0, 0] + [len(_corner_weights(_KIND_BY_SIZE[s], k))
                               for s in (2, 3, 4)])   # lattice nodes by size
    start = np.concatenate([[0], np.cumsum(nodes[size])])
    names = np.empty((start[-1], 8), dtype=np.int64)
    for s in np.unique(size).tolist():
        at = np.flatnonzero(size == s)
        names[start[at][:, None] + np.arange(nodes[s])] = _node_names(
            _KIND_BY_SIZE[s], k, corners[at, :s])
    # one 64-byte key per name: a byte-wise sort finds the distinct names
    _, seen, inverse = np.unique(names.view(np.dtype((np.void, 64))).ravel(),
                                 return_index=True, return_inverse=True)
    unique = names[seen]
    n_pairs = (unique[:, 1::2] > 0).sum(axis=1)
    # vertices (one pair) by id, 3D edge nodes (two pairs) by (lower id,
    # higher id, weight of the higher), then the rest by first naming
    by_id = (n_pairs == 1) | ((n_pairs == 2) & (mesh.dimension == 3))
    order = np.lexsort((unique[:, 3] * by_id, unique[:, 2] * by_id,
                        np.where(by_id, unique[:, 0], seen), n_pairs * by_id,
                        ~by_id))
    dof = np.empty(len(unique), dtype=int)
    dof[order] = np.arange(len(unique))
    slot_dof = dof[inverse.reshape(-1)]
    coords = np.zeros((len(unique), mesh.dimension))
    # a facet sets its nodes from its first listing, an FE quad (the only row
    # with more than d + 1 corners) only its interior nodes
    heads = np.concatenate([first, np.arange(n_rows, len(corners))])
    for s in dict.fromkeys(size[heads].tolist()):
        at, kind = heads[size[heads] == s], _KIND_BY_SIZE[s]
        own = np.flatnonzero((_corner_weights(kind, k) > 0).all(axis=1)
                             | (s <= mesh.dimension + 1))
        coords[slot_dof[start[at][:, None] + own]] = _facet_points(
            kind, trace_basis(kind, k).nodes[own],
            np.take(mesh.vertices, corners[at, :s], axis=0))
    vertex_dof = np.full(len(mesh.vertices), -1)
    vertex_dof[unique[n_pairs == 1, 0]] = dof[n_pairs == 1]
    # S-local DOFs: the (S-element, DOF) pairs of the sector rows, coded
    # e n + dof, numbered in order of first appearance, those of each
    # S-element after those of the S-elements before it; a side-face pin
    # gets no S-local index, and its sector rows name it -1
    elem = np.repeat(np.repeat(np.arange(len(counts)), counts), nodes[size[:n_s]])
    code = elem * len(unique) + slot_dof[:start[n_s]]
    ids, firsts = _first_seen(code)
    pinned = np.isin(code[firsts], np.array(
        [e * len(unique) + vertex_dof[v] for e, vs in mesh._dirichlet.items()
         for v in vs], dtype=int))
    firsts = firsts[~pinned]
    selement_start = np.searchsorted(elem[firsts], np.arange(len(counts) + 1))
    local = np.where(pinned[ids], -1,
                     np.cumsum(~pinned)[ids] - 1 - selement_start[elem])
    facet_size = nodes[size[first]]
    facet_start = np.concatenate([[0], np.cumsum(facet_size)])
    return DofNumbering(
        k=k, n_total=len(unique), vertex_dof=vertex_dof, coords=coords,
        facet_dofs=slot_dof[np.repeat(start[first] - facet_start[:-1], facet_size)
                            + np.arange(facet_start[-1])],
        facet_start=facet_start,
        fe_nodes=slot_dof[start[n_rows]:].reshape(len(quads), nodes[4]),
        selement_dofs=slot_dof[firsts], selement_start=selement_start,
        sector_rows={_KIND_BY_SIZE[s]: local[start[:n_s][size[:n_s] == s][:, None]
                                             + np.arange(nodes[s])]
                     for s in np.unique(size[:n_s]).tolist()})


@lru_cache(maxsize=None)
def reference_lattice_perm(kind: FacetKind, k: int, vperm: tuple) -> np.ndarray:
    """perm[l] = canonical lattice index of node l of the re-ordered facet.

    `vperm[m]` is the canonical corner index of the m-th vertex in the
    element's own facet order; only symmetries of the reference facet are
    admitted.
    """
    canon = _node_names(kind, k, [range(kind.n_vertices)])[0]
    index = {name.tobytes(): j for j, name in enumerate(canon)}
    try:
        perm = np.array([index[name.tobytes()]
                         for name in _node_names(kind, k, [vperm])[0]])
    except KeyError:
        raise MeshError(f"facet vertex order {vperm} is not a symmetry of the "
                        f"reference {kind.value}") from None
    perm.flags.writeable = False
    return perm


def reference_local_dofs(mesh, numbering, e, keep_pins=False):
    """S-element trace DOF list plus per-sector local node maps, by a loop
    over the element's sectors through a lattice permutation per (facet
    kind, k, vertex order).  Oracle for the S-local numbering of
    `number_dofs`.

    ``global_ids[l]`` is the skeleton DOF of S-local trace index l (geometric
    first-seen order, congruent across translated elements);
    ``sector_rows[p][j]`` is the S-local index of node j of sector p.  The
    element's side-face Dirichlet pins are dropped and their nodes named -1,
    unless `keep_pins` asks for the full S-local set.
    """
    position: dict[int, int] = {}      # skeleton DOF -> S-local index
    sector_rows = []
    for fid, order in zip(*selement_facets(mesh, e)):
        vperm = tuple(facet_vertices(mesh, fid).index(v) for v in order)
        nodes = facet_nodes(numbering, fid)[reference_lattice_perm(
            facet_kind(mesh, fid), numbering.k, vperm)]
        sector_rows.append(np.array([position.setdefault(g, len(position))
                                     for g in nodes.tolist()], dtype=int))
    dofs = np.array(list(position), dtype=int)
    if keep_pins:
        return dofs, sector_rows
    pins = [numbering.vertex_dof[v] for v in mesh._dirichlet.get(e, ())]
    kept = ~np.isin(dofs, pins)
    local = np.where(kept, np.cumsum(kept) - 1, -1)
    return dofs[kept], [local[rows] for rows in sector_rows]


def assert_local_dofs_match(mesh, numbering):
    """The S-local DOFs and sector rows of `numbering` equal the oracle's."""
    for e in range(len(mesh._counts)):
        dofs, rows = reference_local_dofs(mesh, numbering, e)
        assert np.array_equal(selement_dofs(numbering, e), dofs)
        got = sector_rows(mesh, numbering, e)
        assert len(got) == len(rows)
        for a, b in zip(got, rows):
            assert np.array_equal(a, b)


def reference_congruence_classes(mesh, numbering):
    """Class ids per S-element and per FE quad, numbered first-seen, from the
    per-element congruence keys that `build_operators` and `assemble_global`
    once built: an S-element by (dimension, k, S-local indices of its pinned
    side-face DOFs, and per sector the facet kind, the snapped offsets from
    the centre and the S-local rows of its nodes); an FE quad by its snapped
    corner offsets from its first corner.  Oracle for the class table of
    `PolytopalMesh._register`."""
    stacks = mesh._stacks
    keys = {kind: _shape_keys(mesh, v - c[:, None, :])
            for kind, (c, v, _) in stacks.items()}
    where = {(e, pos): (kind, i)
             for kind, (_, _, owners) in stacks.items()
             for i, (e, pos) in enumerate(owners.tolist())}
    seen, classes = {}, []
    for e in range(len(mesh._counts)):
        dofs_full, sector_rows = reference_local_dofs(mesh, numbering, e,
                                                      keep_pins=True)
        pinned = {int(numbering.vertex_dof[v]) for v in mesh._dirichlet.get(e, ())}
        constrained = np.flatnonzero([g in pinned for g in dofs_full.tolist()])
        slots = [where[e, pos] for pos in range(len(sector_rows))]
        key = (mesh.dimension, numbering.k, tuple(constrained.tolist())) + tuple(
            (kind.value, keys[kind][i].tobytes(), rows.tobytes())
            for (kind, i), rows in zip(slots, sector_rows))
        classes.append(seen.setdefault(key, len(seen)))
    corners = mesh.vertices[mesh._quads()].reshape(-1, 4, mesh.dimension)
    fe_seen = {}
    fe_classes = [fe_seen.setdefault(key.tobytes(), len(fe_seen))
                  for key in _shape_keys(mesh, corners - corners[:, :1])]
    return np.array(classes, dtype=int), np.array(fe_classes, dtype=int)


def operator_for(mesh, k):
    """The SElementView of S-element 0 of a (usually single-element) mesh."""
    numbering = number_dofs(mesh, k)
    return selement_view(mesh, numbering, build_operators(mesh, numbering), 0)


# -- the per-S-element view of the class records -------------------------------


def interpolant(mesh, numbering, f, operators=None) -> DiscreteSolution:
    """The nodal interpolant of f, as `sbfem_interpolate` builds it, on a given
    DOF numbering with the given class operators (built when not given)."""
    return DiscreteSolution(mesh, numbering, operators or build_operators(mesh, numbering),
                            _evaluate_field(f, numbering.coords))


def facet_nodes(numbering, fid) -> np.ndarray:
    """The DOFs of facet fid, in its canonical order."""
    return numbering.facet_dofs[numbering.facet_start[fid]:
                                numbering.facet_start[fid + 1]]


def selement_dofs(numbering, e) -> np.ndarray:
    """The DOF of each S-local index of S-element e."""
    return numbering.selement_dofs[numbering.selement_start[e]:
                                   numbering.selement_start[e + 1]]


def sector_rows(mesh, numbering, e) -> list:
    """Per facet position of S-element e, the S-local index of each node,
    read from the per-kind tables `numbering.sector_rows`."""
    rows = {}
    for kind, (_, _, owners) in mesh._stacks.items():
        for i in np.flatnonzero(owners[:, 0] == e).tolist():
            rows[int(owners[i, 1])] = numbering.sector_rows[kind][i]
    return [rows[p] for p in range(len(rows))]


def realified_trace(modes) -> np.ndarray:
    """The real trace matrix A_r of the realified modes of `SbfemModes`:
    column j is Re of A's column j, or its Im where Im lambda_j < 0."""
    return np.where(modes.lambdas.imag < 0.0, modes.A.imag, modes.A.real)


def modal_coefficients(solution, realified=False) -> list:
    """Modal coefficients (members, n) of each class reproducing the nodal
    values: A C = U with the members in id order as right-hand sides, one
    stacked solve per (mode count, member count); complex, or, `realified`,
    real by the realified trace A_r (`realified_trace`).  Oracle for the
    coefficients that `postproc.solution_errors` solves per error group."""
    ops, mesh, nd = solution.operators, solution.mesh, solution.numbering
    order = np.argsort(mesh._sel_class, kind="stable")
    counts = np.bincount(mesh._sel_class)
    first = np.cumsum(counts) - counts           # each class's start in `order`
    shapes = [(op.modes.n, m) for op, m in zip(ops, counts.tolist())]
    out = {}
    for n, m in dict.fromkeys(shapes):
        cs = [c for c, shape in enumerate(shapes) if shape == (n, m)]
        at = nd.selement_start[order[first[cs][:, None] + np.arange(m)]]
        U = solution.nodal[nd.selement_dofs[at[..., None] + np.arange(n)]]
        A = np.array([realified_trace(ops[c].modes) if realified else ops[c].modes.A
                      for c in cs])
        C = np.linalg.solve(A, np.swapaxes(U, 1, 2))                   # (G, n, m)
        out.update(zip(cs, np.swapaxes(C, 1, 2)))
    return [out[c] for c in range(len(ops))]


def member_coefficients(solution, e) -> np.ndarray:
    """The modal coefficients of S-element e: its row of its class's array."""
    cls = solution.mesh._sel_class
    return modal_coefficients(solution)[cls[e]][np.count_nonzero(cls[:e] == cls[e])]


@dataclass
class SElementView:
    """One S-element's operator as a record of its own, as the solver once
    stored it: its class's E, modes and K, with the DOFs, kept indices,
    sector rows and (given nodal values) modal coefficients of the element."""

    E: EMatrices
    modes: object
    K: np.ndarray
    dofs_full: np.ndarray      # global ids of all Gamma^S trace DOFs
    kept_local: np.ndarray     # indices of unconstrained DOFs in the full set
    sector_rows: list          # per facet position: S-local row of each node
    coefficients: np.ndarray | None = None

    @property
    def dofs_kept(self) -> np.ndarray:
        return self.dofs_full[self.kept_local]

    @property
    def A_eval(self) -> np.ndarray:
        """Trace eigenvectors over all Gamma^S DOFs, constrained rows zero."""
        A = np.zeros((len(self.dofs_full), self.modes.n), dtype=complex)
        A[self.kept_local] = self.modes.A
        return A


def selement_view(mesh, numbering, ops, e, nodal=None) -> SElementView:
    """The SElementView of S-element e, its DOFs and sector rows from
    `reference_local_dofs`, its kept indices from the mesh's side-face pins,
    and its coefficients from its own solve A c = u: independent of the
    class records but for the modes, E and K of its class."""
    dofs, rows = reference_local_dofs(mesh, numbering, e, keep_pins=True)
    pins = [numbering.vertex_dof[v] for v in mesh._dirichlet.get(e, ())]
    kept = np.flatnonzero(~np.isin(dofs, pins))
    op = ops[mesh._sel_class[e]]
    coeffs = (None if nodal is None
              else np.linalg.solve(op.modes.A, nodal[dofs[kept]]))
    return SElementView(op.E, op.modes, op.K, dofs, kept, rows, coeffs)


def global_csr(system) -> scipy.sparse.csr_matrix:
    """The global stiffness of a GlobalSystem as one CSR matrix, summed from
    the blocks of `system.K` as the solver assembled it before it multiplied
    by the blocks.  Oracle for `solver.BlockOperator`."""
    rows, cols, vals = [], [], []
    for dofs, mats in system.K.blocks:
        m = dofs.shape[1]
        vals.append(np.broadcast_to(mats, (len(dofs), m, m)).ravel())
        rows.append(np.repeat(dofs, m, axis=1).ravel())
        cols.append(np.tile(dofs, m).ravel())
    n = system.K.n
    return scipy.sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                    np.concatenate(cols))), shape=(n, n)).tocsr()


def dirichlet_map(system) -> dict:
    """The pinned DOFs of a GlobalSystem and their values, as a dict."""
    return dict(zip(system.dirichlet_dofs.tolist(), system.dirichlet_values.tolist()))


def selement_views(owner) -> list:
    """The SElementView of every S-element of a GlobalSystem or a
    DiscreteSolution (with coefficients)."""
    return [selement_view(owner.mesh, owner.numbering, owner.operators, e,
                          getattr(owner, "nodal", None))
            for e in range(len(owner.mesh._counts))]


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
    vertices = []               # vertex (i, j) has id j (n + 1) + i
    for j in range(n + 1):
        for i in range(n + 1):
            p = np.array([xs[i], xs[j]])
            if 0 < i < n and 0 < j < n:
                p = p + rng.uniform(-amplitude, amplitude, 2) * (2.0 / n)
            vertices.append([float(p[0]), float(p[1])])
    sels = []
    for v in (j * (n + 1) + i for j in range(n) for i in range(n)):
        loop = [v, v + 1, v + n + 2, v + n + 1]
        sels.append({"facets": [[loop[t], loop[(t + 1) % 4]] for t in range(4)]})
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


def coupled_mixed_mesh() -> PolytopalMesh:
    """The open S-element of `gen_coupled_singular(1)` among FE quads of two
    widths, 1/2 and 1: two classes of FE quads."""
    xs, ys = [-1.0, -0.5, 0.0, 0.5, 1.5], [0.0, 0.5, 1.0]
    corners = [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
               for y0, y1 in zip(ys, ys[1:]) for x0, x1 in zip(xs, xs[1:])
               if not (-0.5 <= x0 < 0.5 and y0 < 0.5)]
    return _open_mesh(1, ((-0.5, 0.5), (0.0, 0.5)), corners)


def open_element_pinned_first() -> PolytopalMesh:
    """`singular_open_selement(2)` with its facets listed in reverse: the
    pinned vertex is named first, so the pin removes an early S-local DOF
    (in every generated open S-element it removes the last)."""
    data = mesh_to_json(singular_open_selement(2))
    data["selements"][0]["facets"].reverse()
    return import_mesh(data)


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
def cube_mesh():
    return gen_hex_mesh(1)


@pytest.fixture(scope="session")
def wedge_mesh():
    return singular_open_selement(2)


def fixture_meshes_2d():
    return [("square", gen_quad_mesh(1)),
            ("octagon", gen_polygon_case1(1)),
            ("pentagon", random_polygon_mesh(np.random.default_rng(7), 5))]


def fixture_meshes_3d():
    return [("cube", gen_hex_mesh(1)),
            ("affine-cube", affine_cube_mesh(np.random.default_rng(11))),
            ("octahedron", octahedron_mesh())]


def volume_gradient_inner(mesh, op, alpha, mu, rho, drho, sigma, dsigma,
                          facet_order=24, radial_points=20):
    """Tensor-quadrature oracle for the gradient inner product of two Duffy
    functions with polynomial radial parts vanishing at the center, on the
    one S-element of a mesh."""
    d = mesh.dimension
    rad = radial_quadrature(1.0, radial_points, 0)
    total = 0.0
    for ctx in op_sectors(mesh, op, 0):
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
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    dm1 = len(eta)
    partials = []
    vp, _ = mode_fields(op, ctx, xi + step, eta)
    vm, _ = mode_fields(op, ctx, xi - step, eta)
    partials.append((vp - vm) / (2 * step))
    for a in range(dm1):
        e = np.zeros(dm1)
        e[a] = step
        vp, _ = mode_fields(op, ctx, xi, eta + e)
        vm, _ = mode_fields(op, ctx, xi, eta - e)
        partials.append((vp - vm) / (2 * step))
    P = np.vstack(partials)                         # (d, n_modes) parametric
    J1, _ = sector_jacobian(ctx.sector, eta[None, :])
    J = J1[0].copy()
    J[:, 1:] *= xi
    return np.linalg.solve(J.T, P)


def evaluate_in_sector(solution, e, ctx, xis, etas):
    """The error kernels on one sector of S-element e, a one-member class:
    points (R, Q, d), values (R, Q) and gradients (R, Q, d) of u_h on a
    (xi, eta) grid."""
    op = selement_view(solution.mesh, solution.numbering, solution.operators, e)
    xis = np.asarray(xis, dtype=float)
    J, _ = sector_jacobian(ctx.sector, etas)
    vals, grads = sector_fields(
        ctx.basis, xis, etas, J[None], op.A_eval[ctx.rows][None],
        member_coefficients(solution, e)[None, :, None],
        op.modes.lambdas[None])
    return duffy_map_many(ctx.sector, xis, etas), vals[0, ..., 0], grads[0, :, :, 0]


def duffy_interpolant(f, sector, k, xis, etas):
    """Values (R, Q) and gradients (R, Q, 2) of the Duffy interpolant of f on
    a 2D segment sector, on the (xi, eta) grid with xis in (0, 1]: Lagrange
    in xi at xi_j = j / k, and at each xi_j the degree-k trace interpolant of
    f on the facet scaled by xi_j about the centre a0, which is f(a0) at
    xi = 0.  The Lagrange factors in xi are the segment basis on [0, 1]."""
    basis = trace_basis(FacetKind.SEGMENT, k)
    xj = 0.5 * (basis.nodes[:, 0] + 1.0)                     # j / k, in node order
    a0 = sector.collapsed_vertex
    rays = facet_map_many(sector, basis.nodes) - a0
    F = f((a0 + xj[:, None, None] * rays).reshape(-1, 2)).reshape(k + 1, k + 1)
    xis = np.asarray(xis, dtype=float)
    L, dL = basis.eval_many(2.0 * xis[:, None] - 1.0)
    N, dN = basis.eval_many(etas)
    # d/dxi and d/deta, pushed through J(xi, eta) = J(1, eta) diag(1, xi)
    parametric = np.stack([2.0 * dL[:, 0] @ F @ N.T,
                           L @ F @ dN[:, 0].T / xis[:, None]], axis=-1)
    J, _ = sector_jacobian(sector, etas)
    grads = np.linalg.solve(np.swapaxes(J, 1, 2), parametric[..., None])[..., 0]
    return L @ F @ N.T, grads


def evaluate_in_fe(solution, q, ref_pts):
    """The error kernel on FE quad q: points, values, gradients, det J."""
    basis = trace_basis(FacetKind.QUADRILATERAL, solution.numbering.k)
    pts, fields, det = postproc._fe_fields(solution, slice(q, q + 1), ref_pts,
                                           basis.eval_many(ref_pts))
    return pts[0], fields[0, 0, :, 0], fields[0, 1:, :, 0].T, det[0]


# -- per-sector reference for the batched error integration ----------------------


def _reference_sector(op, ctx, xis, etas):
    """u_h on a sector's (xi, eta) grid of the S-element of SElementView op,
    one mode sum per sector."""
    md = op.modes
    c = op.coefficients
    alpha = op.A_eval[ctx.rows, :]                     # (m, n_modes) complex
    nvals, _ = ctx.basis.eval_many(etas)               # (Q, m)
    xis = np.asarray(xis, dtype=float)
    Z, Z1 = radial_factors(xis, md.lambdas)
    a0 = ctx.sector.collapsed_vertex
    rays = facet_map_many(ctx.sector, etas) - a0
    pts = a0 + xis[:, None, None] * rays[None, :, :]
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


def _reference_fe(solution, q, ref_pts):
    """u_h on FE quad q at reference points."""
    mesh, numbering = solution.mesh, solution.numbering
    basis = trace_basis(FacetKind.QUADRILATERAL, numbering.k)
    uel = solution.nodal[numbering.fe_nodes[q]]
    nvals, ngrads = basis.eval_many(ref_pts)
    corners = mesh.vertices[mesh._quads()[q]]
    pts = _facet_points(FacetKind.QUADRILATERAL, ref_pts, corners)
    tans = _facet_tangents(FacetKind.QUADRILATERAL, ref_pts, corners)
    det = _det(tans)
    JinvT = np.transpose(_inv(tans), (0, 2, 1))
    values = nvals @ uel
    grads = np.einsum("qde,qem->qdm", JinvT, ngrads) @ uel
    return pts, values, grads, det


def reference_solution_errors(solution, exact, facet_order=None, radial_points=None,
                              composite_levels=None):
    """(L2, energy) errors by a loop over S-elements, sectors and FE quads.

    Oracle for `postproc.solution_errors`, with its rule defaults; it picks
    each S-element's radial rule with the same helper.
    """
    k = solution.numbering.k
    facet_order = facet_order or 2 * k + 4
    d = solution.mesh.dimension
    acc_l2 = 0.0
    acc_h1 = 0.0
    for e, op in enumerate(selement_views(solution)):
        rad = radial_quadrature(*postproc._radial_rules(
            [op], [e], k, d, radial_points or 2 * k + 8, composite_levels)[0])
        xis = rad.points[:, 0]
        for ctx in op_sectors(solution.mesh, op, e):
            frule = facet_quadrature(ctx.sector.facet_kind, facet_order)
            _, det = sector_jacobian(ctx.sector, frule.points)
            pts, vals, grads = _reference_sector(op, ctx, xis, frule.points)
            flat = pts.reshape(-1, d)
            ev = exact.value(flat).reshape(vals.shape)
            eg = exact.gradient(flat).reshape(grads.shape)
            w = np.outer(rad.weights * xis ** (d - 1), frule.weights * det)
            acc_l2 += float(np.sum(w * (vals - ev) ** 2))
            acc_h1 += float(np.sum(w * np.sum((grads - eg) ** 2, axis=2)))
    fe_l2, fe_h1 = _reference_fe_sums(solution, exact, facet_order)
    return float(np.sqrt(acc_l2 + fe_l2)), float(np.sqrt(acc_h1 + fe_h1))


def _reference_fe_sums(solution, exact, facet_order):
    """Squared L2 and energy errors of the FE quads, by a loop over them."""
    frule = facet_quadrature(FacetKind.QUADRILATERAL, facet_order)
    acc_l2 = acc_h1 = 0.0
    for q in range(len(solution.mesh._quads())):
        pts, vals, grads, det = _reference_fe(solution, q, frule.points)
        w = frule.weights * det
        acc_l2 += float(np.sum(w * (vals - exact.value(pts)) ** 2))
        acc_h1 += float(np.sum(w * np.sum((grads - exact.gradient(pts)) ** 2,
                                          axis=1)))
    return acc_l2, acc_h1


def complex_solution_errors(solution, exact):
    """(L2, energy) errors by the complex modal pass: per congruence class
    and facet position, the complex coefficients A^-1 U of its members
    (`modal_coefficients`), complex radial factors and trace modes, and u_h
    the real part of complex mode sums.  The error kernels ran so before the
    realified basis; oracle for `postproc.solution_errors`, with its rule
    defaults, FE quads by the per-quad loop."""
    mesh, nd, ops = solution.mesh, solution.numbering, solution.operators
    k, d = nd.k, mesh.dimension
    rules = postproc._radial_rules(ops, np.unique(mesh._sel_class, return_index=True)[1],
                                   k, d, 2 * k + 8, None)
    acc = np.zeros(2)
    for x, (op, C) in enumerate(zip(ops, modal_coefficients(solution))):
        rad = radial_quadrature(*rules[x])
        xis, lam = rad.points[:, 0], op.modes.lambdas.astype(complex)
        Z = xis[:, None] ** lam                                       # (R, n)
        Z1 = np.where(lam == 0.0, 0.0, Z / xis[:, None])
        A = np.vstack([op.modes.A, np.zeros(op.modes.n)]).astype(complex)
        members = np.flatnonzero(mesh._sel_class == x)
        for kind, (centres, vertices, owners) in mesh._stacks.items():
            frule = facet_quadrature(kind, 2 * k + 4)
            nvals, ngrads = trace_basis(kind, k).eval_many(frule.points)
            mine = np.isin(owners[:, 0], members)
            for pos in np.unique(owners[mine, 1]):
                r = np.flatnonzero(mine & (owners[:, 1] == pos))
                r = r[np.argsort(owners[r, 0], kind="stable")]
                J, det = _sector_jacobians(kind, frule.points, centres[r[:1]],
                                           vertices[r[:1]])
                alpha = A[nd.sector_rows[kind][r[0]]]                 # (p, n)
                T = nvals @ alpha                                     # (Q, n)
                D = np.concatenate([(T * lam)[:, None], ngrads @ alpha], axis=1)
                G = np.swapaxes(_inv(J[0]), -1, -2) @ D               # (Q, d, n)
                c = C[np.searchsorted(members, owners[r, 0])]         # (m, n)
                vals = np.einsum("rn,qn,mn->rqm", Z, T, c).real
                grads = np.einsum("rn,qdn,mn->rqmd", Z1, G, c).real
                pts = (centres[r][None, None] + xis[:, None, None, None]
                       * J[0, None, :, None, :, 0])                   # (R, Q, m, d)
                ev, eg = exact.value_and_gradient(pts.reshape(-1, d))
                w = np.outer(rad.weights * xis ** (d - 1), frule.weights * det[0])
                acc += [np.sum(w[..., None] * (vals - ev.reshape(vals.shape)) ** 2),
                        np.sum(w[..., None, None] * (grads - eg.reshape(grads.shape)) ** 2)]
    acc += _reference_fe_sums(solution, exact, 2 * k + 4)
    return float(np.sqrt(acc[0])), float(np.sqrt(acc[1]))


def reference_project_trace(system, g, facet_ids, dofs) -> np.ndarray:
    """L2 projection of g onto the trace space of the given facets by a loop
    over facets into a dense boundary mass matrix.

    Oracle for `solver._project_trace`.
    """
    mesh, numbering = system.mesh, system.numbering
    k = numbering.k
    pos = {int(d): i for i, d in enumerate(dofs)}
    M = np.zeros((len(dofs), len(dofs)))
    b = np.zeros(len(dofs))
    for fid in facet_ids:
        kind = facet_kind(mesh, fid)
        basis = trace_basis(kind, k)
        rule = facet_quadrature(kind, 2 * k + 8)
        vals, _ = basis.eval_many(rule.points)
        corners = mesh.vertices[list(facet_vertices(mesh, fid))]
        pts = _facet_points(kind, rule.points, corners)
        tans = _facet_tangents(kind, rule.points, corners)
        if mesh.dimension == 2:
            jac = np.linalg.norm(tans[:, :, 0], axis=1)
        else:
            jac = np.linalg.norm(np.cross(tans[:, :, 0], tans[:, :, 1]), axis=1)
        ue = _evaluate_field(g, pts)
        w = rule.weights * jac
        Mel = np.einsum("q,qi,qj->ij", w, vals, vals)
        bel = (w * ue) @ vals
        gl = [pos[int(d)] for d in facet_nodes(numbering, fid)]
        ix = np.ix_(gl, gl)
        M[ix] += Mel
        b[gl] += bel
    return np.linalg.solve(M, b)


def reference_cg(A, b: np.ndarray, mask=True) -> np.ndarray:
    """Jacobi-preconditioned CG with `np.linalg.norm` residuals, a masked
    copy of each product and a Python `sum` of the block products.

    Oracle for `solver._cg`, whose iterates must match it bit for bit.
    """
    def matmul(x):
        return sum(np.bincount(d.ravel(), (
            x[d] @ M[0] if len(M) == 1 else np.einsum("bij,bj->bi", M, x[d])).ravel(),
            A.n) for d, M in A.blocks)

    d, r = np.where(mask, A.diagonal(), 1.0), b * mask
    x, z, norm_b = 0.0 * r, r / d, np.linalg.norm(r)
    p, rz = z, r @ z
    for _ in range(solver.CG_MAX_ITERATIONS):
        if not np.linalg.norm(r) > 1e-15 * norm_b:
            return x
        q = matmul(p) * mask
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        z = r / d
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise SolveError("CG did not converge")


# -- diagnostics that only tests use ---------------------------------------------


def flat_sector_squares(h0, h1) -> dict:
    """Two 2 x 2 squares side by side whose scaling centres sit h0 and h1
    above their bottom facets: for small |h0 - h1| the bottom sectors, nearly
    flat, share one congruence key."""
    return {"dimension": 2,
            "vertices": [[-1, -1], [1, -1], [3, -1], [-1, 1], [1, 1], [3, 1]],
            "selements": [
                {"facets": [[0, 1], [1, 4], [4, 3], [3, 0]], "center": [0.0, -1 + h0]},
                {"facets": [[1, 2], [2, 5], [5, 4], [4, 1]], "center": [2.0, -1 + h1]}]}


def mesh_to_json(mesh) -> dict:
    """A mesh in the JSON schema that `import_mesh` reads."""
    sels = []
    for e, centre in enumerate(mesh.centres.tolist()):
        entry = {"facets": [list(o) for o in selement_facets(mesh, e)[1]],
                 "center": centre}
        if is_open(mesh, e):
            entry["dirichlet_sideface_nodes"] = list(mesh._dirichlet.get(e, ()))
        sels.append(entry)
    return {"dimension": mesh.dimension,
            "vertices": [[float(c) for c in v] for v in mesh.vertices],
            "selements": sels}


def relabelled(data: dict, perm) -> dict:
    """A mesh file with its vertex list permuted (new vertex i is old vertex
    perm[i]) and every index mapped to match: the same mesh, relabelled."""
    new = np.argsort(perm).tolist()
    sels = []
    for entry in data["selements"]:
        entry = dict(entry, facets=[[new[v] for v in f] for f in entry["facets"]])
        if "dirichlet_sideface_nodes" in entry:
            entry["dirichlet_sideface_nodes"] = [
                new[v] for v in entry["dirichlet_sideface_nodes"]]
        sels.append(entry)
    return dict(data, vertices=[data["vertices"][i] for i in perm], selements=sels)


def save_mesh(mesh, path):
    with open(path, "w") as fh:
        json.dump(mesh_to_json(mesh), fh, indent=1)


def _harmonic_2d(x, k):
    """Re p and its gradient, p(z) = sum_j c_j (z - z0)^j over j <= k."""
    z = (x[:, 0] - 0.3) + 1j * (x[:, 1] + 0.2)
    c = [(1.0 + 0.5 * j) + (0.3 - 0.2 * j) * 1j for j in range(k + 1)]
    p = sum(c[j] * z ** j for j in range(k + 1))
    dp = sum(j * c[j] * z ** (j - 1) for j in range(1, k + 1))   # u_x - i u_y
    return p.real, np.stack([dp.real, -dp.imag], axis=-1)


def _harmonic_3d(x, k):
    """1 plus one harmonic part of each degree 1..k (k <= 3) about an
    off-centre point, and its gradient."""
    x, y, z = (x - [0.2, -0.1, 0.3]).T
    one, zero = np.ones_like(x), np.zeros_like(x)
    parts = [(one, (zero, zero, zero)),
             (x + 2 * y - z, (one, 2 * one, -one)),
             (x * y + y * z - x * z + x * x - z * z, (y - z + 2 * x, x + z, y - x - 2 * z)),
             (x * y * z + x ** 3 - 3 * x * y * y,
              (y * z + 3 * x * x - 3 * y * y, x * z - 6 * x * y, x * y))][:k + 1]
    return (sum(v for v, _ in parts),
            np.stack([sum(g[i] for _, g in parts) for i in range(3)], axis=-1))


def harmonic_polynomial(dim: int, k: int) -> postproc.ExactSolution:
    """A harmonic polynomial of degree k with a part of every lower degree:
    the SBFEM space of degree k holds it (separable xi^p phi(eta) parts about
    any scaling centre)."""
    field = _harmonic_2d if dim == 2 else _harmonic_3d
    return postproc.ExactSolution(f"harmonic{dim}d_k{k}", dim, lambda x: field(x, k))


def laplacian_residual(exact, points: np.ndarray, step: float = 1e-3) -> float:
    """Scaled finite-difference Laplacian of a registered solution."""
    d = points.shape[1]
    worst = 0.0
    for x in points:
        lap = 0.0
        curv = 0.0
        for axis in range(d):
            e = np.zeros(d)
            e[axis] = step
            trio = np.vstack([x + e, x, x - e])
            v = exact.value(trio)
            second = (v[0] - 2.0 * v[1] + v[2]) / step ** 2
            lap += second
            curv += abs(second)
        worst = max(worst, abs(lap) / max(curv, 1.0))
    return worst


def constant_index(md) -> int | None:
    """Column of the constant mode of one S-element's modes, or None: column
    0 when its exponent is exactly 0."""
    return 0 if md.lambdas[0] == 0 else None


def mode_gram(md, E: EMatrices, d: int) -> np.ndarray:
    """Closed-form Hermitian energy Gram of the modes via the radial integral.

    Uses int_0^1 xi^{conj(li)+lj+d-3} dxi = 1/(conj(li)+lj+d-2) applied to
    the four-term radial quadratic form; the constant mode row and column
    are zero.
    """
    A = md.A
    S11, S12, S21, S22 = (A.conj().T @ B @ A for B in E.blocks())
    L_i = md.lambdas.conj()[:, None]
    L_j = md.lambdas[None, :]
    denom = L_i + L_j + (d - 2)
    G = (L_i * L_j * S11 + L_i * S12 + L_j * S21 + S22)
    ci = constant_index(md)
    if ci is not None:
        G[ci, :] = 0.0
        G[:, ci] = 0.0
        denom[ci, :] = 1.0
        denom[:, ci] = 1.0
    return G / denom


def stiffness_from_gram(md, E: EMatrices, d: int) -> np.ndarray:
    """Independent stiffness A^{-H} G A^{-1} from the closed-form radial Gram."""
    Ainv = np.linalg.inv(md.A)
    return (Ainv.conj().T @ mode_gram(md, E, d) @ Ainv).real


def quadratic_residual(md, E: EMatrices, d: int) -> float:
    """Worst scaled residual of the second-order radial ODE over the modes."""
    E11, E12, E21, E22 = E.blocks()
    scale = max(np.linalg.norm(b) for b in (E11, E12, E21, E22))
    worst = 0.0
    for i, lam in enumerate(md.lambdas):
        if i == constant_index(md):
            continue
        a = md.A[:, i]
        r = (lam * (lam - 1.0) * (E11 @ a)
             + lam * ((d - 1) * (E11 @ a) + E12 @ a - E21 @ a)
             + (d - 2) * (E12 @ a) - E22 @ a)
        denom = scale * (1.0 + abs(lam)) ** 2 * np.linalg.norm(a)
        worst = max(worst, np.linalg.norm(r) / denom)
    return worst


def orthogonality_residual(md, E: EMatrices, d: int, sigma_coeffs: np.ndarray,
                           traces: np.ndarray | None = None,
                           rng: np.random.Generator | None = None,
                           n_trials: int = 5) -> float:
    """Max scaled gradient inner product of the modes against Duffy tests.

    The test functions have radial polynomial sigma (coefficients in
    ascending powers) and either the supplied trace vectors or random
    constant traces.  Radial integrals of xi^{lambda+m} are evaluated in
    closed form, so the residual isolates the eigen-solve accuracy.
    """
    sigma = np.asarray(sigma_coeffs, dtype=float)
    if traces is None:
        rng = rng or np.random.default_rng(0)
        traces = rng.standard_normal((n_trials, 1)) * np.ones((1, E.n))
    lam = md.lambdas
    A = md.A
    G = mode_gram(md, E, d)
    energies = np.sqrt(np.maximum(np.diag(G).real, 0.0))
    dsig = sigma[1:] * np.arange(1, sigma.size)
    worst = 0.0
    for mu in np.atleast_2d(traces):
        # |psi| from the dominant E11 part of its energy; enough for scaling.
        pow_int = np.array([[1.0 / (a + b + d - 1) for b in range(dsig.size)]
                            for a in range(dsig.size)])
        psi_en = np.sqrt(max(float(mu @ E.E11 @ mu)
                             * float(dsig @ pow_int @ dsig), 1e-300))
        for i, li in enumerate(lam):
            if i == constant_index(md):
                continue
            a = A[:, i]
            t11 = a @ (E.E11 @ mu)
            t12 = a @ (E.E12 @ mu)
            t21 = a @ (E.E21 @ mu)
            t22 = a @ (E.E22 @ mu)
            val = sum(c / (li + mm + d - 2) * (li * mm * t11 + li * t12
                                               + mm * t21 + t22)
                      for mm, c in enumerate(sigma) if c != 0.0)
            den = max(energies[i] * psi_en, 1e-300)
            worst = max(worst, abs(val) / den)
    return worst


# |E22 1| and |E12 1| below this (x the block norms) admit a constant trace
CONSTANT_TRACE_TOL = 1e-10


def constant_trace_admissible(E: EMatrices):
    """Numeric oracle for the pin rule of `build_operators`: True where the
    all-ones trace is gradient-free (E12 1 = E22 1 = 0), for one E or a stack."""
    B = np.stack([E.E12, E.E22])
    tol = CONSTANT_TRACE_TOL * np.maximum(
        np.linalg.norm(B, axis=(-2, -1)).max(axis=0), 1e-300)
    return (np.linalg.norm(B @ np.ones(E.n), axis=-1) <= tol).all(axis=0)


def reference_mode_chain(E, d):
    """Per-element oracle for the stacked mode layer: the chain build_system
    -> select_modes -> element_stiffness of one S-element, with `np.block`,
    a sorted index selection and a least-squares K.

    Returns the selected exponents, cond(A) and the symmetrized K.  E11 is
    solved by the same LU solve as in the stack, not by Cholesky: the
    exponent-1 eigenspace (the linear fields) is exactly degenerate, so
    cond(A) depends on the basis LAPACK picks in it, which round-off in M
    changes (a Cholesky solve moves cond(A) by factors 0.27 to 3.9 on a
    jittered 6x6 mesh at k = 2).
    """
    E11, E12, E21, E22 = E.blocks()
    n = E.n
    X, Y = np.hsplit(np.linalg.solve(E11, np.hstack([E12, np.eye(n)])), 2)
    M = np.block([[-X, Y], [E22 - E21 @ X, (2 - d) * np.eye(n) + E21 @ Y]])
    has_constant = bool(constant_trace_admissible(E))
    lam_all, V = np.linalg.eig(M)
    scale = max(float(np.abs(lam_all).max()), 1.0)
    cluster = np.abs(lam_all) <= modes.ZERO_CLUSTER_TOL * scale
    positive = ~cluster & (lam_all.real > modes.POSITIVE_CUT * scale)
    assert positive.sum() == n - has_constant
    idx = np.flatnonzero(positive)
    lams = lam_all[idx]
    idx = idx[np.lexsort((np.sign(lams.imag), np.abs(lams.imag), lams.real))]
    lams, vecs = lam_all[idx], V[:, idx]
    vecs = vecs / np.linalg.norm(vecs[:n], axis=0)
    A, P = vecs[:n], vecs[n:]
    if has_constant:
        lams = np.concatenate([[0.0], lams])
        A = np.hstack([np.full((n, 1), 1.0 / np.sqrt(n)), A])
        P = np.hstack([np.zeros((n, 1)), P])
    Ar, Pr = np.hstack([A.real, A.imag]), np.hstack([P.real, P.imag])
    K = np.linalg.lstsq(Ar.T, Pr.T, rcond=None)[0].T
    return lams, np.linalg.cond(A), 0.5 * (K + K.T)


# -- per-element mesh builder: oracle for `PolytopalMesh._register` -------------


def facet_owners(mesh) -> list[list]:
    """Per facet, the ("S", id) / ("FE", id) elements that list it."""
    counts = mesh._counts.tolist()
    elements = [("S", e) for e, c in enumerate(counts) for _ in range(c)] + [
        ("FE", q) for q in range(len(mesh._quads())) for _ in range(4)]
    owners = [[] for _ in mesh._first]
    for fid, element in zip(mesh._fid.tolist(), elements):
        owners[fid].append(element)
    return owners


Facet = namedtuple("Facet", "vertices kind")
FEQuad = namedtuple("FEQuad", "id vertices edge_facets")


@dataclass
class SElement:
    id: int
    center: np.ndarray
    facet_ids: list            # facet ids
    facet_orders: list         # per facet: this element's outward vertex order
    dirichlet: tuple | None = None     # side-face Dirichlet vertices if open


class ReferenceMesh:
    """The per-element mesh builder that `PolytopalMesh._register` replaced:
    one dict probe per vertex and facet, chain state and centre per
    S-element, sector stacks from owner lists, and one record per facet,
    S-element and FE quad.  It builds the fields only; validation stays
    with the mesh."""

    def __init__(self, dimension, extent=1.0):
        self.dimension = dimension
        self.facets, self.selements, self.fe_elements = [], [], []
        self._vkey, self._fkey, self._vlist, self._pending = {}, {}, [], {}
        self._extent = extent

    def add_vertex(self, xyz) -> int:
        key = tuple(round(float(c) / self._extent, 12) for c in xyz)
        if key in self._vkey:
            return self._vkey[key]
        vid = len(self._vlist)
        self._vkey[key] = vid
        self._vlist.append(np.asarray(xyz, dtype=float))
        return vid

    def _facet_id(self, vertices: tuple) -> int:
        key = tuple(sorted(vertices))
        if key not in self._fkey:
            kind = {2: FacetKind.SEGMENT, 3: FacetKind.TRIANGLE,
                    4: FacetKind.QUADRILATERAL}[len(vertices)]
            self._fkey[key] = len(self.facets)
            self.facets.append(Facet(vertices=tuple(vertices), kind=kind))
        return self._fkey[key]

    def add_selement(self, facet_vertex_lists, center=None,
                     dirichlet_sideface_vertices=()):
        fids, orders = [], []
        for vs in facet_vertex_lists:
            vs = tuple(int(v) for v in vs)
            fid = self._facet_id(vs)
            canon = self.facets[fid].vertices
            reference_lattice_perm(self.facets[fid].kind, 2,
                                   tuple(canon.index(v) for v in vs))
            fids.append(fid)
            orders.append(vs)
        sel = SElement(id=len(self.selements), center=None, facet_ids=fids,
                       facet_orders=orders)
        self.selements.append(sel)
        self._pending[sel.id] = (center, tuple(dirichlet_sideface_vertices))

    def add_fe_quad(self, vertex_ids):
        vs = tuple(int(v) for v in vertex_ids)
        edges = tuple(self._facet_id((vs[i], vs[(i + 1) % 4])) for i in range(4))
        self.fe_elements.append(FEQuad(id=len(self.fe_elements), vertices=vs,
                                       edge_facets=edges))

    def finalize(self) -> "ReferenceMesh":
        self.vertices = (np.array(self._vlist) if self._vlist
                         else np.zeros((0, self.dimension)))
        for sel in self.selements:
            center, dbc = self._pending[sel.id]
            count = Counter(v for fid in sel.facet_ids
                            for v in self.facets[fid].vertices)
            odd = {v for v, c in count.items() if c == 1}
            if center is None:
                vids = sorted(count)
                center = self.vertices[vids].mean(axis=0)
            sel.center = np.asarray(center, dtype=float)
            if self.dimension == 2 and len(odd) == 2:
                sel.dirichlet = tuple(dbc)
        owners: dict = {}
        for sel in self.selements:
            for pos, fid in enumerate(sel.facet_ids):
                owners.setdefault(self.facets[fid].kind, []).append((sel.id, pos))
        sels = self.selements
        self._stacks = {
            kind: (np.array([sels[e].center for e, _ in own]),
                   self.vertices[[sels[e].facet_orders[p] for e, p in own]],
                   np.array(own, dtype=int))
            for kind, own in owners.items()}
        return self


def reference_quad_family(n, splits, domain=((-1.0, 1.0), (-1.0, 1.0))):
    (x0, x1), (y0, y1) = domain
    hx, hy = (x1 - x0) / n, (y1 - y0) / n
    mesh = ReferenceMesh(2, max(abs(hi - lo) for lo, hi in domain) or 1.0)
    for j in range(n):
        for i in range(n):
            ax, ay = x0 + i * hx, y0 + j * hy
            bx, by = ax + hx, ay + hy
            loop = ([(ax + s * hx / splits, ay) for s in range(splits)]
                    + [(bx, ay + s * hy / splits) for s in range(splits)]
                    + [(bx - s * hx / splits, by) for s in range(splits)]
                    + [(ax, by - s * hy / splits) for s in range(splits)])
            vids = [mesh.add_vertex(p) for p in loop]
            mesh.add_selement([(vids[t], vids[(t + 1) % len(vids)])
                               for t in range(len(vids))])
    return mesh.finalize()


def reference_hex_family(n, splits, domain=((0.0, 1.0),) * 3):
    (x0, x1), (y0, y1), (z0, z1) = domain
    h = np.array([(x1 - x0) / n, (y1 - y0) / n, (z1 - z0) / n])
    lo = np.array([x0, y0, z0])
    mesh = ReferenceMesh(3, max(abs(hi - lo) for lo, hi in domain) or 1.0)
    s = splits
    for kz, jy, ix in itertools.product(range(n), repeat=3):
        a = lo + h * np.array([ix, jy, kz])
        facets = []
        for axis, side, q, p in itertools.product(range(3), (0, 1), range(s),
                                                  range(s)):
            u, v = (axis + 1) % 3, (axis + 2) % 3
            corner = a.copy()
            corner[axis] += side * h[axis]
            quad = []
            for (du, dv) in ((0, 0), (1, 0), (1, 1), (0, 1)):
                pt = corner.copy()
                pt[u] += (p + du) * h[u] / s
                pt[v] += (q + dv) * h[v] / s
                quad.append(pt)
            if side == 0:
                quad = [quad[0], quad[3], quad[2], quad[1]]
            facets.append([mesh.add_vertex(p_) for p_ in quad])
        mesh.add_selement(facets)
    return mesh.finalize()


def _reference_open_selement(mesh, n, domain):
    (x0, x1), (y0, y1) = domain
    pts = ([(x1, y0 + s * (y1 - y0) / n) for s in range(n + 1)]
           + [(x1 + s * (x0 - x1) / (2 * n), y1) for s in range(1, 2 * n + 1)]
           + [(x0, y1 - s * (y1 - y0) / n) for s in range(1, n + 1)])
    vids = [mesh.add_vertex(p) for p in pts]
    mesh.add_selement([(vids[t], vids[t + 1]) for t in range(len(vids) - 1)],
                      center=(0.5 * (x0 + x1), y0),
                      dirichlet_sideface_vertices=(vids[-1],))


def reference_singular_open_selement(n, domain=((-1.0, 1.0), (0.0, 1.0))):
    mesh = ReferenceMesh(2, max(abs(hi - lo) for lo, hi in domain) or 1.0)
    _reference_open_selement(mesh, n, domain)
    return mesh.finalize()


def reference_coupled_singular(level):
    h = 2.0 ** (-level)
    mesh = ReferenceMesh(2, 2.0)
    _reference_open_selement(mesh, round(0.5 / h), ((-0.5, 0.5), (0.0, 0.5)))
    nx, ny = round(2.0 / h), round(1.0 / h)
    for j in range(ny):
        for i in range(nx):
            ax, ay = -1.0 + i * h, j * h
            cx, cy = ax + 0.5 * h, ay + 0.5 * h
            if -0.5 < cx < 0.5 and cy < 0.5:
                continue
            corners = [(ax, ay), (ax + h, ay), (ax + h, ay + h), (ax, ay + h)]
            mesh.add_fe_quad([mesh.add_vertex(p) for p in corners])
    return mesh.finalize()


def reference_import(data):
    """`import_mesh` of a well-formed file through the per-element builder:
    the same vertex merge, each facet turned to face its element's centre
    (the sign of det(o0, o1) in 2D, of the fan sum of det(o0, oi, oi+1) in
    3D, o = v - c), one `add_selement` per entry in file order."""
    dim = data["dimension"]
    xyz = np.array(data["vertices"], dtype=float).reshape(-1, dim)
    first, ids = np.unique(_merge_vertices(xyz), return_inverse=True)
    mesh = ReferenceMesh(dim)
    mesh._vlist = list(xyz[first])
    for entry in data["selements"]:
        facets = [tuple(int(ids[i]) for i in f) for f in entry["facets"]]
        center = entry.get("center")
        c = (np.asarray(center, dtype=float) if center is not None else
             xyz[first][sorted({v for f in facets for v in f})].mean(axis=0))
        fans = [[np.linalg.det(xyz[first][[f[0], f[i], f[i + 1]][-dim:]] - c)
                 for i in range(dim - 2, len(f) - 1)] for f in facets]
        mesh.add_selement([f if sum(fan) >= 0 else f[::-1]
                           for f, fan in zip(facets, fans)], center=center,
                          dirichlet_sideface_vertices=[
                              int(ids[i]) for i in
                              entry.get("dirichlet_sideface_nodes", ())])
    return mesh.finalize()
