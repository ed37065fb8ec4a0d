"""Galerkin assembly and solve, SBFEM interpolation, and coupled FE elements.

Every unknown lives on the mesh skeleton (plus FE element interiors in the
coupled formulation).  S-element stiffness matrices come from the boundary
flux of the eigen-modes; standard tensor-product Q_k quadrilaterals couple
through shared interface traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import modes as modes_mod
from .ematrix import EMatrices, assemble_E
from .errors import AssemblyError, SolveError
from .mesh import (DofNumbering, PolytopalMesh, SElement, number_dofs,
                   selement_local_dofs)
from .polyspace import facet_quadrature, trace_basis
from .refgeom import FacetKind, _facet_points, _facet_tangents


@dataclass
class SElementOperator:
    """Modes, stiffness and local DOFs of one S-element."""

    selement: SElement
    E: EMatrices               # side-face-reduced coefficient matrices
    modes: modes_mod.SbfemModes
    K: np.ndarray              # stiffness over the kept trace DOFs
    dofs_full: np.ndarray      # global ids of all Gamma^S trace DOFs
    kept_local: np.ndarray     # indices of unconstrained DOFs in the full set
    sector_rows: list          # per facet position: S-local row of each node

    @property
    def dofs_kept(self) -> np.ndarray:
        return self.dofs_full[self.kept_local]

    @property
    def A_eval(self) -> np.ndarray:
        """Trace eigenvectors over all Gamma^S DOFs, constrained rows zero."""
        A = np.zeros((len(self.dofs_full), self.modes.n), dtype=complex)
        A[self.kept_local] = self.modes.A
        return A

    def coefficients(self, nodal: np.ndarray) -> np.ndarray:
        """Complex modal coefficients reproducing the global nodal values."""
        return np.linalg.solve(self.modes.A, nodal[self.dofs_kept])


def build_operators(mesh: PolytopalMesh, numbering: DofNumbering,
                    quad_order: int | None = None,
                    cache: dict | None = None) -> list[SElementOperator]:
    """E-matrices, modes and stiffness for every S-element.

    Congruent S-elements (translated copies, common in the structured
    generators) share one eigen-solve through the cache.  The E-matrices of
    all cache misses are integrated in one stacked pass over their sectors.
    """
    k = numbering.k
    order = quad_order if quad_order is not None else 2 * k + 2
    cache = {} if cache is None else cache
    stacks = mesh._sector_stacks()
    where = {}                 # (S-element id, position) -> (kind, stack index)
    for kind, (_, _, owners) in stacks.items():
        where.update({(e, pos): (kind, i)
                      for i, (e, pos) in enumerate(owners.tolist())})
    offsets = {kind: np.round(vertices - centres[:, None, :], 12)
               for kind, (centres, vertices, _) in stacks.items()}
    # local DOFs and congruence keys; the first S-element of a new key misses
    local, misses = [], {}
    for sel in mesh.selements:
        dofs_full, sector_rows = selement_local_dofs(mesh, numbering, sel)
        dbc = sel.open_boundary.dirichlet_vertices if sel.open_boundary else ()
        constrained = np.flatnonzero(
            np.isin(dofs_full, [numbering.vertex_dof[v] for v in dbc]))
        slots = [where[sel.id, pos] for pos in range(len(sector_rows))]
        key = (mesh.dimension, k, tuple(constrained.tolist())) + tuple(
            (kind.value, offsets[kind][i].tobytes(), tuple(rows.tolist()))
            for (kind, i), rows in zip(slots, sector_rows))
        if key not in cache:
            misses.setdefault(key, sel.id)
        local.append((dofs_full, sector_rows, constrained, key))
    # the E-matrices of every miss in one stacked pass
    sub = {}
    for kind, (centres, vertices, owners) in stacks.items():
        mask = np.isin(owners[:, 0], list(misses.values()))
        if mask.any():
            rows = np.array([local[e][1][p] for e, p in owners[mask].tolist()])
            sub[kind] = (centres[mask], vertices[mask], owners[mask], rows)
    Es = assemble_E(sub, {e: len(local[e][0]) for e in misses.values()},
                    mesh.dimension, k, order)
    ops = []
    for sel, (dofs_full, sector_rows, constrained, key) in zip(
            mesh.selements, local):
        if key not in cache:
            kept = np.setdiff1d(np.arange(len(dofs_full)), constrained)
            E_red = modes_mod.apply_sideface_bc(Es[sel.id], constrained)
            system = modes_mod.build_system(E_red, mesh.dimension)
            md = modes_mod.select_modes(system, label=f"S-element {sel.id}")
            cache[key] = (E_red, md, modes_mod.element_stiffness(md).K, kept)
        E_red, md, K, kept = cache[key]
        ops.append(SElementOperator(selement=sel, E=E_red, modes=md, K=K,
                                    dofs_full=dofs_full, kept_local=kept,
                                    sector_rows=sector_rows))
    return ops


# -- standard FE elements (coupled formulation) --------------------------------


def fe_element_stiffness(vertices: np.ndarray, k: int) -> np.ndarray:
    """H^1 Laplace stiffness of a Q_k quadrilateral (2D)."""
    quad = FacetKind.QUADRILATERAL
    rule = facet_quadrature(quad, 2 * k)
    _, grads = trace_basis(quad, k).eval_many(rule.points)
    tans = _facet_tangents(quad, rule.points, vertices)         # (q, 2, 2)
    det = np.linalg.det(tans)
    if np.any(det <= 0.0):
        raise AssemblyError("inverted FE element")
    JinvT = np.transpose(np.linalg.inv(tans), (0, 2, 1))
    g = JinvT @ grads                                           # (q, 2, m)
    return np.einsum("q,qdi,qdj->ij", rule.weights * det, g, g)


# -- global system ---------------------------------------------------------------


@dataclass
class GlobalSystem:
    mesh: PolytopalMesh
    numbering: DofNumbering
    operators: list
    K: scipy.sparse.csr_matrix
    rhs: np.ndarray
    dirichlet: dict = field(default_factory=dict)   # dof -> value
    touched: np.ndarray = None


def assemble_global(mesh: PolytopalMesh, k: int,
                    quad_order: int | None = None,
                    cache: dict | None = None) -> GlobalSystem:
    """Scatter S-element (and FE element) stiffness into the skeleton system."""
    numbering = number_dofs(mesh, k)
    ops = build_operators(mesh, numbering, quad_order=quad_order, cache=cache)
    n = numbering.n_total
    blocks = [(op.dofs_kept, op.K) for op in ops]
    fe_cache: dict = {}
    for fe in mesh.fe_elements:
        corners = mesh.vertices[list(fe.vertices)]
        key = np.round(corners - corners[0], 12).tobytes()
        if key not in fe_cache:
            fe_cache[key] = fe_element_stiffness(corners, k)
        blocks.append((numbering.fe_nodes[fe.id], fe_cache[key]))
    rows, cols, vals = [], [], []
    touched = np.zeros(n, dtype=bool)
    for dofs, Kel in blocks:
        touched[dofs] = True
        r, c = np.meshgrid(dofs, dofs, indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(Kel.ravel())
    K = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    system = GlobalSystem(mesh=mesh, numbering=numbering, operators=ops,
                          K=K, rhs=np.zeros(n), touched=touched)
    # side-face Dirichlet traces are pinned to zero from the start
    for sel in mesh.selements:
        if sel.open_boundary is not None:
            for v in sel.open_boundary.dirichlet_vertices:
                system.dirichlet[numbering.vertex_dof[v]] = 0.0
    dangling = np.flatnonzero(~touched
                              & ~np.isin(np.arange(n),
                                         list(system.dirichlet.keys())))
    if dangling.size:
        raise AssemblyError(f"{dangling.size} DOFs receive no element "
                            f"contribution (first: {dangling[:5].tolist()})")
    return system


def apply_dirichlet(system: GlobalSystem, g, facet_ids=None,
                    method: str = "project") -> GlobalSystem:
    """Constrain the trace of g on the given (default: all) boundary facets.

    ``method="project"`` takes the L2 projection of g onto the continuous
    trace space of the Dirichlet boundary (weak-style enforcement, the one
    that reproduces the reference convergence tables); ``method="nodal"``
    interpolates g at the equispaced Lagrange nodes.  Both reproduce data
    already in the trace space exactly.
    """
    if facet_ids is None:
        facet_ids = system.mesh.boundary_facet_ids()
    dofs = system.numbering.facet_boundary_dofs(facet_ids)
    if dofs.size == 0 and not system.dirichlet:
        raise SolveError("no Dirichlet boundary: the Laplace system is singular")
    if method == "nodal":
        values = _evaluate_field(g, system.numbering.coords[dofs])
    elif method == "project":
        values = _project_trace(system, g, facet_ids, dofs)
    else:
        raise SolveError(f"unknown Dirichlet method '{method}'")
    for dof, val in zip(dofs, values):
        # side-face pins are exact homogeneous constraints; keep them
        if int(dof) not in system.dirichlet:
            system.dirichlet[int(dof)] = float(val)
    return system


def _project_trace(system: GlobalSystem, g, facet_ids, dofs) -> np.ndarray:
    """L2 projection of g onto the trace space of the given facets."""
    mesh, numbering = system.mesh, system.numbering
    k = numbering.k
    pos = {int(d): i for i, d in enumerate(dofs)}
    M = np.zeros((len(dofs), len(dofs)))
    b = np.zeros(len(dofs))
    for fid in facet_ids:
        facet = mesh.facets[fid]
        basis = trace_basis(facet.kind, k)
        rule = facet_quadrature(facet.kind, 2 * k + 8)
        vals, _ = basis.eval_many(rule.points)
        corners = mesh.vertices[list(facet.vertices)]
        pts = _facet_points(facet.kind, rule.points, corners)
        tans = _facet_tangents(facet.kind, rule.points, corners)
        if mesh.dimension == 2:
            jac = np.linalg.norm(tans[:, :, 0], axis=1)
        else:
            jac = np.linalg.norm(np.cross(tans[:, :, 0], tans[:, :, 1]), axis=1)
        ue = _evaluate_field(g, pts)
        w = rule.weights * jac
        Mel = np.einsum("q,qi,qj->ij", w, vals, vals)
        bel = (w * ue) @ vals
        gl = [pos[int(d)] for d in numbering.facet_nodes[fid]]
        ix = np.ix_(gl, gl)
        M[ix] += Mel
        b[gl] += bel
    return np.linalg.solve(M, b)


def _evaluate_field(g, coords: np.ndarray) -> np.ndarray:
    if callable(g):
        out = g(coords)
        return np.full(coords.shape[0], float(out)) if np.ndim(out) == 0 \
            else np.asarray(out, dtype=float)
    return np.full(coords.shape[0], float(g))


@dataclass
class DiscreteSolution:
    """Nodal skeleton values plus per-S-element modal coefficients."""

    mesh: PolytopalMesh
    numbering: DofNumbering
    operators: list
    nodal: np.ndarray
    coefficients: list         # per S-element modal coefficient vector
    residual: float = 0.0

    @property
    def k(self) -> int:
        return self.numbering.k

    @property
    def n_dofs(self) -> int:
        return self.numbering.n_total


def solve(system: GlobalSystem) -> DiscreteSolution:
    """Direct sparse solve of the constrained Galerkin system."""
    n = system.numbering.n_total
    pinned = np.array(sorted(system.dirichlet.keys()), dtype=int)
    pinned_vals = np.array([system.dirichlet[d] for d in pinned])
    free = np.setdiff1d(np.arange(n), pinned)
    u = np.zeros(n)
    u[pinned] = pinned_vals
    K = system.K
    if free.size:
        Kf = K[free]
        Kff = Kf[:, free].tocsc()
        rhs = system.rhs[free] - Kf[:, pinned] @ pinned_vals
        try:
            lu = scipy.sparse.linalg.splu(Kff)
            u[free] = lu.solve(rhs)
        except RuntimeError as exc:
            raise SolveError(f"sparse factorization failed: {exc}") from exc
        res = np.linalg.norm(Kff @ u[free] - rhs)
        scale = max(np.linalg.norm(rhs), np.linalg.norm(Kff @ u[free]), 1e-300)
        residual = float(res / scale)
        if residual > 1e-10:
            raise SolveError(f"solver residual {residual:.2e} exceeds 1e-10")
    else:
        residual = 0.0
    coeffs = [op.coefficients(u) for op in system.operators]
    return DiscreteSolution(mesh=system.mesh, numbering=system.numbering,
                            operators=system.operators, nodal=u,
                            coefficients=coeffs, residual=residual)


def sbfem_interpolate(mesh: PolytopalMesh, k: int, f,
                      quad_order: int | None = None,
                      operators: list | None = None,
                      numbering: DofNumbering | None = None) -> DiscreteSolution:
    """Radial extension of the nodal trace interpolant of f."""
    if numbering is None:
        numbering = number_dofs(mesh, k)
    if operators is None:
        operators = build_operators(mesh, numbering, quad_order=quad_order)
    nodal = _evaluate_field(f, numbering.coords)
    coeffs = [op.coefficients(nodal) for op in operators]
    return DiscreteSolution(mesh=mesh, numbering=numbering,
                            operators=operators, nodal=nodal,
                            coefficients=coeffs)
