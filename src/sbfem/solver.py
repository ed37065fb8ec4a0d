"""Galerkin assembly and solve, SBFEM interpolation, and coupled FE elements.

Every unknown lives on the mesh skeleton (plus FE element interiors in the
coupled formulation).  S-element stiffness matrices come from the boundary
flux of the eigen-modes; standard tensor-product Q_k quadrilaterals couple
through shared interface traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import modes as modes_mod
from .ematrix import EMatrices, assemble_E
from .errors import AssemblyError, SolveError, SpectrumError
from .mesh import DofNumbering, PolytopalMesh, number_dofs
from .polyspace import _basis_table, facet_quadrature
from .refgeom import FacetKind, _chunks, _det, _facet_points, _facet_tangents, _inv

# SuperLU's symmetric mode for SPD systems: minimum degree on A + A^T, diagonal pivots
SPD_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})
DIRICHLET_METHODS = ("nodal", "project")      # the `method`s of apply_dirichlet


@dataclass
class ClassOperator:
    """Modes and stiffness shared by the S-elements of one congruence class."""

    E: EMatrices               # coefficient matrices over the kept DOFs
    modes: modes_mod.SbfemModes
    K: np.ndarray              # stiffness over the kept trace DOFs


def build_operators(mesh: PolytopalMesh,
                    numbering: DofNumbering) -> list[ClassOperator]:
    """E-matrices, modes and stiffness of each class of the mesh's class table.

    The S-elements of a class (translated copies) share the eigen-solve of
    its lowest member, the representative.  The representatives form one
    stack per S-local size and constant trace, which a trace space holds
    exactly when it lost no pin.  One `assemble_E` call per stack integrates
    its E-matrices by the facet rule of degree 2k + 2, straight over the
    S-local DOFs (`number_dofs` leaves side-face pins out), and its modes are
    solved in chunks under `refgeom.CHUNK_BUDGET` Euler-matrix entries.  A
    SpectrumError names the first failing S-element.
    """
    k, start = numbering.k, numbering.selement_start
    reps = np.unique(mesh._sel_class, return_index=True)[1]
    n_kept = np.diff(start)[reps]
    for e in reps[n_kept == 0][:1]:
        raise SpectrumError(f"S-element {e}: side-face constraints would remove "
                            "every trace DOF")
    # a stack per key 2 (S-local size) + (constant trace), by first appearance
    key = 2 * n_kept + ~np.isin(reps, list(mesh._dirichlet))
    errors, solved = [], [None] * len(reps)
    for c in key[np.sort(np.unique(key, return_index=True)[1])].tolist():
        es = reps[key == c]
        E = assemble_E(mesh._sector_stacks(), numbering.sector_rows, es, c // 2,
                       k, 2 * k + 2)
        for sl in _chunks(len(es), 4 * E.n ** 2):
            ids = es[sl].tolist()
            try:
                md, K = _stack_modes(E[sl], mesh.dimension, bool(c % 2), ids)
            except SpectrumError as exc:
                errors.append(exc)
                continue
            for i, e in enumerate(ids):
                solved[mesh._sel_class[e]] = ClassOperator(E[sl.start + i], md[i], K[i])
    if errors:
        raise min(errors, key=lambda exc: exc.selement)
    return solved


def _stack_modes(E: EMatrices, dim: int, has_constant: bool, ids: list):
    """Modes and stiffness K of a stack of class representatives of dimension
    `dim`, named by their S-element ids `ids`.  Raises the SpectrumError of
    the first member to fail any guard: when member j fails one, the members
    before j go through all guards again."""
    try:
        md = modes_mod.select_modes(modes_mod.build_system(E, dim, ids), dim,
                                    has_constant, ids)
        return md, modes_mod.element_stiffness(md, ids).K
    except SpectrumError as exc:
        j = ids.index(exc.selement)
        if j:
            _stack_modes(E[:j], dim, has_constant, ids[:j])
        raise


# -- standard FE elements (coupled formulation) --------------------------------


def fe_element_stiffness(corners: np.ndarray, k: int) -> np.ndarray:
    """H^1 Laplace stiffness (F, m, m) of a stack of Q_k quadrilaterals (2D)
    with corners (F, 4, 2)."""
    quad = FacetKind.QUADRILATERAL
    rule = facet_quadrature(quad, 2 * k)
    _, grads = _basis_table(quad, k, 2 * k)
    tans = _facet_tangents(quad, rule.points, corners)          # (F, q, 2, 2)
    det = _det(tans)
    if np.any(det <= 0.0):
        raise AssemblyError("inverted FE element")
    g = np.swapaxes(_inv(tans), -1, -2) @ grads                 # (F, q, 2, m)
    return np.einsum("fq,fqdi,fqdj->fij", rule.weights * det, g, g)


# -- global system ---------------------------------------------------------------


@dataclass
class GlobalSystem:
    mesh: PolytopalMesh
    numbering: DofNumbering
    operators: list
    K: scipy.sparse.csr_matrix
    dirichlet_dofs: np.ndarray     # pinned DOFs, each once
    dirichlet_values: np.ndarray   # their values


def assemble_global(mesh: PolytopalMesh, k: int) -> GlobalSystem:
    """Scatter S-element (and FE element) stiffness into the skeleton system."""
    numbering = number_dofs(mesh, k)
    ops = build_operators(mesh, numbering)
    # per S-local size, in order of appearance: each class's K for its members
    cls, start, blocks = mesh._sel_class, numbering.selement_start, []
    size = np.diff(start)
    for m in size[np.sort(np.unique(size, return_index=True)[1])].tolist():
        e = np.flatnonzero(size == m)
        cs, at = np.unique(cls[e], return_inverse=True)
        blocks.append((numbering.selement_dofs[start[e][:, None] + np.arange(m)],
                       np.take(np.array([ops[c].K for c in cs]), at, axis=0)))
    if len(mesh._fe_class):     # no FE quads in 3D, where corners have 3 columns
        first = np.unique(mesh._fe_class, return_index=True)[1]
        blocks.append((numbering.fe_nodes, fe_element_stiffness(
            mesh.vertices[mesh._quads()[first]], k)[mesh._fe_class]))
    K = _scatter(blocks, numbering.n_total)
    # side-face Dirichlet traces are pinned to zero from the start
    pins = np.unique(numbering.vertex_dof[
        [v for vs in mesh._dirichlet.values() for v in vs]])
    system = GlobalSystem(mesh=mesh, numbering=numbering, operators=ops, K=K,
                          dirichlet_dofs=pins, dirichlet_values=np.zeros(len(pins)))
    empty = np.flatnonzero(np.diff(K.indptr) == 0)   # rows in no block
    dangling = empty[~np.isin(empty, pins)]
    if dangling.size:
        raise AssemblyError(f"{dangling.size} DOFs receive no element "
                            f"contribution (first: {dangling[:5].tolist()})")
    return system


def _scatter(groups, n: int) -> scipy.sparse.csr_matrix:
    """(n, n) sum of element matrices in groups of DOFs (B, m), matrices (B, m, m)."""
    vals, rows, cols = (np.concatenate(p) for p in zip(*[
        (mats.ravel(), np.repeat(dofs, dofs.shape[1], axis=1).ravel(),
         np.tile(dofs, dofs.shape[1]).ravel()) for dofs, mats in groups]))
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


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
    if dofs.size == 0 and not system.dirichlet_dofs.size:
        raise SolveError("no Dirichlet boundary: the Laplace system is singular")
    if method not in DIRICHLET_METHODS:
        raise SolveError(f"unknown Dirichlet method '{method}'")
    values = (_evaluate_field(g, system.numbering.coords[dofs]) if method == "nodal"
              else _project_trace(system, g, facet_ids, dofs))
    new = ~np.isin(dofs, system.dirichlet_dofs)   # the first value wins
    system.dirichlet_dofs = np.concatenate([system.dirichlet_dofs, dofs[new]])
    system.dirichlet_values = np.concatenate([system.dirichlet_values, values[new]])
    return system


def _project_trace(system: GlobalSystem, g, facet_ids, dofs) -> np.ndarray:
    """L2 projection of g onto the trace space of the given facets (sorted
    DOFs `dofs`): one stacked pass per facet kind, one sparse mass solve."""
    if dofs.size == 0:
        return np.zeros(0)
    mesh, nd = system.mesh, system.numbering
    blocks, b = [], np.zeros(len(dofs))
    for kind, (fids, corners) in mesh._facet_corners(facet_ids).items():
        rule = facet_quadrature(kind, 2 * nd.k + 8)
        vals, _ = _basis_table(kind, nd.k, 2 * nd.k + 8)              # (Q, m)
        pts = _facet_points(kind, rule.points, corners)                # (F, Q, d)
        tans = _facet_tangents(kind, rule.points, corners)        # (F, Q, d, d-1)
        jac = np.linalg.norm(tans[..., 0] if mesh.dimension == 2
                             else np.cross(tans[..., 0], tans[..., 1]), axis=-1)
        w = rule.weights * jac                                         # (F, Q)
        ue = _evaluate_field(g, pts.reshape(-1, mesh.dimension)).reshape(w.shape)
        rows = np.searchsorted(dofs, nd.facet_dofs[nd.facet_start[fids][:, None]
                                                   + np.arange(vals.shape[1])])
        blocks.append((rows, np.einsum("fq,qi,qj->fij", w, vals, vals)))
        np.add.at(b, rows, (w * ue) @ vals)
    return scipy.sparse.linalg.splu(_scatter(blocks, len(dofs)).tocsc(),
                                   **SPD_SPLU).solve(b)


def _evaluate_field(g, coords: np.ndarray) -> np.ndarray:
    """Values of a field (callable on points, or a constant) at coords."""
    return np.full(coords.shape[0], g(coords) if callable(g) else g, dtype=float)


@dataclass
class DiscreteSolution:
    """Nodal skeleton values of a discrete solution and the class operators
    that extend them into the S-elements."""

    mesh: PolytopalMesh
    numbering: DofNumbering
    operators: list
    nodal: np.ndarray
    residual: float = 0.0

    @property
    def n_dofs(self) -> int:
        return self.numbering.n_total


def solve(system: GlobalSystem) -> DiscreteSolution:
    """Direct sparse solve of the constrained Galerkin system."""
    n = system.numbering.n_total
    u = np.zeros(n)
    u[system.dirichlet_dofs] = system.dirichlet_values
    pinned = np.sort(system.dirichlet_dofs)
    free = np.setdiff1d(np.arange(n), pinned)
    if free.size:
        Kf = system.K[free]
        Kff = Kf[:, free].tocsc()
        rhs = -(Kf[:, pinned] @ u[pinned])
        try:
            u[free] = scipy.sparse.linalg.splu(Kff, **SPD_SPLU).solve(rhs)
        except RuntimeError as exc:
            raise SolveError(f"sparse factorization failed: {exc}") from exc
        Ku = Kff @ u[free]
        scale = max(np.linalg.norm(rhs), np.linalg.norm(Ku), 1e-300)
        residual = float(np.linalg.norm(Ku - rhs) / scale)
        if not residual <= 1e-10:          # a NaN residual fails too
            raise SolveError(f"solver residual {residual:.2e} exceeds 1e-10")
    else:
        residual = 0.0
    return DiscreteSolution(
        mesh=system.mesh, numbering=system.numbering, operators=system.operators,
        nodal=u, residual=residual)


def sbfem_interpolate(mesh: PolytopalMesh, k: int, f) -> DiscreteSolution:
    """Radial extension of the nodal trace interpolant of f."""
    numbering = number_dofs(mesh, k)
    return DiscreteSolution(mesh, numbering, build_operators(mesh, numbering),
                            _evaluate_field(f, numbering.coords))

