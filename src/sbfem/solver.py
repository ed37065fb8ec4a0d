"""Galerkin assembly and solve, SBFEM interpolation, and coupled FE elements.

Every unknown lives on the mesh skeleton (plus FE element interiors in the
coupled formulation).  S-element stiffness matrices come from the boundary
flux of the eigen-modes; standard tensor-product Q_k quadrilaterals couple
through shared interface traces.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import modes as modes_mod
from .ematrix import EMatrices, assemble_E
from .errors import AssemblyError, SolveError, SpectrumError
from .mesh import (DofNumbering, PolytopalMesh, _distinct, _first_seen, _shape_keys,
                   number_dofs)
from .polyspace import _basis_table, facet_quadrature
from .refgeom import FacetKind, _chunks, _det, _facet_points, _facet_tangents, _inv

CG_MAX_ITERATIONS = 5000     # 14 times the 352 of coupled-singular level 5, k = 2
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
        E = assemble_E(mesh._stacks, numbering.sector_rows, es, c // 2, k, 2 * k + 2)
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
    with corners (F, 4, 2), symmetrized like `modes.element_stiffness`."""
    quad = FacetKind.QUADRILATERAL
    rule = facet_quadrature(quad, 2 * k)
    _, grads = _basis_table(quad, k, 2 * k)
    tans = _facet_tangents(quad, rule.points, corners)          # (F, q, 2, 2)
    det = _det(tans)
    if np.any(det <= 0.0):
        raise AssemblyError("inverted FE element")
    g = np.swapaxes(_inv(tans), -1, -2) @ grads                 # (F, q, 2, m)
    K = np.einsum("fq,fqdi,fqdj->fij", rule.weights * det, g, g)
    return 0.5 * (K + np.swapaxes(K, -1, -2))


# -- global system ---------------------------------------------------------------


@dataclass
class BlockOperator:
    """The sum of symmetric element matrices over n unknowns: DOF blocks (B, m)
    and matrices (B, m, m), or one (1, m, m) matrix shared by all B members."""

    blocks: list
    n: int

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # the block products summed in place into the first block's
        return reduce(operator.iadd, (np.bincount(d.ravel(), (
            x[d] @ M[0] if len(M) == 1 else np.einsum("bij,bj->bi", M, x[d])).ravel(),
            self.n) for d, M in self.blocks))

    def diagonal(self) -> np.ndarray:
        return sum(np.bincount(d.ravel(), np.broadcast_to(np.diagonal(
            M, axis1=1, axis2=2), d.shape).ravel(), self.n) for d, M in self.blocks)

    @property
    def nnz(self) -> int:
        """Stored entries of the summed matrix: its distinct DOF pairs."""
        return _distinct(np.concatenate([(d[:, :, None] * self.n + d[:, None]).ravel()
                                         for d, _ in self.blocks])).size


@dataclass
class GlobalSystem:
    mesh: PolytopalMesh
    numbering: DofNumbering
    operators: list
    K: BlockOperator
    dirichlet_dofs: np.ndarray     # pinned DOFs, each once
    dirichlet_values: np.ndarray   # their values


def assemble_global(mesh: PolytopalMesh, k: int) -> GlobalSystem:
    """The skeleton system: S-element (and FE element) stiffness by blocks."""
    numbering = number_dofs(mesh, k)
    ops = build_operators(mesh, numbering)
    # per S-local size, in order of appearance: the DOFs of its members, the
    # K of their classes and each member's class
    cls, start, blocks = mesh._sel_class, numbering.selement_start, []
    size = np.diff(start)
    for m in size[np.sort(np.unique(size, return_index=True)[1])].tolist():
        e = np.flatnonzero(size == m)
        cs, at = np.unique(cls[e], return_inverse=True)
        blocks.append((numbering.selement_dofs[start[e][:, None] + np.arange(m)],
                       np.array([ops[c].K for c in cs]), at))
    if len(mesh._fe_class):     # no FE quads in 3D, where corners have 3 columns
        first = np.unique(mesh._fe_class, return_index=True)[1]
        blocks.append((numbering.fe_nodes, fe_element_stiffness(
            mesh.vertices[mesh._quads()[first]], k), mesh._fe_class))
    K = BlockOperator([(d, Ks if len(Ks) == 1 else Ks[at]) for d, Ks, at in blocks],
                      numbering.n_total)
    # side-face Dirichlet traces are pinned to zero from the start
    pins = _distinct(numbering.vertex_dof[
        [v for vs in mesh._dirichlet.values() for v in vs]])
    empty = K.diagonal() == 0   # in no block
    empty[pins] = False
    dangling = np.flatnonzero(empty)
    if dangling.size:
        raise AssemblyError(f"{dangling.size} DOFs receive no element "
                            f"contribution (first: {dangling[:5].tolist()})")
    return GlobalSystem(mesh=mesh, numbering=numbering, operators=ops, K=K,
                        dirichlet_dofs=pins, dirichlet_values=np.zeros(len(pins)))


def _cg(A: BlockOperator, b: np.ndarray, mask=True) -> np.ndarray:
    """Jacobi-preconditioned CG (Hestenes & Stiefel 1952) for A x = b where `mask`
    holds, x = 0 elsewhere, to a relative residual of 1e-15; NaN in A or b, NaN x."""
    d, r = np.where(mask, A.diagonal(), 1.0), b * mask
    x, z, norm_b = 0.0 * r, r / d, np.linalg.norm(r)     # 0 * r keeps a NaN of b
    p, rz, tol = z, r @ z, 1e-15 * norm_b
    for _ in range(CG_MAX_ITERATIONS):
        if not np.sqrt(r @ r) > tol:    # np.linalg.norm of a real vector
            return x
        q = A @ p
        q *= mask
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        z = r / d
        rz, rz_old = r @ z, rz
        p *= rz / rz_old      # p = z + beta p, in place
        p += z
    raise SolveError(f"CG did not converge in {CG_MAX_ITERATIONS} iterations: "
                     f"relative residual {np.linalg.norm(r) / norm_b:.2e}")


def apply_dirichlet(system: GlobalSystem, g, facet_ids=None,
                    method: str = "project") -> GlobalSystem:
    """Constrain the trace of g on the given (default: all) boundary facets.

    ``method="project"`` takes the L2 projection of g onto the continuous
    trace space of the Dirichlet boundary (weak-style enforcement, the one
    that reproduces the reference convergence tables); ``method="nodal"``
    interpolates g at the equispaced Lagrange nodes.  Both reproduce data
    already in the trace space exactly.  A facet id that is not an integer
    (read by `operator.index`) naming a boundary facet raises a SolveError;
    the order of the ids and their repeats do not matter.
    """
    boundary = system.mesh.boundary_facet_ids()
    if facet_ids is None:
        facet_ids = boundary
    on_boundary = set(boundary)
    for f in facet_ids:
        if not (hasattr(f, "__index__") and operator.index(f) in on_boundary):
            raise SolveError(f"facet id {f!r} is not a boundary facet of the mesh")
    facet_ids = _distinct(np.array([operator.index(f) for f in facet_ids], dtype=int))
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
    DOFs `dofs`): one stacked pass per facet kind, one CG mass solve.  The
    facets of a kind alike in snapped corner offsets (`_shape_keys`) form a
    class, whose first facet's tangents, |J| and mass block serve them all;
    g is evaluated at each facet's own points."""
    if dofs.size == 0:
        return np.zeros(0)
    mesh, nd = system.mesh, system.numbering
    blocks, b = [], np.zeros(len(dofs))
    for kind, (fids, corners) in mesh._facet_corners(facet_ids).items():
        rule = facet_quadrature(kind, 2 * nd.k + 8)
        vals, _ = _basis_table(kind, nd.k, 2 * nd.k + 8)              # (Q, m)
        cls, first = _first_seen(_shape_keys(mesh, corners - corners[:, :1]).reshape(
            len(fids), -1))
        pts = _facet_points(kind, rule.points, corners)                # (F, Q, d)
        tans = _facet_tangents(kind, rule.points, corners[first])  # (C, Q, d, d-1)
        jac = np.linalg.norm(tans[..., 0] if mesh.dimension == 2
                             else np.cross(tans[..., 0], tans[..., 1]), axis=-1)
        w = rule.weights * jac                                         # (C, Q)
        ue = _evaluate_field(g, pts.reshape(-1, mesh.dimension)).reshape(len(fids), -1)
        rows = np.searchsorted(dofs, nd.facet_dofs[nd.facet_start[fids][:, None]
                                                   + np.arange(vals.shape[1])])
        M = np.einsum("fq,qi,qj->fij", w, vals, vals)
        blocks.append((rows, (0.5 * (M + np.swapaxes(M, 1, 2)))[cls]))  # symmetric bit for bit
        np.add.at(b, rows, (w[cls] * ue) @ vals)
    return _cg(BlockOperator(blocks, len(dofs)), b)


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
    """CG solve of the Galerkin system on the DOFs that no pin constrains."""
    K, u = system.K, np.zeros(system.K.n)
    u[system.dirichlet_dofs] = system.dirichlet_values
    free = 1.0 - np.isin(np.arange(K.n), system.dirichlet_dofs)   # float multiplies faster
    rhs = -(K @ u) * free
    u += _cg(K, rhs, free)
    misfit = (K @ u) * free          # K_ff u_f - rhs
    scale = max(np.linalg.norm(rhs), np.linalg.norm(misfit + rhs), 1e-300)
    residual = float(np.linalg.norm(misfit) / scale)
    if not residual <= 1e-10:          # a NaN residual fails too
        raise SolveError(f"solver residual {residual:.2e} exceeds 1e-10")
    return DiscreteSolution(system.mesh, system.numbering, system.operators, u, residual)


def sbfem_interpolate(mesh: PolytopalMesh, k: int, f) -> DiscreteSolution:
    """Radial extension of the nodal trace interpolant of f."""
    numbering = number_dofs(mesh, k)
    return DiscreteSolution(mesh, numbering, build_operators(mesh, numbering),
                            _evaluate_field(f, numbering.coords))

