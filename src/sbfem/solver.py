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
from .errors import AssemblyError, SolveError, SpectrumError
from .mesh import DofNumbering, PolytopalMesh, number_dofs
from .polyspace import facet_quadrature, trace_basis
from .refgeom import FacetKind, _chunks, _facet_points, _facet_tangents


@dataclass
class SElementOperator:
    """Modes, stiffness and local DOFs of one S-element."""

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


def build_operators(mesh: PolytopalMesh,
                    numbering: DofNumbering) -> list[SElementOperator]:
    """E-matrices, modes and stiffness for every S-element.

    The S-elements of a class of the mesh's class table (translated copies)
    share the eigen-solve of its lowest member.  The E-matrices of all class
    representatives are integrated in one stacked pass over their sectors,
    by the facet rule of degree 2k + 2, and their modes in one stack per
    (reduced trace size, constant-trace admissible), cut into chunks under
    `refgeom.CHUNK_BUDGET` Euler-matrix entries.  A SpectrumError names the
    first failing S-element by id.
    """
    k, dofs, local = numbering.k, numbering.selement_dofs, numbering.sector_rows
    reps = np.unique(mesh._sel_class, return_index=True)[1].tolist()
    # the E-matrices of every representative in one stacked pass
    sub = {}
    for kind, (centres, vertices, owners) in mesh._sector_stacks().items():
        mask = np.isin(owners[:, 0], reps)
        if mask.any():
            rows = np.array([local[e][p] for e, p in owners[mask].tolist()])
            sub[kind] = (centres[mask], vertices[mask], owners[mask], rows)
    Es = assemble_E(sub, {e: len(dofs[e]) for e in reps}, mesh.dimension, k,
                    2 * k + 2)
    by_size: dict = {}         # reduced trace size -> representatives, in order
    for c, e in enumerate(reps):
        pinned = np.isin(dofs[e], [numbering.vertex_dof[v]
                                   for v in mesh._dirichlet.get(e, ())])
        E = modes_mod.apply_sideface_bc(Es[e], np.flatnonzero(pinned))
        by_size.setdefault(E.n, []).append((e, c, E, np.flatnonzero(~pinned)))
    errors, solved = [], {}    # class -> the operator fields its members share
    for n, members in by_size.items():
        admissible = _stack_E(members, mesh.dimension).constant_trace_admissible()
        for has in dict.fromkeys(admissible.tolist()):
            group = [m for m, a in zip(members, admissible) if a == has]
            errors += [_stack_modes(group[sl], mesh.dimension, solved)
                       for sl in _chunks(len(group), 4 * n * n)]
    if any(errors):
        raise min(filter(None, errors), key=lambda exc: exc.selement)
    return [SElementOperator(dofs_full=d, sector_rows=rows, **solved[c])
            for d, rows, c in zip(dofs, local, mesh._sel_class.tolist())]


def _stack_E(members, dim: int) -> EMatrices:
    return EMatrices(*(np.array([getattr(m[2], blk) for m in members])
                       for blk in ("E11", "E12", "E22")), dim=dim)


def _stack_modes(members, dim: int, solved: dict):
    """Modes and stiffness of a stack of class representatives (S-element
    id, class, E-matrices, kept local DOFs), stored in `solved`.  Returns
    None or the SpectrumError of the first member to fail any guard: when
    member j fails one, the members before j go through all guards again."""
    ids = [e for e, _, _, _ in members]
    try:
        md = modes_mod.select_modes(
            modes_mod.build_system(_stack_E(members, dim), dim, ids), ids)
        K = modes_mod.element_stiffness(md, ids).K
    except SpectrumError as exc:
        j = ids.index(exc.selement)
        return (j and _stack_modes(members[:j], dim, solved)) or exc
    for j, (_, c, E, kept) in enumerate(members):
        solved[c] = dict(E=E, modes=md[j], K=K[j], kept_local=kept)
    return None


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
    dirichlet: dict = field(default_factory=dict)   # dof -> value


def assemble_global(mesh: PolytopalMesh, k: int) -> GlobalSystem:
    """Scatter S-element (and FE element) stiffness into the skeleton system."""
    numbering = number_dofs(mesh, k)
    ops = build_operators(mesh, numbering)
    n = numbering.n_total
    fe_K = [fe_element_stiffness(mesh.vertices[quad], k) for quad in mesh._quads()[
        np.unique(mesh._fe_class, return_index=True)[1]]]
    blocks = [(op.dofs_kept, op.K) for op in ops] + [
        (numbering.fe_nodes[q], fe_K[c]) for q, c in enumerate(mesh._fe_class.tolist())]
    system = GlobalSystem(mesh=mesh, numbering=numbering, operators=ops,
                          K=_scatter(blocks, n))
    # side-face Dirichlet traces are pinned to zero from the start
    system.dirichlet.update((numbering.vertex_dof[v], 0.0)
                            for pins in mesh._dirichlet.values() for v in pins)
    empty = np.flatnonzero(np.diff(system.K.indptr) == 0)   # rows in no block
    dangling = empty[~np.isin(empty, list(system.dirichlet))]
    if dangling.size:
        raise AssemblyError(f"{dangling.size} DOFs receive no element "
                            f"contribution (first: {dangling[:5].tolist()})")
    return system


def _scatter(blocks, n: int) -> scipy.sparse.csr_matrix:
    """(n, n) sum of blocks (DOFs (m,), matrix (m, m)), one scatter per m."""
    parts = []
    for m in dict.fromkeys(len(d) for d, _ in blocks):
        dofs = np.array([d for d, _ in blocks if len(d) == m])        # (B, m)
        parts.append((np.array([Kel for d, Kel in blocks if len(d) == m]).ravel(),
                      np.repeat(dofs, m, axis=1).ravel(), np.tile(dofs, m).ravel()))
    vals, rows, cols = (np.concatenate(p) for p in zip(*parts))
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
    if dofs.size == 0 and not system.dirichlet:
        raise SolveError("no Dirichlet boundary: the Laplace system is singular")
    if method == "nodal":
        values = _evaluate_field(g, system.numbering.coords[dofs])
    elif method == "project":
        values = _project_trace(system, g, facet_ids, dofs)
    else:
        raise SolveError(f"unknown Dirichlet method '{method}'")
    for dof, val in zip(dofs.tolist(), values.tolist()):
        system.dirichlet.setdefault(dof, val)   # keep the side-face pins
    return system


def _project_trace(system: GlobalSystem, g, facet_ids, dofs) -> np.ndarray:
    """L2 projection of g onto the trace space of the given facets (sorted
    DOFs `dofs`): one stacked pass per facet kind, one sparse mass solve."""
    if dofs.size == 0:
        return np.zeros(0)
    mesh, k = system.mesh, system.numbering.k
    blocks, b = [], np.zeros(len(dofs))
    for kind, (fids, corners) in mesh._facet_corners(facet_ids).items():
        rule = facet_quadrature(kind, 2 * k + 8)
        vals, _ = trace_basis(kind, k).eval_many(rule.points)          # (Q, m)
        pts = _facet_points(kind, rule.points, corners)                # (F, Q, d)
        tans = _facet_tangents(kind, rule.points, corners)        # (F, Q, d, d-1)
        jac = np.linalg.norm(tans[..., 0] if mesh.dimension == 2
                             else np.cross(tans[..., 0], tans[..., 1]), axis=-1)
        w = rule.weights * jac                                         # (F, Q)
        ue = _evaluate_field(g, pts.reshape(-1, mesh.dimension)).reshape(w.shape)
        rows = np.searchsorted(dofs, [system.numbering.facet_nodes[f] for f in fids])
        blocks += zip(rows, np.einsum("fq,qi,qj->fij", w, vals, vals))
        np.add.at(b, rows, (w * ue) @ vals)
    return scipy.sparse.linalg.splu(_scatter(blocks, len(dofs)).tocsc()).solve(b)


def _evaluate_field(g, coords: np.ndarray) -> np.ndarray:
    """Values of a field (callable on points, or a constant) at coords."""
    return np.full(coords.shape[0], g(coords) if callable(g) else g, dtype=float)


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
        rhs = -(Kf[:, pinned] @ pinned_vals)
        try:
            lu = scipy.sparse.linalg.splu(Kff)
            u[free] = lu.solve(rhs)
        except RuntimeError as exc:
            raise SolveError(f"sparse factorization failed: {exc}") from exc
        Ku = Kff @ u[free]
        scale = max(np.linalg.norm(rhs), np.linalg.norm(Ku), 1e-300)
        residual = float(np.linalg.norm(Ku - rhs) / scale)
        if not residual <= 1e-10:          # a NaN residual fails too
            raise SolveError(f"solver residual {residual:.2e} exceeds 1e-10")
    else:
        residual = 0.0
    return DiscreteSolution(mesh=system.mesh, numbering=system.numbering,
                            operators=system.operators, nodal=u,
                            coefficients=_modal_coefficients(system.operators, u),
                            residual=residual)


def sbfem_interpolate(mesh: PolytopalMesh, k: int, f,
                      operators: list | None = None,
                      numbering: DofNumbering | None = None) -> DiscreteSolution:
    """Radial extension of the nodal trace interpolant of f."""
    if numbering is None:
        numbering = number_dofs(mesh, k)
    if operators is None:
        operators = build_operators(mesh, numbering)
    nodal = _evaluate_field(f, numbering.coords)
    return DiscreteSolution(mesh=mesh, numbering=numbering,
                            operators=operators, nodal=nodal,
                            coefficients=_modal_coefficients(operators, nodal))


def _modal_coefficients(operators: list, nodal: np.ndarray) -> list:
    """Complex modal coefficients of every S-element reproducing the nodal
    values: one stacked solve A c = u per mode count."""
    coeffs = {}
    for n in {op.modes.n for op in operators}:
        ids = [i for i, op in enumerate(operators) if op.modes.n == n]
        A = np.array([operators[i].modes.A for i in ids])
        u = np.array([nodal[operators[i].dofs_kept] for i in ids])
        coeffs.update(zip(ids, np.linalg.solve(A, u[..., None])[..., 0]))
    return [coeffs[i] for i in range(len(operators))]
