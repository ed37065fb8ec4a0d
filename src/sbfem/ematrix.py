"""Per-sector B-vectors and the assembled boundary coefficient matrices.

The gradient of a separable function rho(xi) * alpha(eta) on a sector is
``B1 alpha rho'(xi) + B2 alpha rho(xi)/xi`` with the columns of B1, B2 built
from the trace shape functions and the inverse surface Jacobian.  Gram
matrices of these columns over the scaled boundary (weighted by |J(1,eta)|)
give the four coefficient matrices E11, E12, E21, E22 of the radial ODE:
E12 is the B1-B2 cross Gram and E21 its transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, GeometryError
from .polyspace import QuadratureRule, TraceBasis, facet_quadrature
from .refgeom import Sector, jacobian_columns_many


@dataclass(frozen=True)
class SectorE:
    """Boundary coefficient matrices of a single sector."""

    E11: np.ndarray
    E12: np.ndarray
    E21: np.ndarray
    E22: np.ndarray


@dataclass
class EMatrices:
    """Assembled coefficient matrices of an S-element over its scaled boundary."""

    E11: np.ndarray
    E12: np.ndarray
    E21: np.ndarray
    E22: np.ndarray
    dim: int
    dof_map: np.ndarray        # local trace index -> global skeleton dof id

    @property
    def n(self) -> int:
        return self.E11.shape[0]

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.E11, self.E12, self.E21, self.E22

    def condition_number(self) -> float:
        """Spectral condition number of the (positive definite) E11 block."""
        w = np.linalg.eigvalsh(self.E11)
        if w.min() <= 0:
            return np.inf
        return float(w.max() / w.min())

    def constant_trace_admissible(self, tol: float = 1e-10) -> bool:
        """True when the all-ones trace is gradient-free (E12 1 = E22 1 = 0)."""
        ones = np.ones(self.n)
        scale = max(np.linalg.norm(self.E22), np.linalg.norm(self.E12), 1e-300)
        return bool(np.linalg.norm(self.E22 @ ones) <= tol * scale
                    and np.linalg.norm(self.E12 @ ones) <= tol * scale)


def sector_B_many(sector: Sector, basis: TraceBasis,
                  etas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def sector_E(sector: Sector, basis: TraceBasis, rule: QuadratureRule) -> SectorE:
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


def assemble_E(sector_data, n_local: int, dim: int, dof_map: np.ndarray,
               quad_order_for=facet_quadrature) -> EMatrices:
    """Assemble sector matrices into the S-element coefficient matrices.

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
    return EMatrices(E11=E11, E12=E12, E21=E12.T.copy(), E22=E22,
                     dim=dim, dof_map=np.asarray(dof_map))
