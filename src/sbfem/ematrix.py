"""B-vectors and the assembled boundary coefficient matrices.

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

from .polyspace import _basis_table, facet_quadrature
from .refgeom import _chunks, _inv, _sector_jacobians


@dataclass
class EMatrices:
    """Assembled coefficient matrices of an S-element over its scaled boundary,
    or of a stack of S-elements along a leading axis."""

    E11: np.ndarray
    E12: np.ndarray
    E22: np.ndarray

    @property
    def n(self) -> int:
        return self.E11.shape[-1]

    @property
    def E21(self) -> np.ndarray:
        return np.swapaxes(self.E12, -1, -2)

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.E11, self.E12, self.E21, self.E22

    def __getitem__(self, j) -> "EMatrices":
        """Member j (or a slice) of a stack, as views into its arrays."""
        return EMatrices(self.E11[j], self.E12[j], self.E22[j])

    def condition_number(self):
        """Spectral condition number of the E11 block; inf where it is not
        positive definite."""
        w = np.linalg.eigvalsh(self.E11)
        with np.errstate(divide="ignore"):
            return np.where(w[..., 0] > 0, w[..., -1] / w[..., 0], np.inf)[()]


def assemble_E(stacks: dict, rows: dict, members: np.ndarray, n: int, k: int,
               order: int) -> EMatrices:
    """Coefficient matrices of a stack of S-elements from their sectors.

    `stacks` maps a facet kind to (centres (S, d), facet vertices
    (S, n_vertices, d), owners (S, 2)), where sector s is facet position
    owners[s, 1] of S-element owners[s, 0], and `rows` maps it to (S, m),
    where rows[s, l] is the trace index there of shape function l, or -1 for
    a shape function left out (a pinned DOF).  The sectors of the ascending
    S-element ids `members`, of trace size n, are integrated by the facet
    rule of `order` in chunks of at most `refgeom.CHUNK_BUDGET` entries;
    registration has checked every sector (`PolytopalMesh._check_star_shape`).
    Returns the stack (len(members), n, n): member j's blocks at j, which
    receive its sectors in kind and sector order.
    """
    flat = np.zeros((3, len(members) * n * n))         # E11, E12, E22
    for kind, (centres, vertices, owners) in stacks.items():
        mine = np.flatnonzero(np.isin(owners[:, 0], members))
        rule = facet_quadrature(kind, order)
        N, dN = _basis_table(kind, k, order)              # (Q, m), (Q, d-1, m)
        for sl in _chunks(len(mine), N.size * centres.shape[1]):
            s = mine[sl]
            J, det = _sector_jacobians(kind, rule.points, centres[s], vertices[s])
            JinvT = np.swapaxes(_inv(J), -1, -2)
            B1 = JinvT[..., :1] * N[:, None, :]               # (S, Q, d, m)
            B2 = JinvT[..., 1:] @ dN
            w = rule.weights * det
            E11 = np.einsum("sq,sqdi,sqdj->sij", w, B1, B1)
            E12 = np.einsum("sq,sqdi,sqdj->sij", w, B1, B2)
            E22 = np.einsum("sq,sqdi,sqdj->sij", w, B2, B2)
            j, r = np.searchsorted(members, owners[s, 0]), rows[kind][s]
            at = (j[:, None, None] * n + r[:, :, None]) * n + r[:, None, :]
            keep = (r[:, :, None] >= 0) & (r[:, None, :] >= 0)
            for blk, E in zip(flat, (0.5 * (E11 + np.swapaxes(E11, 1, 2)), E12,
                                     0.5 * (E22 + np.swapaxes(E22, 1, 2)))):
                np.add.at(blk, at[keep], E[keep])
    return EMatrices(*flat.reshape(3, -1, n, n))
