"""Reference facets and the collapsed-coordinate (Duffy) sector kernels.

A sector is the image of a tensor-product master element [0,1] x L_ref under
the map ``x = a0 + xi * (F_L(eta) - a0)``: the xi=0 face collapses onto the
vertex ``a0`` (the scaling center) and the xi=1 face is the sector's facet L.
Three facet shapes are supported: a segment (collapsed quadrilateral, 2D), a
quadrilateral (collapsed hexahedron -> pyramid) and a triangle (collapsed
prism -> tetrahedron).  A sector is one row of a mesh's sector stacks
(`PolytopalMesh._sector_stacks`); the kernels here take whole stacks.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import GeometryError

# Largest stacked intermediate of a sector kernel (E-matrices, error
# integration per sector), in entries; stacks are cut into chunks below it.
CHUNK_BUDGET = 1 << 14


class FacetKind(Enum):
    SEGMENT = "segment"
    QUADRILATERAL = "quadrilateral"
    TRIANGLE = "triangle"

    @property
    def ambient_dim(self) -> int:
        return 2 if self is FacetKind.SEGMENT else 3

    @property
    def n_vertices(self) -> int:
        return {FacetKind.SEGMENT: 2, FacetKind.QUADRILATERAL: 4,
                FacetKind.TRIANGLE: 3}[self]


def _facet_points(kind: FacetKind, etas: np.ndarray,
                  vertices: np.ndarray) -> np.ndarray:
    """F_L for facet vertices stacked as (..., n_vertices, d): (..., q, d).

    Here and in `_facet_tangents` the vertex terms are summed one by one,
    not by matmul, so that no BLAS kernel changes the rounding.
    """
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    if kind is FacetKind.SEGMENT:
        t = etas[:, 0]
        N = np.column_stack([0.5 * (1.0 - t), 0.5 * (1.0 + t)])
    elif kind is FacetKind.QUADRILATERAL:
        u, v = etas[:, 0], etas[:, 1]
        N = np.column_stack([(1 - u) * (1 - v), (1 + u) * (1 - v),
                             (1 + u) * (1 + v), (1 - u) * (1 + v)]) * 0.25
    else:
        u, v = etas[:, 0], etas[:, 1]
        N = np.column_stack([1.0 - u - v, u, v])
    vs = np.asarray(vertices, dtype=float)[..., None, :, :]
    return (N[..., None] * vs).sum(axis=-2)


def _facet_tangents(kind: FacetKind, etas: np.ndarray,
                    vertices: np.ndarray) -> np.ndarray:
    """dF_L/deta for facet vertices stacked as (..., n_vertices, d):
    (..., q, d, d-1)."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    q = etas.shape[0]
    if kind is FacetKind.SEGMENT:
        dN = np.broadcast_to([[[-0.5, 0.5]]], (q, 1, 2))
    elif kind is FacetKind.QUADRILATERAL:
        u, v = etas[:, 0], etas[:, 1]
        dN = np.stack([np.column_stack([v - 1, 1 - v, 1 + v, -1 - v]),
                       np.column_stack([u - 1, -1 - u, 1 + u, 1 - u])],
                      axis=1) * 0.25
    else:
        dN = np.broadcast_to([[[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]], (q, 2, 3))
    vs = np.asarray(vertices, dtype=float)[..., None, None, :, :]
    return np.swapaxes((dN[..., None] * vs).sum(axis=-2), -1, -2)


def _sector_jacobians(kind: FacetKind, etas: np.ndarray, centres: np.ndarray,
                      vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J(1,eta) of a stack of sectors with centres (..., d) and facet vertices
    (..., n_vertices, d): (..., q, d, d), whose first column is the ray
    F_L(eta) - a0, and the determinants (..., q)."""
    rays = _facet_points(kind, etas, vertices) - centres[..., None, :]
    J = np.concatenate([rays[..., None], _facet_tangents(kind, etas, vertices)],
                       axis=-1)
    return J, np.linalg.det(J)


def _flag_sectors(J: np.ndarray, det: np.ndarray, threshold: float,
                  snap: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Sectors of a stack, J(1,eta) (..., q, d, d) and |J| (..., q), with
    |J| <= threshold x the product of J's column norms somewhere (a test
    relative to the sector's size); and those within reach of it for a copy
    whose offsets from its centre differ by up to `snap` per coordinate: its
    columns move by at most delta = 2 sqrt(d) snap, its |J| by at most
    prod(|c_j| + delta) - prod |c_j| (Hadamard), and twice that also covers
    the change of the column norms."""
    norms = np.sqrt(np.einsum("...ij,...ij->...j", J, J))      # column norms
    scale = norms.prod(axis=-1)
    reach = 2.0 * ((norms + 2.0 * np.sqrt(J.shape[-1]) * snap).prod(axis=-1)
                   - scale)
    return ((det <= threshold * scale).any(axis=-1),
            (det <= threshold * scale + reach).any(axis=-1))


def _check_sectors(J: np.ndarray, det: np.ndarray, owners: np.ndarray,
                   snap: float = 0.0) -> np.ndarray:
    """Raise GeometryError naming (S-element, facet position) `owners[s]` of
    the first sector s of a stack whose J(1,eta) is degenerate or inverted:
    `_flag_sectors` at threshold 1e-14, so a scaled mesh gets the same
    verdict.  Returns the sectors whose copies within `snap` could fail."""
    bad, near = _flag_sectors(J, det, 1e-14, snap)
    if bad.any():
        (e, pos), low = owners[bad][0], det[bad][0].min()
        raise GeometryError(f"S-element {e}, facet {pos}: degenerate or inverted "
                            f"sector (|J(1,eta)| = {low:.3e})")
    return near


def _chunks(n: int, per_member: int) -> list:
    """Slices of a stack of n members, each under CHUNK_BUDGET entries."""
    step = max(1, CHUNK_BUDGET // per_member)
    return [slice(i, i + step) for i in range(0, n, step)]
