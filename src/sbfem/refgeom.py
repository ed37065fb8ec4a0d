"""Reference facets and the collapsed-coordinate (Duffy) sector kernels.

A sector is the image of a tensor-product master element [0,1] x L_ref under
the map ``x = a0 + xi * (F_L(eta) - a0)``: the xi=0 face collapses onto the
vertex ``a0`` (the scaling center) and the xi=1 face is the sector's facet L.
Three facet shapes are supported: a segment (collapsed quadrilateral, 2D), a
quadrilateral (collapsed hexahedron -> pyramid) and a triangle (collapsed
prism -> tetrahedron).  A sector is one row of a mesh's sector stacks
(`PolytopalMesh._stacks`); the kernels here take whole stacks.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

# Largest stacked intermediate of a sector kernel (E-matrices, error
# integration per sector), in entries; stacks are cut into chunks below it.
CHUNK_BUDGET = 1 << 14
_CYCLE = ((1, 2), (2, 0), (0, 1))


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
    """F_L for facet vertices stacked as (..., n_vertices, d): (..., q, d)."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    if kind is FacetKind.SEGMENT:
        t = etas[:, 0]
        N = np.stack([0.5 * (1.0 - t), 0.5 * (1.0 + t)])
    elif kind is FacetKind.QUADRILATERAL:
        u, v = etas[:, 0], etas[:, 1]
        N = np.stack([(1 - u) * (1 - v), (1 + u) * (1 - v),
                      (1 + u) * (1 + v), (1 - u) * (1 + v)]) * 0.25
    else:
        u, v = etas[:, 0], etas[:, 1]
        N = np.stack([1.0 - u - v, u, v])
    return np.swapaxes(_vertex_sum(N, vertices), -1, -2)


def _facet_tangents(kind: FacetKind, etas: np.ndarray,
                    vertices: np.ndarray) -> np.ndarray:
    """dF_L/deta for facet vertices stacked as (..., n_vertices, d):
    (..., q, d, d-1)."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    q = etas.shape[0]
    if kind is FacetKind.SEGMENT:
        dN = np.broadcast_to([[[-0.5]], [[0.5]]], (2, q, 1))
    elif kind is FacetKind.QUADRILATERAL:
        u, v = etas[:, 0], etas[:, 1]
        dN = np.stack([np.stack([v - 1, 1 - v, 1 + v, -1 - v]),
                       np.stack([u - 1, -1 - u, 1 + u, 1 - u])], axis=-1) * 0.25
    else:
        dN = np.broadcast_to([[[-1.0, -1.0]], [[1.0, 0.0]], [[0.0, 1.0]]], (3, q, 2))
    return np.swapaxes(_vertex_sum(dN, vertices), -3, -2)


def _vertex_sum(W: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """sum_c W[c] vertices[..., c, :], coordinate-major, for weights W
    (n_vertices, q[, t]) and vertices (..., n_vertices, d): (..., d, q[, t]),
    added term by term from +0.0 as a sum over the vertex axis adds them;
    not by matmul, whose BLAS kernel would change the rounding.  Each term is
    a coordinate column (..., d, 1[, 1]) times a weight row (q[, t]), so the
    inner loop runs over the weights rather than the d coordinates; the
    terms are added in place."""
    vs, tail = np.asarray(vertices, dtype=float), (None,) * (W.ndim - 1)
    out = vs[(..., 0, slice(None)) + tail] * W[0]
    out += 0.0                               # as 0.0 + term: -0.0 becomes 0.0
    for c in range(1, len(W)):
        out += vs[(..., c, slice(None)) + tail] * W[c]
    return out


def _sector_jacobians(kind: FacetKind, etas: np.ndarray, centres: np.ndarray,
                      vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J(1,eta) of a stack of sectors with centres (..., d) and facet vertices
    (..., n_vertices, d): (..., q, d, d), whose first column is the ray
    F_L(eta) - a0, and the determinants (..., q)."""
    rays = _facet_points(kind, etas, vertices) - centres[..., None, :]
    J = np.concatenate([rays[..., None], _facet_tangents(kind, etas, vertices)],
                       axis=-1)
    return J, _det(J)


def _cofactors(J: np.ndarray, rows) -> list:
    """Cofactors C[r][c] in the given rows of a stack of 2x2 or 3x3 matrices
    (..., d, d), as (...) arrays in closed form: LAPACK would factor each
    tiny matrix on its own.  The cyclic index pairs carry the 3x3 signs."""
    if J.shape[-1] == 2:
        return [[(-1) ** (r + c) * J[..., 1 - r, 1 - c] for c in (0, 1)] for r in rows]
    return [[J[..., r1, c1] * J[..., r2, c2] - J[..., r1, c2] * J[..., r2, c1]
             for c1, c2 in _CYCLE] for r1, r2 in (_CYCLE[r] for r in rows)]


def _det(J: np.ndarray, C=None) -> np.ndarray:
    """Determinants of a stack of 2x2 or 3x3 matrices, by first-row cofactors."""
    return sum(J[..., 0, c] * x for c, x in enumerate((C or _cofactors(J, [0]))[0]))


def _inv(J: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2x2 or 3x3 matrices: the adjugate over |J|."""
    C = _cofactors(J, range(J.shape[-1]))
    det = _det(J, C)
    return np.stack([x / det for col in zip(*C) for x in col], axis=-1).reshape(J.shape)


def _chunks(n: int, per_member: int) -> list:
    """Slices of a stack of n members, each under CHUNK_BUDGET entries."""
    step = max(1, CHUNK_BUDGET // per_member)
    return [slice(i, i + step) for i in range(0, n, step)]
