"""Reference elements and collapsed-coordinate (Duffy) geometric maps.

A sector is the image of a tensor-product master element [0,1] x L_ref under
the map ``x = a0 + xi * (F_L(eta) - a0)``: the xi=0 face collapses onto the
vertex ``a0`` (the scaling center) and the xi=1 face is the sector's facet L.
Three facet shapes are supported: a segment (collapsed quadrilateral, 2D), a
quadrilateral (collapsed hexahedron -> pyramid) and a triangle (collapsed
prism -> tetrahedron).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GeometryError

_DOMAIN_TOL = 1e-12
# Largest stacked intermediate of a sector kernel (E-matrices, error
# integration), in entries; a stack of sectors is cut into chunks below it.
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


def reference_contains(kind: FacetKind, eta, tol: float = _DOMAIN_TOL) -> bool:
    """Whether eta lies in the reference facet domain of `kind`."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if kind is FacetKind.SEGMENT:
        return bool(abs(eta[0]) <= 1.0 + tol)
    if kind is FacetKind.QUADRILATERAL:
        return bool(np.all(np.abs(eta[:2]) <= 1.0 + tol))
    return bool(eta[0] >= -tol and eta[1] >= -tol and eta[0] + eta[1] <= 1.0 + tol)


@dataclass(frozen=True)
class Sector:
    """One collapsed cell of an S-element: scaling center plus opposite facet."""

    collapsed_vertex: np.ndarray
    facet_vertices: np.ndarray      # ordered, shape (n_vertices, d)
    facet_kind: FacetKind

    def __post_init__(self):
        a0 = np.asarray(self.collapsed_vertex, dtype=float)
        vs = np.asarray(self.facet_vertices, dtype=float)
        object.__setattr__(self, "collapsed_vertex", a0)
        object.__setattr__(self, "facet_vertices", vs)
        if vs.shape != (self.facet_kind.n_vertices, self.facet_kind.ambient_dim):
            raise GeometryError(
                f"facet vertex array {vs.shape} does not match {self.facet_kind}")
        if a0.shape != (self.facet_kind.ambient_dim,):
            raise GeometryError("collapsed vertex dimension mismatch")

    @property
    def dim(self) -> int:
        return self.facet_kind.ambient_dim


@dataclass(frozen=True)
class SectorJacobian:
    """Jacobian of a Duffy map, factored as J(xi,eta) = J(1,eta) diag(1, xi I)."""

    J1: np.ndarray          # d x d, evaluated on the facet (xi = 1)
    detJ1: float
    dim: int

    def detJ_at(self, xi: float) -> float:
        return xi ** (self.dim - 1) * self.detJ1

    def inverse_at(self, xi: float) -> np.ndarray:
        if xi <= 0.0:
            raise GeometryError("Jacobian inverse undefined at the collapsed vertex")
        J1inv = np.linalg.inv(self.J1)
        scale = np.ones(self.dim)
        scale[1:] = 1.0 / xi
        return scale[:, None] * J1inv


def facet_map(sector: Sector, eta) -> np.ndarray:
    """Evaluate the facet parametrization F_L at one reference point."""
    return _facet_points(sector.facet_kind, eta, sector.facet_vertices)[0]


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


def duffy_map(sector: Sector, xi: float, eta) -> np.ndarray:
    """Map (xi, eta) in [0,1] x L_ref to a physical point of the sector."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not (-_DOMAIN_TOL <= xi <= 1.0 + _DOMAIN_TOL):
        raise GeometryError(f"radial coordinate {xi} outside [0,1]")
    if not reference_contains(sector.facet_kind, eta):
        raise GeometryError(f"surface coordinate {eta} outside the reference facet")
    a0 = sector.collapsed_vertex
    return a0 + xi * (facet_map(sector, eta) - a0)


def jacobian_columns_many(sector: Sector, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J(1,eta) = [F_L(eta) - a0 | dF_L/deta] and its determinants, vectorized.

    Returns (J1, det) with J1 of shape (q, d, d) and det of shape (q,).
    """
    J1, det = _sector_jacobians(sector.facet_kind, etas,
                                sector.collapsed_vertex[None],
                                sector.facet_vertices[None])
    return J1[0], det[0]


def _sector_jacobians(kind: FacetKind, etas: np.ndarray, centres: np.ndarray,
                      vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J(1,eta) of a stack of sectors with centres (S, d) and facet vertices
    (S, n_vertices, d): (S, q, d, d), whose first column is the ray
    F_L(eta) - a0, and the determinants (S, q)."""
    rays = _facet_points(kind, etas, vertices) - centres[:, None, :]
    J = np.concatenate([rays[..., None], _facet_tangents(kind, etas, vertices)],
                       axis=-1)
    return J, np.linalg.det(J)


def _chunks(n: int, per_member: int) -> list:
    """Slices of a stack of n members, each under CHUNK_BUDGET entries."""
    step = max(1, CHUNK_BUDGET // per_member)
    return [slice(i, i + step) for i in range(0, n, step)]


def duffy_jacobian(sector: Sector, xi: float, eta) -> SectorJacobian:
    """Jacobian data of the Duffy map at one parametric point."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not (0.0 < xi <= 1.0 + _DOMAIN_TOL):
        raise GeometryError(f"radial coordinate {xi} outside (0,1]")
    if not reference_contains(sector.facet_kind, eta):
        raise GeometryError(f"surface coordinate {eta} outside the reference facet")
    J1, det = jacobian_columns_many(sector, eta[None, :])
    if abs(det[0]) < 1e-14 * max(1.0, float(np.abs(J1).max())) ** sector.dim:
        raise GeometryError(
            f"degenerate sector at eta={eta}: |J(1,eta)| ~ {det[0]:.3e} "
            f"(center {sector.collapsed_vertex}, kind {sector.facet_kind.value})")
    return SectorJacobian(J1=J1[0], detJ1=float(det[0]), dim=sector.dim)
