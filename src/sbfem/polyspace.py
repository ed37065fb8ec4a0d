"""Polynomial trace spaces on reference facets and quadrature rules.

Nodal Lagrange bases on equispaced nodes: P_k on the segment [-1,1] and on
the unit triangle, Q_{k,k} on the quadrilateral [-1,1]^2.  Quadrature is
Gauss-Legendre based; the triangle rule is a Duffy tensorization of 1D Gauss
rules, and the radial rule on [0,1] supports composite geometric subdivision
with a Gauss-Jacobi cell next to the origin for weakly singular integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .refgeom import FacetKind

MAX_DEGREE = 8
# each cell of a composite radial rule spans this fraction of [0, hi] below
# the one before it, so the cells shrink geometrically toward xi = 0
COMPOSITE_RATIO = 0.2


def _monomial_powers(kind: FacetKind, k: int) -> np.ndarray:
    """Exponents of the trace space's monomials, one row per basis function;
    row n also indexes lattice node n (quad: n = j*(k+1) + i, i fastest)."""
    if kind is FacetKind.SEGMENT:
        return np.arange(k + 1)[:, None]
    if kind is FacetKind.QUADRILATERAL:
        i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        return np.column_stack([i.ravel(order="F"), j.ravel(order="F")])
    pows = [(i, j) for j in range(k + 1) for i in range(k + 1 - j)]
    return np.array(pows, dtype=int)


def _monomials(etas: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monomials eta^powers at q points (q, m) and their eta-gradients
    stacked by direction (d-1, q, m)."""
    mono = (etas[:, None, :] ** powers).prod(axis=-1)
    # d/d eta_v: exponent p_v - 1, floored at 0 where the factor p_v is 0
    lowered = np.maximum(powers - np.eye(powers.shape[1], dtype=int)[:, None, :], 0)
    grads = (etas[None, :, None, :] ** lowered[:, None]).prod(axis=-1) * powers.T[:, None]
    return mono, grads


@dataclass(frozen=True)
class TraceBasis:
    """Nodal Lagrange basis for the trace space V_k on a reference facet."""

    nodes: np.ndarray          # (m, d-1)
    powers: np.ndarray         # monomial exponents, (m, d-1)
    coeffs: np.ndarray         # inverse Vandermonde: column l = basis function l

    def __post_init__(self):   # cached and shared between callers
        for a in (self.nodes, self.powers, self.coeffs):
            a.flags.writeable = False

    def eval_many(self, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Basis values and eta-gradients at several points.

        Returns (values, grads) with shapes (q, m) and (q, d-1, m).
        """
        mono, grads = _monomials(np.atleast_2d(np.asarray(etas, dtype=float)),
                                 self.powers)
        # one (q, m) @ (m, m) product per direction; (q, d-1, m) @ (m, m) rounds otherwise
        return mono @ self.coeffs, np.ascontiguousarray(
            (grads @ self.coeffs).transpose(1, 0, 2))


@lru_cache(maxsize=None)
def trace_basis(kind: FacetKind, k: int) -> TraceBasis:
    """Equispaced nodal basis of degree k on the given reference facet."""
    if k < 1:
        raise QuadratureError(f"trace degree must be >= 1, got {k}")
    if k > MAX_DEGREE:
        raise QuadratureError(
            f"trace degree {k} exceeds the supported maximum {MAX_DEGREE} "
            "(equispaced nodes become too ill-conditioned)")
    powers = _monomial_powers(kind, k)
    ticks = (np.arange(k + 1) / k if kind is FacetKind.TRIANGLE
             else np.linspace(-1.0, 1.0, k + 1))
    nodes = ticks[powers]
    coeffs = np.linalg.inv(_monomials(nodes, powers)[0])
    return TraceBasis(nodes=nodes, powers=powers, coeffs=coeffs)


@dataclass(frozen=True)
class QuadratureRule:
    """Points and positive weights on a reference domain."""

    points: np.ndarray      # (n, dim) -- dim 1 for segment/radial rules
    weights: np.ndarray

    def __post_init__(self):   # cached and shared between callers
        for a in (self.points, self.weights):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.points.shape[0]


def _gauss_jacobi(n: int, b: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 + x)^b on [-1, 1] (Golub & Welsch
    1969): eigenvalues of the Jacobi matrix, one Newton step on the orthonormal
    recurrence, Christoffel weights 1 / sum_j p_j(x)^2 scaled to sum to the
    weight's integral mu0 (rounded nodes near -1 leave the raw sum off by up to
    3e-13 relative for b near -1)."""
    mu0 = 2.0 ** (b + 1.0) / (b + 1.0)
    k = np.arange(1.0, n + 1.0)
    s = 2.0 * k + b
    alpha = np.append(b / (b + 2.0), b * b / (s[:-1] * (s[:-1] + 2.0)))
    beta = 2.0 * k * (k + b) / (s * np.sqrt((s - 1.0) * (s + 1.0)))

    def recurrence(x):  # p_0..p_n and their derivatives; row -1 is row n, zero at j = 0
        p, dp = np.zeros((2, n + 1, n))
        p[0] = 1.0 / np.sqrt(mu0)
        for j in range(n):
            t = x - alpha[j]
            p[j + 1] = (t * p[j] - beta[j - 1] * p[j - 1]) / beta[j]
            dp[j + 1] = (p[j] + t * dp[j] - beta[j - 1] * dp[j - 1]) / beta[j]
        return p, dp

    x = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta[:-1], -1))
    p, dp = recurrence(x)
    x = x - p[n] / dp[n]
    w = 1.0 / (recurrence(x)[0][:n] ** 2).sum(axis=0)
    return x, w * (mu0 / w.sum())


def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gauss_jacobi(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def facet_quadrature(kind: FacetKind, order: int) -> QuadratureRule:
    """Rule on the reference facet exact for polynomials of total degree `order`."""
    if order < 1:
        raise QuadratureError(f"quadrature order must be >= 1, got {order}")
    n = (order + 2) // 2
    x, w = _gauss_jacobi(n)
    if kind is FacetKind.SEGMENT:
        return QuadratureRule(points=x[:, None], weights=w)
    if kind is FacetKind.QUADRILATERAL:
        u, v = np.meshgrid(x, x, indexing="ij")
        ww = np.outer(w, w)
        return QuadratureRule(np.column_stack([u.ravel(), v.ravel()]), ww.ravel())
    # Duffy tensorization: eta = (u(1-v), u v) with Jacobian u picks up one
    # extra power in the u direction.  It singles out vertex 0, so it is
    # averaged over the three cyclic rotations of the vertices.
    nu = (order + 3) // 2
    xu, wu = _gauss01(nu)
    xv, wv = _gauss01(n)
    u, v = np.meshgrid(xu, xv, indexing="ij")
    x, y = (u * (1.0 - v)).ravel(), (u * v).ravel()
    z = 1.0 - x - y
    pts = np.column_stack([np.concatenate([x, z, y]), np.concatenate([y, x, z])])
    ww = np.tile(np.outer(wu * xu, wv).ravel() / 3.0, 3)
    return QuadratureRule(points=pts, weights=ww)


@lru_cache(maxsize=None)
def _basis_table(kind: FacetKind, k: int, order: int) -> tuple:
    """Read-only `trace_basis(kind, k).eval_many` at the points of
    `facet_quadrature(kind, order)`: values (Q, m), eta-gradients (Q, d-1, m)."""
    table = trace_basis(kind, k).eval_many(facet_quadrature(kind, order).points)
    for a in table:
        a.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def radial_quadrature(exponent_floor: float, order: int,
                      composite_levels: int = 0) -> QuadratureRule:
    """Rule on [0,1] for integrands behaving like xi^exponent_floor near 0.

    `order` is the Gauss point count per subinterval.  With
    ``composite_levels == 0`` (or a benign exponent) this is a plain Gauss
    rule.  Otherwise the interval is subdivided geometrically toward 0, each
    cell COMPOSITE_RATIO times the length of the one outside it, and the
    innermost cell uses the Gauss-Jacobi rule of the weight xi^b,
    b = min(exponent_floor, 0), whose weights absorb that factor.
    """
    if exponent_floor <= -1.0:
        raise QuadratureError(
            f"exponent floor {exponent_floor} <= -1: integrand is not integrable")
    if order < 1:
        raise QuadratureError(f"radial order must be >= 1, got {order}")
    if composite_levels < 0:
        raise QuadratureError("composite_levels must be non-negative")
    if composite_levels == 0 or exponent_floor >= 1.0:
        x, w = _gauss01(order)
        return QuadratureRule(points=x[:, None], weights=w)
    pts, wts = [], []
    hi = 1.0
    x01, w01 = _gauss01(order)
    for _ in range(composite_levels):
        lo = hi * COMPOSITE_RATIO
        pts.append(lo + (hi - lo) * x01)
        wts.append((hi - lo) * w01)
        hi = lo
    # the rule for the weight (1+x)^b on [-1,1], b = min(floor, 0), mapped to
    # [0, hi], carries weight x^b; fold the weight into the returned weights
    # so callers integrate the raw integrand (at b = 0, the plain Gauss cell)
    b = min(exponent_floor, 0.0)
    xj, wj = _gauss_jacobi(order, b)
    x = hi * 0.5 * (xj + 1.0)
    pts.append(x)
    wts.append(wj * (hi / 2.0) ** (b + 1.0) / x ** b)
    points = np.concatenate(pts)[::-1]
    weights = np.concatenate(wts)[::-1]
    return QuadratureRule(points=points[:, None], weights=weights)
