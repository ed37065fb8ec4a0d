"""Error norms against exact solutions, convergence rates, CSV emission."""

from __future__ import annotations

import io
import operator
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, SbfemError
from .modes import _min_positive
from .polyspace import _basis_table, facet_quadrature, radial_quadrature
from .mesh import _first_seen
from .refgeom import (FacetKind, _chunks, _det, _facet_points, _facet_tangents,
                      _inv, _sector_jacobians)
from .solver import DiscreteSolution

SINGULAR_COMPOSITE_LEVELS = 8
# A radial floor lambda_min - 1 within this of 0 is round-off on an exact
# exponent-1 (linear) mode, not a singularity: it gets the plain Gauss rule.
RADIAL_FLOOR_TOL = 1e-8


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form harmonic reference solution.  `value_and_gradient` shares
    the work of both fields; `value` and `gradient` default to its parts."""

    name: str
    dim: int
    value_and_gradient: object  # (n, d) -> values (n,), gradients (n, d)
    neumann_predicate: object = None   # facet midpoints (F, d) -> True: natural BC
    value: object = None       # (n, d) -> (n,)
    gradient: object = None    # (n, d) -> (n, d)
    waves: tuple = ()          # (a, kappa) pairs: u = sum Im(a exp(kappa . x))

    def __post_init__(self):
        for j, name in enumerate(("value", "gradient")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, lambda x, j=j:
                                   self.value_and_gradient(x)[j])

    def dirichlet_facets(self, mesh) -> list[int]:
        fids = mesh.boundary_facet_ids()
        if self.neumann_predicate is None:
            return fids
        return np.sort(np.concatenate([
            np.array(ids)[~self.neumann_predicate(corners.mean(axis=1))]
            for ids, corners in mesh._facet_corners(fids).values()])).tolist()


def _exp_parts(x, kappa, a=1.0):
    """Re and Im of a_k exp(kappa_k . x), (..., K) each, at points x (..., d)
    for directions kappa (K, d), by real exp, cos and sin."""
    theta, e = x @ kappa.imag.T, a * np.exp(x @ kappa.real.T)
    return e * np.cos(theta), e * np.sin(theta)


EXP2D_WAVES = ((1.0, (np.pi, 1j * np.pi)),)
EXP3D_WAVES = ((4.0, (0.25 * np.pi, 0.25j * np.pi, 0.0)),
               (4.0, (0.0, 0.25 * np.pi, 0.25j * np.pi)))


def _exp2d(x, gradient=True):
    e, s = np.exp(np.pi * x[:, 0]), np.sin(np.pi * x[:, 1])
    if not gradient:
        return e * s
    return e * s, np.pi * np.column_stack([e * s, e * np.cos(np.pi * x[:, 1])])


def _exp3d(x, gradient=True):
    q = 0.25 * np.pi
    ex, ey = np.exp(q * x[:, 0]), np.exp(q * x[:, 1])
    a, b = ex * np.sin(q * x[:, 1]), ey * np.sin(q * x[:, 2])
    if not gradient:
        return 4.0 * (a + b)
    return 4.0 * (a + b), np.pi * np.column_stack([
        a, ex * np.cos(q * x[:, 1]) + b, ey * np.cos(q * x[:, 2])])


def _sqrt2d(x, gradient=True):
    r = np.sqrt(x[:, 0] + 1j * np.abs(x[:, 1]))
    if not gradient:
        return 2.0 ** 0.25 * r.real
    df = 0.5 / r
    return 2.0 ** 0.25 * r.real, 2.0 ** 0.25 * np.column_stack([df.real, -df.imag])


# value-only callers (Dirichlet data, interpolation) skip the gradients; the
# wave tables match the closed forms to round-off, not bit for bit
EXACT_SOLUTIONS = {
    "exp2d": ExactSolution("exp2d", 2, _exp2d, value=lambda x: _exp2d(x, False),
                           waves=EXP2D_WAVES),
    "exp3d": ExactSolution("exp3d", 3, _exp3d, value=lambda x: _exp3d(x, False),
                           waves=EXP3D_WAVES),
    "sqrt2d": ExactSolution(
        "sqrt2d", 2, _sqrt2d,
        neumann_predicate=lambda mid: (abs(mid[:, 1]) < 1e-12) & (mid[:, 0] > 0.0),
        value=lambda x: _sqrt2d(x, False)),
    "const": ExactSolution("const", 0, lambda x: (np.ones(x.shape[0]),
                                                  np.zeros_like(x))),
}


def get_exact(name: str) -> ExactSolution:
    try:
        return EXACT_SOLUTIONS[name]
    except KeyError:
        raise SbfemError(f"unknown exact solution '{name}'; registered: "
                         f"{sorted(EXACT_SOLUTIONS)}") from None


def solution_errors(solution: DiscreteSolution, exact: ExactSolution,
                    facet_order: int | None = None, radial_points: int | None = None,
                    composite_levels: int | None = None) -> tuple[float, float]:
    """(L2, energy) errors of a discrete solution against an exact one.

    The facet rule has degree `facet_order` (default 2k + 4); the radial
    rules have at least `radial_points` points per cell (default 2k + 8) and
    `composite_levels` cells (default: from the exponents, `_radial_rules`);
    each is read by `operator.index`, or a QuadratureError names it.

    A class is the sectors at one facet position of the S-elements of one
    congruence class (`PolytopalMesh._register`), in S-element order.  Its
    members are translated copies: the J(1,eta), rays F_L(eta) - a0, weights
    |J(1,eta)| and mode fields of its first member serve them all, and each
    member gets its own centre a0 and coefficients; registration has checked
    every sector.  Classes are grouped by (mode count, size, radial rule,
    complex exponent or not).  The modes are closed under conjugation, so
    their real parts span u_h once mode j is turned by -i where Im lambda_j
    < 0: a group solves A_r C = U (A_r the real part of the turned A) once
    for the real coefficients of its classes (members in id order as
    right-hand sides) and makes their radial factors and trace modes (a
    zero row for a side-face pin's -1), real unless an exponent is complex,
    once; its facet kinds go in turn, each with the representatives'
    J(1,eta) and inverse.  A pass is cut into chunks, a big class into
    member blocks, by sectors x R x Q d within `refgeom.CHUNK_BUDGET` (R
    radial, Q facet points).  For blocks of s sectors and up to m members,
    each chunk contracts either the coefficients first, an operand F x C of
    s (1 + d) n_modes Q m entries per block, or, when R <= m, a mode basis
    of s (1 + d) R Q n_modes made once for all its blocks; the error sums
    are row sums of squares of the s (1 + d) R Q m output.  FE quads go in
    chunks of Q d entries each.  An exact solution's plane waves
    (`ExactSolution.waves`) are 2K more columns of a mode basis, whose
    matmul then gives u_h - u; coefficient-first chunks, FE quads and
    solutions without waves (sqrt2d, const) subtract `value_and_gradient`.
    """
    k = solution.numbering.k
    facet_order = _integer("facet_order", facet_order, 2 * k + 4)
    radial_points = _integer("radial_points", radial_points, 2 * k + 8)
    composite_levels = _integer("composite_levels", composite_levels, None)
    if radial_points < 1:        # facet_quadrature refuses facet_order < 1
        raise QuadratureError(f"radial order must be >= 1, got {radial_points}")
    mesh, ops, nd = solution.mesh, solution.operators, solution.numbering
    d = mesh.dimension
    if exact.dim not in (0, d):
        raise SbfemError(f"exact solution '{exact.name}' is {exact.dim}D but the "
                         f"mesh is {d}D")
    kinds, owners = list(mesh._stacks), [o for *_, o in mesh._stacks.values()]
    kind = np.repeat(np.arange(len(kinds)), [len(o) for o in owners])
    row = np.concatenate([np.arange(len(o)) for o in owners])
    e, pos = np.concatenate(owners).T
    cls = mesh._sel_class[e]
    order = np.lexsort((e, pos, cls))
    start = np.flatnonzero(np.diff(cls[order], prepend=-1)
                           | np.diff(pos[order], prepend=-1))
    size = np.diff(start, append=len(order))
    first = order[start]
    # the radial rule of each class, named by its representative; groups of
    # classes by (mode count, size, rule, pair) in order of appearance
    rules = _radial_rules(ops, np.unique(mesh._sel_class, return_index=True)[1],
                          k, d, radial_points, composite_levels)
    lams = [op.modes.lambdas for op in ops]
    n_modes, c = np.array(list(map(len, lams))), cls[first]
    paired = np.logical_or.reduceat(np.concatenate(lams).imag != 0.0,
                                    np.cumsum(n_modes) - n_modes)
    group = _first_seen(np.column_stack([n_modes[c], size, np.array(rules)[c],
                                         paired[c]]) + 0.0)[0]
    waves = tuple(map(np.array, zip(*exact.waves)))     # amplitudes, directions
    sums = np.zeros(2)
    for i in (np.flatnonzero(group == g) for g in range(group.max() + 1)):
        m, n = int(size[i[0]]), int(n_modes[c[i[0]]])
        rad = radial_quadrature(*rules[c[i[0]]])
        xis = rad.points[:, 0]
        wxi = rad.weights * xis ** (d - 1)
        uc, head, inv = np.unique(c[i], return_index=True, return_inverse=True)
        lambdas = np.array([lams[x] for x in uc.tolist()])
        # the realified modes: Re of mode j, or its Im where Im lambda_j < 0
        A = np.array([ops[x].modes.A for x in uc.tolist()]) * np.where(
            lambdas.imag < 0.0, -1j, 1.0)[:, None, :]     # (classes, n, n)
        A, lambdas = (A, lambdas) if paired[uc[0]] else (A.real, lambdas.real)
        Z, Z1 = _radial_factors(xis, lambdas)             # (classes, R, n)
        recs = order[start[i][:, None] + np.arange(m)]   # (classes, members)
        rows = row[recs]
        # the coefficients A_r C = U, kept as (classes, members, n):
        # the member kernels run faster when a column's n entries are adjacent
        at = nd.selement_start[e[recs[head]]]
        C = np.swapaxes(np.linalg.solve(A.real, np.swapaxes(solution.nodal[
            nd.selement_dofs[at[..., None] + np.arange(n)]], 1, 2)), 1, 2).copy()
        # a side-face pin, row -1 of a sector, gets a zero trace row
        A = np.concatenate([A, np.zeros((len(uc), 1, n), A.dtype)], axis=1)
        for kk in dict.fromkeys(kind[first[i]].tolist()):
            kd, r = kinds[kk], np.flatnonzero(kind[first[i]] == kk)
            frule = facet_quadrature(kd, facet_order)
            table = _basis_table(kd, k, facet_order)
            centres, vertices, _ = mesh._stacks[kd]
            # the representatives' geometry; their rays serve every member
            rep = rows[r, 0]
            J, det = _sector_jacobians(kd, frule.points, centres[rep], vertices[rep])
            Jinv, rays = _inv(J), J[:, None, :, None, :, 0]  # (S, 1, Q, 1, d)
            per_sector = len(xis) * len(frule) * d
            for sl in _chunks(len(r), per_sector * m):
                u = inv[r[sl]]                     # the classes
                f = u[:1] if u[0] == u[-1] else u  # one class: broadcast
                blocks = _chunks(m, per_sector * len(u))
                alpha = A[u[:, None], nd.sector_rows[kd][rep[sl]]]
                F = _class_fields(table, Jinv[sl], alpha, lambdas[u])
                w = wxi[:, None] * (frule.weights * det[sl])[:, None, :]  # (S, R, Q)
                steps = xis[:, None, None, None] * rays[sl]  # (S, R, Q, 1, d)
                basis = len(xis) <= min(m, blocks[0].stop)   # the smaller intermediate
                kernel, fields = _coefficient_fields, (Z[f], Z1[f], F)
                if basis:
                    kernel, fields = _basis_fields, (_mode_basis(*fields, steps, *waves),)
                for blk in blocks:
                    a0 = np.take(centres, rows[r[sl], blk], axis=0)   # (S, m, d)
                    coeffs = np.swapaxes(C[u, blk], 1, 2)
                    if basis and waves:    # u as basis columns: the fields are u_h - u
                        sums += _error_sums(w, kernel(*fields, coeffs, waves[1], a0))
                    else:
                        sums += _error_sums(w, kernel(*fields, coeffs), exact,
                                            a0[:, None, None] + steps)
        del Z, Z1                  # before the next group makes its own
    frule = facet_quadrature(FacetKind.QUADRILATERAL, facet_order)
    table = _basis_table(FacetKind.QUADRILATERAL, k, facet_order)
    for sl in _chunks(len(mesh._fe_class), len(frule) * d):
        pts, fields, det = _fe_fields(solution, sl, frule.points, table)
        sums += _error_sums(frule.weights * det, fields, exact, pts[:, :, None])
    if not np.isfinite(sums).all():
        raise SbfemError(f"error integrals against '{exact.name}' are not finite: "
                         f"{sums.tolist()}")
    return float(np.sqrt(sums[0])), float(np.sqrt(sums[1]))


def _radial_rules(ops: list, ids, k: int, d: int, radial_points: int,
                  composite_levels: int | None) -> list:
    """radial_quadrature arguments of each class operator in `ops` of a
    d-dimensional mesh, from arrays over the classes, with `composite_levels`
    cells (if None, SINGULAR_COMPOSITE_LEVELS on a singular class, else 0); a
    QuadratureError names the class by its representative S-element in `ids`."""
    re = [op.modes.lambdas.real for op in ops]
    at = np.cumsum([0] + [len(r) for r in re])[:-1]     # each class's first
    re = np.concatenate(re)
    lam_min = _min_positive(re, at)
    for j in np.flatnonzero(~np.isfinite(lam_min))[:1]:
        raise QuadratureError(f"S-element {ids[j]}: no positive exponent to set "
                              "the radial quadrature floor")
    floor = lam_min - 1.0
    floor[np.abs(floor) < RADIAL_FLOOR_TOL] = 0.0
    levels = (np.where(floor < 0.0, SINGULAR_COMPOSITE_LEVELS, 0)
              if composite_levels is None else np.full(len(ops), composite_levels))
    # plain Gauss is exact for the top L2 term xi^(2 lambda_max + d - 1)
    top = np.ceil(np.maximum.reduceat(re, at) + 0.5 * d)
    n_rad = np.maximum(radial_points, np.where(floor >= 0.0, top, k + 6))
    return list(zip(floor.tolist(), n_rad.astype(int).tolist(), levels.tolist()))


def _integer(name: str, value, default):
    """Rule argument `name` by `operator.index`, `default` for None."""
    try:
        return default if value is None else operator.index(value)
    except TypeError:
        raise QuadratureError(f"{name} must be an integer, got {value!r}") from None


def _radial_factors(xis: np.ndarray,
                    lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """xi^lambda and xi^(lambda-1), real for real exponents (..., n), at radial
    points xis in (0, 1], where every radial rule puts its points: (...,
    len(xis), n).  The second factor is zero for the constant mode, whose
    gradient vanishes: the exact zero exponent `modes.select_modes` puts first.
    """
    xis = np.asarray(xis, dtype=float)[:, None]
    lam = np.asarray(lambdas)[..., None, :]
    Z = np.exp(lam * np.log(xis))
    return Z, np.where(lam == 0.0, 0.0, Z / xis)


def _class_fields(table, Jinv, alpha, lambdas):
    """The trace modes T and Cartesian gradient basis G, F = [T, G] (S, 1 + d,
    Q, n), that the member sectors of a stack of classes share, from their
    J(1, eta)^-1 (S, Q, d, d), trace blocks alpha (S, p, n) and exponents
    (S, n); `table` holds the trace basis values (Q, p) and eta-gradients
    (Q, d-1, p) at the Q facet points.  The radial factors of
    `_radial_factors` make them the modes' values and gradients."""
    nvals, ngrads = table
    T = nvals @ alpha                                        # (S, Q, n)
    # parametric gradient: radial part lambda T, surface part dN alpha
    D = np.concatenate([(T * lambdas[:, None, :])[:, :, None, :],
                        ngrads @ alpha[:, None]], axis=2)    # (S, Q, d, n)
    return np.concatenate([T[:, None], np.swapaxes(Jinv.swapaxes(-1, -2) @ D, 1, 2)], 1)


def _mode_basis(Z, Z1, F, steps=None, a=(), kappa=None):
    """The real mode basis Re [Z x T, Z1 x G] (S, 1 + d, R, Q, n) from radial
    factors (S or 1, R, n) and class fields F, then Re and Im of K plane waves
    a_k exp(kappa_k . s) [1, kappa_k] at steps (S, R, Q, 1, d): 2K more columns."""
    (S, d1, Q, n), R, K = F.shape, Z.shape[-2], len(a)
    B = np.empty((S, d1, R, Q, n + 2 * K), np.result_type(Z, F))
    np.multiply(Z[:, None, :, None], F[:, :1, None], out=B[:, :1, ..., :n])
    np.multiply(Z1[:, None, :, None], F[:, 1:, None], out=B[:, 1:, ..., :n])
    if K:
        re, im = _exp_parts(steps[:, :, :, 0], kappa, a)      # (S, R, Q, K)
        W = (re + 1j * im)[:, None] * np.vstack([np.ones(K), kappa.T])[:, None, None]
        B[..., n:n + K], B[..., n + K:] = W.real, W.imag
    return np.ascontiguousarray(B.real)


def _basis_fields(B, coeffs, kappa=None, a0=None):
    """u_h, values then Cartesian gradients (S, 1 + d, R, Q, m), on the member
    sectors of a stack of classes from their mode basis B and real
    coefficients (S, n, m) by one real matmul.  Wave columns take -Im and -Re
    exp(kappa . a0) at member centres a0 (S, m, d), adding -u."""
    if kappa is not None:
        coeffs = np.concatenate([coeffs, -np.swapaxes(np.concatenate(
            _exp_parts(a0, kappa)[::-1], axis=-1), 1, 2)], axis=1)
    return (B.reshape(len(B), -1, B.shape[-1]) @ coeffs).reshape(B.shape[:-1] + (-1,))


def _coefficient_fields(Z, Z1, F, coeffs):
    """`_basis_fields` from the radial factors and `_class_fields` instead
    of a mode basis: Re Z @ (T x C) and Re Z1 @ (G x C)."""
    (S, d1, Q, n), (R, m) = F.shape, (Z.shape[-2], coeffs.shape[-1])
    X = (np.swapaxes(F, 2, 3)[..., None] * coeffs[:, None, :, None]).reshape(S, d1, n, -1)
    out = np.empty((S, d1, R, Q * m), X.dtype)
    np.matmul(Z[:, None], X[:, :1], out=out[:, :1])
    np.matmul(Z1[:, None], X[:, 1:], out=out[:, 1:])
    return out.real.reshape(S, d1, R, Q, m)


def _fe_fields(solution: DiscreteSolution, sl: slice, ref_pts, table):
    """u_h on the slice `sl` of the FE quads at reference points, where the
    Q_k basis takes the values and gradients `table`: mapped points (F, Q, 2),
    values then gradients (F, 3, Q, 1) and Jacobian determinants (F, Q).  J,
    J^-T grad N and det once per congruence class of the mesh's FE quads, on
    its first in `sl`; the points per quad."""
    mesh, quad = solution.mesh, FacetKind.QUADRILATERAL
    nvals, ngrads = table
    corners = np.take(mesh.vertices, mesh._quads()[sl], axis=0)
    u = solution.nodal[solution.numbering.fe_nodes[sl]][:, None, :, None]
    _, first, cls = np.unique(mesh._fe_class[sl], return_index=True,
                              return_inverse=True)
    J = _facet_tangents(quad, ref_pts, corners[first])         # (U, Q, 2, 2)
    B = np.swapaxes(_inv(J), -1, -2) @ ngrads                  # (U, Q, 2, p)
    return (_facet_points(quad, ref_pts, corners),
            np.concatenate([nvals @ u, np.swapaxes(B, 1, 2)[cls] @ u], axis=1),
            _det(J)[cls])


def _error_sums(w, fields, exact=None, pts=None) -> np.ndarray:
    """Weighted sums of squared value and gradient errors of fields (S, 1 + d,
    ..., m), u_h - u, or u_h less the exact fields at pts (S, ..., m, d) in
    place: row sums of squares over m, then the weights w (S, ...)."""
    if exact is not None:
        ev, eg = exact.value_and_gradient(pts.reshape(-1, pts.shape[-1]))
        fields[:, 0] -= ev.reshape(pts.shape[:-1])
        fields[:, 1:] -= np.moveaxis(eg.reshape(pts.shape), -1, 1)
    sq = np.einsum("...m,...m->...", fields, fields)          # (S, 1 + d, ...)
    s = np.einsum("sp,sjp->j", w.reshape(len(w), -1), sq.reshape(sq.shape[:2] + (-1,)))
    return np.array([s[0], s[1:].sum()])


def convergence_rates(rows: list) -> tuple[float, float]:
    """Rates log2(e_l / e_{l+1}) of (L2, H1) from the last two of the
    (level, h, dof, e_l2, e_h1) rows; NaN for one level."""
    if len(rows) < 1:
        raise SbfemError("convergence table needs at least one level")
    dofs = [r[2] for r in rows]
    if any(b <= a for a, b in zip(dofs, dofs[1:])):
        raise SbfemError(f"DOF sequence {dofs} is not increasing")
    if len(rows) < 2:
        return float("nan"), float("nan")
    return tuple(float(np.log2(a / b)) if a > 0 and b > 0 else 0.0
                 for a, b in zip(rows[-2][3:], rows[-1][3:]))


def report_to_csv(rows: list, rates: tuple[float, float]) -> str:
    out = io.StringIO()
    out.write("level,h,dof,e_l2,e_h1\n")
    for level, h, dof, e_l2, e_h1 in rows:
        out.write(f"{level},{h:.5E},{dof},{e_l2:.5E},{e_h1:.5E}\n")
    if np.isfinite(rates[0]):
        out.write(f"# rate_l2={rates[0]:.5E},rate_h1={rates[1]:.5E}\n")
    return out.getvalue()
