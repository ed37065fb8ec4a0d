"""Eigen-modes of the radial Euler system and semi-analytic shape functions.

Separable functions xi^lambda * alpha(eta) that are gradient-orthogonal to
all test functions vanishing on the scaled boundary solve a second-order
Euler ODE with coefficients E11, E12, E21, E22.  Introducing the flux
Q(xi) = xi^{d-1} E11 Phi' + xi^{d-2} E12 Phi and p = xi^{2-d} Q turns it
into the first-order system xi [Phi; p]' = M [Phi; p].  Admissible modes are
the eigenpairs with non-negative real exponent; their boundary fluxes
P_i = p_i(1) yield the element stiffness K = P A^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .ematrix import EMatrices
from .errors import GeometryError, SpectrumError
from .refgeom import _sector_jacobians

ZERO_CLUSTER_TOL = 1e-6    # |lambda| below this (x spectral radius) is "zero"
POSITIVE_CUT = 1e-8        # Re lambda cut for admissible modes
COND_CAP = 1e12


@dataclass(frozen=True)
class EulerSystem:
    """First-order form of the radial ODE in the variables (Phi, p)."""

    M: np.ndarray
    dim: int
    n: int
    E: EMatrices
    has_constant: bool


@dataclass
class SElementStiffness:
    K: np.ndarray
    asymmetry: float


@dataclass
class SbfemModes:
    """Selected eigen-modes of one S-element.

    ``A`` and ``P`` hold the complex trace eigenvectors and boundary flux
    vectors column by column, each column scaled to a unit trace part.  The
    selection is closed under conjugation: a complex exponent comes with its
    conjugate, and the real combinations of a pair are the radial factors
    xi^a cos(b ln xi) and xi^a sin(b ln xi).
    """

    lambdas: np.ndarray        # complex, selected, ascending real part
    A: np.ndarray              # complex trace eigenvectors (n x n)
    P: np.ndarray              # complex boundary flux vectors (n x n)
    constant_index: int | None
    dim: int
    cond_A: float
    all_eigenvalues: np.ndarray
    selected_mask: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def min_positive_exponent(self) -> float:
        re = self.lambdas.real
        pos = re[re > 0.5 * ZERO_CLUSTER_TOL]
        return float(pos.min()) if pos.size else np.inf


def _radial_factors(xis: np.ndarray,
                    lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """xi^lambda and xi^(lambda-1) for exponents (..., n): (..., len(xis), n).

    The second factor is zero for the constant mode, whose gradient
    vanishes; at xi <= 0 both take their xi -> 0 limit where it exists.
    """
    xis = np.asarray(xis, dtype=float)[:, None]
    lam = np.asarray(lambdas, dtype=complex)[..., None, :]
    positive = xis > 0.0
    safe = np.where(positive, xis, 1.0)
    Z = np.exp(lam * np.log(safe))
    const = np.abs(lam) < 1e-14
    Z1 = np.where(const, 0.0, Z / safe)
    if not positive.all():
        unit = np.abs(lam - 1.0) < 1e-14
        bad = ~const & ~unit & (lam.real <= 1.0)
        if bad.any():
            raise GeometryError(
                f"radial factors of exponent {lam[bad][0]:.3g} have no limit "
                "at the scaling center")
        at0 = ~positive[:, 0]
        Z[..., at0, :] = const
        Z1[..., at0, :] = unit
    return Z, Z1


def build_system(E: EMatrices, d: int) -> EulerSystem:
    """Assemble the first-order Euler matrix from the coefficient matrices."""
    E11, E12, E21, E22 = E.blocks()
    n = E.n
    try:
        cho = scipy.linalg.cho_factor(E11)
    except scipy.linalg.LinAlgError as exc:
        raise SpectrumError(f"E11 is not positive definite: {exc}") from exc
    if E.condition_number() > 1e14:
        raise SpectrumError("E11 is numerically singular")
    X = scipy.linalg.cho_solve(cho, E12)       # E11^{-1} E12
    Y = scipy.linalg.cho_solve(cho, np.eye(n))  # E11^{-1}
    M = np.block([[-X, Y],
                  [E22 - E21 @ X, (2 - d) * np.eye(n) + E21 @ Y]])
    return EulerSystem(M=M, dim=d, n=n, E=E,
                       has_constant=E.constant_trace_admissible())


def apply_sideface_bc(E: EMatrices, constrained_local: np.ndarray) -> EMatrices:
    """Delete Dirichlet-constrained side-face trace DOFs from the E-matrices."""
    constrained = np.unique(np.asarray(constrained_local, dtype=int))
    if constrained.size == 0:
        return E
    if constrained.min() < 0 or constrained.max() >= E.n:
        raise SpectrumError(
            f"side-face constraint index out of range 0..{E.n - 1}")
    keep = np.setdiff1d(np.arange(E.n), constrained)
    if keep.size == 0:
        raise SpectrumError("side-face constraints would remove every trace DOF")
    ix = np.ix_(keep, keep)
    return EMatrices(E11=E.E11[ix], E12=E.E12[ix], E22=E.E22[ix], dim=E.dim)


def _sort_key(lams: np.ndarray) -> np.ndarray:
    return np.lexsort((np.sign(lams.imag), np.abs(lams.imag), lams.real))


def select_modes(system: EulerSystem, label: str = "S-element",
                 cond_cap: float = COND_CAP) -> SbfemModes:
    """Eigen-solve the Euler system and keep the admissible modes.

    Keeps every eigenpair with positive real exponent plus, when the element
    admits a constant trace (closed boundary or unconstrained open one),
    exactly one exact constant mode in place of the numerically polluted
    zero cluster (the logarithmic Jordan partner is discarded).
    """
    M = system.M
    n = system.n
    lam_all, V = np.linalg.eig(M)
    scale = max(float(np.abs(lam_all).max()), 1.0)
    cluster = np.abs(lam_all) <= ZERO_CLUSTER_TOL * scale
    positive = (~cluster) & (lam_all.real > POSITIVE_CUT * scale)
    expected_zero = (2 if system.dim == 2 else 1) if system.has_constant else 0
    n_positive_expected = n - (1 if system.has_constant else 0)
    if int(cluster.sum()) != expected_zero or int(positive.sum()) != n_positive_expected:
        raise SpectrumError(
            f"{label}: unexpected spectrum split (zero cluster "
            f"{int(cluster.sum())}/{expected_zero}, positive "
            f"{int(positive.sum())}/{n_positive_expected})")
    idx = np.flatnonzero(positive)
    idx = idx[_sort_key(lam_all[idx])]
    lams = lam_all[idx]
    vecs = V[:, idx]

    resid = M @ vecs - vecs * lams[None, :]
    if resid.size and np.linalg.norm(resid, axis=0).max() > 1e-7 * scale:
        raise SpectrumError(f"{label}: defective spectrum (eigenvector residual)")

    # scaling a column by any complex factor leaves K and u_h unchanged
    vecs = vecs / np.linalg.norm(vecs[:n], axis=0)
    A = vecs[:n, :]
    P = vecs[n:, :]
    constant_index = None
    if system.has_constant:
        c = np.zeros((2 * n, 1), dtype=complex)
        c[:n, 0] = 1.0 / np.sqrt(n)
        lams = np.concatenate([[0.0 + 0.0j], lams])
        A = np.hstack([c[:n], A])
        P = np.hstack([c[n:], P])
        constant_index = 0

    cond_A = float(np.linalg.cond(A))
    if cond_A > cond_cap:
        raise SpectrumError(
            f"{label}: defective spectrum (trace eigenvector condition "
            f"{cond_A:.2e} beyond cap {cond_cap:.1e})")
    selected_mask = np.zeros(2 * n, dtype=bool)
    selected_mask[idx] = True
    return SbfemModes(lambdas=lams, A=A, P=P, constant_index=constant_index,
                      dim=system.dim, cond_A=cond_A, all_eigenvalues=lam_all,
                      selected_mask=selected_mask)


def element_stiffness(modes: SbfemModes) -> SElementStiffness:
    """Boundary-flux stiffness K = P A^{-1}, symmetrized, in the nodal basis.

    K is the real solution of K [Re A, Im A] = [Re P, Im P].  The system is
    consistent exactly when the modes are closed under conjugation, and its
    nonzero singular values are those of A, since A A^H is then real.
    """
    A = np.hstack([modes.A.real, modes.A.imag])
    P = np.hstack([modes.P.real, modes.P.imag])
    K = np.linalg.lstsq(A.T, P.T, rcond=None)[0].T
    resid = float(np.linalg.norm(K @ A - P) / max(np.linalg.norm(P), 1e-300))
    if resid > 1e-8:
        raise SpectrumError(f"modes not closed under conjugation (stiffness "
                            f"residual {resid:.2e})")
    norm = max(np.linalg.norm(K), 1e-300)
    asym = float(np.linalg.norm(K - K.T) / norm)
    if asym > 1e-6:
        raise SpectrumError(f"stiffness asymmetry {asym:.2e} beyond tolerance")
    return SElementStiffness(K=0.5 * (K + K.T), asymmetry=asym)


def _sector_fields(basis, xis, etas, centres, vertices, alpha, coeffs,
                   lambdas):
    """u_h on the (xi, eta) tensor grid of each of a stack of sectors.

    Returns mapped points (S, R, Q, d), values (S, R, Q), Cartesian
    gradients (S, R, Q, d) and surface Jacobians |J(1, eta)| (S, Q).
    The sums run over the complex modes; their real parts are returned.
    """
    nvals, ngrads = basis.eval_many(etas)                 # (Q, m), (Q, d-1, m)
    J, det = _sector_jacobians(basis.facet_kind, etas, centres, vertices)
    bad = det < 1e-14
    if bad.any():
        raise GeometryError(
            f"degenerate or inverted sector (center "
            f"{centres[bad.any(axis=1)][0]}): |J(1,eta)| = {det.min():.3e}")
    JinvT = np.swapaxes(np.linalg.inv(J), -1, -2)
    Z, Z1 = _radial_factors(xis, lambdas)                   # (S, R, n)
    c = coeffs[:, None, :]
    T = nvals @ alpha                                        # (S, Q, n)
    values = (Z @ np.swapaxes(T * c, 1, 2)).real
    # parametric gradient: radial part lambda c T, surface part c dN alpha
    D = np.concatenate([(T * (lambdas[:, None, :] * c))[:, :, None, :],
                        (ngrads @ alpha[:, None]) * c[:, None]], axis=2)
    S, Q, d, n = D.shape
    P = (Z1 @ D.reshape(S, Q * d, n).swapaxes(1, 2)).real
    grads = (JinvT[:, None] @ P.reshape(S, -1, Q, d, 1))[..., 0]
    pts = (centres[:, None, None, :]
           + np.asarray(xis)[None, :, None, None] * J[:, None, ..., 0])
    return pts, values, grads, det


def eigenvalue_rows(modes: SbfemModes) -> list[tuple[float, float, int]]:
    """(re, im, selected) rows for every eigenvalue of the full system."""
    rows = []
    for lam, sel in zip(modes.all_eigenvalues, modes.selected_mask):
        rows.append((float(lam.real), float(lam.imag), int(sel)))
    rows.sort()
    return rows
