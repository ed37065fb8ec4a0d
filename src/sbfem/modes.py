"""Eigen-modes of the radial Euler system behind the semi-analytic shape functions.

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

from .ematrix import EMatrices
from .errors import SpectrumError

ZERO_CLUSTER_TOL = 1e-6    # |lambda| below this (x spectral radius) is "zero"
POSITIVE_CUT = 1e-8        # Re lambda cut for admissible modes
COND_CAP = 1e12


@dataclass
class SElementStiffness:
    K: np.ndarray
    asymmetry: float


@dataclass
class SbfemModes:
    """Selected eigen-modes of one S-element, or of a stack of them along a
    leading axis of every array field.

    ``A`` and ``P`` hold the complex trace eigenvectors and boundary flux
    vectors column by column, each column scaled to a unit trace part.  The
    selection is closed under conjugation: a complex exponent comes with its
    conjugate, and the real combinations of a pair are the radial factors
    xi^a cos(b ln xi) and xi^a sin(b ln xi).  Where the trace space admits a
    constant, column 0 is the constant mode, with exponent exactly 0.
    """

    lambdas: np.ndarray        # complex, selected, ascending real part
    A: np.ndarray              # complex trace eigenvectors (n x n)
    P: np.ndarray              # complex boundary flux vectors (n x n)
    cond_A: float
    all_eigenvalues: np.ndarray
    selected_mask: np.ndarray

    def __getitem__(self, j) -> "SbfemModes":
        """Member j of a stack, as views into its arrays."""
        return SbfemModes(self.lambdas[j], self.A[j], self.P[j], self.cond_A[j],
                          self.all_eigenvalues[j], self.selected_mask[j])

    @property
    def n(self) -> int:
        return self.A.shape[-1]

    @property
    def min_positive_exponent(self) -> float:
        return float(_min_positive(self.lambdas.real.ravel(), [0])[0])


def _min_positive(re: np.ndarray, at) -> np.ndarray:
    """The smallest exponent real part beyond the zero cluster of each run of
    `re` that starts at an index in `at`; inf for a run without one."""
    return np.minimum.reduceat(np.where(re > 0.5 * ZERO_CLUSTER_TOL, re, np.inf), at)


def _check(bad, ids, message: str, *values) -> None:
    """Raise a SpectrumError naming the first stack member flagged in `bad`
    (by `ids`, default its position), `message` formatted with its `values`."""
    for j in np.flatnonzero(bad)[:1]:
        error = SpectrumError(f"S-element {j if ids is None else ids[j]}: "
                              + message.format(*(np.ravel(v)[j] for v in values)))
        error.selement = int(j if ids is None else ids[j])
        raise error


def build_system(E: EMatrices, d: int, ids=None) -> np.ndarray:
    """The first-order Euler matrix M in the variables (Phi, p) from the
    coefficient matrices.  A stack of E-matrices gives a stack of matrices
    along a leading axis; `ids` name its members in errors."""
    E11, E12, E21, E22 = E.blocks()
    n = E.n
    cond = E.condition_number()
    _check(np.isinf(cond), ids, "E11 is not positive definite")
    _check(cond > 1e14, ids, "E11 is numerically singular")
    eye = np.eye(n)
    XY = np.linalg.solve(E11, np.concatenate(
        [E12, np.broadcast_to(eye, E12.shape)], axis=-1))
    X, Y = XY[..., :n], XY[..., n:]            # E11^{-1} E12, E11^{-1}
    M = np.empty(E11.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n] = -X
    M[..., :n, n:] = Y
    M[..., n:, :n] = E22 - E21 @ X
    M[..., n:, n:] = (2 - d) * eye + E21 @ Y
    return M


def select_modes(M: np.ndarray, dim: int, has_constant: bool,
                 ids=None) -> SbfemModes:
    """Eigen-solve the Euler matrix M and keep the admissible modes.

    Keeps every eigenpair with positive real exponent plus, when the element
    admits a constant trace (`has_constant`: closed boundary or unconstrained
    open one), exactly one exact constant mode in place of the numerically
    polluted zero cluster (the logarithmic Jordan partner is discarded).  A
    stack of matrices, which share `has_constant`, is solved in one call;
    `ids` name its members in errors.
    """
    n = M.shape[-1] // 2
    lam_all, V = np.linalg.eig(M)
    scale = np.maximum(np.abs(lam_all).max(axis=-1), 1.0)[..., None]
    cluster = np.abs(lam_all) <= ZERO_CLUSTER_TOL * scale
    positive = (~cluster) & (lam_all.real > POSITIVE_CUT * scale)
    expected_zero = (2 if dim == 2 else 1) if has_constant else 0
    n_positive_expected = n - (1 if has_constant else 0)
    n_zero, n_pos = cluster.sum(axis=-1), positive.sum(axis=-1)
    _check((n_zero != expected_zero) | (n_pos != n_positive_expected), ids,
           f"unexpected spectrum split (zero cluster {{}}/{expected_zero}, "
           f"positive {{}}/{n_positive_expected})", n_zero, n_pos)
    # positives first, by (real part, |imag|, sign of imag), ties by index
    idx = np.lexsort((np.sign(lam_all.imag), np.abs(lam_all.imag),
                      lam_all.real, ~positive), axis=-1)[..., :n_positive_expected]
    lams = np.take_along_axis(lam_all, idx, axis=-1)
    vecs = np.take_along_axis(V, idx[..., None, :], axis=-1)
    resid = np.linalg.norm(M @ vecs - vecs * lams[..., None, :], axis=-2)
    _check(resid.max(axis=-1, initial=0.0) > 1e-7 * scale[..., 0], ids,
           "defective spectrum (eigenvector residual)")
    # scaling a column by any complex factor leaves K and u_h unchanged
    vecs = vecs / np.linalg.norm(vecs[..., :n, :], axis=-2)[..., None, :]
    A = vecs[..., :n, :]
    P = vecs[..., n:, :]
    if has_constant:
        column = np.zeros(A.shape[:-1] + (1,), dtype=complex)
        lams = np.concatenate([column[..., 0, :], lams], axis=-1)
        A = np.concatenate([column + 1.0 / np.sqrt(n), A], axis=-1)
        P = np.concatenate([column, P], axis=-1)
    cond_A = np.linalg.cond(A)
    _check(cond_A > COND_CAP, ids,
           f"defective spectrum (trace eigenvector condition {{:.2e}} beyond "
           f"cap {COND_CAP:.1e})", cond_A)
    # the split check above makes the selection exactly the positive eigenvalues
    return SbfemModes(lambdas=lams, A=A, P=P, cond_A=cond_A,
                      all_eigenvalues=lam_all, selected_mask=positive)


def element_stiffness(modes: SbfemModes, ids=None) -> SElementStiffness:
    """Boundary-flux stiffness K = P A^{-1}, symmetrized, in the nodal basis.

    K is the real solution of K [Re A, Im A] = [Re P, Im P].  The system is
    consistent exactly when the modes are closed under conjugation, and its
    nonzero singular values are those of A, since A A^H is then real.  It is
    solved by QR of [Re A, Im A]^T; `ids` name the members of a stack in errors.
    """
    A = np.concatenate([modes.A.real, modes.A.imag], axis=-1)
    P = np.concatenate([modes.P.real, modes.P.imag], axis=-1)
    Q, R = np.linalg.qr(np.swapaxes(A, -1, -2))
    K = np.swapaxes(np.linalg.solve(R, np.swapaxes(P @ Q, -1, -2)), -1, -2)
    norm = np.linalg.norm
    resid = (norm(K @ A - P, axis=(-2, -1))
             / np.maximum(norm(P, axis=(-2, -1)), 1e-300))
    _check(resid > 1e-8, ids, "modes not closed under conjugation (stiffness "
           "residual {:.2e})", resid)
    KT = np.swapaxes(K, -1, -2)
    asym = norm(K - KT, axis=(-2, -1)) / np.maximum(norm(K, axis=(-2, -1)), 1e-300)
    _check(asym > 1e-6, ids, "stiffness asymmetry {:.2e} beyond tolerance", asym)
    return SElementStiffness(K=0.5 * (K + KT), asymmetry=asym)


def eigenvalue_rows(modes: SbfemModes) -> list[tuple[float, float, int]]:
    """(re, im, selected) rows for every eigenvalue of the full system."""
    return sorted((float(lam.real), float(lam.imag), int(sel))
                  for lam, sel in zip(modes.all_eigenvalues, modes.selected_mask))
