"""Self-contained dense complex linear algebra for small matrices.

Hermitian eigenproblems are solved by cyclic complex Jacobi rotations,
which are unconditionally stable.  The sweep order, pivot test and gauge
are fixed, so the same input gives the same output bits on one platform
and numpy build, which the golden-file outputs rely on.  Rotations and
Gram products go through numpy's matrix product (BLAS), so other builds
may differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_MAX_SWEEPS = 60


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (real, descending) and a unitary whose columns are eigenvectors.

    ``degenerate`` is set when two consecutive sorted eigenvalues are within
    tol * sum(|eigenvalues|) (tol * ||X||^2 for a Gram matrix of X), with the
    tolerance passed to :func:`hermitian_eig`; the eigenvectors are still
    orthonormal but individual columns are then gauge-dependent.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray
    degenerate: bool


def gram(m) -> np.ndarray:
    """Gram matrix M @ M^dagger of a complex r x c matrix: r x r, Hermitian, PSD."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError("gram expects a matrix")
    g = m @ m.conj().T
    # symmetrize away the last-bit asymmetry of the matmul
    return (g + g.conj().T) / 2.0


def validate_unitary(u) -> float:
    """Frobenius residual ||u^dagger u - I||_F (0 for exact unitaries)."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("unitarity check expects a square matrix")
    eye = np.eye(u.shape[0])
    return float(np.linalg.norm(u.conj().T @ u - eye, "fro"))


def _rotation(n: int, p: int, q: int, app: float, aqq: float, apq: complex) -> np.ndarray:
    # Unitary zeroing the (p, q) entry: a phase on column q making the pivot
    # real-positive, followed by the classical Jacobi rotation angle.
    mag = abs(apq)
    phase = apq / mag
    tau = (aqq - app) / (2.0 * mag)
    if tau >= 0.0:
        tee = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        tee = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + tee * tee)
    s = tee * c
    rot = np.eye(n, dtype=np.complex128)
    rot[p, p] = c
    rot[p, q] = s
    rot[q, p] = -s * np.conj(phase)
    rot[q, q] = c * np.conj(phase)
    return rot


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off, "fro"))


def hermitian_eig(h, tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps.

    Parameters
    ----------
    h : square complex matrix, Hermitian within `tol` (elementwise).
    tol : hermiticity slack, and the degeneracy threshold relative to
        sum(|eigenvalues|).

    Eigenvalues are returned descending.  Each eigenvector column is gauge
    fixed: its largest-magnitude entry (lowest row on ties) is made real
    and nonnegative, so identical input bits give identical output bits.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError("eigendecomposition expects a square matrix")
    herm_defect = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if herm_defect > tol:
        raise ValidationError(
            f"matrix is not Hermitian within {tol} (defect {herm_defect:.3e})"
        )
    n = h.shape[0]
    a = (h + h.conj().T) / 2.0
    v = np.eye(n, dtype=np.complex128)

    scale = float(np.linalg.norm(a, "fro"))
    stop = max(scale * 1e-15 * n, 1e-300)
    converged = _offdiag_norm(a) <= stop
    for _ in range(_MAX_SWEEPS):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= stop / max(n, 1):
                    continue
                rot = _rotation(n, p, q, a[p, p].real, a[q, q].real, apq)
                a = rot.conj().T @ a @ rot
                v = v @ rot
        converged = _offdiag_norm(a) <= stop
    else:
        if not converged:
            raise NumericalError(
                f"Jacobi sweeps did not converge in {_MAX_SWEEPS} iterations"
            )

    eigenvalues = np.diag(a).real.copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    v = v[:, order]

    # gauge: largest-magnitude entry of each column real >= 0
    for j in range(n):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        mag = abs(pivot)
        if mag > 0.0:
            v[:, j] = col * (np.conj(pivot) / mag)

    gap_limit = tol * np.sum(np.abs(eigenvalues))
    degenerate = bool(n > 1 and np.any(np.abs(np.diff(eigenvalues)) <= gap_limit))
    eigenvalues.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, unitary=v, degenerate=degenerate)
