"""Independent brute-force oracles used to compute expected values.

Everything here is implemented directly from definitions with explicit
loops (or numpy's own LAPACK eigensolver), deliberately avoiding the code
paths under test.
"""

import itertools
import math

import numpy as np


def transform_by_summation(mats, data):
    """Elementwise multilinear transform: out_j = sum_i prod_n M_n[j_n, i_n] x_i."""
    dims = data.shape
    out = np.zeros(dims, dtype=complex)
    for out_idx in itertools.product(*(range(d) for d in dims)):
        acc = 0.0 + 0.0j
        for in_idx in itertools.product(*(range(d) for d in dims)):
            factor = 1.0 + 0.0j
            for n in range(len(dims)):
                factor *= mats[n][out_idx[n], in_idx[n]]
            acc += factor * data[in_idx]
        out[out_idx] = acc
    return out


def transform_by_tensordot(mats, data):
    """The multilinear transform as numpy composes it: contract each matrix
    into its axis, then move the new axis back into place."""
    out = data
    for axis, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(m, out, axes=([1], [axis])), 0, axis)
    return np.ascontiguousarray(out)


def one_body_rdm_by_summation(amps, qubit):
    """rho for one qubit of a 3-qubit state by direct amplitude sums.

    rho[i, j] = sum over the other two indices of psi(..i..) * conj(psi(..j..)).
    `qubit` is 0, 1, or 2.
    """
    a = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            total = 0.0 + 0.0j
            for rest in itertools.product(range(2), repeat=2):
                idx_i = list(rest)
                idx_j = list(rest)
                idx_i.insert(qubit, i)
                idx_j.insert(qubit, j)
                total += a[tuple(idx_i)] * np.conj(a[tuple(idx_j)])
            rho[i, j] = total
    return rho


def rdm_eigenvalues(amps, qubit):
    """Descending eigenvalues of the one-body density matrix, via numpy."""
    rho = one_body_rdm_by_summation(amps, qubit)
    return np.sort(np.linalg.eigvalsh(rho))[::-1]


def eig2_closed_form(h):
    """Descending eigenvalues of a 2x2 Hermitian matrix from the
    characteristic quadratic (trace / determinant form)."""
    tr = (h[0, 0] + h[1, 1]).real
    det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
    disc = math.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return np.array([tr / 2.0 + disc, tr / 2.0 - disc])


def unfold_column_index(dims, idx, mode):
    """1-based column position of element `idx` in the mode-n unfolding,
    written exactly as the cyclic defining formula."""
    order = len(dims)
    cyclic = [((mode - 1) + k) % order for k in range(1, order)]  # 0-based modes
    col = 0
    for pos, m in enumerate(cyclic):
        stride = 1
        for later in cyclic[pos + 1:]:
            stride *= dims[later]
        col += (idx[m] - 1) * stride
    return col + 1


def haar_state(rng, size=8):
    """Normalized vector of iid standard complex Gaussians."""
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z)


def haar_unitary(rng, n=2):
    """Haar-distributed unitary via QR with phase-fixed R diagonal."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
