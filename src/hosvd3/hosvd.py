"""Higher order singular value decomposition (HOSVD) for complex tensors.

For an order-N tensor X, there exist unitary factors U(1), ..., U(N) and a
core tensor T with X = (U(1) x ... x U(N)) T, where the core's same-mode
subtensors are mutually orthogonal (all-orthogonality) and their norms,
the n-mode singular values, are ordered descending.  The factors are the
eigenvector bases of the per-mode Gram matrices of the unfoldings, which
for a normalized quantum state are its one-body reduced density matrices,
so the decomposition simultaneously diagonalizes all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .smalllinalg import _hermitian_eigs, _tolerance, gram, pow2_prescale
from .tensor import ComplexTensor, _mode_rows, multilinear_transform, norm, unfold


@dataclass(frozen=True)
class HosvdResiduals:
    """Diagnostics: relative reconstruction error and max all-orthogonality violation."""

    reconstruction: float
    all_orthogonality: float


@dataclass(frozen=True, eq=False)
class HosvdResult:
    """Factors U(n), core tensor, per-mode singular values, and diagnostics.

    ``spectra[n-1]`` holds the mode-n singular values: the core's mode-n
    slice norms, in the order of the descending eigenvalues of
    gram(unfold(input, n)), which they square.  At noise level that order
    can break (ROADMAP item 11): most Gaussian 4x4x4 tensors of multilinear
    rank (2, 2, 2) read their two noise-level values out of order.  Modes
    whose Gram spectrum has a gap at or below tol * ||input||^2 (relative
    to the Gram trace) are listed in ``degenerate_modes`` (1-based); core
    element patterns are gauge-dependent there.
    """

    factors: tuple[np.ndarray, ...]
    core: ComplexTensor
    spectra: tuple[np.ndarray, ...]
    residuals: HosvdResiduals
    degenerate_modes: frozenset[int]


def _mode_singular_values(core: ComplexTensor, mode: int) -> np.ndarray:
    """Norms of the mode-n slices: entry i is the Frobenius norm of the core
    with its n-th index fixed to i (n = mode counts from 1, i from 0)."""
    return np.sqrt(np.sum(np.abs(_mode_rows(core.data, mode)) ** 2, axis=1))


def verify_all_orthogonality(core: ComplexTensor) -> float:
    """Max over modes n and index pairs a != b of |<slice a, slice b>|, where
    slice i of mode n is the core with its n-th index fixed to i.

    For a 2x2x2 core this evaluates exactly the three off-diagonal sums
    conj(t_1jk) t_2jk of the one-body density matrices.  A vector (order 1)
    is not checked: its residual is 0.0.
    """
    if core.order == 1:
        return 0.0
    worst = 0.0
    for mode in range(1, core.order + 1):
        # own buffers: the BLAS dot's last bits depend on operand alignment
        rows = [row.copy() for row in _mode_rows(core.data, mode)]
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                worst = max(worst, abs(np.vdot(rows[a], rows[b])))
    return float(worst)


def hosvd(t: ComplexTensor, tol: float = 1e-10) -> HosvdResult:
    """Compute the HOSVD of a nonzero complex tensor.

    Per mode n, the factor U(n) collects the eigenvectors of
    gram(unfold(t, n)) ordered by descending eigenvalue; the core is then
    t transformed by the conjugate transposes.  `tol` controls hermiticity
    validation inside the eigensolver and the degeneracy flags.  The Gram
    matrices of all modes are solved in one eigensolver call (equal sizes
    as one stack); when sweeps do not converge, the
    NumericalError names the lowest-numbered mode that failed.

    The work is done on t scaled by an exact power of two (see
    :func:`pow2_prescale`), and the core, spectra and all-orthogonality
    residual are scaled back, so the result does not depend on the scale
    of t: no Gram entry overflows or underflows.  A tol that is negative
    or not finite raises ValidationError.
    """
    _tolerance("tol", tol)
    data, e = pow2_prescale(t.data)
    x = ComplexTensor(data)
    total = norm(x)
    if total == 0.0:
        raise DomainError("HOSVD of the zero tensor is undefined")

    grams = [gram(unfold(x, mode)) for mode in range(1, x.order + 1)]
    try:
        eigs = _hermitian_eigs(grams, tol)
    except NumericalError as exc:
        raise NumericalError(
            f"eigensolver failed in mode {exc.mode}: {exc}", mode=exc.mode
        ) from exc
    factors = [eig.unitary for eig in eigs]
    degenerate = {mode for mode, eig in enumerate(eigs, 1) if eig.degenerate}

    core = multilinear_transform(x, [u.conj().T for u in factors])
    spectra = tuple(
        np.ldexp(_mode_singular_values(core, m), e) for m in range(1, x.order + 1)
    )

    recon = multilinear_transform(core, factors)
    rec_residual = float(np.linalg.norm((recon.data - x.data).ravel())) / total
    ao_residual = float(np.ldexp(verify_all_orthogonality(core), 2 * e))
    core = ComplexTensor(np.ldexp(core.data.view(np.float64), e).view(np.complex128))

    return HosvdResult(
        factors=tuple(factors),
        core=core,
        spectra=spectra,
        residuals=HosvdResiduals(rec_residual, ao_residual),
        degenerate_modes=frozenset(degenerate),
    )
