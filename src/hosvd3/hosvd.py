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

from .errors import DomainError, NumericalError, ValidationError
from .smalllinalg import _eigh_stack, _gram_stack, _norms, _pow2_blocks, _tolerance, pow2_prescale
from .tensor import ComplexTensor, _mode_rows, _stacked_transform, _unfoldings


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


def verify_all_orthogonality(core: ComplexTensor) -> float:
    """The largest off-diagonal modulus of the core's mode Grams: over modes
    n and index pairs a != b, the largest |<slice a, slice b>|, slice i of
    mode n being the core with its n-th index fixed to i.

    For a 2x2x2 core this evaluates the three off-diagonal sums
    conj(t_1jk) t_2jk of the one-body density matrices.  A vector (order 1)
    is not checked: its residual is 0.0.  A core with a non-finite entry
    raises ValidationError.  This is the kernel that :func:`hosvd` and
    :func:`~hosvd3.qubit3.classify` read, on a stack of one core.
    """
    if not np.isfinite(core.data).all():
        raise ValidationError("entries must be finite")
    return float(_all_orthogonality(core.data[None])[0])


def _all_orthogonality(core: np.ndarray) -> np.ndarray:
    """verify_all_orthogonality (M,) of each core of a stack (M, *dims): per
    mode size d >= 2, the largest off-diagonal modulus of the _gram_stack of
    the _unfoldings in those modes; 0.0 without such modes, and for vectors."""
    dims = core.shape[1:]
    worst = np.zeros(core.shape[0])
    for d in dict.fromkeys(d for d in dims if d > 1 and len(dims) > 1):
        g = _gram_stack(_unfoldings(core, tuple(n + 1 for n, k in enumerate(dims) if k == d)))
        g = g.reshape(*g.shape[:2], d * d)
        g[..., ::d + 1] = 0.0  # the diagonal, below every off-diagonal modulus
        worst = np.maximum(worst, np.abs(g).max(axis=(1, 2)))
    return worst


def _mode_grams(x: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """The Grams of the unfoldings of a stack x (M, *dims) in the given
    1-based modes, all of one size d, each prescaled by _pow2_blocks: one
    stack (M * len(modes), d, d), tensor by tensor, mode by mode."""
    d = x.shape[modes[0]]
    a, _, _ = _pow2_blocks(_gram_stack(_unfoldings(x, modes)), (2, 3))
    return a.reshape(-1, d, d)


def _hosvd_stack(x: np.ndarray, tol: float):
    """(core, factors, spectra, degenerate): the HOSVD of each tensor of a
    stack x (M, *dims) with parts at most 1 in magnitude, the core
    C-ordered, factors and spectra per mode, flags (M, N).  The Grams of
    one size are one _mode_grams stack, solved by one _eigh_stack call,
    whose LinAlgError is left to the caller; the spectra are the core's
    slice norms.  A tensor gets the same bits alone as in any stack."""
    m, dims, order = x.shape[0], x.shape[1:], x.ndim - 1
    factors, adjoints = [None] * order, [None] * order
    degenerate = np.empty((m, order), dtype=bool)
    for d in dict.fromkeys(dims):
        modes = [n for n in range(order) if dims[n] == d]
        _, v, flags = _eigh_stack(_mode_grams(x, tuple(n + 1 for n in modes)), tol)
        v = v.reshape(m, len(modes), d, d)
        v.setflags(write=False)
        vh = v.conj().swapaxes(2, 3)
        for j, n in enumerate(modes):
            factors[n], adjoints[n] = v[:, j], vh[:, j]
            degenerate[:, n] = flags[j::len(modes)]
    # C order first: the sums of the slice norms follow the memory layout
    core = np.ascontiguousarray(_stacked_transform(x, adjoints))
    power = np.abs(core) ** 2
    spectra = [np.sqrt(_mode_rows(power, n).sum(axis=2)) for n in range(1, order + 1)]
    return core, factors, spectra, degenerate


def hosvd(t: ComplexTensor, tol: float = 1e-10) -> HosvdResult:
    """Compute the HOSVD of a nonzero complex tensor.

    Per mode n, the factor U(n) collects the eigenvectors of
    gram(unfold(t, n)) ordered by descending eigenvalue; the core is then
    t transformed by the conjugate transposes.  `tol` is the degeneracy
    threshold.  This is :func:`_hosvd_stack`, which
    :func:`~hosvd3.qubit3.classify` runs on its batch of states, on a stack
    of one tensor.  Each mode's Gram goes through the solver of
    :func:`~hosvd3.smalllinalg.hermitian_eig`: one closed-form rotation at
    size 2, LAPACK ``eigh`` at other sizes.  When LAPACK does not converge,
    the modes are solved again one at a time, and the NumericalError names
    the lowest-numbered mode that fails.

    The work is done on t scaled by an exact power of two (see
    :func:`pow2_prescale`), and the core, spectra and all-orthogonality
    residual are scaled back, so the result does not depend on the scale
    of t: no Gram entry overflows or underflows.  A tol that is negative
    or not finite raises ValidationError.
    """
    _tolerance("tol", tol)
    x, e = pow2_prescale(t.data[None])
    total = float(_norms(x)[0])
    if total == 0.0:
        raise DomainError("HOSVD of the zero tensor is undefined")

    try:
        core, factors, spectra, degenerate = _hosvd_stack(x, tol)
    except np.linalg.LinAlgError as stacked:
        # on failure only: each mode solved alone, to name the lowest that fails
        for n in range(1, x.ndim):
            try:
                _eigh_stack(_mode_grams(x, (n,)), tol)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigensolver failed in mode {n}: {exc}", mode=n) from exc
        raise NumericalError(f"eigensolver failed: {stacked}") from stacked
    rec_residual = float(_norms(_stacked_transform(core, factors) - x)[0]) / total
    ao_residual = float(np.ldexp(_all_orthogonality(core)[0], 2 * e))

    return HosvdResult(
        factors=tuple(u[0] for u in factors),
        core=ComplexTensor(np.ldexp(core[0].view(np.float64), e).view(np.complex128)),
        spectra=tuple(np.ldexp(s[0], e) for s in spectra),
        residuals=HosvdResiduals(rec_residual, ao_residual),
        degenerate_modes=frozenset((np.flatnonzero(degenerate[0]) + 1).tolist()),
    )
