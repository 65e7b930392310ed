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
from .smalllinalg import (
    _eigh_stack, _gram_stack, _norms, _pow2_blocks, _pow2_restore, _tolerance, pow2_prescale,
)
from .tensor import ComplexTensor, _mode_rows, _require_tensor, _stacked_transform, _unfolding


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
    is not checked: its residual is 0.0.  A core with a non-finite entry,
    or one that is not a ComplexTensor, raises ValidationError.  This is
    the kernel that :func:`hosvd` and :func:`~hosvd3.qubit3.classify`
    read, on a stack of one core.  As in
    :func:`hosvd`, it runs on the core scaled by an exact power of two (see
    :func:`pow2_prescale`), and the value is scaled back: inf only where it
    exceeds the float range, never NaN.
    """
    x, e = pow2_prescale(_require_tensor(core).data[None])
    return float(_pow2_restore(_all_orthogonality(x), 2 * e)[0])


def _all_orthogonality(core: np.ndarray) -> np.ndarray:
    """verify_all_orthogonality (M,) of each core of a stack (M, *dims): mode
    by mode, the largest off-diagonal modulus of the _gram_stack of that
    mode's _unfolding; 0.0 for vectors, whose Gram is not checked."""
    worst = np.zeros(core.shape[0])
    if core.ndim == 2:
        return worst
    for n, d in enumerate(core.shape[1:], start=1):
        g = _gram_stack(_unfolding(core, n)).reshape(-1, d * d)
        g[:, ::d + 1] = 0.0  # the diagonal, below every off-diagonal modulus
        worst = np.maximum(worst, np.abs(g).max(axis=1))
    return worst


def _residuals(x: np.ndarray, core: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """(||(U(1) x ... x U(N)) core - x|| / ||x||, _all_orthogonality(core)),
    each (M,), of a stack x (M, *dims) and its _hosvd_stack core and factors."""
    return _norms(_stacked_transform(core, factors) - x) / _norms(x), _all_orthogonality(core)


def _mode_grams(x: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """The Grams of a stack x (M, *dims) in the given 1-based modes, all of
    one size d, each prescaled by _pow2_blocks: one stack (len(modes) * M,
    d, d), mode by mode, tensor by tensor.  Each Gram is formed from its
    mode's own _unfolding, so one unfolding is held at a time."""
    d = x.shape[modes[0]]
    a, _, _ = _pow2_blocks(np.array([_gram_stack(_unfolding(x, n)) for n in modes]), (2, 3))
    return a.reshape(-1, d, d)


def _hosvd_stack(x: np.ndarray, tol: float):
    """(core, factors, spectra, degenerate): the HOSVD of each tensor of a
    stack x (M, *dims) with parts at most 1 in magnitude, the core
    C-ordered, factors and spectra per mode, flags (M, N).  The Grams of
    one size, each from its own mode's unfolding, are one _mode_grams
    stack, solved by one _eigh_stack call, whose LinAlgError is left to
    the caller; the spectra are the core's slice norms.  A tensor gets the
    same bits alone as in any stack."""
    m, dims, order = x.shape[0], x.shape[1:], x.ndim - 1
    factors, adjoints = [None] * order, [None] * order
    degenerate = np.empty((m, order), dtype=bool)
    for d in dict.fromkeys(dims):
        modes = [n for n in range(order) if dims[n] == d]
        _, v, flags = _eigh_stack(_mode_grams(x, tuple(n + 1 for n in modes)), tol)
        v = v.reshape(len(modes), m, d, d)
        v.setflags(write=False)
        vh = v.conj().swapaxes(2, 3)
        for j, n in enumerate(modes):
            factors[n], adjoints[n] = v[j], vh[j]
            degenerate[:, n] = flags[j * m:(j + 1) * m]
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
    residual are scaled back, so no Gram entry overflows or underflows.
    A core or spectrum entry past the float range (about 1.8e308) raises
    DomainError.  The reconstruction residual is relative to ||t||, but
    the all-orthogonality residual is in absolute (||t||^2) units, so it
    scales with t: for a Gaussian tensor it reads 0.0 at scale 2^-1000
    and inf at 2^1000, inf only where it exceeds the float range.  A t
    that is not a ComplexTensor, and a tol that is a bool, not a real
    number, negative or not finite, raise ValidationError.
    """
    tol = _tolerance("tol", tol)
    x, e = pow2_prescale(_require_tensor(t).data[None])
    if not x.any():
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
    rec, ao = _residuals(x, core, factors)
    # a spectrum entry can overflow where every core entry is finite
    restored = [_pow2_restore(a[0], e) for a in (core, *spectra)]
    if not all(np.isfinite(a).all() for a in restored):
        raise DomainError("HOSVD core or spectra exceed the float range (about 1.8e308)")

    return HosvdResult(
        factors=tuple(u[0] for u in factors),
        core=ComplexTensor(restored[0]),
        spectra=tuple(restored[1:]),
        residuals=HosvdResiduals(float(rec[0]), float(_pow2_restore(ao, 2 * e)[0])),
        degenerate_modes=frozenset((np.flatnonzero(degenerate[0]) + 1).tolist()),
    )
