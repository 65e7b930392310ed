"""Self-contained dense complex linear algebra for small matrices.

Every Hermitian eigenproblem goes through :func:`_eigh_stack`, on a stack
of equal-size matrices; a matrix solved alone is a stack of one.  A 2x2
matrix takes at most one complex Jacobi rotation, in closed form and
elementwise, with no BLAS or LAPACK call.  Every other size is one call of
numpy's LAPACK ``eigh`` on the stack, which solves each matrix on its own
copy, so a matrix's bits do not depend on its stack mates or on the memory
layout of its input.  Both paths end in one epilogue (:func:`_ordered`:
gauge, order and degeneracy flag), so the same input gives the same output
bits.  Gram products, the multilinear transforms, the Frobenius norm
(:func:`_norms`, which ``norm``, ``normalize``, ``hosvd`` and ``classify``
read) and the solves from size 3 up use numpy's BLAS and LAPACK, so full
outputs are reproducible on one machine and numpy build, and other builds
may differ in the last bits.

The Gram (:func:`_gram_stack`), the Frobenius norm (:func:`_norms`) and
the power-of-two prescale (:func:`_pow2_blocks`) are each written once,
for stacks: :func:`gram` and :func:`pow2_prescale` run them on one matrix
or array, the HOSVD on its stacked Grams, and ``normalize`` on its rows.
Every result that must be scaled back after a prescale is scaled back
by one rule, :func:`_pow2_restore`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# a 2x2 pivot at or below this, in a matrix prescaled so that its largest
# part lies in [0.5, 1), is not rotated
_PIVOT_TOL = 1e-15


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
    """Gram matrix M @ M^dagger of a complex r x c matrix: r x r, Hermitian,
    PSD.  This is the stacked Gram of :func:`~hosvd3.hosvd.hosvd` on one
    matrix, formed on M scaled by an exact power of two (see
    :func:`pow2_prescale`) and scaled back, so no product on the way
    overflows: an entry reads inf only where it exceeds the float range,
    never NaN.  Entries that are not numbers, or not finite, raise
    ValidationError."""
    m = _complex_array("m", m)
    if m.ndim != 2:
        raise ValidationError("gram expects a matrix")
    a, e = pow2_prescale(m)
    return _pow2_restore(_gram_stack(a), 2 * e)


def _gram_stack(m: np.ndarray) -> np.ndarray:
    """M @ M^dagger of each matrix of a stack m (..., r, c), made exactly Hermitian."""
    g = m @ m.conj().swapaxes(-1, -2)
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def _norms(z: np.ndarray) -> np.ndarray:
    """The Frobenius norm (M,) of each complex array of a stack z (M, ...):
    sqrt(re . re + im . im) by matrix products, with the bits of numpy's norm
    of the flat array, alone or in any stack."""
    flat = z.reshape(z.shape[0], 1, math.prod(z.shape[1:]))
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def _tolerance(name: str, value) -> float:
    """value as a float, when it is a real number (not a bool), finite and
    >= 0; ValidationError naming it otherwise (NaN included).  The
    tolerances of every entry point go through this."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def _complex_array(name: str, value) -> np.ndarray:
    """value as a complex128 ndarray (value itself where it is one), or
    ValidationError naming it where numpy cannot convert it, such as a
    string that is not a number.  The arrays every entry point takes from
    its caller go through this."""
    try:
        return np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be complex numbers: {exc}") from exc


def _threshold(tol: float, scale):
    """tol * scale, for a scale that bounds every quantity compared with
    the product: any tol above 2 then decides as 2 does, so it is read as
    2, and the product of a tolerance near the float maximum cannot
    overflow."""
    return min(tol, 2.0) * scale


def pow2_prescale(x) -> tuple[np.ndarray, int]:
    """(x * 2^-e, e) for a complex array x, with e chosen so that the largest
    real or imaginary part of the result lies in [0.5, 1) (e = 0 when x is
    zero).  A part p with |p| >= 2^(e - 1022), which holds for zeros and for
    every part at least 2^-1021 times the largest, scales to a normal number
    and so exactly: :func:`_pow2_restore` gives it back.  A smaller part
    scales into the subnormal range, where it can lose low bits
    (2^-500 (1 + 2^-52) next to 2^600) or become 0 (2^-1000 next to
    2^1000).  A Gram matrix of the result cannot overflow, and its largest
    entries are far from underflow.
    Non-finite entries raise ValidationError."""
    scaled, e, _ = _pow2_blocks(x, None)
    return scaled, e.item()


def _pow2_blocks(x, axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x * 2^-e, e, largest) for a complex array x, per block of its real
    view over the axes `axis` (None: all of it; the last axis always in):
    largest is the block's largest |part| and e its frexp exponent, both
    kept as size-1 axes.  Non-finite entries raise ValidationError."""
    parts = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    largest = np.abs(parts).max(axis=axis, initial=0.0, keepdims=True)
    if not math.isfinite(largest.max(initial=0.0)):
        raise ValidationError("entries must be finite")
    e = np.frexp(largest)[1]
    return np.ldexp(parts, -e).view(np.complex128), e, largest


def _pow2_restore(x: np.ndarray, e) -> np.ndarray:
    """x * 2^e for a real or complex array x, which undoes
    :func:`pow2_prescale` (a Gram or a square takes 2e): exact wherever the
    result is a normal number, inf past the float range, never NaN, and
    with no overflow warning.  Every scale-back of a prescale is this one."""
    with np.errstate(over="ignore"):
        return np.ldexp(x.view(np.float64), e).view(x.dtype)


def _rotation(app, aqq, apq, mag):
    """(t, c, s, phase) of the Jacobi rotations that zero the pivots apq of
    the 2x2 Hermitian blocks [[app, apq], [conj(apq), aqq]], as arrays: app
    and aqq are the real diagonals, mag = np.hypot(apq.real, apq.imag) > 0.
    t is the tangent, c and s the cosine and sine, phase = conj(apq) / mag;
    the rotation leaves app - t * mag and aqq + t * mag on the diagonal, and
    the columns (c, -s phase) and (s, c phase) in V."""
    d, m2 = aqq - app, 2.0 * mag
    t = np.copysign(m2 / (np.abs(d) + np.hypot(d, m2)), d)
    c = 1.0 / np.hypot(1.0, t)
    # divided part by part
    return t, c, t * c, apq.real / mag - 1j * (apq.imag / mag)


def _prescaled(h, tol: float) -> tuple[np.ndarray, int]:
    # (2^-e h made exactly Hermitian, e) for a validated h
    h = _complex_array("h", h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError("eigendecomposition expects a square matrix")
    a, e = pow2_prescale(h)
    herm_defect = float(np.abs(a - a.conj().T).max(initial=0.0))
    if herm_defect > tol:
        raise ValidationError(
            f"matrix is not Hermitian within {tol} (relative defect {herm_defect:.3e})"
        )
    return (a + a.conj().T) / 2.0, e


def _ordered(eigenvalues: np.ndarray, v: np.ndarray, tol: float):
    """(eigenvalues, v, degenerate) of b solved Hermitian matrices, from
    their eigenvalues (b, n) and eigenvector columns v (b, n, n): each column
    gauge fixed (its largest-magnitude entry, lowest row on ties, made real
    and >= 0), the columns in stable descending order of eigenvalue, and per
    matrix the flag that two consecutive eigenvalues are within
    tol * sum(|eigenvalues|)."""
    b, n = eigenvalues.shape
    stack = np.arange(b)[:, None]
    order = (-eigenvalues).argsort(axis=1, kind="stable")
    eigenvalues = eigenvalues[stack, order]
    columns = v.swapaxes(1, 2)[stack, order]
    if n:
        pivots = columns[stack, np.arange(n), np.abs(columns).argmax(axis=2)]
        columns *= (pivots.conj() / np.abs(pivots))[:, :, None]
    gaps = eigenvalues[:, :-1] - eigenvalues[:, 1:]
    # no gap exceeds sum(|eigenvalues|)
    scale = _threshold(tol, np.abs(eigenvalues).sum(axis=1, keepdims=True))
    degenerate = (gaps <= scale).any(axis=1)
    return eigenvalues, np.ascontiguousarray(columns.swapaxes(1, 2)), degenerate


def _eigh_stack(a: np.ndarray, tol: float):
    """:func:`_ordered` of the eigenpairs of a stack a (b, n, n) of exactly
    Hermitian matrices prescaled as by :func:`pow2_prescale`.  A 2x2 matrix
    takes one Jacobi rotation in closed form, where its pivot is above
    _PIVOT_TOL; every other size is one LAPACK eigh call on the stack, whose
    LinAlgError (no convergence) is left to the caller.
    """
    n = a.shape[1]
    if n == 2:
        app, aqq, apq = a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1]
        mag = np.hypot(apq.real, apq.imag)
        rotated = mag > _PIVOT_TOL
        t, c, s, phase = _rotation(app, aqq, apq, np.where(rotated, mag, 1.0))
        eigenvalues = np.stack((np.where(rotated, app - t * mag, app),
                                np.where(rotated, aqq + t * mag, aqq)), axis=1)
        # V = I with its columns p, q replaced by c p - s phase q and
        # s p + c phase q, as a Jacobi sweep rotates them, to the sign of
        # every zero: the products there give (c, +0), (s, +0) and 0 - sp,
        # since c > 0 and s != 0, and the last entry keeps them; an
        # unrotated matrix gets c, s, phase = 1, 0, 1, which give I
        c, s = np.where(rotated, c, 1.0), np.where(rotated, s, 0.0)
        phase = np.where(rotated, phase, 1.0)
        sp, cp = s * phase, c * phase
        v = np.stack((c.astype(np.complex128), s.astype(np.complex128), 0.0 - sp,
                      s * 0j + cp * (1 + 0j)), axis=1).reshape(-1, 2, 2)
    else:
        eigenvalues, v = np.linalg.eigh(a)
    return _ordered(eigenvalues, v, tol)


def hermitian_eig(h, tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : square complex matrix with finite entries, Hermitian within `tol`
        relative to its scale: elementwise, after the scaling below, which
        puts the largest real or imaginary part of h in [0.5, 1).
    tol : relative hermiticity slack (see h), and the degeneracy threshold
        relative to sum(|eigenvalues|).

    The matrix is first scaled by an exact power of two (see
    :func:`pow2_prescale`), which makes the result independent of scale:
    the eigenvalues of 2^k h are exactly 2^k times those of h, with the
    same eigenvectors, and an eigenvalue past the float range reads inf,
    never NaN.  A 2x2 matrix takes at most one Jacobi rotation, in
    closed form; other sizes are solved by numpy's LAPACK ``eigh``.
    Eigenvalues are returned descending.  Each eigenvector column is gauge
    fixed: its largest-magnitude entry (lowest row on ties) is made real
    and nonnegative, so identical input bits give identical output bits.

    This is the solver of :func:`~hosvd3.hosvd.hosvd` on a stack of one: a
    matrix gets the same bits in its stacks as here.  An h whose entries
    are not numbers, and a tol that is a bool, not a real number, negative
    or not finite, raise ValidationError, and a LAPACK failure to converge
    NumericalError with mode 1.
    """
    tol = _tolerance("tol", tol)
    a, e = _prescaled(h, tol)
    try:
        eigenvalues, v, degenerate = _eigh_stack(a[None], tol)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}", mode=1) from exc
    eigenvalues, v = _pow2_restore(eigenvalues[0], e), v[0]
    eigenvalues.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, unitary=v, degenerate=bool(degenerate[0]))
