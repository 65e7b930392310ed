"""Self-contained dense complex linear algebra for small matrices.

Hermitian eigenproblems are solved by complex Jacobi rotations, which are
unconditionally stable, in the round-robin (parallel) order of Brent and
Luk: each sweep is a fixed sequence of steps of disjoint index pairs, and
every pair is rotated at most once per sweep.  A rotation is elementwise
work on two rows and two columns.  The matrices of one size are swept
together as a stack, stored side by side in one array, and the rotations
of one step in every matrix of the stack are applied as one numpy update;
a matrix solved alone is a stack of one.  Each entry gets the same
elementwise operations in the same order whatever else is in the stack, so
a matrix's bits do not depend on its stack mates.  Every solve goes
through :func:`_eigh_stack`, which rotates a 2x2 matrix in closed form with
the sweep's arithmetic and ends in one epilogue (:func:`_ordered`: gauge,
order and degeneracy flag).  No rotation goes through a matrix
product, so the eigensolver uses no BLAS and its output does not depend on
the memory layout of its input.  The order, pivot test and gauge are
fixed, so the same input gives the same output bits.  Gram products, the
multilinear transforms and the Frobenius norm (:func:`_norms`, which
``norm``, ``normalize``, ``hosvd`` and ``classify`` read) do use numpy's
matrix product (BLAS), so full outputs are reproducible on one machine and
numpy build, and other BLAS builds may differ in the last bits.

The Gram (:func:`_gram_stack`), the Frobenius norm (:func:`_norms`) and
the power-of-two prescale (:func:`_pow2_blocks`) are each written once,
for stacks: :func:`gram` and :func:`pow2_prescale` run them on one matrix
or array, the HOSVD on its stacked Grams, and ``normalize`` on its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NumericalError, ValidationError

_MAX_SWEEPS = 60
# pivots at or below this are not rotated, in a matrix prescaled so that its
# largest part lies in [0.5, 1); a sweep that rotates nothing ends the solve
_PIVOT_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (real, descending) and a unitary whose columns are eigenvectors.

    ``degenerate`` is set when two consecutive sorted eigenvalues are within
    tol * sum(|eigenvalues|) (tol * ||X||^2 for a Gram matrix of X), with the
    tolerance passed to :func:`hermitian_eig`; the eigenvectors are still
    orthonormal but individual columns are then gauge-dependent.
    ``sweeps`` counts the Jacobi sweeps, the last one, which rotates
    nothing, included; ``rotations`` counts the pivots rotated in them.
    """

    eigenvalues: np.ndarray
    unitary: np.ndarray
    degenerate: bool
    sweeps: int
    rotations: int


def gram(m) -> np.ndarray:
    """Gram matrix M @ M^dagger of a complex r x c matrix: r x r, Hermitian,
    PSD.  This is the stacked Gram of :func:`~hosvd3.hosvd.hosvd` on one
    matrix.  Non-finite entries raise ValidationError."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError("gram expects a matrix")
    if not np.isfinite(m).all():
        raise ValidationError("entries must be finite")
    return _gram_stack(m)


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


def _tolerance(name: str, value: float) -> float:
    """value, when it is finite and >= 0; ValidationError naming it otherwise
    (NaN included).  The tolerances of every entry point go through this."""
    if not 0.0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def pow2_prescale(x) -> tuple[np.ndarray, int]:
    """(x * 2^-e, e) for a complex array x, with e chosen so that the largest
    real or imaginary part of the result lies in [0.5, 1) (e = 0 when x is
    zero).  A part p with |p| >= 2^(e - 1022), which holds for zeros and for
    every part at least 2^-1021 times the largest, scales to a normal number
    and so exactly: ldexp gives it back.  A smaller part scales into the
    subnormal range, where it can lose low bits (2^-500 (1 + 2^-52) next to
    2^600) or become 0 (2^-1000 next to 2^1000).  A Gram matrix of the
    result cannot overflow, and its largest entries are far from underflow.
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


@cache
def _round_robin(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """One sweep of the round-robin tournament on n indices.

    Each step is a pair (ps, qs) of index tuples with ps[k] < qs[k]; the
    pairs of a step are disjoint, and over the steps every pair p < q
    appears exactly once.  For odd n the tournament has a dummy index n,
    so each step leaves out the one index paired with it.
    """
    m = n + n % 2
    ring = list(range(1, m))
    steps = []
    for _ in range(m - 1):
        seats = [0, *ring]
        pairs = sorted(
            (min(a, b), max(a, b))
            for a, b in zip(seats[: m // 2], seats[: m // 2 - 1 : -1])
            if max(a, b) < n
        )
        steps.append((tuple(p for p, _ in pairs), tuple(q for _, q in pairs)))
        ring = ring[-1:] + ring[:-1]
    return tuple(steps)


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


@cache
def _stack_steps(n: int, b: int) -> tuple[np.ndarray, ...]:
    """_round_robin(n) as index tables into a stack of b n x n matrices.

    The stack is a C-contiguous (2n, b*n) array w whose block k, columns
    k*n to (k+1)*n, holds [A_k; V_k].  Each step is one (8, b*(n//2)) int
    array with a column per pair of each matrix, block by block.  Its rows
    are pq, pp, qq, qp (flat indices of the pivot entries of A_k in w), p,
    q (columns of w), and p, q once more as rows of w[:n] viewed as n*b rows
    of length n, where row p*b + k is row p of A_k.
    """
    width = b * n
    k = np.repeat(np.arange(b), n // 2)
    steps = []
    for ps, qs in _round_robin(n):
        p, q = np.tile(np.array((ps, qs), dtype=np.intp), b)
        col_p, col_q = k * n + p, k * n + q
        step = np.stack((
            p * width + col_q, p * width + col_p, q * width + col_q, q * width + col_p,
            col_p, col_q, p * b + k, q * b + k,
        ))
        step.setflags(write=False)
        steps.append(step)
    return tuple(steps)


def _sweep_stack(w: np.ndarray, b: int, steps) -> np.ndarray:
    # One sweep over a stack of b matrices (see _stack_steps), each step's
    # disjoint rotations applied to every matrix at once.  The column
    # rotation acts on [A_k; V_k], the row rotation on A_k only.  Pivots at
    # or below _PIVOT_TOL are dropped before any division.  Every entry gets
    # the same elementwise operations in the same order whatever else is in
    # the stack, so a matrix's bits do not depend on its stack mates.  A
    # sweep that rotates nothing in a matrix leaves all its pivots at or
    # below _PIVOT_TOL, so later sweeps do not change it either.  Returns,
    # per matrix, the number of pairs this sweep rotated: an unmasked step
    # rotates n // 2 in each, counted without numpy work.
    n = w.shape[0] // 2
    flat = w.reshape(-1)
    rows = w[:n].reshape(n * b, n)
    masked = np.zeros(b * (n // 2), dtype=np.intp)
    unmasked = 0
    for step in steps:
        apq = flat[step[0]]
        mag = np.hypot(apq.real, apq.imag)
        big = mag > _PIVOT_TOL
        if big.all():
            unmasked += 1
        else:
            if not big.any():
                continue
            masked += big
            step, apq, mag = step[:, big], apq[big], mag[big]
        pq, pp, qq, qp, ps, qs, rp, rq = step
        app, aqq = flat[pp].real, flat[qq].real
        t, c, s, phase = _rotation(app, aqq, apq, mag)
        sp, cp = s * phase, c * phase
        wp, wq = w[:, ps], w[:, qs]
        w[:, ps] = c * wp - sp * wq
        w[:, qs] = s * wp + cp * wq
        c, s = c[:, None], s[:, None]
        sp, cp = sp.conj()[:, None], cp.conj()[:, None]
        ap, aq = rows[rp], rows[rq]
        rows[rp] = c * ap - sp * aq
        rows[rq] = s * ap + cp * aq
        flat[pp] = app - t * mag
        flat[qq] = aqq + t * mag
        flat[pq] = flat[qp] = 0.0
    return unmasked * (n // 2) + masked.reshape(b, -1).sum(axis=1)


def _solve_stack(a: np.ndarray):
    # Sweeps a stack a (b, n, n) until a sweep rotates none of it, at most
    # _MAX_SWEEPS times.  Returns the diagonals (b, n), the rotated
    # identities (b, n, n) and per matrix the counts of EigenDecomposition.
    b, n = a.shape[:2]
    w = np.vstack((a.transpose(1, 0, 2).reshape(n, b * n),
                   np.tile(np.eye(n, dtype=np.complex128), b)))
    steps = _stack_steps(n, b)
    sweeps = np.ones(b, dtype=np.intp)
    rotations = np.zeros(b, dtype=np.intp)
    for _ in range(_MAX_SWEEPS):
        rotated = _sweep_stack(w, b, steps)
        if not rotated.any():
            break
        sweeps += rotated > 0
        rotations += rotated
    blocks = w.reshape(2 * n, b, n)
    eigenvalues, v = blocks[:n].diagonal(axis1=0, axis2=2).real, blocks[n:].transpose(1, 0, 2)
    return eigenvalues, v, sweeps, rotations


def _prescaled(h, tol: float) -> tuple[np.ndarray, int]:
    # (2^-e h made exactly Hermitian, e) for a validated h
    h = np.asarray(h, dtype=np.complex128)
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
    degenerate = (gaps <= tol * np.abs(eigenvalues).sum(axis=1, keepdims=True)).any(axis=1)
    return eigenvalues, np.ascontiguousarray(columns.swapaxes(1, 2)), degenerate


def _eigh_stack(a: np.ndarray, tol: float):
    """:func:`_ordered` of the eigenpairs of a stack a (b, n, n) of exactly
    Hermitian matrices prescaled as by :func:`pow2_prescale`, with the
    counts of :class:`EigenDecomposition` (sweeps above _MAX_SWEEPS: not
    converged).  A 2x2 matrix takes its one rotation in closed form, with
    the sweep's pivot test and arithmetic, and so the sweeps' bits and counts.
    """
    n = a.shape[1]
    if n == 2:
        app, aqq, apq = a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1]
        mag = np.hypot(apq.real, apq.imag)
        rotated = mag > _PIVOT_TOL
        t, c, s, phase = _rotation(app, aqq, apq, np.where(rotated, mag, 1.0))
        eigenvalues = np.stack((np.where(rotated, app - t * mag, app),
                                np.where(rotated, aqq + t * mag, aqq)), axis=1)
        # V = I with its columns rotated as _sweep_stack rotates them, to the
        # sign of every zero: the products there give (c, +0), (s, +0) and
        # 0 - sp, since c > 0 and s != 0, and the last entry keeps them; an
        # unrotated matrix gets c, s, phase = 1, 0, 1, which give I
        c, s = np.where(rotated, c, 1.0), np.where(rotated, s, 0.0)
        phase = np.where(rotated, phase, 1.0)
        sp, cp = s * phase, c * phase
        v = np.stack((c.astype(np.complex128), s.astype(np.complex128), 0.0 - sp,
                      s * 0j + cp * (1 + 0j)), axis=1).reshape(-1, 2, 2)
        sweeps, rotations = 1 + rotated, rotated.astype(np.intp)
    else:
        eigenvalues, v, sweeps, rotations = _solve_stack(a)
    return (*_ordered(eigenvalues, v, tol), sweeps, rotations)


def _check_converged(sweeps: np.ndarray) -> None:
    # NumericalError naming the first entry of sweeps, counted from 1, that
    # exceeds _MAX_SWEEPS
    failed = np.flatnonzero(sweeps > _MAX_SWEEPS)
    if failed.size:
        raise NumericalError(f"Jacobi sweeps did not converge in {_MAX_SWEEPS} iterations",
                             mode=int(failed[0]) + 1)


def hermitian_eig(h, tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by round-robin Jacobi sweeps.

    Parameters
    ----------
    h : square complex matrix with finite entries, Hermitian within `tol`
        relative to its scale: elementwise, after the scaling below, which
        puts the largest real or imaginary part of h in [0.5, 1).
    tol : relative hermiticity slack (see h), and the degeneracy threshold
        relative to sum(|eigenvalues|).

    The matrix is first scaled by an exact power of two (see
    :func:`pow2_prescale`), which makes the pivot threshold relative and
    the result independent of scale: the eigenvalues of 2^k h are exactly
    2^k times those of h, with the same eigenvectors.  Eigenvalues
    are returned descending.  Each eigenvector column is gauge fixed: its
    largest-magnitude entry (lowest row on ties) is made real and
    nonnegative, so identical input bits give identical output bits.

    This is the solver of :func:`~hosvd3.hosvd.hosvd` on a stack of one: a
    matrix gets the same bits and counts in its stacks as here.  A negative
    or non-finite tol raises ValidationError, unconverged sweeps NumericalError.
    """
    tol = _tolerance("tol", tol)
    a, e = _prescaled(h, tol)
    eigenvalues, v, degenerate, sweeps, rotations = _eigh_stack(a[None], tol)
    _check_converged(sweeps)
    eigenvalues, v = np.ldexp(eigenvalues[0], e), v[0]
    eigenvalues.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, unitary=v, degenerate=bool(degenerate[0]),
                              sweeps=int(sweeps[0]), rotations=int(rotations[0]))
