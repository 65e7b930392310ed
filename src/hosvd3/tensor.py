"""Dense complex tensors of arbitrary order.

Conventions
-----------
Public indices are 1-based, so formulas for amplitudes ``psi_{i1 i2 i3}``
with ``i in {1, 2}`` transcribe directly.  Storage is a C-ordered complex
ndarray: in the flat element vector the LAST index varies fastest, i.e.
the flat position of ``(i1, ..., iN)`` is ``sum_n (i_n - 1) * prod(dims[n:])``.

The mode-n unfolding maps element ``(i1, ..., iN)`` to row ``i_n`` and to
the column obtained by ranking the remaining indices in the cyclic order
``(i_{n+1}, ..., i_N, i_1, ..., i_{n-1})`` with the first listed slowest:

    col = (i_{n+1}-1) I_{n+2}...I_N I_1...I_{n-1} + ... + (i_N-1) I_1...I_{n-1}
          + (i_1-1) I_2...I_{n-1} + ... + i_{n-1}

All operations are pure: inputs are never mutated and results never alias
caller storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True, eq=False)
class ComplexTensor:
    """Order-N dense complex tensor (N >= 1)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128, order="C", copy=True)
        if arr.ndim < 1:
            raise ShapeError("tensor order must be >= 1")
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"dimensions must be positive, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    @property
    def elements(self) -> np.ndarray:
        """Flat element vector, C order (last index fastest). Copy."""
        return self.data.ravel().copy()

    def __getitem__(self, indices):
        """Element access with 1-based indices, e.g. ``t[1, 2, 2]``."""
        if np.ndim(indices) == 0:
            indices = (indices,)
        if len(indices) != self.order:
            raise ShapeError(f"expected {self.order} indices, got {len(indices)}")
        for i, (idx, d) in enumerate(zip(indices, self.dims), start=1):
            if not 1 <= idx <= d:
                raise ValueError(f"index {idx} out of range 1..{d} in mode {i}")
        return complex(self.data[tuple(i - 1 for i in indices)])


@dataclass(frozen=True, eq=False)
class UnfoldedMatrix:
    """Mode-n unfolding of a tensor; remembers the mode so it can be refolded."""

    entries: np.ndarray
    mode: int

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeError("unfolded matrix must be two-dimensional")
        if self.mode < 1:
            raise ValueError(f"mode must be >= 1, got {self.mode}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def make_tensor(dims, elements) -> ComplexTensor:
    """Build a tensor from its dimension vector and flat element vector.

    Parameters
    ----------
    dims : sequence of positive int
    elements : array-like of complex, length prod(dims), C order
        (last index varies fastest).
    """
    dims = tuple(int(d) for d in dims)
    flat = np.asarray(elements, dtype=np.complex128).ravel()
    expected = math.prod(dims)
    if flat.size != expected:
        raise ShapeError(
            f"got {flat.size} elements for dims {dims} (expected {expected})"
        )
    return ComplexTensor(flat.reshape(dims))


def _cyclic_axes(order: int, mode: int) -> list[int]:
    # 0-based axis order (mode, mode+1, ..., N, 1, ..., mode-1)
    return [mode - 1] + list(range(mode, order)) + list(range(0, mode - 1))


def _mode_rows(data: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n matricization of an ndarray: row i is the slice data[..., i, ...]
    at axis mode - 1, flattened in C order (unlike :func:`unfold`, not cyclic)."""
    axes = (mode - 1, *range(mode - 1), *range(mode, data.ndim))
    return data.transpose(axes).reshape(data.shape[mode - 1], -1)


def unfold(t: ComplexTensor, mode: int) -> UnfoldedMatrix:
    """Mode-n unfolding with the cyclic column ordering (see module docstring)."""
    if not 1 <= mode <= t.order:
        raise ValueError(f"mode {mode} out of range 1..{t.order}")
    perm = _cyclic_axes(t.order, mode)
    entries = t.data.transpose(perm).reshape(t.dims[mode - 1], -1)
    return UnfoldedMatrix(entries, mode)


def refold(m: UnfoldedMatrix, dims) -> ComplexTensor:
    """Inverse of :func:`unfold`; exact (no arithmetic) round trip."""
    dims = tuple(int(d) for d in dims)
    order = len(dims)
    mode = m.mode
    if not 1 <= mode <= order:
        raise ShapeError(f"stored mode {mode} inconsistent with {order} dims")
    perm = _cyclic_axes(order, mode)
    permuted_dims = tuple(dims[a] for a in perm)
    if m.entries.shape != (dims[mode - 1], math.prod(permuted_dims[1:])):
        raise ShapeError(
            f"matrix shape {m.entries.shape} inconsistent with dims {dims} "
            f"at mode {mode}"
        )
    inverse = np.argsort(perm)
    return ComplexTensor(m.entries.reshape(permuted_dims).transpose(inverse))


def multilinear_transform(t: ComplexTensor, mats) -> ComplexTensor:
    """Apply one square matrix per mode:

        result_{j1...jN} = sum_{i1...iN} M1[j1,i1] ... MN[jN,iN] t_{i1...iN}

    Equivalently, unfold(result, n) = Mn @ unfold(t, n) @ kron(M_{n+1}, ...,
    M_{n-1}).T with the cyclic factor ordering.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    if len(mats) != t.order:
        raise ShapeError(f"expected {t.order} matrices, got {len(mats)}")
    for n, (m, d) in enumerate(zip(mats, t.dims), start=1):
        if m.shape != (d, d):
            raise ShapeError(f"matrix for mode {n} has shape {m.shape}, need ({d}, {d})")
    out = t.data
    for mode, m in enumerate(mats, start=1):
        rows = _mode_rows(out, mode)
        out = np.dot(m, rows).reshape(-1, *out.shape[:mode - 1], *out.shape[mode:])
        out = out.transpose(*range(1, mode), 0, *range(mode, out.ndim))
    return ComplexTensor(out)


def inner(a: ComplexTensor, b: ComplexTensor) -> complex:
    """Conjugate-first inner product <a, b> = sum conj(a) * b."""
    if a.dims != b.dims:
        raise ShapeError(f"dims differ: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.data, b.data))


def norm(t: ComplexTensor) -> float:
    """Frobenius norm, sqrt(inner(t, t))."""
    return float(np.linalg.norm(t.data.ravel()))


def subtensor(t: ComplexTensor, mode: int, index: int) -> ComplexTensor:
    """Order N-1 tensor obtained by fixing the given mode's index (1-based)."""
    if t.order < 2:
        raise ValueError("subtensor requires order >= 2")
    if not 1 <= mode <= t.order:
        raise ValueError(f"mode {mode} out of range 1..{t.order}")
    if not 1 <= index <= t.dims[mode - 1]:
        raise ValueError(
            f"index {index} out of range 1..{t.dims[mode - 1]} in mode {mode}"
        )
    return ComplexTensor(np.take(t.data, index - 1, axis=mode - 1))
