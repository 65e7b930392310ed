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

Each layout step is written once, for a stack (M, *dims) of tensors and
one mode at a time: _unfolding (the cyclic unfolding), _mode_rows (row i =
the mode-n slice i, flattened) and _stacked_transform (a size-1 mode
scaled elementwise); :func:`unfold` and :func:`multilinear_transform` run
them on a stack of one tensor.  Their transposes depend on the tensor order
alone and come from one table cached per order, _axis_table; their shapes
come from numpy's own shapes.

All operations are pure: inputs are never mutated and results never alias
caller storage.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ShapeError
from .smalllinalg import _norms, _pow2_restore, pow2_prescale


@dataclass(frozen=True, eq=False)
class ComplexTensor:
    """Order-N dense complex tensor, 1 <= N <= 63: numpy's limit of 64
    dimensions, less the stack axis that every kernel adds.  Any other
    order raises ShapeError."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128, order="C", copy=True)
        if arr.ndim < 1:
            raise ShapeError("tensor order must be >= 1")
        if arr.ndim > 63:
            raise ShapeError(f"tensor order must be at most 63, got {arr.ndim}")
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

    def __getitem__(self, indices):
        """Element access with 1-based integer indices, e.g. ``t[1, 2, 2]``;
        bools, floats and other non-integers raise ValueError."""
        if np.ndim(indices) == 0:
            indices = (indices,)
        if len(indices) != self.order:
            raise ShapeError(f"expected {self.order} indices, got {len(indices)}")
        for i, (idx, d) in enumerate(zip(indices, self.dims), start=1):
            if isinstance(idx, bool) or not isinstance(idx, numbers.Integral):
                raise ValueError(f"index {idx!r} in mode {i} is not an integer")
            if not 1 <= idx <= d:
                raise ValueError(f"index {idx} out of range 1..{d} in mode {i}")
        return complex(self.data[tuple(i - 1 for i in indices)])


def _dims(dims) -> tuple[int, ...]:
    """dims as a tuple of positive ints.  Python and numpy integers pass;
    a value that is not a sequence, bools, floats, strings, values below 1
    and more than 63 dims (as in ComplexTensor, but before any reshape)
    raise ShapeError."""
    try:  # bool is an int subclass, and True must not read as 1
        dims = tuple(dims)
        if any(isinstance(d, bool) for d in dims):
            raise TypeError
        checked = tuple(map(operator.index, dims))
    except TypeError:
        raise ShapeError(f"dims must be integers, got {dims!r}") from None
    if any(d < 1 for d in checked):
        raise ShapeError(f"dims must be positive, got {checked}")
    if len(checked) > 63:
        raise ShapeError(f"tensor order must be at most 63, got {len(checked)}")
    return checked


def make_tensor(dims, elements) -> ComplexTensor:
    """Build a tensor from its dimension vector and flat element vector.

    Parameters
    ----------
    dims : sequence of positive int (bools, floats and strings raise
        ShapeError)
    elements : array-like of complex, length prod(dims), C order
        (last index varies fastest).
    """
    dims = _dims(dims)
    flat = np.asarray(elements, dtype=np.complex128).ravel()
    expected = math.prod(dims)
    if flat.size != expected:
        raise ShapeError(
            f"got {flat.size} elements for dims {dims} (expected {expected})"
        )
    return ComplexTensor(flat.reshape(dims))


def _mode(mode, order: int) -> int:
    """mode as an int in 1..order.  Python and numpy integers pass; bools,
    floats and values out of range raise ValueError."""
    try:  # bool is an int subclass, and True must not read as 1
        if isinstance(mode, bool):
            raise TypeError
        checked = operator.index(mode)
    except TypeError:
        raise ValueError(f"mode must be an integer in 1..{order}, got {mode!r}") from None
    if not 1 <= checked <= order:
        raise ValueError(f"mode {checked} out of range 1..{order}")
    return checked


def _cyclic_axes(order: int, mode: int) -> tuple[int, ...]:
    # 0-based axis order (mode, mode+1, ..., N, 1, ..., mode-1)
    return (mode - 1, *range(mode, order), *range(mode - 1))


def _row_axes(order: int, mode: int) -> tuple[int, ...]:
    # 0-based axis order (mode, 1, ..., mode-1, mode+1, ..., N) of the mode-n
    # rows: row i is the slice at index i of mode n, flattened in C order
    return (mode - 1, *range(mode - 1), *range(mode, order))


def unfold(t: ComplexTensor, mode: int) -> np.ndarray:
    """Mode-n unfolding with the cyclic column ordering (see module docstring):
    a read-only complex ndarray of shape (dims[mode - 1], size / dims[mode - 1]).
    This is the stacks' unfolding kernel on a stack of one tensor, copied,
    since the kernel's mode-1 unfolding is a view of t."""
    m = _unfolding(t.data[None], _mode(mode, t.order))[0].copy()
    m.setflags(write=False)
    return m


def refold(m, mode: int, dims) -> ComplexTensor:
    """Inverse of :func:`unfold`: the tensor of shape dims whose mode-n
    unfolding is m; exact (no arithmetic) round trip."""
    dims = _dims(dims)
    mode = _mode(mode, len(dims))
    m = np.asarray(m, dtype=np.complex128)
    perm = _cyclic_axes(len(dims), mode)
    permuted_dims = tuple(dims[a] for a in perm)
    if m.shape != (dims[mode - 1], math.prod(permuted_dims[1:])):
        raise ShapeError(
            f"matrix shape {m.shape} inconsistent with dims {dims} at mode {mode}"
        )
    return ComplexTensor(m.reshape(permuted_dims).transpose(np.argsort(perm)))


def multilinear_transform(t: ComplexTensor, mats) -> ComplexTensor:
    """Apply one square matrix per mode:

        result_{j1...jN} = sum_{i1...iN} M1[j1,i1] ... MN[jN,iN] t_{i1...iN}

    Equivalently, unfold(result, n) = Mn @ unfold(t, n) @ kron(M_{n+1}, ...,
    M_{n-1}).T with the cyclic factor ordering.  This is the stacked
    transform :func:`_stacked_transform` on a stack of one tensor, so a
    size-1 mode is scaled elementwise.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    if len(mats) != t.order:
        raise ShapeError(f"expected {t.order} matrices, got {len(mats)}")
    for n, (m, d) in enumerate(zip(mats, t.dims), start=1):
        if m.shape != (d, d):
            raise ShapeError(f"matrix for mode {n} has shape {m.shape}, need ({d}, {d})")
    return ComplexTensor(_stacked_transform(t.data[None], [m[None] for m in mats])[0])


def _unfolding(x: np.ndarray, mode: int) -> np.ndarray:
    """The mode-n unfoldings (M, d, size / d) of a stack x (M, *dims), in the
    cyclic column order of the module docstring: a view of x where numpy can
    reshape without a copy, as it always can in mode 1."""
    cyclic = x.transpose(_axis_table(x.ndim - 1)[mode - 1][0])
    return cyclic.reshape(cyclic.shape[:2] + (math.prod(cyclic.shape[2:]),))


def _mode_rows(x: np.ndarray, mode: int) -> np.ndarray:
    """The mode-n rows (M, d, size / d) of a stack x (M, *dims): row i of a
    tensor is its slice at index i of mode n, flattened in C order."""
    rows = x.transpose(_axis_table(x.ndim - 1)[mode - 1][1])
    return rows.reshape(rows.shape[:2] + (math.prod(rows.shape[2:]),))


def _stacked_transform(x: np.ndarray, mats) -> np.ndarray:
    """:func:`multilinear_transform` of each tensor of a stack x (M, *dims),
    with mats[n-1] (M, d, d) applied in mode n, one mode at a time, by one
    matrix product over the stack per mode.  A size-1 mode is scaled
    elementwise instead: one complex product per entry, with no BLAS call."""
    for mat, (_, to_rows, back) in zip(mats, _axis_table(x.ndim - 1)):
        rows = x.transpose(to_rows)
        product = rows.reshape(rows.shape[:2] + (math.prod(rows.shape[2:]),))
        product = mat * product if rows.shape[1] == 1 else mat @ product
        x = product.reshape(rows.shape).transpose(back)
    return x


@cache
def _axis_table(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per mode n of a stack (M, *dims) of order-`order` tensors, three
    transposes: into the cyclic order, into the mode-row order, and back
    from a product of the mode rows, whose first tensor axis is mode n.
    They depend on the order alone, and the order limit of ComplexTensor,
    63, bounds the cache."""
    return tuple(((0, *(a + 1 for a in _cyclic_axes(order, n))),
                  (0, *(a + 1 for a in _row_axes(order, n))),
                  (0, *range(2, n + 1), 1, *range(n + 1, order + 1)))
                 for n in range(1, order + 1))


def norm(t: ComplexTensor) -> float:
    """Frobenius norm, sqrt(sum |t|^2), of t scaled by an exact power of two
    (see :func:`~hosvd3.smalllinalg.pow2_prescale`) and scaled back, so no
    square on the way overflows or underflows; inf only where the norm
    itself exceeds the float range.  Non-finite entries raise
    ValidationError."""
    data, e = pow2_prescale(t.data)
    return float(_pow2_restore(_norms(data[None]), e)[0])
