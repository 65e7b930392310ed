"""Three-qubit specialization: reduced density matrices, separability tests,
core-tensor identities, case/special-state classification, and the polytope
of largest one-body eigenvalues.

A state is a :class:`ThreeQubitState`, a unit-norm 2x2x2 ComplexTensor, so
it goes wherever a tensor goes.  Qubits are labeled A, B, C and correspond
to tensor modes 1, 2, 3.  The squared largest mode-n singular value
sigma1(n)^2 is the top eigenvalue of that qubit's reduced density matrix;
the triple of these lives in the polytope  1/2 <= s_i <= 1,
s_i + s_j - s_k <= 1.  Per state, :func:`classify` reads the triple off the
state's one HOSVD and evaluates the core identities at it.  For many states
at once, :func:`classify_batch` computes the same HOSVD in closed form (one
Jacobi rotation per 2x2 Gram matrix) as array operations;
:func:`batch_sigma_squares` is its sigma triple.  Both make their decisions
with the same array functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ShapeError, ValidationError
from .hosvd import hosvd, verify_all_orthogonality
from .smalllinalg import _PIVOT_TOL, gram, pow2_prescale
from .tensor import ComplexTensor, _cyclic_axes, norm, unfold

CUTS = ("A_BC", "B_CA", "C_AB")
_CUT_MODE = {"A_BC": 1, "B_CA": 2, "C_AB": 3}

# Core support patterns of the special states, as flat indices
# 4(i1-1) + 2(i2-1) + (i3-1), paired with the sigma case they require.
_SPECIAL_SUPPORT = (
    ("ghz", frozenset({0, 7}), "case1"),
    ("s1", frozenset({0, 1, 6, 7}), "case2_12"),
    ("s2", frozenset({0, 2, 5, 7}), "case2_13"),
    ("s3", frozenset({0, 3, 4, 7}), "case2_23"),
    ("b1", frozenset({0, 3, 5, 6}), "case3"),
    ("b2", frozenset({1, 2, 4, 7}), "case3"),
)

# Decision tables, indexed by a code whose bit k is the k-th comparison a
# decision reads (see _bits).  Separability: bit n is set when qubit n+1's
# one-body matrix is pure; two pure ones force the third, so two or more
# bits are the product case.
_SEPARABILITY = np.array(["genuine", "biseparable_A_BC", "biseparable_B_CA", "fully_separable",
                          "biseparable_C_AB", "fully_separable", "fully_separable",
                          "fully_separable"])
# Case: bits 0, 1, 2 are the equalities s1 = s2, s1 = s3, s2 = s3, which sit
# at flat positions 1, 2 and 5 of the 3x3 table of |s_i - s_j|.  Three, or
# two that force the third within 2*sigma_tol, are case 1.
_CASE = np.array(["case3", "case2_12", "case2_13", "case1", "case2_23", "case1", "case1",
                  "case1"])
_CASE_BITS = np.array([0, 1, 2, 0, 0, 4, 0, 0, 0])
# Special tags: per core support (bit i for flat index i), the position in
# _SPECIAL_SUPPORT of the first pattern that contains it, or that of "none".
_TAG = np.array([tag for tag, _, _ in _SPECIAL_SUPPORT] + ["none"])
_TAG_CASE = np.array([case for _, _, case in _SPECIAL_SUPPORT] + [""])
_POWERS = 1 << np.arange(8)


def _first_pattern_table() -> np.ndarray:
    # plain Python: numpy ops here would touch about 0.4 MiB more of numpy's
    # code at import
    masks = [sum(1 << i for i in pattern) for _, pattern, _ in _SPECIAL_SUPPORT]
    return np.array([next((k for k, mask in enumerate(masks) if not support & ~mask), len(masks))
                     for support in range(256)])


_FIRST_PATTERN = _first_pattern_table()


@dataclass(frozen=True, eq=False)
class ThreeQubitState(ComplexTensor):
    """Normalized pure state of three qubits: a 2x2x2 ComplexTensor of unit
    norm, built from 8 amplitudes in C order.  Read it as ``s.data`` or,
    1-based, as ``s[i1, i2, i3]``, and pass it wherever a tensor goes."""

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.size != 8:
            raise ShapeError(f"need 8 amplitudes, got {arr.size}")
        object.__setattr__(self, "data", arr.reshape(2, 2, 2))
        super().__post_init__()
        total = np.linalg.norm(self.data.ravel())
        if not abs(total - 1.0) <= 1e-10:
            raise ValidationError(
                f"state is not normalized (norm {total!r}); use normalize()"
            )


def normalize(amplitudes) -> ThreeQubitState:
    """Scale 8 amplitudes to unit norm, preserving relative phases.

    An exact power-of-two prescale of the largest part keeps the norm from
    overflowing or underflowing; ordinary inputs keep their bits.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
    if amps.size != 8:
        raise ShapeError(f"need 8 amplitudes, got {amps.size}")
    arr, _ = pow2_prescale(amps)
    if not arr.any():
        raise DomainError("cannot normalize the zero vector")
    return ThreeQubitState(arr.reshape(2, 2, 2) / np.linalg.norm(arr))


def _unit_rows(amps: np.ndarray) -> np.ndarray:
    """The rows of an (M, 8) complex array scaled to unit norm, as (M, 2, 2, 2):
    :func:`normalize`, row by row, to the same bits.

    Each row is first scaled by an exact power of two (see
    :func:`pow2_prescale`), so its norm neither overflows nor underflows.
    The norm is made of the two dot products np.linalg.norm takes of one
    vector, taken row by row, so a row gets the same bits alone or in any
    batch.  Non-finite entries raise ValidationError, a zero row DomainError.
    """
    parts = np.ascontiguousarray(amps).view(np.float64)
    largest = np.abs(parts).max(axis=1, initial=0.0)
    if not np.all(largest < math.inf):
        raise ValidationError("entries must be finite")
    if not np.all(largest > 0.0):
        raise DomainError("cannot normalize the zero vector")
    parts = np.ldexp(parts, -np.frexp(largest)[1][:, None])[:, None]
    re, im = parts[..., 0::2], parts[..., 1::2]
    norms = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))
    return (parts.view(np.complex128) / norms).reshape(-1, 2, 2, 2)


def one_body_rdms(s: ThreeQubitState) -> tuple[np.ndarray, ...]:
    """rho^A, rho^B, rho^C, in that order: the Gram matrices of the three
    unfoldings, as read-only 2x2 arrays."""
    return _read_only(gram(unfold(s, mode)) for mode in (1, 2, 3))


def two_body_rdms(s: ThreeQubitState) -> tuple[np.ndarray, ...]:
    """rho^{AB}, rho^{CA}, rho^{BC}, in that order, as read-only 4x4 arrays;
    each is gram(unfolding.T), i.e. unfolding.T @ conj(unfolding), of the
    unfolding of the remaining qubit."""
    return _read_only(gram(unfold(s, mode).T) for mode in (3, 2, 1))


def _read_only(arrays) -> tuple[np.ndarray, ...]:
    out = tuple(arrays)
    for a in out:
        a.setflags(write=False)
    return out


def _bits(flags: np.ndarray) -> np.ndarray:
    # per row, the integer whose bit k is flags[:, k] (up to 8 flags)
    return flags.dot(_POWERS[:flags.shape[1]])


def _separability(sigma: np.ndarray, tol: float) -> np.ndarray:
    """Separability of each row of an (M, 3) sigma array, decided by one-body
    purity: sigma1(n)^2 >= 1 - tol means the state is bi-separable across
    that qubit's cut."""
    return _SEPARABILITY[_bits(sigma >= 1.0 - tol)]


def _decide_case(sigma: np.ndarray, sigma_tol: float) -> np.ndarray:
    """The sigma-equality case of each row of an (M, 3) sigma array, from the
    pairwise comparisons |s_i - s_j| <= sigma_tol."""
    gaps = np.abs(sigma[:, :, None] - sigma[:, None, :]).reshape(-1, 9)
    return _CASE[(gaps <= sigma_tol).dot(_CASE_BITS)]


def _decide_special(core, separability, case, degenerate, tol: float):
    """(special, gauge_warning) per row of (M, 2, 2, 2) cores: the first
    pattern of _SPECIAL_SUPPORT that contains the core support (the entries
    above tol times the largest).  Only genuine states carry a tag.  Where
    `degenerate` (per row, or one flag for all) marks a degenerate mode
    spectrum, the core is gauge-dependent, so the tag is reported with a
    gauge warning; otherwise it stands only when the case is the one the
    pattern requires."""
    flat = np.abs(core.reshape(-1, 8))
    first = _FIRST_PATTERN[_bits(flat > tol * flat.max(axis=1, keepdims=True))]
    kept = (separability == "genuine") & (degenerate | (case == _TAG_CASE[first]))
    special = _TAG[np.where(kept, first, len(_SPECIAL_SUPPORT))]
    return special, degenerate & (special != "none")


def _hypot(x, y) -> np.ndarray:
    # math.hypot element by element, as hermitian_eig calls it; np.hypot,
    # the C library's, differs from it in the last bit now and then
    return np.frompyfunc(math.hypot, 2, 1)(x, y).astype(np.float64)


def _batch(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=np.complex128)
    if a.ndim == 2 and a.shape[1] == 8 or a.shape[1:] == (2, 2, 2):
        return _unit_rows(a.reshape(-1, 8))
    raise ShapeError(f"need an (M, 8) or (M, 2, 2, 2) batch of states, got shape {a.shape}")


def _hosvd_batch(x: np.ndarray, tol: float):
    """(core, sigma, degenerate) of unit-norm states x, shape (M, 2, 2, 2):
    the HOSVD cores (M, 2, 2, 2), the sigma triples (M, 3) and the per-mode
    degeneracy flags (M, 3).

    This is :func:`hosvd` in closed form.  A 2x2 Gram matrix takes exactly
    one Jacobi rotation, and this applies the rotation of hermitian_eig as
    array operations: the same power-of-two prescale of the Gram matrix,
    pivot test, formulas, column gauge (largest entry real and >= 0, lowest
    row on ties), stable descending order and degeneracy rule.  Gram
    matrices and mode products go through the matrix product one state at
    a time, as in hosvd, so results agree with it to the last bit or so.
    """
    m = len(x)
    # mode-n unfoldings behind the batch axis, modes stacked: (M, 3, 2, 4)
    unf = np.stack([x.transpose(0, *(ax + 1 for ax in _cyclic_axes(3, n))).reshape(m, 2, 4)
                    for n in (1, 2, 3)], axis=1)
    g = unf @ unf.conj().swapaxes(2, 3)
    g = (g + g.conj().swapaxes(2, 3)) / 2.0
    parts = g.view(np.float64)
    e = np.frexp(np.abs(parts).max(axis=(2, 3)))[1]
    a = np.ldexp(parts, -e[..., None, None]).view(np.complex128)
    app, aqq, apq = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 0, 1]

    mag = np.hypot(apq.real, apq.imag)  # abs() of a Python complex
    rotated = mag > _PIVOT_TOL
    # t = 0 and a unit phase leave an unrotated matrix and V = I as they are
    mag = np.where(rotated, mag, 1.0)
    d, m2 = aqq - app, 2.0 * mag
    t = np.where(rotated, np.copysign(m2 / (np.abs(d) + _hypot(d, m2)), d), 0.0)
    c = 1.0 / _hypot(1.0, t)
    s = t * c
    # conj(apq / mag), divided part by part as a Python complex is
    phase = np.where(rotated, apq.real / mag - 1j * (apq.imag / mag), 1.0)
    # the rotated diagonal, and the eigenvector columns (c, -s phase) and
    # (s, c phase) that the rotation leaves in V
    ev0, ev1 = app - t * mag, aqq + t * mag
    v = np.stack([c, s, -(s * phase), c * phase], axis=-1).reshape(m, 3, 2, 2)

    # gauge, then descending order, as hermitian_eig
    size = np.abs(v)
    pivots = np.where(size[..., 1, :] > size[..., 0, :], v[..., 1, :], v[..., 0, :])
    v = v * (pivots.conj() / np.abs(pivots))[..., None, :]
    v = np.where((ev1 > ev0)[..., None, None], v[..., ::-1], v)
    high, low = np.maximum(ev0, ev1), np.minimum(ev0, ev1)
    degenerate = high - low <= tol * (np.abs(high) + np.abs(low))

    # core = x transformed by U(n)^dagger in each mode, one mode at a time
    uh = v.conj().swapaxes(2, 3)
    core = x
    for n in range(3):
        rows = np.moveaxis(core, n + 1, 1).reshape(m, 2, 4)
        core = np.moveaxis((uh[:, n] @ rows).reshape(m, 2, 2, 2), 1, n + 1)
    # sigma1(n)^2: the norm of the core's first mode-n slice, squared
    power = np.abs(core) ** 2
    norms = np.sqrt(np.stack([power.take(0, axis=n).reshape(m, 4).sum(axis=1)
                              for n in (1, 2, 3)], axis=1))
    return core, norms**2, degenerate


def batch_sigma_squares(amplitudes) -> np.ndarray:
    """(sigma1(1)^2, sigma1(2)^2, sigma1(3)^2) of each state in a batch, as
    an (M, 3) array: the sigma of :func:`classify_batch`.

    `amplitudes` is (M, 8) or (M, 2, 2, 2); each row is normalized first.
    """
    return _hosvd_batch(_batch(amplitudes), 1e-10)[1]


@dataclass(frozen=True, eq=False)
class BatchClassification:
    """The records of :func:`classify_batch`, one row per state: labels as
    (M,) string arrays, ``sigma`` as (M, 3), ``degenerate_modes`` as (M, 3)
    flags (column n-1 for mode n) and ``gauge_warning`` as (M,) flags."""

    separability: np.ndarray
    case: np.ndarray
    special: np.ndarray
    sigma: np.ndarray
    degenerate_modes: np.ndarray
    gauge_warning: np.ndarray


def classify_batch(amplitudes, tol: float = 1e-10, sigma_tol: float = 1e-8) -> BatchClassification:
    """Classify many three-qubit states at once.

    `amplitudes` is (M, 8) or (M, 2, 2, 2); each row is normalized as
    :func:`normalize` does.  Row i of the result holds the separability,
    case, special tag, gauge warning, degenerate modes and sigma triple
    that :func:`classify` gives state i, decided by the same functions.  The
    HOSVD is computed in closed form, one Jacobi rotation per 2x2 Gram
    matrix as hermitian_eig applies it, so sigma agrees with classify's to
    about 1e-16.  The core identities and residuals of
    :class:`Classification` are not computed.  A row that is zero raises
    DomainError, a non-finite entry ValidationError.  Memory grows with M
    (a few KiB per state), so split large runs into batches, as
    ``hosvd3 sample`` does.
    """
    core, sigma, degenerate = _hosvd_batch(_batch(amplitudes), tol)
    separability = _separability(sigma, tol)
    case = _decide_case(sigma, sigma_tol)
    special, gauge_warning = _decide_special(core, separability, case,
                                             degenerate.any(axis=1), tol)
    return BatchClassification(separability, case, special, sigma, degenerate, gauge_warning)


def separability_minor_residual(s: ThreeQubitState, cut: str) -> float:
    """Max |2x2 minor| of the cut's unfolding; 0 iff the amplitude-level
    polynomial bi-separability conditions for that cut all hold.

    For C|AB the six minors are exactly the six conditions
    psi111 psi222 = psi112 psi221, ..., psi211 psi122 = psi212 psi121.
    """
    if cut not in _CUT_MODE:
        raise ValueError(f"unknown cut {cut!r}; expected one of {CUTS}")
    m = unfold(s, _CUT_MODE[cut])
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            worst = max(worst, abs(m[0, a] * m[1, b] - m[0, b] * m[1, a]))
    return worst


def core_biseparability_residual(core: ComplexTensor, cut: str, tol: float = 1e-10) -> float:
    """|lhs - rhs| of the single core-level bi-separability condition for the cut:

        A_BC: t112 t221 = t212 t121
        B_CA: t112 t221 = t211 t122
        C_AB: t211 t122 = t212 t121

    The input must already be an HOSVD core (all-orthogonality within
    tol * norm^2), otherwise the single condition carries no meaning and
    ValidationError is raised.
    """
    if cut not in _CUT_MODE:
        raise ValueError(f"unknown cut {cut!r}; expected one of {CUTS}")
    entries = _core_entries(core)
    # gate on the core scaled by an exact power of two, so that neither the
    # inner products nor the squared norm underflow or overflow
    unit = ComplexTensor(pow2_prescale(core.data)[0])
    if verify_all_orthogonality(unit) > tol * norm(unit) ** 2:
        raise ValidationError("input violates all-orthogonality; not an HOSVD core")
    return _core_bisep(entries, cut)


def _core_entries(core: ComplexTensor) -> list:
    """t111, t112, t121, t122, t211, t212, t221, t222 as Python complex numbers."""
    if core.dims != (2, 2, 2):
        raise ShapeError(f"expected a 2x2x2 core, got dims {core.dims}")
    return core.data.ravel().tolist()


def _core_bisep(entries: list, cut: str) -> float:
    _, t112, t121, t122, t211, t212, t221, _ = entries
    if cut == "A_BC":
        lhs, rhs = t112 * t221, t212 * t121
    elif cut == "B_CA":
        lhs, rhs = t112 * t221, t211 * t122
    else:
        lhs, rhs = t211 * t122, t212 * t121
    return abs(lhs - rhs)


def plane_coefficients(core: ComplexTensor) -> tuple[float, float, float]:
    """(a, b, c) = (|t112|^2 - |t121|^2, |t211|^2 - |t112|^2, |t121|^2 - |t211|^2);
    the normal of the plane a s1 + b s2 + c s3 = 0 satisfied by the core's
    sigma triple.  a + b + c == 0 by construction.
    """
    _, t112, t121, _, t211, _, _, _ = _core_entries(core)
    x = abs(t112) ** 2
    y = abs(t121) ** 2
    z = abs(t211) ** 2
    return (x - y, z - x, y - z)


def plane_identity_residual(core: ComplexTensor, sigma) -> float:
    """Residual of the sigma-plane identity every HOSVD core satisfies:

        a s1 + b s2 + c s3 = 0,  (a, b, c) = plane_coefficients(core),

    i.e. |t112|^2 (s1 - s2) + |t211|^2 (s2 - s3) + |t121|^2 (s3 - s1) = 0,
    where sigma = (s1, s2, s3) holds the core's sigma1(n)^2, such as
    ``classify(s).sigma_triple``.  The companion form in t221, t122, t212 is
    algebraically identical; both are evaluated and must agree to 1e-12
    (floating-point consistency), else a NumericalError is raised.
    """
    a, b, c = plane_coefficients(core)
    _, _, _, t122, _, t212, t221, _ = _core_entries(core)
    s1, s2, s3 = sigma
    form_a = a * s1 + b * s2 + c * s3
    form_b = (
        abs(t221) ** 2 * (s1 - s2)
        + abs(t122) ** 2 * (s2 - s3)
        + abs(t212) ** 2 * (s3 - s1)
    )
    scale = max(1.0, norm(core) ** 4)
    if abs(form_a - form_b) > 1e-12 * scale:
        raise NumericalError(
            f"equivalent plane forms disagree: {form_a!r} vs {form_b!r}"
        )
    return abs(form_a)


def phase_identity_residual(core: ComplexTensor) -> float:
    """Modulus of the cyclic quartic phase identity of HOSVD cores:

        conj(t112 t221) (t122 t211 - t121 t212)
      + conj(t121 t212) (t112 t221 - t122 t211)
      + conj(t122 t211) (t121 t212 - t112 t221)  = 0
    """
    _, t112, t121, t122, t211, t212, t221, _ = _core_entries(core)
    x = t112 * t221
    y = t121 * t212
    z = t122 * t211
    return abs(np.conj(x) * (z - y) + np.conj(y) * (x - z) + np.conj(z) * (y - x))


def guarded_t111_t222_check(core: ComplexTensor, tol: float = 1e-10):
    """Check the closed-form elimination of t111 and t222 from the
    all-orthogonality conditions.  Returns (|t111 - formula|, |t222 - formula|),
    or None when the shared denominator t212 conj(t211) - t122 conj(t121)
    is within tol * norm(core)^2 of zero (formulas undefined there).

    The formulas are evaluated on the core scaled by an exact power of two
    (see :func:`pow2_prescale`) and the residuals scaled back, so neither
    the guard nor the residuals depend on the scale of the core.
    """
    scaled, e = pow2_prescale(_core_entries(core))
    t111, t112, t121, t122, t211, t212, t221, t222 = scaled.tolist()
    denom = t212 * np.conj(t211) - t122 * np.conj(t121)
    if abs(denom) <= tol * np.vdot(scaled, scaled).real:
        return None
    cross = t121 * t212 - t122 * t211
    t111_formula = -(
        np.conj(t221) * cross + t112 * (abs(t212) ** 2 - abs(t122) ** 2)
    ) / denom
    t222_formula = (
        np.conj(t112) * cross + t221 * (abs(t121) ** 2 - abs(t211) ** 2)
    ) / np.conj(denom)
    return tuple(np.ldexp([abs(t111 - t111_formula), abs(t222 - t222_formula)], e))


@dataclass(frozen=True)
class PolytopeMembership:
    """Whether a sigma triple lies in the polytope, and the signed residual
    of each constraint (> 0 measures a violation); truthy iff member."""

    member: bool
    residuals: dict

    def __bool__(self) -> bool:
        return self.member


def polytope_membership(sigma, tol: float = 1e-10) -> PolytopeMembership:
    """Check a triple (s1, s2, s3) of largest one-body eigenvalues, such as
    ``classify(s).sigma_triple``, against the five constraint families;
    residuals > 0 measure violation."""
    residuals = _polytope_residuals(*sigma)
    member = all(v <= tol for v in residuals.values())
    return PolytopeMembership(member, residuals)


def _polytope_residuals(s1, s2, s3) -> dict:
    # the signed residual of each constraint, of floats or of arrays alike
    return {
        "s1+s2-s3<=1": s1 + s2 - s3 - 1.0,
        "s1+s3-s2<=1": s1 + s3 - s2 - 1.0,
        "s2+s3-s1<=1": s2 + s3 - s1 - 1.0,
        "s1>=1/2": 0.5 - s1,
        "s2>=1/2": 0.5 - s2,
        "s3>=1/2": 0.5 - s3,
        "s1<=1": s1 - 1.0,
        "s2<=1": s2 - 1.0,
        "s3<=1": s3 - 1.0,
    }


@dataclass(frozen=True, eq=False)
class Classification:
    """Full classification record for one three-qubit state."""

    separability: str
    case: str
    special: str
    sigma_triple: tuple[float, float, float]
    degenerate_modes: frozenset[int]
    gauge_warning: bool
    residuals: dict


def classify(
    s: ThreeQubitState,
    tol: float = 1e-10,
    sigma_tol: float = 1e-8,
) -> Classification:
    """Classify a normalized three-qubit state.

    Runs the decomposition, then decides, in order: separability (one-body
    purity at `tol`), the sigma-equality case (pairwise comparisons at
    `sigma_tol`), and the special-state tag (core support patterns; only
    genuine states carry one).  With degenerate mode spectra the core is
    gauge-dependent, so a support-based tag is reported with
    ``gauge_warning=True`` instead of being trusted against the case.
    The core is the decomposition's own, so its all-orthogonality residual
    is reported, not held against `tol`.
    """
    result = hosvd(s, tol=tol)
    # sigma1(n)^2 per mode: the top eigenvalue of each one-body RDM
    sig = tuple(float(spec[0]) ** 2 for spec in result.spectra)
    # the decisions of classify_batch, on a batch of one
    sigma = np.array([sig])
    separability = _separability(sigma, tol)
    case = _decide_case(sigma, sigma_tol)
    special, gauge_warning = _decide_special(
        result.core.data, separability, case, bool(result.degenerate_modes), tol)

    a, b, c = plane_coefficients(result.core)
    if abs(a + b + c) > 1e-12:
        raise NumericalError(f"plane coefficients do not cancel: {a + b + c!r}")

    residuals = {
        "reconstruction": result.residuals.reconstruction,
        "all_orthogonality": result.residuals.all_orthogonality,
        "plane_identity": plane_identity_residual(result.core, sig),
        "phase_identity": phase_identity_residual(result.core),
        "plane_a": a,
        "plane_b": b,
        "plane_c": c,
        "plane_coefficient_sum": a + b + c,
    }
    entries = _core_entries(result.core)
    for cut in CUTS:
        residuals[f"core_bisep_{cut}"] = _core_bisep(entries, cut)
        residuals[f"minors_{cut}"] = separability_minor_residual(s, cut)
    guarded = guarded_t111_t222_check(result.core, tol=tol)
    if guarded is not None:
        residuals["t111_formula"] = guarded[0]
        residuals["t222_formula"] = guarded[1]

    return Classification(
        separability=str(separability[0]),
        case=str(case[0]),
        special=str(special[0]),
        sigma_triple=sig,
        degenerate_modes=result.degenerate_modes,
        gauge_warning=bool(gauge_warning[0]),
        residuals=residuals,
    )
