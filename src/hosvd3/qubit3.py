"""Three-qubit specialization: reduced density matrices, separability tests,
core-tensor identities, case/special-state classification, and the polytope
of largest one-body eigenvalues.

A state is a :class:`ThreeQubitState`, a unit-norm 2x2x2 ComplexTensor, so
it goes wherever a tensor goes.  Qubits are labeled A, B, C and correspond
to tensor modes 1, 2, 3.  The squared largest mode-n singular value
sigma1(n)^2 is the top eigenvalue of that qubit's reduced density matrix;
the triple of these lives in the polytope  1/2 <= s_i <= 1,
s_i + s_j - s_k <= 1.  The three-qubit HOSVD is hosvd's own stacked
pipeline, run on a batch of states: :func:`classify_batch` runs it on many
states, :func:`classify` on a batch of one, where it also evaluates the
core identities with one array kernel and reports them in its
``residuals``.  Each state gets the core and factors ``hosvd`` gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ShapeError, ValidationError
from .hosvd import _all_orthogonality, _hosvd_stack
from .smalllinalg import _norms, _pow2_blocks, _tolerance, gram
from .tensor import ComplexTensor, _stacked_transform, _unfoldings, unfold

CUTS = ("A_BC", "B_CA", "C_AB")

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
# Index tables of _identities, on the flat (M, 8) core (index 4(i1-1) +
# 2(i2-1) + (i3-1) for t_{i1 i2 i3}) and on the (M, 3) sigma.  The plane
# coefficients a, b, c are |t|^2 at row 0 of _PLANE minus |t|^2 at row 1,
# and the companion form weighs s1 - s2, s2 - s3, s3 - s1 (_GAPS) by |t|^2
# at row 2.  p, q, r are t112 t221, t121 t212, t122 t211 (_PHASE), and
# _CYCLE gives their differences r - q, p - r, q - p.
_PLANE = np.array([[1, 4, 2], [2, 1, 4], [6, 3, 5]])
_GAPS = np.array([[0, 1, 2], [1, 2, 0]])
_PHASE = np.array([[1, 2, 3], [6, 5, 4]])
_CYCLE = np.array([[2, 0, 1], [1, 2, 0]])


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
        if not np.isfinite(arr).all():
            raise ValidationError("entries must be finite")
        object.__setattr__(self, "data", arr.reshape(2, 2, 2))
        super().__post_init__()
        _check_state(self)


def _check_state(s: ComplexTensor) -> None:
    if s.dims != (2, 2, 2):
        raise ShapeError(f"need a 2x2x2 state, got dims {s.dims}")
    total = _norms(s.data[None])[0]
    if not abs(total - 1.0) <= 1e-10:
        raise ValidationError(f"state is not normalized (norm {total!r}); use normalize()")


def normalize(amplitudes) -> ThreeQubitState:
    """Scale 8 amplitudes to unit norm, preserving relative phases, as
    :func:`classify_batch` normalizes each of its rows (see
    :func:`_unit_rows`): no overflow or underflow, and inputs that differ by
    an exact factor 2^k give the same bits.  Other factors can move the
    last bits; so can normalizing a unit-norm state again."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.size != 8:
        raise ShapeError(f"need 8 amplitudes, got {amps.size}")
    return ThreeQubitState(_unit_rows(amps.reshape(1, 8))[0])


def _unit_rows(amps: np.ndarray) -> np.ndarray:
    """The rows of an (M, 8) complex array scaled to unit norm, as (M, 2, 2, 2).

    Each row is first scaled by an exact power of two (see
    :func:`pow2_prescale`), so its norm neither overflows nor underflows.
    The norms are one _norms over the batch, so a row gets the same bits
    alone or in any batch.  Non-finite entries raise ValidationError, a
    zero row DomainError.
    """
    z, _, largest = _pow2_blocks(amps[:, None], 2)
    if not largest.all():
        raise DomainError("cannot normalize the zero vector")
    return (z / _norms(z)[:, None, None]).reshape(-1, 2, 2, 2)


def one_body_rdms(s: ThreeQubitState) -> tuple[np.ndarray, ...]:
    """rho^A, rho^B, rho^C, in that order: the Gram matrices of the three
    unfoldings, as read-only 2x2 arrays.  The state is checked as
    :func:`classify` checks it."""
    _check_state(s)
    return _read_only(gram(unfold(s, mode)) for mode in (1, 2, 3))


def two_body_rdms(s: ThreeQubitState) -> tuple[np.ndarray, ...]:
    """rho^{AB}, rho^{CA}, rho^{BC}, in that order, as read-only 4x4 arrays;
    each is gram(unfolding.T), i.e. unfolding.T @ conj(unfolding), of the
    unfolding of the remaining qubit.  The state is checked as
    :func:`classify` checks it."""
    _check_state(s)
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
    that qubit's cut.  At tol 0 that needs sigma >= 1 exactly, so an exactly
    separable state whose sigma rounds to just below 1 is labeled genuine:
    the label then rests on the last bit of sigma."""
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
    the (M,) flags `degenerate` mark a degenerate mode spectrum, the core is
    gauge-dependent, so the tag is reported with a gauge warning; otherwise
    it stands only when the case is the one the pattern requires."""
    flat = np.abs(core.reshape(-1, 8))
    first = _FIRST_PATTERN[_bits(flat > tol * flat.max(axis=1, keepdims=True))]
    kept = (separability == "genuine") & (degenerate | (case == _TAG_CASE[first]))
    special = _TAG[np.where(kept, first, len(_SPECIAL_SUPPORT))]
    return special, degenerate & (special != "none")


def _batch(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=np.complex128)
    if a.ndim == 2 and a.shape[1] == 8 or a.shape[1:] == (2, 2, 2):
        return _unit_rows(a.reshape(-1, 8))
    raise ShapeError(f"need an (M, 8) or (M, 2, 2, 2) batch of states, got shape {a.shape}")


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
    that :func:`classify` gives state i: both run hosvd's stacked
    pipeline, with at most one Jacobi rotation per 2x2 Gram matrix, and
    the same decisions.
    The core identities and residuals of :class:`Classification` are not
    computed.  A row that is zero raises DomainError, a non-finite entry
    ValidationError.  Memory grows with M (a few KiB per state), so split
    large runs into batches, as ``hosvd3 sample`` does.
    """
    return _classify_rows(_batch(amplitudes), tol, sigma_tol)[0]


def _classify_rows(x: np.ndarray, tol: float, sigma_tol: float):
    # classify_batch of unit-norm states x (M, 2, 2, 2), with the cores and
    # factors U(n) (three (M, 2, 2)) hosvd gives each state, bit for bit
    _tolerance("tol", tol)
    _tolerance("sigma_tol", sigma_tol)
    core, factors, spectra, degenerate = _hosvd_stack(x, tol)
    sigma = np.square(np.stack([s[:, 0] for s in spectra], axis=1))
    separability = _separability(sigma, tol)
    case = _decide_case(sigma, sigma_tol)
    special, gauge_warning = _decide_special(core, separability, case,
                                             degenerate.any(axis=1), tol)
    return (BatchClassification(separability, case, special, sigma, degenerate, gauge_warning),
            core, factors)


def _identities(x: np.ndarray, core: np.ndarray, sigma: np.ndarray, tol: float) -> dict:
    """The identities of :class:`Classification`'s residuals, per row of
    states x, their cores (both (M, 2, 2, 2)) and sigma triples (M, 3), as
    a dict of (M,) arrays in report order, from the plane identity on.

    Rows where the guard of the t111/t222 formulas holds read NaN there.
    NumericalError is raised where the plane coefficients do not cancel or
    the two equivalent plane forms disagree, beyond 1e-12 of their scale.
    The values are evaluated as they stand, so rows should be of moderate
    scale, as unit-norm states are.
    """
    flat = core.reshape(-1, 8)
    t111, t112, t121, t122, t211, t212, t221, t222 = flat.T
    power = np.abs(flat) ** 2
    total = power.sum(axis=1)
    # the plane a s1 + b s2 + c s3 = 0, and its companion form in t221,
    # t122 and t212
    weights, gaps = power[:, _PLANE], sigma[:, _GAPS]
    plane = weights[:, 0] - weights[:, 1]
    a, b, c = plane.T
    terms_a = plane * sigma
    terms_b = weights[:, 2] * (gaps[:, 0] - gaps[:, 1])
    form_a = terms_a[:, 0] + terms_a[:, 1] + terms_a[:, 2]
    form_b = terms_b[:, 0] + terms_b[:, 1] + terms_b[:, 2]
    if np.any(np.abs(a + b + c) > 1e-12 * total):
        raise NumericalError(f"plane coefficients do not cancel: {(a + b + c).max()!r}")
    if np.any(np.abs(form_a - form_b) > 1e-12 * total * np.abs(sigma).max(axis=1)):
        i = np.argmax(np.abs(form_a - form_b))
        raise NumericalError(f"equivalent plane forms disagree: {form_a[i]!r} vs {form_b[i]!r}")
    # the cyclic quartic phase identity
    factors = flat[:, _PHASE]
    pqr = factors[:, 0] * factors[:, 1]
    _, q, r = pqr.T
    cycle = pqr[:, _CYCLE]
    terms = pqr.conj() * (cycle[:, 0] - cycle[:, 1])
    out = {"plane_identity": np.abs(form_a),
           "phase_identity": np.abs(terms[:, 0] + terms[:, 1] + terms[:, 2]),
           "plane_a": a, "plane_b": b, "plane_c": c, "plane_coefficient_sum": a + b + c}
    # every |2x2 minor| of each unfolding, [..., a, b] for columns a and b:
    # the state's six per cut, and the core's one condition per cut, its
    # minor of columns (1, 2) and (2, 1)
    unf = _unfoldings(np.concatenate([x, core]), (1, 2, 3)).reshape(2, -1, 3, 2, 4)
    cross = unf[..., 0, :, None] * unf[..., 1, None, :]
    minors = np.abs(cross - cross.swapaxes(-1, -2))
    for n, cut in enumerate(CUTS):
        out[f"core_bisep_{cut}"] = minors[1, :, n, 1, 2]
        out[f"minors_{cut}"] = minors[0, :, n].max(axis=(1, 2))
    # t111 and t222 eliminated from all-orthogonality, where the shared
    # denominator is not within tol * norm^2 of zero
    denom = t212 * np.conj(t211) - t122 * np.conj(t121)
    guarded = np.abs(denom) <= tol * total
    denom = np.where(guarded, 1.0, denom)
    t111_formula = -(np.conj(t221) * (q - r) + t112 * (power[:, 5] - power[:, 3])) / denom
    t222_formula = (np.conj(t112) * (q - r) + t221 * (power[:, 2] - power[:, 4])) / np.conj(denom)
    out["t111_formula"] = np.where(guarded, np.nan, np.abs(t111 - t111_formula))
    out["t222_formula"] = np.where(guarded, np.nan, np.abs(t222 - t222_formula))
    return out


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
    residuals > 0 measure violation.  A sigma that is not three numbers
    raises ShapeError, a non-finite entry ValidationError, and so does a
    tol that is negative or not finite."""
    _tolerance("tol", tol)
    if np.shape(sigma) != (3,):
        raise ShapeError(f"sigma must be a triple (s1, s2, s3), got {sigma!r}")
    try:
        s1, s2, s3 = map(float, sigma)
    except (TypeError, ValueError):
        raise ValidationError(f"sigma must hold numbers, got {sigma!r}") from None
    if not all(math.isfinite(v) for v in (s1, s2, s3)):
        raise ValidationError(f"sigma entries must be finite, got {sigma!r}")
    residuals = _polytope_residuals(s1, s2, s3)
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

    Runs :func:`classify_batch`'s HOSVD and decisions on the batch of one
    state, which decide, in order: separability (one-body
    purity at `tol`), the sigma-equality case (pairwise comparisons at
    `sigma_tol`), and the special-state tag (core support patterns; only
    genuine states carry one).  With degenerate mode spectra the core is
    gauge-dependent, so a support-based tag is reported with
    ``gauge_warning=True`` instead of being trusted against the case.
    The residuals are the reconstruction error and all-orthogonality of
    that decomposition, reported and not held against `tol`, and the core
    identities, evaluated at its sigma triple.  A tensor that is not
    2x2x2 raises ShapeError, one whose norm is not 1 within 1e-10
    ValidationError, as :class:`ThreeQubitState` does.
    """
    _check_state(s)
    x = s.data[None]
    row, core, factors = _classify_rows(x, tol, sigma_tol)
    # relative, since s has unit norm
    residuals = {"reconstruction": float(_norms(_stacked_transform(core, factors) - x)[0]),
                 "all_orthogonality": float(_all_orthogonality(core)[0])}
    for name, value in _identities(x, core, row.sigma, tol).items():
        if not math.isnan(value[0]):
            residuals[name] = float(value[0])
    return Classification(
        separability=str(row.separability[0]),
        case=str(row.case[0]),
        special=str(row.special[0]),
        sigma_triple=tuple(row.sigma[0].tolist()),
        degenerate_modes=frozenset((np.flatnonzero(row.degenerate_modes[0]) + 1).tolist()),
        gauge_warning=bool(row.gauge_warning[0]),
        residuals=residuals,
    )
