"""Three-qubit specialization: reduced density matrices, separability tests,
core-tensor identities, case/special-state classification, and the polytope
of largest one-body eigenvalues.

A state is a :class:`ThreeQubitState`, a unit-norm 2x2x2 ComplexTensor, so
it goes wherever a tensor goes.  Qubits are labeled A, B, C and correspond
to tensor modes 1, 2, 3.  The squared largest mode-n singular value
sigma1(n)^2 is the top eigenvalue of that qubit's reduced density matrix;
the triple of these lives in the polytope  1/2 <= s_i <= 1,
s_i + s_j - s_k <= 1.  Per state, :func:`classify` reads the triple off the
state's one HOSVD and evaluates the core identities at it;
:func:`batch_sigma_squares` is the closed form for many states at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ShapeError, ValidationError
from .hosvd import hosvd, verify_all_orthogonality
from .smalllinalg import gram, pow2_prescale
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


def _separability(sig: tuple[float, float, float], tol: float) -> str:
    """Separability decided by one-body purity: sigma1(n)^2 >= 1 - tol means
    the state is bi-separable across that qubit's cut."""
    pure = [n for n in range(3) if sig[n] >= 1.0 - tol]
    # two pure one-body matrices force the third, so >= 2 is the product case
    if len(pure) >= 2:
        return "fully_separable"
    if len(pure) == 1:
        return ("biseparable_A_BC", "biseparable_B_CA", "biseparable_C_AB")[pure[0]]
    return "genuine"


def batch_sigma_squares(amplitudes) -> np.ndarray:
    """Vectorized (sigma1(1)^2, sigma1(2)^2, sigma1(3)^2) for a batch of states.

    `amplitudes` is (M, 8) or (M, 2, 2, 2), each row a normalized state.
    Uses the closed-form top eigenvalue of the three 2x2 Gram matrices;
    intended for large sampling runs where per-state decomposition would
    dominate the cost.
    """
    a = np.asarray(amplitudes, dtype=np.complex128).reshape(-1, 2, 2, 2)
    out = np.empty((a.shape[0], 3))
    for n in range(3):
        # mode-(n+1) unfolding of every state, behind the batch axis
        m = a.transpose(0, *(ax + 1 for ax in _cyclic_axes(3, n + 1))).reshape(-1, 2, 4)
        g = m @ m.conj().transpose(0, 2, 1)
        p = g[:, 0, 0].real
        q = g[:, 1, 1].real
        r = g[:, 0, 1]
        half_tr = (p + q) / 2.0
        out[:, n] = half_tr + np.sqrt(((p - q) / 2.0) ** 2 + np.abs(r) ** 2)
    return out


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
    s1, s2, s3 = sigma
    residuals = {
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
    member = all(v <= tol for v in residuals.values())
    return PolytopeMembership(member, residuals)


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


def _decide_case(sig: tuple[float, float, float], sigma_tol: float) -> str:
    eq12 = abs(sig[0] - sig[1]) <= sigma_tol
    eq13 = abs(sig[0] - sig[2]) <= sigma_tol
    eq23 = abs(sig[1] - sig[2]) <= sigma_tol
    count = int(eq12) + int(eq13) + int(eq23)
    if count >= 2:
        # three equalities, or two that force the third within 2*sigma_tol
        return "case1"
    if count == 1:
        return "case2_12" if eq12 else ("case2_13" if eq13 else "case2_23")
    return "case3"


def _core_support(core: ComplexTensor, threshold: float) -> frozenset[int]:
    flat = np.abs(core.data.ravel())
    return frozenset(int(i) for i in np.nonzero(flat > threshold)[0])


def _decide_special(
    core: ComplexTensor,
    case: str,
    degenerate: bool,
    tol: float,
) -> tuple[str, bool]:
    support = _core_support(core, tol * float(np.max(np.abs(core.data))))
    for tag, pattern, required_case in _SPECIAL_SUPPORT:
        if support <= pattern:
            if degenerate:
                # gauge-dependent core: report the pattern but flag it
                return tag, True
            if case == required_case:
                return tag, False
            return "none", False
    return "none", False


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
    separability = _separability(sig, tol)
    case = _decide_case(sig, sigma_tol)

    degenerate = bool(result.degenerate_modes)
    if separability == "genuine":
        special, gauge_warning = _decide_special(result.core, case, degenerate, tol)
    else:
        special, gauge_warning = "none", False

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
        separability=separability,
        case=case,
        special=special,
        sigma_triple=sig,
        degenerate_modes=result.degenerate_modes,
        gauge_warning=gauge_warning,
        residuals=residuals,
    )
