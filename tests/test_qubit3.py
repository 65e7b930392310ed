import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hosvd3 import (
    BatchClassification,
    ComplexTensor,
    DomainError,
    NumericalError,
    ShapeError,
    ThreeQubitState,
    ValidationError,
    classify,
    classify_batch,
    hosvd,
    multilinear_transform,
    normalize,
    one_body_rdms,
    polytope_membership,
    two_body_rdms,
    verify_all_orthogonality,
)
from hosvd3.qubit3 import (
    CUTS,
    _SPECIAL_SUPPORT,
    _classify_rows,
    _decide_case,
    _decide_special,
    _identities,
    _polytope,
    _separability,
    _unit_rows,
)
from conftest import amplitudes
from oracles import (haar_state, haar_unitary, identities_by_formula,
                     one_body_rdm_by_summation)


def haar_3q(rng):
    return normalize(haar_state(rng))


def random_qubit(rng):
    return haar_state(rng, size=2)


def product_state(rng):
    a, b, c = (random_qubit(rng) for _ in range(3))
    return normalize(np.einsum("i,j,k->ijk", a, b, c))


def biproduct_state(rng, cut):
    """Single qubit tensored with a Haar-random (generically entangled) pair."""
    q = random_qubit(rng)
    pair = haar_state(rng, size=4).reshape(2, 2)
    if cut == "A_BC":
        amps = np.einsum("i,jk->ijk", q, pair)
    elif cut == "B_CA":
        amps = np.einsum("j,ki->ijk", q, pair)
    else:
        amps = np.einsum("k,ij->ijk", q, pair)
    return normalize(amps)


def identities(x, core, sigma=(0.0, 0.0, 0.0), tol=1e-10):
    """The identities classify reports in its residuals, from the one kernel
    that evaluates them: of the state x (the minors) and of its core (the
    rest), at the sigma triple, as floats.  At sigma 0 both plane forms
    read 0."""
    out = _identities(x.data[None], core.data[None], np.array([sigma], dtype=float), tol)
    return {name: float(value[0]) for name, value in out.items()}


def apply_lu(state, mats):
    return normalize(multilinear_transform(state, mats).data)


class TestNormalize:
    def test_unit_input_unchanged(self):
        s = normalize(amplitudes(a111=1))
        assert s[1, 1, 1] == 1.0

    def test_ghz_scaling(self):
        s = normalize(amplitudes(a111=1, a222=1))
        assert s[1, 1, 1] == pytest.approx(1 / np.sqrt(2))
        assert s[2, 2, 2] == pytest.approx(1 / np.sqrt(2))

    def test_scalar_rescale(self):
        s = normalize(amplitudes(a111=2))
        assert s[1, 1, 1] == 1.0

    def test_phase_preserved(self):
        s = normalize(amplitudes(a111=2j, a222=-2))
        ratio = s[2, 2, 2] / s[1, 1, 1]
        assert ratio == pytest.approx(1j)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            normalize(np.zeros(8))

    def test_unnormalized_constructor_rejected(self):
        with pytest.raises(ValidationError):
            ThreeQubitState(amplitudes(a111=2))

    def test_unnormalized_message_prints_a_plain_float(self):
        # numpy 2 printed the norm as np.float64(2.8284271247461903)
        with pytest.raises(ValidationError) as exc:
            ThreeQubitState(np.ones(8))
        assert str(exc.value) == ("state is not normalized (norm 2.8284271247461903);"
                                  " use normalize()")

    def test_nan_constructor_rejected(self):
        # rejected as non-finite, not sent on to normalize() as unnormalized
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="entries must be finite"):
                ThreeQubitState(np.full(8, bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        amps = np.ones(8, dtype=complex)
        amps[3] = bad
        with pytest.raises(ValidationError):
            normalize(amps)

    @pytest.mark.parametrize("k", [-500, -1, 1, 3, 500, 1000])
    def test_power_of_two_factor_keeps_the_bits(self, rng, k):
        # the bits do not survive every rescaling: normalizing a unit-norm
        # state again moves some of them, but an exact factor 2^k moves none
        for _ in range(200):
            z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            want = normalize(z).data.tobytes()
            assert normalize(np.ldexp(1.0, k) * z).data.tobytes() == want

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-310, 2.0**1000])
    def test_extreme_scales_same_as_unit_scale(self, scale):
        unit = normalize(np.ones(8))
        scaled = normalize(scale * np.ones(8))
        np.testing.assert_allclose(scaled.data, unit.data, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            classify(scaled).sigma_triple, classify(unit).sigma_triple, rtol=0, atol=1e-15
        )


class TestThreeQubitState:
    def test_one_tensor(self, w_state, rng):
        # a state is its own read-only tensor and decomposes as one
        assert isinstance(w_state, ComplexTensor)
        assert w_state.dims == (2, 2, 2)
        assert not w_state.data.flags.writeable
        for s in (w_state, haar_3q(rng)):
            got, want = hosvd(s), hosvd(ComplexTensor(s.data))
            assert got.core.data.tobytes() == want.core.data.tobytes()
            for a, b in zip(got.factors + got.spectra, want.factors + want.spectra):
                assert a.tobytes() == b.tobytes()
            assert got.residuals == want.residuals
            assert got.degenerate_modes == want.degenerate_modes

    def test_flat_amplitudes_accepted(self):
        s = ThreeQubitState(amplitudes(a111=0.6, a222=0.8))
        assert s.dims == (2, 2, 2) and s[2, 2, 2] == 0.8
        with pytest.raises(ShapeError):
            ThreeQubitState(np.ones(4) / 2)

    @pytest.mark.parametrize("indices", [(0, 1, 1), (0, 0, 0), (3, 1, 1), (1, 2, 3)])
    def test_amplitude_index_out_of_range(self, w_state, indices):
        with pytest.raises(ValueError):
            w_state[indices]

    @pytest.mark.parametrize("indices", [(1.5, 1, 1), (True, 1, 1), (1, 2.0, 1), (1, 1, "2")])
    def test_amplitude_index_not_an_integer(self, w_state, indices):
        with pytest.raises(ValueError, match="not an integer"):
            w_state[indices]

    def test_amplitude_is_one_based(self, rng):
        s = haar_3q(rng)
        for i1, i2, i3 in itertools.product((1, 2), repeat=3):
            value = s[i1, i2, i3]
            assert type(value) is complex
            assert value == s.data[i1 - 1, i2 - 1, i3 - 1]


class TestOneBodyRdms:
    def test_basis_state(self):
        rdms = one_body_rdms(normalize(amplitudes(a111=1)))
        assert len(rdms) == 3
        for r in rdms:
            assert not r.flags.writeable
            np.testing.assert_allclose(r, np.diag([1.0, 0.0]), atol=1e-15)

    def test_equal_ghz(self, ghz_equal):
        for r in one_body_rdms(ghz_equal):
            np.testing.assert_allclose(r, np.eye(2) / 2, atol=1e-15)

    def test_w_state(self, w_state):
        for r in one_body_rdms(w_state):
            np.testing.assert_allclose(r, np.diag([2 / 3, 1 / 3]), atol=1e-15)

    def test_oracle_and_invariants(self, rng):
        for _ in range(50):
            s = haar_3q(rng)
            # position q holds the RDM of qubit q: A, B, C
            for qubit, r in enumerate(one_body_rdms(s)):
                np.testing.assert_allclose(
                    r, one_body_rdm_by_summation(s.data, qubit), atol=1e-14
                )
                assert np.trace(r).real == pytest.approx(1.0, abs=1e-10)
                np.testing.assert_allclose(r, r.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(r).min() >= -1e-12


class TestTwoBodyRdms:
    def test_basis_state(self):
        rdms = two_body_rdms(normalize(amplitudes(a111=1)))
        assert len(rdms) == 3
        for r in rdms:
            assert not r.flags.writeable
            evals = np.sort(np.linalg.eigvalsh(r))[::-1]
            np.testing.assert_allclose(evals, [1, 0, 0, 0], atol=1e-14)

    def test_equal_ghz(self, ghz_equal):
        rho_ab = two_body_rdms(ghz_equal)[0]
        evals = np.sort(np.linalg.eigvalsh(rho_ab))[::-1]
        np.testing.assert_allclose(evals, [0.5, 0.5, 0, 0], atol=1e-14)

    def test_purity_pairing(self, rng):
        # spec(rho^{AB}) == spec(rho^C) + {0, 0}, and cyclic partners
        for _ in range(25):
            s = haar_3q(rng)
            # (AB, CA, BC) pair with (C, B, A)
            ones = one_body_rdms(s)
            twos = two_body_rdms(s)
            for r2, r1 in zip(twos, ones[::-1]):
                big = np.sort(np.linalg.eigvalsh(r2))[::-1]
                small = np.sort(np.linalg.eigvalsh(r1))[::-1]
                np.testing.assert_allclose(big[:2], small, atol=1e-11)
                np.testing.assert_allclose(big[2:], [0, 0], atol=1e-11)
                assert np.trace(r2).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("rdms", [one_body_rdms, two_body_rdms])
class TestRdmInput:
    # checked as classify checks its state
    def test_matrix_rejected(self, rdms):
        with pytest.raises(ShapeError):
            rdms(ComplexTensor(np.eye(2) / np.sqrt(2)))

    def test_qutrits_rejected(self, rdms):
        with pytest.raises(ShapeError):
            rdms(ComplexTensor(np.ones((3, 3, 3)) / np.sqrt(27)))

    def test_unnormalized_rejected(self, rdms):
        with pytest.raises(ValidationError, match="not normalized"):
            rdms(ComplexTensor(np.ones((2, 2, 2))))


class TestSeparability:
    def test_basis_state(self):
        assert classify(normalize(amplitudes(a111=1))).separability == "fully_separable"

    def test_bisep_cab(self, bisep_cab):
        assert classify(bisep_cab).separability == "biseparable_C_AB"

    def test_equal_ghz_genuine(self, ghz_equal):
        assert classify(ghz_equal).separability == "genuine"

    def test_product_states(self, rng):
        for _ in range(20):
            assert classify(product_state(rng)).separability == "fully_separable"

    @pytest.mark.parametrize("cut", ["A_BC", "B_CA", "C_AB"])
    def test_biproduct_states(self, rng, cut):
        for _ in range(20):
            assert classify(biproduct_state(rng, cut)).separability == f"biseparable_{cut}"

    def test_minor_residual_matches_explicit_conditions(self, rng):
        # the C|AB minors are exactly the six displayed amplitude conditions
        s = haar_3q(rng)
        conditions = [
            s[1, 1, 1] * s[2, 2, 2] - s[1, 1, 2] * s[2, 2, 1],
            s[1, 1, 1] * s[2, 1, 2] - s[2, 1, 1] * s[1, 1, 2],
            s[1, 2, 1] * s[2, 2, 2] - s[2, 2, 1] * s[1, 2, 2],
            s[1, 1, 1] * s[1, 2, 2] - s[1, 1, 2] * s[1, 2, 1],
            s[2, 1, 1] * s[2, 2, 2] - s[2, 1, 2] * s[2, 2, 1],
            s[2, 1, 1] * s[1, 2, 2] - s[2, 1, 2] * s[1, 2, 1],
        ]
        expected = max(abs(v) for v in conditions)
        assert identities(s, s)["minors_C_AB"] == pytest.approx(expected, rel=1e-12)

    def test_spectral_vs_polynomial_consistency(self, rng):
        # small version of the bulk acceptance run
        for _ in range(100):
            kind = rng.integers(0, 3)
            if kind == 0:
                s = product_state(rng)
            elif kind == 1:
                s = biproduct_state(rng, ["A_BC", "B_CA", "C_AB"][rng.integers(0, 3)])
            else:
                s = haar_3q(rng)
            spectral = classify(s).separability
            polynomial_pure = [
                cut for cut in ("A_BC", "B_CA", "C_AB")
                if identities(s, s)[f"minors_{cut}"] <= 1e-10
            ]
            if len(polynomial_pure) >= 2:
                poly = "fully_separable"
            elif len(polynomial_pure) == 1:
                poly = f"biseparable_{polynomial_pure[0]}"
            else:
                poly = "genuine"
            assert spectral == poly


class TestCoreBiseparability:
    def test_cab_core_zero(self):
        core = ComplexTensor(amplitudes(a111=np.sqrt(0.7), a221=np.sqrt(0.3)).reshape(2, 2, 2))
        assert identities(core, core)["core_bisep_C_AB"] == 0.0

    def test_ghz_core_all_cuts_zero(self, ghz_equal):
        core = ghz_equal
        for cut in ("A_BC", "B_CA", "C_AB"):
            # all six monomials vanish even though GHZ is genuine; the single
            # condition is necessary only
            assert identities(core, core)[f"core_bisep_{cut}"] == 0.0

    def test_product_core(self, rng):
        for _ in range(10):
            s = biproduct_state(rng, "C_AB")
            assert identities(s, hosvd(s).core)["core_bisep_C_AB"] <= 1e-12


def core_and_sigma(s):
    """The HOSVD core of s and its sigma triple, as classify reads them."""
    result = hosvd(s)
    return result.core, tuple(float(spec[0]) ** 2 for spec in result.spectra)


def core_identities(s, tol=1e-10):
    """identities of s with its hosvd core, at the core's sigma triple."""
    core, sigma = core_and_sigma(s)
    return identities(s, core, sigma, tol)


class TestPlaneIdentity:
    def test_ghz_core_exact_zero(self, ghz_86):
        assert core_identities(ghz_86)["plane_identity"] == 0.0

    def test_w_core_zero(self, w_state):
        assert identities(w_state, w_state, (2 / 3, 2 / 3, 2 / 3))["plane_identity"] == 0.0

    def test_random_cores(self, rng):
        worst = 0.0
        for _ in range(300):
            worst = max(worst, core_identities(haar_3q(rng))["plane_identity"])
        assert worst <= 1e-11

    def test_forms_disagree_off_the_plane(self):
        # a triple that is not the core's: the companion form, in t221, t122
        # and t212, reads 0 while the first does not
        s = normalize(amplitudes(a111=0.8, a112=0.6))
        with pytest.raises(NumericalError):
            identities(s, s, (0.1, 0.9, 0.5))

    def test_coefficients_sum_to_zero(self, rng):
        r = core_identities(haar_3q(rng))
        assert r["plane_a"] + r["plane_b"] + r["plane_c"] == pytest.approx(0.0, abs=1e-15)

    def test_symbolic_equivalence(self):
        sympy = pytest.importorskip("sympy")
        # moduli squared of the six off-corner elements plus the corners
        a, b, c, d, e, f, x = sympy.symbols("a b c d e f x", nonnegative=True)
        # a=|t112|^2 b=|t121|^2 c=|t211|^2 d=|t122|^2 e=|t212|^2 f=|t221|^2 x=|t111|^2
        s1 = x + a + b + d
        s2 = x + a + c + e
        s3 = x + b + c + f
        form_a = a * (s1 - s2) + c * (s2 - s3) + b * (s3 - s1)
        form_b = f * (s1 - s2) + d * (s2 - s3) + e * (s3 - s1)
        pre_transform = a * (d - e) + b * (f - d) + c * (e - f)
        assert sympy.expand(form_a - form_b) == 0
        assert sympy.expand(form_a - pre_transform) == 0


class TestPhaseIdentity:
    def test_ghz_core(self, ghz_equal):
        assert identities(ghz_equal, ghz_equal)["phase_identity"] == 0.0

    def test_two_off_corner_elements(self):
        t = normalize(amplitudes(a112=0.6, a221=0.8j))
        # every quartic product contains a vanishing factor
        assert identities(t, t)["phase_identity"] == 0.0

    def test_random_cores(self, rng):
        worst = 0.0
        for _ in range(2000):
            s = haar_3q(rng)
            worst = max(worst, identities(s, hosvd(s).core)["phase_identity"])
        assert worst <= 1e-11


class TestGuardedCheck:
    """The t111/t222 formulas read NaN where their shared denominator is
    within tol * norm^2 of zero, or subnormal."""

    def test_subnormal_denominator_is_guarded_at_tol_zero(self):
        # the denominator is -5e-324: numpy's complex division overflowed
        # on its reciprocal, with a warning, and read 0 / -5e-324 as NaN
        s = normalize(amplitudes(a211=2.4703282292062333e292j, a212=1j, a222=1e308j))
        r = classify(s, tol=0.0).residuals
        assert "t111_formula" not in r and "t222_formula" not in r

    def test_ghz_absent(self, ghz_86):
        r = core_identities(ghz_86)
        assert math.isnan(r["t111_formula"]) and math.isnan(r["t222_formula"])

    def test_b1_absent(self, b1_fixture):
        r = core_identities(b1_fixture)
        assert math.isnan(r["t111_formula"]) and math.isnan(r["t222_formula"])

    def test_random_cores(self, rng):
        checked = 0
        for _ in range(300):
            r = core_identities(haar_3q(rng), tol=1e-6)
            if math.isnan(r["t111_formula"]):
                assert math.isnan(r["t222_formula"])
                continue
            checked += 1
            assert r["t111_formula"] <= 1e-9
            assert r["t222_formula"] <= 1e-9
        assert checked > 250  # generic states pass the guard



class TestIdentityKernel:
    """_identities writes each identity term by term, and must give every
    value the bytes of oracles.identities_by_formula, which reads the core
    conditions of the cuts from unfoldings of the core where the kernel
    reads them from the phase products."""

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_matches_the_formulas_bit_for_bit(self, rng, tol):
        # Haar, real-valued, random sparse supports and the special patterns
        sparse = [on_pattern(rng, rng.choice(8, rng.integers(1, 8), replace=False), 1)
                  for _ in range(500)]
        special = [on_pattern(rng, pattern, 20) for _, pattern, _ in _SPECIAL_SUPPORT]
        x = _unit_rows(np.concatenate([philox_haar(1000, 2027), rng.standard_normal((500, 8)),
                                       *sparse, *special]))
        batch, core, _ = _classify_rows(x, tol, 1e-8)
        # the whole batch at once, and each state alone, as classify runs it
        pieces = [slice(None), *(slice(i, i + 1) for i in range(len(x)))]
        for rows in pieces:
            got = _identities(x[rows], core[rows], batch.sigma[rows], tol)
            expected = identities_by_formula(x[rows], core[rows], batch.sigma[rows], tol)
            assert list(got) == list(expected)
            for name, value in expected.items():
                assert got[name].tobytes() == value.tobytes(), (rows, name)


class TestClassify:
    def test_ghz_86(self, ghz_86):
        c = classify(ghz_86)
        assert (c.separability, c.case, c.special) == ("genuine", "case1", "ghz")
        np.testing.assert_allclose(c.sigma_triple, [0.64] * 3, atol=1e-12)
        assert not c.gauge_warning
        assert not c.degenerate_modes

    def test_w(self, w_state):
        c = classify(w_state)
        assert (c.separability, c.case, c.special) == ("genuine", "case1", "none")
        np.testing.assert_allclose(c.sigma_triple, [2 / 3] * 3, atol=1e-11)

    def test_s1(self, s1_fixture):
        c = classify(s1_fixture)
        assert (c.separability, c.case, c.special) == ("genuine", "case2_12", "s1")
        np.testing.assert_allclose(c.sigma_triple, [0.5, 0.5, 0.6], atol=1e-11)

    def test_b1(self, b1_fixture):
        c = classify(b1_fixture)
        assert c.separability == "genuine"
        assert c.special == "b1" and c.gauge_warning
        assert c.degenerate_modes == frozenset({1, 2, 3})
        assert all(0.5 - 1e-11 <= v <= 1 + 1e-11 for v in c.sigma_triple)
        assert c.residuals["plane_identity"] <= 1e-10

    def test_bisep_cab(self, bisep_cab):
        c = classify(bisep_cab)
        assert c.separability == "biseparable_C_AB"
        assert c.special == "none"
        np.testing.assert_allclose(c.sigma_triple, [0.5, 0.5, 1.0], atol=1e-11)

    def test_fully_separable(self):
        c = classify(normalize(amplitudes(a111=1)))
        assert (c.separability, c.case, c.special) == ("fully_separable", "case1", "none")

    def test_random_genuine(self, rng):
        c = classify(haar_3q(rng))
        assert c.separability == "genuine"
        assert c.case == "case3"  # generic sigma are pairwise distinct
        assert c.special == "none"
        for v in c.sigma_triple:
            assert 0.5 - 1e-10 <= v <= 1 + 1e-10
        assert c.residuals["all_orthogonality"] <= 1e-12
        assert abs(c.residuals["plane_coefficient_sum"]) <= 1e-12

    def test_all_orthogonality_is_the_kernel_on_its_core(self, request, rng):
        # one route: the residual is verify_all_orthogonality of the core
        # that _classify_rows gives the state, to the byte
        states = [request.getfixturevalue(name)
                  for name in ("ghz_86", "w_state", "s1_fixture", "b1_fixture", "bisep_cab")]
        states += [haar_3q(rng) for _ in range(100)]
        for s in states:
            got = classify(s).residuals["all_orthogonality"]
            core = _classify_rows(s.data[None], 1e-10, 1e-8)[1][0]
            want = verify_all_orthogonality(ComplexTensor(core))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_residuals_are_those_of_hosvd(self, request, rng):
        # one route: a state gets hosvd's residual bits from classify, as the
        # CLI normalizes it, from amplitudes at any scale; the reconstruction
        # is relative to the state's own norm, which is 1 only to a few ulps
        fixtures = [request.getfixturevalue(name)
                    for name in ("ghz_86", "w_state", "s1_fixture", "b1_fixture", "bisep_cab")]
        rows = [haar_state(rng) for _ in range(40)]
        rows += [multilinear_transform(f, [haar_unitary(rng) for _ in range(3)]).data
                 for f in fixtures for _ in range(8)]
        for amps in rows:
            for scale in np.logspace(-100, 100, 9):
                s = normalize(amps * scale)
                got, want = classify(s).residuals, hosvd(s).residuals
                assert type(got["reconstruction"]) is float
                assert repr(got["reconstruction"]) == repr(want.reconstruction)
                assert repr(got["all_orthogonality"]) == repr(want.all_orthogonality)

    def test_special_case_consistency(self, rng):
        # invariant scoped to non-degenerate classifications
        for _ in range(50):
            c = classify(haar_3q(rng))
            if c.degenerate_modes:
                continue
            if c.special == "ghz":
                assert c.case == "case1"
            elif c.special in ("s1", "s2", "s3"):
                assert c.case == {"s1": "case2_12", "s2": "case2_13", "s3": "case2_23"}[c.special]
            elif c.special in ("b1", "b2"):
                assert c.case == "case3"

    def test_case2_half_property(self, s1_fixture):
        c = classify(s1_fixture)
        eq_pairs = [
            abs(c.sigma_triple[0] - c.sigma_triple[1]) <= 1e-8,
            abs(c.sigma_triple[0] - c.sigma_triple[2]) <= 1e-8,
            abs(c.sigma_triple[1] - c.sigma_triple[2]) <= 1e-8,
        ]
        assert c.separability == "genuine" and sum(eq_pairs) == 1
        assert abs(c.sigma_triple[0] - 0.5) <= 1e-9
        assert abs(c.sigma_triple[1] - 0.5) <= 1e-9


class TestLuCovariance:
    def test_sigma_and_tags(self, rng):
        for _ in range(40):
            s = haar_3q(rng)
            mats = [haar_unitary(rng) for _ in range(3)]
            before = classify(s)
            after = classify(apply_lu(s, mats))
            np.testing.assert_allclose(
                before.sigma_triple, after.sigma_triple, atol=1e-10
            )
            if not before.degenerate_modes and not after.degenerate_modes:
                assert before.separability == after.separability
                assert before.case == after.case
                assert before.special == after.special

    def test_special_state_survives_lu(self, ghz_86, rng):
        mats = [haar_unitary(rng) for _ in range(3)]
        c = classify(apply_lu(ghz_86, mats))
        assert (c.case, c.special) == ("case1", "ghz")


class TestQubitPermutation:
    @pytest.mark.parametrize("perm", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)])
    def test_sigma_permutes(self, rng, perm):
        s = haar_3q(rng)
        permuted = normalize(np.transpose(s.data, perm))
        sig = classify(s).sigma_triple
        sig_p = classify(permuted).sigma_triple
        np.testing.assert_allclose(sig_p, [sig[p] for p in perm], atol=1e-11)

    def test_s1_maps_to_s3_under_1_3_swap(self, s1_fixture):
        # swapping qubits 1 and 3 sends the equal pair {1,2} to {2,3}
        swapped = normalize(np.transpose(s1_fixture.data, (2, 1, 0)))
        c = classify(swapped)
        assert (c.case, c.special) == ("case2_23", "s3")
        np.testing.assert_allclose(c.sigma_triple, [0.6, 0.5, 0.5], atol=1e-11)

    def test_bisep_maps_under_1_3_swap(self, bisep_cab):
        swapped = normalize(np.transpose(bisep_cab.data, (2, 1, 0)))
        assert classify(swapped).separability == "biseparable_A_BC"

    FIXTURES = ("ghz_86", "ghz_equal", "w_state", "s1_fixture", "b1_fixture", "bisep_cab")
    PAIRS = {"case2_12": (1, 2), "case2_13": (1, 3), "case2_23": (2, 3),
             "s1": (1, 2), "s2": (1, 3), "s3": (2, 3)}

    @classmethod
    def relabel(cls, label, inv):
        """label, named for the qubits of the permuted state, in which qubit
        q (1-based) of the state is qubit inv[q - 1] + 1."""
        if label.startswith("biseparable_"):
            return "biseparable_" + CUTS[inv[CUTS.index(label.removeprefix("biseparable_"))]]
        if label not in cls.PAIRS:
            return label
        pair = tuple(sorted(inv[q - 1] + 1 for q in cls.PAIRS[label]))
        return next(name for name, p in cls.PAIRS.items()
                    if p == pair and name[0] == label[0])

    def assert_covariant(self, s, perm, gauge_free_tag=False):
        # qubit k of the permuted state is qubit perm[k] of the state.  With
        # gauge_free_tag, the special tag is compared only where the record
        # says it is fixed (no gauge_warning): on degenerate spectra it
        # depends on the gauge, and so on the last bits of the input
        inv = np.argsort(perm).tolist()
        c = classify(s)
        p = classify(normalize(np.transpose(s.data, perm)))
        np.testing.assert_allclose(p.sigma_triple, [c.sigma_triple[q] for q in perm],
                                   rtol=0, atol=1e-14)
        assert (p.separability, p.case) == tuple(
            self.relabel(label, inv) for label in (c.separability, c.case))
        if not (gauge_free_tag and c.gauge_warning):
            assert p.special == self.relabel(c.special, inv)
        assert p.degenerate_modes == {inv[n - 1] + 1 for n in c.degenerate_modes}
        assert p.gauge_warning == c.gauge_warning
        for q, cut in enumerate(CUTS):
            for name in ("core_bisep", "minors"):
                got, want = p.residuals[f"{name}_{CUTS[inv[q]]}"], c.residuals[f"{name}_{cut}"]
                assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_whole_record_is_covariant(self, request, rng, perm):
        states = [request.getfixturevalue(name) for name in self.FIXTURES]
        states += [haar_3q(rng) for _ in range(100)]
        for s in states:
            self.assert_covariant(s, perm)

    @settings(max_examples=300, deadline=None)
    @given(pattern=st.sampled_from([sorted(p) for _, p, _ in _SPECIAL_SUPPORT]),
           coefficients=st.lists(st.tuples(st.floats(0.05, 1), st.floats(0, 1)),
                                 min_size=4, max_size=4),
           perm=st.permutations(range(3)))
    def test_whole_record_is_covariant_on_special_supports(self, pattern, coefficients, perm):
        # random coefficients on each special support pattern, with
        # magnitudes in [0.05, 1], as in TestGlobalSymmetries, so that no
        # entry sits on a decision threshold.  Equal magnitudes, which the
        # search favours, make spectra degenerate, where the tag is not
        # fixed: renormalizing the B1 state with magnitudes 0.328125,
        # 0.328125, 0.375, 0.375 and phases 0, 0, 0, 0.875 turns (ROADMAP
        # item 1) moves its last bits and its tag from b1 to b2
        a = np.zeros(8, dtype=complex)
        for i, (magnitude, turn) in zip(pattern, coefficients):
            a[i] = magnitude * np.exp(2j * np.pi * turn)
        self.assert_covariant(normalize(a), perm, gauge_free_tag=True)


class TestGlobalSymmetries:
    """Global phase, complex conjugation and power-of-two scaling leave the
    classify record unchanged, on 120 Haar states and 50 states on each
    special support pattern (Philox 11).  The pattern coefficients have
    magnitudes in [0.05, 1], so that no entry sits on a decision threshold."""

    @staticmethod
    def states():
        rng = np.random.Generator(np.random.Philox(11))
        amps = list(philox_haar(120, 11))
        for _, pattern, _ in _SPECIAL_SUPPORT:
            idx = sorted(pattern)
            for _ in range(50):
                a = np.zeros(8, dtype=complex)
                a[idx] = rng.uniform(0.05, 1, len(idx)) * np.exp(2j * np.pi * rng.random(len(idx)))
                amps.append(a)
        return rng, amps

    @staticmethod
    def labels(c):
        return c.separability, c.case, c.special, c.gauge_warning, c.degenerate_modes

    def test_global_phase(self):
        # e^{i phi} is rounded, so sigma moves in its last bits: by up to 1.4e-15
        # on these states, past a bound of 1e-15
        rng, amps = self.states()
        for a in amps:
            c = classify(normalize(a))
            p = classify(normalize(np.exp(2j * np.pi * rng.random()) * a))
            assert self.labels(p) == self.labels(c)
            np.testing.assert_allclose(p.sigma_triple, c.sigma_triple, rtol=0, atol=4e-15)

    def test_complex_conjugation(self):
        _, amps = self.states()
        for a in amps:
            c = classify(normalize(a))
            p = classify(normalize(a.conj()))
            assert self.labels(p) == self.labels(c)
            np.testing.assert_allclose(p.sigma_triple, c.sigma_triple, rtol=0, atol=1e-15)

    def test_power_of_two_scaling_is_bit_identical(self):
        rng, amps = self.states()
        for a, k in zip(amps, rng.integers(-600, 601, len(amps)).tolist()):
            c = classify(normalize(a))
            p = classify(normalize(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)))
            # repr tells -0.0 from 0.0 and reads NaN as equal to NaN
            assert repr(dataclasses.asdict(p)) == repr(dataclasses.asdict(c))


class TestPolytope:
    def test_point_examples(self, ghz_equal, w_state):
        sigma = classify(normalize(amplitudes(a111=1))).sigma_triple
        np.testing.assert_allclose(sigma, [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(classify(ghz_equal).sigma_triple, [0.5] * 3, atol=1e-12)
        np.testing.assert_allclose(classify(w_state).sigma_triple, [2 / 3] * 3, atol=1e-12)

    def test_bisep_cab_member_at_tol0(self, bisep_cab):
        # as the CLI reads it: the stored amplitudes normalized again; its
        # s3 is 1.0 to the last bit, so it lies in the polytope at tol 0
        c = classify(normalize(bisep_cab.data), tol=0.0)
        assert c.separability == "biseparable_C_AB"
        assert c.sigma_triple[2] == 1.0
        assert polytope_membership(c.sigma_triple, tol=0.0).member

    def test_membership_vertex(self):
        m = polytope_membership((1.0, 1.0, 1.0))
        assert m.member and bool(m)
        assert m.residuals["s1+s2-s3<=1"] == 0.0

    def test_membership_tight_facet(self):
        assert polytope_membership((1.0, 0.5, 0.5)).member

    def test_membership_violation(self):
        m = polytope_membership((0.9, 0.9, 0.5))
        assert not m.member
        assert m.residuals["s1+s2-s3<=1"] == pytest.approx(0.3)

    @pytest.mark.parametrize("sigma", [(1.0, 0.5), (1.0, 0.5, 0.5, 0.5), "abc", 0.75,
                                       [[1.0, 0.5, 0.5]]])
    def test_membership_needs_a_triple(self, sigma):
        with pytest.raises(ShapeError, match="triple"):
            polytope_membership(sigma)

    @pytest.mark.parametrize("sigma", [(0.75, np.nan, 0.75), (np.inf, 0.5, 0.5),
                                       (0.5, 0.5, -np.inf), ("a", "b", "c"), (0.5, 0.5, 1j)])
    def test_membership_needs_finite_numbers(self, sigma):
        with pytest.raises(ValidationError):
            polytope_membership(sigma)

    def test_membership_residuals_are_floats(self):
        m = polytope_membership(np.array([0.75, 0.75, 0.5]))
        assert m.member and all(type(v) is float for v in m.residuals.values())

    @pytest.mark.parametrize("tol", [0.0, 2.0 ** -53, 1e-10])
    def test_rows_decide_as_membership(self, tol):
        # one rule: each coordinate of a point on every facet and bound moved
        # by -1, 0 and +1 ulp, as rows and one triple at a time
        points = [(0.875, 0.875, 0.75), (0.875, 0.75, 0.875), (0.75, 0.875, 0.875),
                  (0.5, 0.625, 0.625), (0.625, 0.5, 0.625), (0.625, 0.625, 0.5),
                  (1.0, 0.75, 0.75), (0.75, 1.0, 0.75), (0.75, 0.75, 1.0), (1.0, 1.0, 1.0)]
        ulps = [lambda v: np.nextafter(v, -np.inf), lambda v: v, lambda v: np.nextafter(v, np.inf)]
        rows = np.array([[f(v) for f, v in zip(moves, p)]
                         for p in points for moves in itertools.product(ulps, repeat=3)])
        member, residuals = _polytope(*rows.T, tol)
        assert member.shape == (len(rows),)
        for i, row in enumerate(rows):
            m = polytope_membership(row, tol=tol)
            assert bool(member[i]) is m.member
            assert {k: v[i] for k, v in residuals.items()} == m.residuals
        if tol == 0.0:
            assert member.any() and not member.all()

    def test_sampled_states_inside(self, rng):
        for _ in range(200):
            sigma = classify(haar_3q(rng)).sigma_triple
            assert polytope_membership(sigma, tol=1e-10).member

    def test_batch_matches_pointwise(self, rng):
        batch = np.array([haar_state(rng) for _ in range(64)])
        vec = classify_batch(batch).sigma
        for row, amps in zip(vec, batch):
            sigma = classify(normalize(amps)).sigma_triple
            np.testing.assert_allclose(row, sigma, atol=1e-12)


def philox_haar(count, seed):
    z = np.random.Generator(np.random.Philox(seed)).standard_normal((count, 2, 8))
    return z[:, 0] + 1j * z[:, 1]


def on_pattern(rng, pattern, count):
    """count states with standard complex Gaussian amplitudes on the flat
    indices of pattern and zeros elsewhere."""
    amps = np.zeros((count, 8), dtype=complex)
    idx = sorted(pattern)
    amps[:, idx] = rng.standard_normal((count, len(idx))) + 1j * rng.standard_normal((count, len(idx)))
    return amps


TOLERANCES = [pytest.param(1e-10, 1e-8, id="defaults"), pytest.param(0.0, 1e-8, id="tol0")]


def assert_matches_hosvd(amps, tol, sigma_tol):
    """Check classify_batch of the (M, 8) amps against hosvd of each
    normalized state: sigma equal to the squares of the top spectra, the
    same degenerate modes, the same core, and the same labels as the
    decision functions give on hosvd's outputs.  classify of each state
    must be its row, bit for bit."""
    batch = classify_batch(amps, tol=tol, sigma_tol=sigma_tol)
    assert isinstance(batch, BatchClassification)
    states = [normalize(row) for row in amps]
    results = [hosvd(s, tol=tol) for s in states]
    sigma = np.array([np.square([spec[0] for spec in r.spectra]) for r in results])
    core = np.array([r.core.data for r in results])
    degenerate = np.array([[n in r.degenerate_modes for n in (1, 2, 3)] for r in results])
    np.testing.assert_array_equal(batch.sigma, sigma)
    np.testing.assert_array_equal(batch.degenerate_modes, degenerate)
    batch_core = _classify_rows(np.array([s.data for s in states]), tol, sigma_tol)[1]
    np.testing.assert_array_equal(batch_core, core)
    separability = _separability(sigma, tol)
    case = _decide_case(sigma, sigma_tol)
    special, gauge_warning = _decide_special(core, separability, case,
                                             degenerate.any(axis=1), tol)
    rows = list(zip(batch.separability.tolist(), batch.case.tolist(), batch.special.tolist(),
                    batch.gauge_warning.tolist()))
    assert rows == list(zip(separability.tolist(), case.tolist(), special.tolist(),
                            gauge_warning.tolist()))
    for s, row, sig, flags in zip(states, rows, batch.sigma.tolist(), batch.degenerate_modes):
        c = classify(s, tol=tol, sigma_tol=sigma_tol)
        assert (c.separability, c.case, c.special, c.gauge_warning) == row
        assert c.sigma_triple == tuple(sig)
        assert c.degenerate_modes == frozenset(np.flatnonzero(flags) + 1)
    return batch


class TestOneDecomposition:
    """classify runs the closed-form HOSVD of classify_batch on a batch of
    one; the generic hosvd cross-checks it here, in tests only."""

    FIXTURES = ("ghz_86", "w_state", "s1_fixture", "b1_fixture", "bisep_cab")

    def test_matches_hosvd(self, request, rng):
        amps = [request.getfixturevalue(name).data.ravel() for name in self.FIXTURES]
        amps += list(philox_haar(100, 2025))
        for _, pattern, _ in _SPECIAL_SUPPORT:
            amps += list(on_pattern(rng, pattern, 10))
        assert all(type(v) is float for v in classify(normalize(amps[0])).sigma_triple)
        for tol in (1e-10, 0.0):
            batch = assert_matches_hosvd(np.array(amps), tol, 1e-8)
            if tol:
                assert batch.special.tolist()[:5] == ["ghz", "none", "s1", "b1", "none"]

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    def test_rows_are_hosvd_bit_for_bit(self, request, tol):
        # one HOSVD route: each row of the batch is hosvd of that state, to
        # the sign of every zero.  The fixtures and the real product row
        # give unrotated, degenerate and real rotated Grams.
        names = ("ghz_86", "ghz_equal", "w_state", "s1_fixture", "b1_fixture", "bisep_cab")
        product = np.einsum("i,j,k->ijk", [0.6, 0.8], [0.8, -0.6], [1.0, 1.0]).ravel()
        amps = [*philox_haar(3000, 2026),
                *(request.getfixturevalue(name).data.ravel() for name in names), product]
        x = _unit_rows(np.array(amps))
        batch, core, factors = _classify_rows(x, tol, 1e-8)
        sigma, degenerate = batch.sigma, batch.degenerate_modes
        differ = 0
        for i, state in enumerate(x):
            r = hosvd(ComplexTensor(state), tol=tol)
            same = (core[i].tobytes() == r.core.data.tobytes()
                    and all(f[i].tobytes() == u.tobytes() for f, u in zip(factors, r.factors,
                                                                       strict=True))
                    and set(np.flatnonzero(degenerate[i]) + 1) == r.degenerate_modes
                    and sigma[i].tobytes() == np.square([s[0] for s in r.spectra]).tobytes())
            differ += not same
        assert differ == 0, f"{differ} of {len(x)} states differ"
        assert degenerate[-7:].any(axis=1).tolist() == [False, True, False, True, True, True,
                                                        False]

    def test_plane_identity_is_read_at_the_reported_triple(self, request, rng):
        states = [request.getfixturevalue(name) for name in self.FIXTURES]
        states += [haar_3q(rng) for _ in range(100)]
        for s in states:
            c = classify(s)
            s1, s2, s3 = c.sigma_triple
            r = c.residuals
            a, b, cc = r["plane_a"], r["plane_b"], r["plane_c"]
            assert r["plane_identity"] == abs(a * s1 + b * s2 + cc * s3)


class TestClassifyBatch:
    """classify_batch gives classify's record, row by row, and agrees with
    the generic hosvd (see assert_matches_hosvd)."""

    FIXTURES = ("ghz_86", "ghz_equal", "w_state", "s1_fixture", "b1_fixture", "bisep_cab")

    @pytest.mark.parametrize("tol, sigma_tol", TOLERANCES)
    def test_haar_states(self, tol, sigma_tol):
        batch = assert_matches_hosvd(philox_haar(2000, 2024), tol, sigma_tol)
        assert set(batch.special.tolist()) == {"none"}

    @pytest.mark.parametrize("tol, sigma_tol", TOLERANCES)
    def test_fixtures(self, request, tol, sigma_tol):
        amps = np.array([request.getfixturevalue(name).data.ravel() for name in self.FIXTURES])
        batch = assert_matches_hosvd(amps, tol, sigma_tol)
        if tol:
            assert batch.special.tolist() == ["ghz", "ghz", "none", "s1", "b1", "none"]

    @pytest.mark.parametrize("tol, sigma_tol", TOLERANCES)
    @pytest.mark.parametrize("tag, pattern", [(tag, pattern) for tag, pattern, _ in _SPECIAL_SUPPORT])
    def test_special_support_patterns(self, rng, tag, pattern, tol, sigma_tol):
        assert_matches_hosvd(on_pattern(rng, pattern, 50), tol, sigma_tol)

    @pytest.mark.parametrize("tol, sigma_tol", TOLERANCES)
    def test_biseparable_and_product(self, rng, tol, sigma_tol):
        states = [biproduct_state(rng, cut) for cut in ("A_BC", "B_CA", "C_AB") for _ in range(20)]
        states += [product_state(rng) for _ in range(20)]
        batch = assert_matches_hosvd(np.array([s.data for s in states]), tol, sigma_tol)
        if tol:
            assert batch.separability.tolist() == (
                ["biseparable_A_BC"] * 20 + ["biseparable_B_CA"] * 20
                + ["biseparable_C_AB"] * 20 + ["fully_separable"] * 20)

    def test_rows_are_normalized_first(self):
        amps = philox_haar(50, 3)
        unit = classify_batch(amps)
        # a power of two scales exactly; another scale rounds the amplitudes
        for scale, atol in ((2.0**-900, 0.0), (2.0**600, 0.0), (1e-150, 1e-14), (3.0, 1e-14)):
            scaled = classify_batch(scale * amps)
            np.testing.assert_allclose(scaled.sigma, unit.sigma, rtol=0, atol=atol)
            assert scaled.case.tolist() == unit.case.tolist()
            assert scaled.separability.tolist() == unit.separability.tolist()

    @pytest.mark.parametrize("scale", [1.0, 3.0, 1e-170, 1e-310, 1e200])
    def test_rows_normalize_as_normalize_does(self, scale):
        amps = scale * philox_haar(200, 5)
        rows = _unit_rows(amps)
        for row, amp in zip(rows, amps):
            np.testing.assert_array_equal(row, normalize(amp).data)

    def test_flat_and_tensor_rows_agree(self):
        amps = philox_haar(20, 4)
        flat, tensor = classify_batch(amps), classify_batch(amps.reshape(20, 2, 2, 2))
        np.testing.assert_array_equal(flat.sigma, tensor.sigma)

    @pytest.mark.parametrize("shape", [(8,), (2, 2, 2), (3, 7), (3, 2, 4), (3, 2, 2, 2, 1), (3, 4, 2)])
    def test_wrong_shape(self, shape):
        with pytest.raises(ShapeError):
            classify_batch(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        amps = np.ones((3, 8), dtype=complex)
        amps[1, 5] = bad
        with pytest.raises(ValidationError):
            classify_batch(amps)

    def test_empty_batch(self):
        batch = classify_batch(np.zeros((0, 8)))
        assert batch.sigma.shape == (0, 3) and batch.degenerate_modes.shape == (0, 3)
        assert batch.special.shape == (0,)

    def test_zero_row_rejected(self):
        amps = np.ones((3, 8))
        amps[2] = 0.0
        with pytest.raises(DomainError):
            classify_batch(amps)


class TestInputValidation:
    def test_wrong_size(self):
        with pytest.raises(ShapeError):
            normalize(np.zeros(7))

    def test_plane_identity_needs_2x2x2(self):
        # classify's residuals are the route to the identities
        for dims in ((2, 2), (2, 2, 2, 1), (8,)):
            with pytest.raises(ShapeError):
                classify(ComplexTensor(np.full(dims, 1 / np.sqrt(8))))

    @pytest.mark.parametrize("scale", [3.0, 1 + 1e-9, 1e-3, 0.0, np.nan])
    def test_classify_needs_unit_norm(self, scale):
        # a 2x2x2 tensor of another norm is not a state: at scale 3 the GHZ
        # state below read fully_separable, with sigma 5.76
        t = ComplexTensor(scale * normalize([0.8, 0, 0, 0, 0, 0, 0, 0.6]).data)
        with pytest.raises(ValidationError, match="not normalized"):
            classify(t)

    def test_classify_accepts_unit_norm_tensors(self):
        amps = normalize([0.8, 0, 0, 0, 0, 0, 0, 0.6]).data * (1 + 5e-11)
        assert classify(ComplexTensor(amps)).special == "ghz"


# a string or complex tol raised a bare TypeError from the comparison, and
# True was read as 1
BAD_TOLERANCES = [-1.0, -1e-300, np.nan, np.inf, -np.inf, "x", None, 1j, [1e-10], True, False,
                  np.True_]


class TestTolerances:
    """Every tolerance must be a real number, finite and >= 0, as the CLI flags must be."""

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    def test_classify(self, ghz_86, bad):
        with pytest.raises(ValidationError, match="^tol must be finite and >= 0"):
            classify(ghz_86, tol=bad)
        with pytest.raises(ValidationError, match="^sigma_tol must be finite and >= 0"):
            classify(ghz_86, sigma_tol=bad)

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    def test_classify_batch(self, bad):
        amps = philox_haar(4, 1)
        with pytest.raises(ValidationError, match="^tol must be finite and >= 0"):
            classify_batch(amps, tol=bad)
        with pytest.raises(ValidationError, match="^sigma_tol must be finite and >= 0"):
            classify_batch(amps, sigma_tol=bad)

    @pytest.mark.parametrize("bad", BAD_TOLERANCES)
    def test_polytope_membership(self, bad):
        with pytest.raises(ValidationError, match="^tol must be finite and >= 0"):
            polytope_membership((0.75, 0.75, 0.5), tol=bad)

    def test_ints_and_numpy_floats_accepted(self, ghz_86):
        want = classify(ghz_86, tol=0.0, sigma_tol=1e-8)
        got = classify(ghz_86, tol=0, sigma_tol=np.float64(1e-8))
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
        assert polytope_membership((1.0, 0.75, 0.75), tol=np.float32(0)).member

    def test_zero_accepted(self, ghz_86):
        assert classify(ghz_86, tol=0.0, sigma_tol=0.0).special == "ghz"
        assert classify_batch(philox_haar(4, 1), tol=0.0, sigma_tol=0.0).sigma.shape == (4, 3)
        assert polytope_membership((0.75, 0.75, 0.5), tol=0.0).member

    def test_largest_float_decides_as_two(self):
        # tol times a norm of about 1 overflowed, with a warning, in the
        # support test and the t111/t222 guard (pytest makes it an error)
        states = [normalize(amplitudes(a211=1j, a222=1.75j)),
                  *(normalize(row) for row in philox_haar(20, 5))]
        for s in states:
            want = classify(s, tol=2.0)
            for tol in (8.98846567431158e307, 1.7976931348623157e308):
                got = classify(s, tol=tol)
                assert vars(got) == vars(want)
        for tol in (2.0, 1.7976931348623157e308):
            batch = classify_batch(philox_haar(20, 5), tol=tol)
            assert (batch.separability == "fully_separable").all()
            assert (batch.special == "none").all()
