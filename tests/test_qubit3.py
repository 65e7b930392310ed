import itertools

import numpy as np
import pytest

from hosvd3 import (
    ComplexTensor,
    DomainError,
    PolytopePoint,
    ShapeError,
    ThreeQubitState,
    ValidationError,
    batch_sigma_squares,
    classify,
    core_biseparability_residual,
    guarded_t111_t222_check,
    hosvd,
    multilinear_transform,
    normalize,
    one_body_rdms,
    phase_identity_residual,
    plane_coefficients,
    plane_identity_residual,
    polytope_membership,
    polytope_point,
    separability_class,
    separability_minor_residual,
    two_body_rdms,
)
from conftest import amplitudes
from oracles import haar_state, haar_unitary, one_body_rdm_by_summation


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


def apply_lu(state, mats):
    return normalize(multilinear_transform(state.as_tensor(), mats).data)


class TestNormalize:
    def test_unit_input_unchanged(self):
        s = normalize(amplitudes(a111=1))
        assert s.amplitude(1, 1, 1) == 1.0

    def test_ghz_scaling(self):
        s = normalize(amplitudes(a111=1, a222=1))
        assert s.amplitude(1, 1, 1) == pytest.approx(1 / np.sqrt(2))
        assert s.amplitude(2, 2, 2) == pytest.approx(1 / np.sqrt(2))

    def test_scalar_rescale(self):
        s = normalize(amplitudes(a111=2))
        assert s.amplitude(1, 1, 1) == 1.0

    def test_phase_preserved(self):
        s = normalize(amplitudes(a111=2j, a222=-2))
        ratio = s.amplitude(2, 2, 2) / s.amplitude(1, 1, 1)
        assert ratio == pytest.approx(1j)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            normalize(np.zeros(8))

    def test_unnormalized_constructor_rejected(self):
        with pytest.raises(ValidationError):
            ThreeQubitState(amplitudes(a111=2))

    def test_nan_constructor_rejected(self):
        with pytest.raises(ValidationError):
            ThreeQubitState(np.full(8, np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        amps = np.ones(8, dtype=complex)
        amps[3] = bad
        with pytest.raises(ValidationError):
            normalize(amps)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-310, 2.0**1000])
    def test_extreme_scales_same_as_unit_scale(self, scale):
        unit = normalize(np.ones(8))
        scaled = normalize(scale * np.ones(8))
        np.testing.assert_allclose(scaled.amplitudes, unit.amplitudes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            classify(scaled).sigma_triple, classify(unit).sigma_triple, rtol=0, atol=1e-15
        )


class TestThreeQubitState:
    def test_one_tensor(self, w_state):
        t = w_state.as_tensor()
        assert w_state.as_tensor() is t
        assert t.data is w_state.amplitudes
        assert not t.data.flags.writeable

    @pytest.mark.parametrize("indices", [(0, 1, 1), (0, 0, 0), (3, 1, 1), (1, 2, 3)])
    def test_amplitude_index_out_of_range(self, w_state, indices):
        with pytest.raises(ValueError):
            w_state.amplitude(*indices)

    def test_amplitude_is_one_based(self, rng):
        s = haar_3q(rng)
        for i1, i2, i3 in itertools.product((1, 2), repeat=3):
            value = s.amplitude(i1, i2, i3)
            assert type(value) is complex
            assert value == s.amplitudes[i1 - 1, i2 - 1, i3 - 1]


class TestOneBodyRdms:
    def test_basis_state(self):
        rdms = one_body_rdms(normalize(amplitudes(a111=1)))
        assert [r.label for r in rdms] == ["A", "B", "C"]
        for r in rdms:
            np.testing.assert_allclose(r.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_equal_ghz(self, ghz_equal):
        for r in one_body_rdms(ghz_equal):
            np.testing.assert_allclose(r.matrix, np.eye(2) / 2, atol=1e-15)

    def test_w_state(self, w_state):
        for r in one_body_rdms(w_state):
            np.testing.assert_allclose(r.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-15)

    def test_oracle_and_invariants(self, rng):
        for _ in range(50):
            s = haar_3q(rng)
            for qubit, r in enumerate(one_body_rdms(s)):
                np.testing.assert_allclose(
                    r.matrix, one_body_rdm_by_summation(s.amplitudes, qubit), atol=1e-14
                )
                assert r.trace == pytest.approx(1.0, abs=1e-10)
                np.testing.assert_allclose(r.matrix, r.matrix.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(r.matrix).min() >= -1e-12


class TestTwoBodyRdms:
    def test_basis_state(self):
        rdms = two_body_rdms(normalize(amplitudes(a111=1)))
        assert [r.label for r in rdms] == ["AB", "CA", "BC"]
        for r in rdms:
            evals = np.sort(np.linalg.eigvalsh(r.matrix))[::-1]
            np.testing.assert_allclose(evals, [1, 0, 0, 0], atol=1e-14)

    def test_equal_ghz(self, ghz_equal):
        rho_ab = two_body_rdms(ghz_equal)[0]
        evals = np.sort(np.linalg.eigvalsh(rho_ab.matrix))[::-1]
        np.testing.assert_allclose(evals, [0.5, 0.5, 0, 0], atol=1e-14)

    def test_purity_pairing(self, rng):
        # spec(rho^{AB}) == spec(rho^C) + {0, 0}, and cyclic partners
        for _ in range(25):
            s = haar_3q(rng)
            ones = one_body_rdms(s)
            twos = two_body_rdms(s)
            pairing = {"AB": "C", "CA": "B", "BC": "A"}
            singles = {r.label: r for r in ones}
            for r2 in twos:
                big = np.sort(np.linalg.eigvalsh(r2.matrix))[::-1]
                small = np.sort(np.linalg.eigvalsh(singles[pairing[r2.label]].matrix))[::-1]
                np.testing.assert_allclose(big[:2], small, atol=1e-11)
                np.testing.assert_allclose(big[2:], [0, 0], atol=1e-11)
                assert r2.trace == pytest.approx(1.0, abs=1e-10)


class TestSeparability:
    def test_basis_state(self):
        assert separability_class(normalize(amplitudes(a111=1))) == "fully_separable"

    def test_bisep_cab(self, bisep_cab):
        assert separability_class(bisep_cab) == "biseparable_C_AB"

    def test_equal_ghz_genuine(self, ghz_equal):
        assert separability_class(ghz_equal) == "genuine"

    def test_product_states(self, rng):
        for _ in range(20):
            assert separability_class(product_state(rng)) == "fully_separable"

    @pytest.mark.parametrize("cut", ["A_BC", "B_CA", "C_AB"])
    def test_biproduct_states(self, rng, cut):
        for _ in range(20):
            assert separability_class(biproduct_state(rng, cut)) == f"biseparable_{cut}"

    def test_minor_residual_matches_explicit_conditions(self, rng):
        # the C|AB minors are exactly the six displayed amplitude conditions
        s = haar_3q(rng)
        p = s.amplitude
        conditions = [
            p(1, 1, 1) * p(2, 2, 2) - p(1, 1, 2) * p(2, 2, 1),
            p(1, 1, 1) * p(2, 1, 2) - p(2, 1, 1) * p(1, 1, 2),
            p(1, 2, 1) * p(2, 2, 2) - p(2, 2, 1) * p(1, 2, 2),
            p(1, 1, 1) * p(1, 2, 2) - p(1, 1, 2) * p(1, 2, 1),
            p(2, 1, 1) * p(2, 2, 2) - p(2, 1, 2) * p(2, 2, 1),
            p(2, 1, 1) * p(1, 2, 2) - p(2, 1, 2) * p(1, 2, 1),
        ]
        expected = max(abs(v) for v in conditions)
        assert separability_minor_residual(s, "C_AB") == pytest.approx(expected, rel=1e-12)

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
            spectral = separability_class(s)
            polynomial_pure = [
                cut for cut in ("A_BC", "B_CA", "C_AB")
                if separability_minor_residual(s, cut) <= 1e-10
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
        assert core_biseparability_residual(core, "C_AB") == 0.0

    def test_ghz_core_all_cuts_zero(self, ghz_equal):
        core = ghz_equal.as_tensor()
        for cut in ("A_BC", "B_CA", "C_AB"):
            # all six monomials vanish even though GHZ is genuine; the single
            # condition is necessary only
            assert core_biseparability_residual(core, cut) == 0.0

    def test_product_core(self, rng):
        for _ in range(10):
            s = biproduct_state(rng, "C_AB")
            core = hosvd(s.as_tensor()).core
            assert core_biseparability_residual(core, "C_AB") <= 1e-12

    def test_non_core_rejected(self):
        not_core = ComplexTensor(
            amplitudes(a111=1 / np.sqrt(2), a211=1 / np.sqrt(2)).reshape(2, 2, 2)
        )
        with pytest.raises(ValidationError):
            core_biseparability_residual(not_core, "C_AB")

    def test_unknown_cut(self, ghz_equal):
        with pytest.raises(ValueError):
            core_biseparability_residual(ghz_equal.as_tensor(), "AB_C")


class TestPlaneIdentity:
    def test_ghz_core_exact_zero(self, ghz_86):
        assert plane_identity_residual(hosvd(ghz_86.as_tensor()).core) == 0.0

    def test_w_core_zero(self, w_state):
        assert plane_identity_residual(w_state.as_tensor()) == 0.0

    def test_random_cores(self, rng):
        worst = 0.0
        for _ in range(300):
            core = hosvd(haar_3q(rng).as_tensor()).core
            worst = max(worst, plane_identity_residual(core))
        assert worst <= 1e-11

    def test_coefficients_sum_to_zero(self, rng):
        core = hosvd(haar_3q(rng).as_tensor()).core
        a, b, c = plane_coefficients(core)
        assert a + b + c == pytest.approx(0.0, abs=1e-15)

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
        assert phase_identity_residual(ghz_equal.as_tensor()) == 0.0

    def test_two_off_corner_elements(self):
        t = ComplexTensor(
            normalize(amplitudes(a112=0.6, a221=0.8j)).amplitudes
        )
        # every quartic product contains a vanishing factor
        assert phase_identity_residual(t) == 0.0

    def test_random_cores(self, rng):
        worst = 0.0
        for _ in range(2000):
            core = hosvd(haar_3q(rng).as_tensor()).core
            worst = max(worst, phase_identity_residual(core))
        assert worst <= 1e-11


class TestGuardedCheck:
    def test_ghz_absent(self, ghz_86):
        assert guarded_t111_t222_check(hosvd(ghz_86.as_tensor()).core) is None

    def test_b1_absent(self, b1_fixture):
        core = hosvd(b1_fixture.as_tensor()).core
        assert guarded_t111_t222_check(core) is None

    def test_random_cores(self, rng):
        checked = 0
        for _ in range(300):
            core = hosvd(haar_3q(rng).as_tensor()).core
            result = guarded_t111_t222_check(core, tol=1e-6)
            if result is None:
                continue
            checked += 1
            r111, r222 = result
            assert r111 <= 1e-9
            assert r222 <= 1e-9
        assert checked > 250  # generic states pass the guard


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
        permuted = normalize(np.transpose(s.amplitudes, perm))
        sig = classify(s).sigma_triple
        sig_p = classify(permuted).sigma_triple
        np.testing.assert_allclose(sig_p, [sig[p] for p in perm], atol=1e-11)

    def test_s1_maps_to_s3_under_1_3_swap(self, s1_fixture):
        # swapping qubits 1 and 3 sends the equal pair {1,2} to {2,3}
        swapped = normalize(np.transpose(s1_fixture.amplitudes, (2, 1, 0)))
        c = classify(swapped)
        assert (c.case, c.special) == ("case2_23", "s3")
        np.testing.assert_allclose(c.sigma_triple, [0.6, 0.5, 0.5], atol=1e-11)

    def test_bisep_maps_under_1_3_swap(self, bisep_cab):
        swapped = normalize(np.transpose(bisep_cab.amplitudes, (2, 1, 0)))
        assert classify(swapped).separability == "biseparable_A_BC"


class TestOneDecomposition:
    """polytope_point and separability_class read the same HOSVD as classify."""

    FIXTURES = ("ghz_86", "w_state", "s1_fixture", "b1_fixture", "bisep_cab")

    def test_fixtures_and_haar_states_bit_for_bit(self, request, rng):
        states = [request.getfixturevalue(name) for name in self.FIXTURES]
        states += [haar_3q(rng) for _ in range(100)]
        for s in states:
            c = classify(s)
            p = polytope_point(s)
            assert (p.s1, p.s2, p.s3) == c.sigma_triple
            assert separability_class(s) == c.separability


class TestPolytope:
    def test_point_examples(self, ghz_equal, w_state):
        p = polytope_point(normalize(amplitudes(a111=1)))
        np.testing.assert_allclose([p.s1, p.s2, p.s3], [1, 1, 1], atol=1e-12)
        p = polytope_point(ghz_equal)
        np.testing.assert_allclose([p.s1, p.s2, p.s3], [0.5] * 3, atol=1e-12)
        p = polytope_point(w_state)
        np.testing.assert_allclose([p.s1, p.s2, p.s3], [2 / 3] * 3, atol=1e-12)

    def test_membership_vertex(self):
        m = polytope_membership(PolytopePoint(1.0, 1.0, 1.0))
        assert m.member and bool(m)
        assert m.residuals["s1+s2-s3<=1"] == 0.0

    def test_membership_tight_facet(self):
        assert polytope_membership(PolytopePoint(1.0, 0.5, 0.5)).member

    def test_membership_violation(self):
        m = polytope_membership(PolytopePoint(0.9, 0.9, 0.5))
        assert not m.member
        assert m.residuals["s1+s2-s3<=1"] == pytest.approx(0.3)

    def test_sampled_states_inside(self, rng):
        for _ in range(200):
            assert polytope_membership(polytope_point(haar_3q(rng)), tol=1e-10).member

    def test_clamped_reporting(self):
        p = PolytopePoint(1.0 + 5e-16, 0.5 - 5e-16, 0.75)
        assert p.clamped() == (1.0, 0.5, 0.75)
        assert p.s1 == 1.0 + 5e-16  # raw preserved

    def test_batch_matches_pointwise(self, rng):
        batch = np.array([haar_state(rng) for _ in range(64)])
        vec = batch_sigma_squares(batch)
        for row, amps in zip(vec, batch):
            p = polytope_point(normalize(amps))
            np.testing.assert_allclose(row, [p.s1, p.s2, p.s3], atol=1e-12)


class TestInputValidation:
    def test_wrong_size(self):
        with pytest.raises(ShapeError):
            normalize(np.zeros(7))

    def test_plane_identity_needs_2x2x2(self):
        with pytest.raises(ShapeError):
            plane_identity_residual(ComplexTensor(np.zeros((2, 2))))
