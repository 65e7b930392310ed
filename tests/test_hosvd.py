import numpy as np
import pytest

from hosvd3 import (
    ComplexTensor,
    DomainError,
    ValidationError,
    hosvd,
    inner,
    make_tensor,
    mode_singular_values,
    multilinear_transform,
    norm,
    reconstruct,
    subtensor,
    validate_unitary,
    verify_all_orthogonality,
)
from oracles import haar_state, haar_unitary, rdm_eigenvalues


def haar_tensor(rng):
    return ComplexTensor(haar_state(rng).reshape(2, 2, 2))


def test_basis_state():
    t = make_tensor([2, 2, 2], np.eye(8)[0])
    r = hosvd(t)
    np.testing.assert_allclose(r.core.data, t.data, atol=1e-15)
    for u in r.factors:
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)
    for spec in r.spectra:
        np.testing.assert_allclose(spec, [1.0, 0.0], atol=1e-15)


def test_generalized_ghz(ghz_86):
    t = ghz_86.as_tensor()
    r = hosvd(t)
    np.testing.assert_allclose(r.core.data, t.data, atol=1e-14)
    for spec in r.spectra:
        np.testing.assert_allclose(spec, [0.8, 0.6], atol=1e-14)
        assert spec[0] ** 2 == pytest.approx(0.64, abs=1e-14)
    assert not r.degenerate_modes


def test_random_state_postconditions(rng):
    for _ in range(100):
        t = haar_tensor(rng)
        r = hosvd(t)
        assert r.residuals.reconstruction <= 1e-12
        assert r.residuals.all_orthogonality <= 1e-12
        for mode, spec in enumerate(r.spectra, start=1):
            assert np.all(np.diff(spec) <= 1e-12)  # ordering
            assert np.all(spec >= 0.0)
            # squared values match an independent density-matrix eigensolve
            np.testing.assert_allclose(
                spec**2, rdm_eigenvalues(t.data, mode - 1), atol=1e-12
            )
            assert abs(np.sum(spec**2) - norm(t) ** 2) < 1e-12
        for u in r.factors:
            assert validate_unitary(u) < 1e-11


def test_factors_rebuild_input(rng):
    t = haar_tensor(rng)
    r = hosvd(t)
    rebuilt = multilinear_transform(r.core, r.factors)
    np.testing.assert_allclose(rebuilt.data, t.data, atol=1e-13)


class TestModeSingularValues:
    def test_equal_ghz(self, ghz_equal):
        core = ghz_equal.as_tensor()
        for mode in (1, 2, 3):
            np.testing.assert_allclose(
                mode_singular_values(core, mode),
                [1 / np.sqrt(2), 1 / np.sqrt(2)],
                atol=1e-15,
            )

    def test_w_state(self, w_state):
        core = w_state.as_tensor()
        for mode in (1, 2, 3):
            np.testing.assert_allclose(
                mode_singular_values(core, mode),
                [np.sqrt(2 / 3), np.sqrt(1 / 3)],
                atol=1e-15,
            )

    def test_basis(self):
        core = make_tensor([2, 2, 2], np.eye(8)[0])
        for mode in (1, 2, 3):
            np.testing.assert_array_equal(mode_singular_values(core, mode), [1.0, 0.0])

    def test_matches_subtensor_norms(self, rng):
        t = ComplexTensor(rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4)))
        for mode in (1, 2, 3):
            expected = [
                norm(subtensor(t, mode, i)) for i in range(1, t.dims[mode - 1] + 1)
            ]
            np.testing.assert_allclose(mode_singular_values(t, mode), expected, rtol=1e-15)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            mode_singular_values(make_tensor([2, 2], np.zeros(4)), 3)


class TestAllOrthogonality:
    def test_ghz_core_exact_zero(self, ghz_equal):
        assert verify_all_orthogonality(ghz_equal.as_tensor()) == 0.0

    def test_hosvd_core(self, rng):
        r = hosvd(haar_tensor(rng))
        assert verify_all_orthogonality(r.core) <= 1e-12

    def test_non_core_value(self):
        flat = np.zeros(8)
        flat[0] = flat[4] = 1 / np.sqrt(2)  # (|111> + |211>)/sqrt(2)
        t = make_tensor([2, 2, 2], flat)
        # mode-1 subtensors overlap: conj(t111) t211 = 1/2
        assert verify_all_orthogonality(t) == pytest.approx(0.5, abs=1e-15)

    def test_2x2x2_sums_explicitly(self, rng):
        t = haar_tensor(rng)
        a = t.data
        sums = [
            np.abs(np.sum(np.conj(a[0]) * a[1])),
            np.abs(np.sum(np.conj(a[:, 0, :]) * a[:, 1, :])),
            np.abs(np.sum(np.conj(a[:, :, 0]) * a[:, :, 1])),
        ]
        assert verify_all_orthogonality(t) == pytest.approx(max(sums), abs=1e-15)

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2), (3, 4, 5), (3, 4, 5, 6), (8, 8, 8), (16, 16, 16), (32, 32)]
    )
    def test_equals_subtensor_definition_bit_for_bit(self, rng, dims):
        data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        core = hosvd(ComplexTensor(data)).core
        want = max(
            abs(inner(subtensor(core, n, a), subtensor(core, n, b)))
            for n in range(1, core.order + 1)
            for a in range(1, core.dims[n - 1] + 1)
            for b in range(a + 1, core.dims[n - 1] + 1)
        )
        got = verify_all_orthogonality(core)
        assert type(got) is float
        assert got == want

    def test_vector_is_zero(self):
        assert verify_all_orthogonality(make_tensor([3], [3, 0, 4])) == 0.0


class TestReconstruct:
    def test_basis(self):
        t = make_tensor([2, 2, 2], np.eye(8)[0])
        np.testing.assert_allclose(reconstruct(hosvd(t)).data, t.data, atol=1e-15)

    def test_ghz_86(self, ghz_86):
        t = ghz_86.as_tensor()
        np.testing.assert_allclose(reconstruct(hosvd(t)).data, t.data, atol=1e-13)

    def test_many_random(self, rng):
        worst = 0.0
        for _ in range(200):
            t = haar_tensor(rng)
            err = norm(ComplexTensor(reconstruct(hosvd(t)).data - t.data))
            worst = max(worst, err)
        assert worst <= 1e-12


class TestInvariants:
    def test_spectra_idempotent(self, rng):
        r = hosvd(haar_tensor(rng))
        again = hosvd(r.core)
        for a, b in zip(r.spectra, again.spectra):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_lu_invariance_of_spectra(self, rng):
        for _ in range(20):
            t = haar_tensor(rng)
            mats = [haar_unitary(rng) for _ in range(3)]
            r1 = hosvd(t)
            r2 = hosvd(multilinear_transform(t, mats))
            for a, b in zip(r1.spectra, r2.spectra):
                np.testing.assert_allclose(a, b, atol=1e-11)

    def test_global_phase_invariance(self, rng):
        t = haar_tensor(rng)
        phased = ComplexTensor(np.exp(1j * 0.7321) * t.data)
        for a, b in zip(hosvd(t).spectra, hosvd(phased).spectra):
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_mode_permutation_covariance(self, rng):
        t = haar_tensor(rng)
        perm = (2, 0, 1)
        permuted = ComplexTensor(np.transpose(t.data, perm))
        spectra = hosvd(t).spectra
        spectra_p = hosvd(permuted).spectra
        for new_mode, old_mode in enumerate(perm):
            np.testing.assert_allclose(spectra_p[new_mode], spectra[old_mode], atol=1e-12)

    def test_generic_dims(self, rng):
        dims = (3, 2, 4)
        data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        t = ComplexTensor(data / np.linalg.norm(data.ravel()))
        r = hosvd(t)
        assert r.residuals.reconstruction <= 1e-12
        assert r.residuals.all_orthogonality <= 1e-12
        for mode, spec in enumerate(r.spectra, start=1):
            m = np.moveaxis(t.data, mode - 1, 0).reshape(dims[mode - 1], -1)
            evals = np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1]
            np.testing.assert_allclose(spec**2, evals, atol=1e-12)

    def test_order_one_tensor(self):
        t = make_tensor([3], [3.0, 0.0, 4.0])
        r = hosvd(t)
        assert r.residuals.reconstruction <= 1e-15
        np.testing.assert_allclose(r.spectra[0], [5.0, 0.0, 0.0], atol=1e-15)


def test_zero_tensor_rejected():
    with pytest.raises(DomainError):
        hosvd(make_tensor([2, 2, 2], np.zeros(8)))


def test_nan_rejected_before_eigensolve():
    data = np.ones((2, 2, 2), dtype=complex)
    data[1, 0, 1] = np.nan
    with pytest.raises(ValidationError, match="must be finite"):
        hosvd(ComplexTensor(data))


def test_degenerate_modes_scale_free(rng, b1_fixture):
    generic = ComplexTensor(rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2)))
    for t in (generic, b1_fixture.as_tensor()):
        want = hosvd(t).degenerate_modes
        for c in (1e-6, 1e6):
            assert hosvd(ComplexTensor(c * t.data)).degenerate_modes == want


def test_degenerate_modes_flagged(ghz_equal, b1_fixture):
    assert hosvd(ghz_equal.as_tensor()).degenerate_modes == frozenset({1, 2, 3})
    assert hosvd(b1_fixture.as_tensor()).degenerate_modes == frozenset({1, 2, 3})
    # inner product sanity for the equal GHZ core slices
    core = hosvd(ghz_equal.as_tensor()).core
    assert abs(inner(subtensor(core, 1, 1), subtensor(core, 1, 2))) <= 1e-15
