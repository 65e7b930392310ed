import numpy as np
import pytest

from hosvd3 import (
    ValidationError,
    gram,
    hermitian_eig,
    make_tensor,
    unfold,
    validate_unitary,
)
from oracles import eig2_closed_form, one_body_rdm_by_summation


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram(np.eye(2)), np.eye(2))

    def test_basis_state(self):
        flat = np.zeros(8)
        flat[0] = 1.0
        m = unfold(make_tensor([2, 2, 2], flat), 1).entries
        np.testing.assert_allclose(gram(m), np.diag([1.0, 0.0]), atol=1e-15)

    def test_w_state(self):
        w = np.zeros(8, dtype=complex)
        w[1] = w[2] = w[4] = 1 / np.sqrt(3)
        m = unfold(make_tensor([2, 2, 2], w), 1).entries
        g = gram(m)
        # oracle: direct amplitude sums give diag(2/3, 1/3)
        np.testing.assert_allclose(g, one_body_rdm_by_summation(w, 0), atol=1e-15)
        np.testing.assert_allclose(g, np.diag([2 / 3, 1 / 3]), atol=1e-15)

    def test_psd_and_trace(self, rng):
        for _ in range(50):
            r, c = rng.integers(1, 6, size=2)
            m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            g = gram(m)
            np.testing.assert_allclose(g, g.conj().T, atol=1e-13)
            evals = np.linalg.eigvalsh(g)
            assert evals.min() >= -1e-13
            assert abs(evals.sum() - np.linalg.norm(m, "fro") ** 2) < 1e-12 * max(
                1.0, evals.sum()
            )


class TestHermitianEig:
    def test_already_diagonal(self):
        e = hermitian_eig(np.diag([0.75, 0.25]))
        np.testing.assert_array_equal(e.eigenvalues, [0.75, 0.25])
        np.testing.assert_array_equal(e.unitary, np.eye(2))
        assert not e.degenerate

    def test_pauli_x(self):
        e = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(e.eigenvalues, [1.0, -1.0], atol=1e-15)

    def test_quadratic_oracle_2x2(self, rng):
        for _ in range(200):
            h = random_hermitian(rng, 2)
            e = hermitian_eig(h)
            np.testing.assert_allclose(
                e.eigenvalues, eig2_closed_form(h), atol=1e-13
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_reconstruction_and_unitarity(self, rng, n):
        for _ in range(20):
            h = random_hermitian(rng, n)
            e = hermitian_eig(h)
            assert validate_unitary(e.unitary) < 1e-12
            recon = e.unitary @ np.diag(e.eigenvalues) @ e.unitary.conj().T
            assert np.abs(recon - h).max() < 1e-11
            for k in range(n):
                col = e.unitary[:, k]
                assert np.abs(h @ col - e.eigenvalues[k] * col).max() < 1e-11
            assert np.all(np.diff(e.eigenvalues) <= 1e-15)

    def test_deterministic(self, rng):
        h = random_hermitian(rng, 4)
        first = hermitian_eig(h)
        second = hermitian_eig(h.copy())
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.unitary.tobytes() == second.unitary.tobytes()

    def test_gauge(self, rng):
        for _ in range(50):
            e = hermitian_eig(random_hermitian(rng, 3))
            for k in range(3):
                col = e.unitary[:, k]
                pivot = col[np.argmax(np.abs(col))]
                assert pivot.imag == pytest.approx(0.0, abs=1e-15)
                assert pivot.real >= 0.0

    def test_degenerate_flag(self):
        assert hermitian_eig(np.eye(3)).degenerate
        assert not hermitian_eig(np.diag([1.0, 0.5])).degenerate
        assert hermitian_eig(np.diag([0.5, 0.5 + 1e-12]), tol=1e-10).degenerate

    def test_degenerate_flag_relative_to_trace(self):
        assert not hermitian_eig(np.diag([1e-6, 0.5e-6])).degenerate
        assert hermitian_eig(np.diag([0.5e6, 0.5e6 + 1e-6])).degenerate

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.zeros((2, 3)))


class TestValidateUnitary:
    def test_identity(self):
        assert validate_unitary(np.eye(3)) == 0.0

    def test_permutation(self):
        assert validate_unitary(np.array([[0, 1], [1, 0]])) == 0.0

    def test_diagonal_stretch(self):
        assert validate_unitary(np.diag([1.0, 2.0])) == pytest.approx(3.0)

    def test_non_square(self):
        with pytest.raises(ValidationError):
            validate_unitary(np.zeros((2, 3)))
