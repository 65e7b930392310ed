import numpy as np
import pytest

from hosvd3 import (
    NumericalError,
    ValidationError,
    gram,
    hermitian_eig,
    make_tensor,
    unfold,
)
from hosvd3.smalllinalg import (
    _eigh_stack,
    _norms,
    _ordered,
    _prescaled,
    pow2_prescale,
)
from oracles import (
    eig2_closed_form,
    eigh_descending,
    haar_unitary,
    jacobi_eigh,
    one_body_rdm_by_summation,
    round_robin,
    validate_unitary,
)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


class TestGram:
    def test_identity(self):
        np.testing.assert_array_equal(gram(np.eye(2)), np.eye(2))

    def test_basis_state(self):
        flat = np.zeros(8)
        flat[0] = 1.0
        m = unfold(make_tensor([2, 2, 2], flat), 1)
        np.testing.assert_allclose(gram(m), np.diag([1.0, 0.0]), atol=1e-15)

    def test_w_state(self):
        w = np.zeros(8, dtype=complex)
        w[1] = w[2] = w[4] = 1 / np.sqrt(3)
        m = unfold(make_tensor([2, 2, 2], w), 1)
        g = gram(m)
        # oracle: direct amplitude sums give diag(2/3, 1/3)
        np.testing.assert_allclose(g, one_body_rdm_by_summation(w, 0), atol=1e-15)
        np.testing.assert_allclose(g, np.diag([2 / 3, 1 / 3]), atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="entries must be finite"):
            gram([[bad, 1.0]])

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

    @pytest.mark.parametrize("tol", [-1.0, np.nan, -np.inf, np.inf])
    def test_bad_tol_rejected(self, tol):
        # not read as a hermiticity slack: "not Hermitian within -1" misleads
        with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
            hermitian_eig(np.eye(2), tol=tol)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=1e-10)

    @pytest.mark.parametrize("defect, accepted", [(1e-12, True), (1e-6, False)])
    def test_hermiticity_check_is_relative(self, rng, defect, accepted):
        h = random_hermitian(rng, 3)
        h[0, 1] += defect * np.abs(h).max()
        for c in (1e-3, 1.0, 1e3):
            if accepted:
                hermitian_eig(c * h)
            else:
                with pytest.raises(ValidationError, match="not Hermitian"):
                    hermitian_eig(c * h)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.zeros((2, 3)))


# every size from 1 to 13, then larger even and odd ones
DIFFERENTIAL_SIZES = [*range(1, 14), 16, 31, 32, 33, 64, 128]


def differential_cases(rng, n):
    """(label, Hermitian matrix) pairs of size n, degenerate spectra included."""
    q = haar_unitary(rng, n)
    blocks = np.repeat([3.0, 1.0, -2.0], -(-n // 3))[:n]
    # the wide k x n mode-1 unfolding of a k x n tensor: gram(M^T) has rank k < n
    k = max(1, n // 3)
    x = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    wide = unfold(make_tensor([k, n], x), 1)
    return [
        ("random", random_hermitian(rng, n)),
        ("gram", gram(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))),
        ("identity", np.eye(n)),
        ("diagonal", np.diag(rng.standard_normal(n))),
        ("repeated blocks", (q * blocks) @ q.conj().T),
        ("rank-deficient gram", gram(wide.T)),
    ]


class TestDifferential:
    """hermitian_eig against numpy's LAPACK eigh and against the reference
    Jacobi, which shares no code with LAPACK."""

    @pytest.mark.parametrize("n", DIFFERENTIAL_SIZES)
    def test_against_eigh(self, rng, n):
        for label, h in differential_cases(rng, n):
            e = hermitian_eig(h)
            want = eigh_descending(h)
            top = np.abs(want).max()
            assert np.abs(e.eigenvalues - want).max() <= 1e-13 * top, label
            a, scale = _prescaled(h, 1e-10)
            jacobi = np.ldexp(np.sort(jacobi_eigh(a)[0])[::-1], scale)
            assert np.abs(e.eigenvalues - jacobi).max() <= 1e-13 * top, label
            assert validate_unitary(e.unitary) <= 1e-12, label
            residual = h @ e.unitary - e.unitary * e.eigenvalues
            assert np.abs(residual).max() <= 1e-13 * top, label
            assert np.all(np.diff(e.eigenvalues) <= 0.0), label
            for k in range(n):
                col = e.unitary[:, k]
                pivot = col[np.argmax(np.abs(col))]
                assert abs(pivot.imag) <= 1e-15 and pivot.real > 0.0, label

    def test_exact_cases(self):
        # no rotation runs: the diagonal comes back sorted, the unitary a permutation
        np.testing.assert_array_equal(hermitian_eig(np.eye(5)).unitary, np.eye(5))
        e = hermitian_eig(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_array_equal(e.eigenvalues, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(e.unitary, np.eye(3)[:, [1, 2, 0]])
        e = hermitian_eig([[-2.5]])
        assert e.eigenvalues.tolist() == [-2.5] and e.unitary.tolist() == [[1.0]]
        e = hermitian_eig(np.zeros((0, 0)))
        assert e.eigenvalues.shape == (0,) and e.unitary.shape == (0, 0)
        assert not e.degenerate


def stack_mates(rng, n):
    """Matrices of size n that a stack solves together: a Gaussian Gram, a
    diagonal matrix (never rotated), a repeated-block degenerate matrix,
    and copies of the first and third scaled by 2^600 and 2^-600."""
    g = gram(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = haar_unitary(rng, n)
    repeated = (q * np.repeat([3.0, 1.0, -2.0], -(-n // 3))[:n]) @ q.conj().T
    return [g, np.diag(rng.standard_normal(n)), repeated,
            np.ldexp(1.0, 600) * g, np.ldexp(1.0, -600) * repeated]


def eigh_stacked(hs, tol=1e-10):
    """(eigenvalues, unitary, degenerate) of each h in hs, from one
    _eigh_stack call on the prescaled matrices, scaled back."""
    prepared = [_prescaled(h, tol) for h in hs]
    solved = _eigh_stack(np.array([a for a, _ in prepared]), tol)
    return [(np.ldexp(eigenvalues, e), v, bool(degenerate))
            for (_, e), eigenvalues, v, degenerate in zip(prepared, *solved)]


def assert_same_bits(got, want):
    eigenvalues, unitary, degenerate = got
    assert not want.eigenvalues.flags.writeable and not want.unitary.flags.writeable
    assert eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert unitary.tobytes() == want.unitary.tobytes()
    assert degenerate == want.degenerate


class TestStack:
    """_eigh_stack solves equal-size matrices as one stack, 2x2 ones in
    closed form; each must come out with the bits it gets alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 11, 12, 13, 16, 33, 64])
    def test_stacked_equals_single(self, rng, n):
        hs = stack_mates(rng, n)
        alone = [hermitian_eig(h) for h in hs]
        for got, want in zip(eigh_stacked(hs), alone, strict=True):
            assert_same_bits(got, want)
        for got, want in zip(eigh_stacked(hs[::-1]), alone[::-1], strict=True):
            assert_same_bits(got, want)

    def test_closed_form_is_the_sweep(self, rng):
        # a 2x2 matrix takes its one rotation in closed form, with the bits
        # a Jacobi sweep gives it, to the sign of every zero: complex, real,
        # diagonal, degenerate, tiny-pivot and -0.0-diagonal matrices
        hs = [random_hermitian(rng, 2) for _ in range(300)]
        hs += [h.real for h in hs] + [np.diag(rng.standard_normal(2)) for _ in range(50)]
        hs += [np.eye(2) * rng.standard_normal() + np.diag([p], 1) + np.diag([p], -1)
               for p in (0.0, 1e-16, 5e-16, 1e-15, 2e-15, 1e-8)]
        hs += [np.diag([-0.0, -0.0]), np.array([[-0.0, 0.5j], [-0.5j, -0.0]])]
        a = np.array([_prescaled(h, 1e-10)[0] for h in hs])
        got = _eigh_stack(a, 1e-10)
        solved = [jacobi_eigh(m) for m in a]
        assert all(sweeps == 1 + rotations <= 2 for *_, sweeps, rotations in solved)
        want = _ordered(np.array([e for e, *_ in solved]), np.array([v for _, v, *_ in solved]),
                        1e-10)
        for g, x in zip(got, want, strict=True):
            assert g.dtype == x.dtype and g.tobytes() == x.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_unconverged_sweeps_raise(self, rng, monkeypatch, n):
        # an eigh that gives up after one sweep of the reference Jacobi: a
        # diagonal matrix converges in it, a matrix with a pivot needs a
        # second, which rotates nothing.  LAPACK's failure to converge is a
        # NumericalError in mode 1; a 2x2 matrix is solved in closed form
        # and never reaches eigh
        real, calls = np.linalg.eigh, []

        def eigh(a):
            calls.append(a.shape)
            if any(jacobi_eigh(m, max_sweeps=1)[2] > 1 for m in a):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        hermitian_eig(np.diag(rng.standard_normal(n)))
        if n == 2:
            hermitian_eig(random_hermitian(rng, n))
            assert calls == []
            return
        with pytest.raises(NumericalError, match="did not converge") as exc:
            hermitian_eig(random_hermitian(rng, n))
        assert exc.value.mode == 1
        assert calls == [(1, n, n), (1, n, n)]


class TestCounts:
    """The sweeps (the last, rotation-free sweep included) and rotations of
    the reference Jacobi ``oracles.jacobi_eigh``, which the sweep-limited
    eigensolvers of the numerical-failure tests count by."""

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_diagonal_takes_one_sweep_and_no_rotation(self, rng, n):
        assert jacobi_eigh(np.diag(rng.uniform(-0.9, 0.9, n)))[2:] == (1, 0)

    def test_one_pivot_takes_one_rotation(self):
        assert jacobi_eigh(np.array([[0.5, 0.25 - 0.125j], [0.25 + 0.125j, -0.5]]))[2:] == (2, 1)

    @pytest.mark.parametrize("n", [2, 5, 11, 12, 13, 16, 33])
    def test_rotations_bounded_by_pairs_per_sweep(self, rng, n):
        for label, h in differential_cases(rng, n):
            a, _ = _prescaled(h, 1e-10)
            eigenvalues, v, sweeps, rotations = jacobi_eigh(a)
            assert type(sweeps) is int and type(rotations) is int, label
            assert 1 <= sweeps <= 60, label
            assert 0 <= rotations <= (sweeps - 1) * n * (n - 1) // 2, label
            assert np.abs(a @ v - v * eigenvalues).max() <= 1e-13, label


class TestRoundRobin:
    @pytest.mark.parametrize("n", range(1, 66))
    def test_each_pair_once_per_sweep(self, n):
        seen = []
        steps = round_robin(n)
        assert len(steps) == n - 1 + n % 2
        for ps, qs in steps:
            assert len(ps) == len(qs) == n // 2
            assert len(set(ps + qs)) == 2 * len(ps)  # disjoint within the step
            assert all(p < q for p, q in zip(ps, qs))
            seen.extend(zip(ps, qs))
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


class TestScaleAndLayout:
    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_power_of_two_scale_is_exact(self, rng, n, k):
        h = random_hermitian(rng, n)
        ref = hermitian_eig(h)
        e = hermitian_eig(np.ldexp(1.0, k) * h)
        assert e.eigenvalues.tobytes() == np.ldexp(ref.eigenvalues, k).tobytes()
        assert e.unitary.tobytes() == ref.unitary.tobytes()
        assert e.degenerate == ref.degenerate

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            h = np.eye(3, dtype=complex)
            h[1, 1] = bad
            with pytest.raises(ValidationError, match="must be finite"):
                hermitian_eig(h)

    def test_prescale_is_exact_down_to_the_normal_range(self):
        # beside a largest part of 2^600 (e = 601), a part is scaled exactly
        # down to 2^(601 - 1022); half of that scales to a subnormal that
        # loses its last bit, and 2^-1000 beside 2^1000 becomes 0
        edge = np.ldexp(1.0 + 2.0**-52, 601 - 1022)
        for small, kept in ((edge, True), (edge / 2, False),
                            (np.ldexp(1.0 + 2.0**-52, -500), False)):
            x = np.array([np.ldexp(1.0, 600), small])
            scaled, e = pow2_prescale(x)
            assert e == 601
            assert (np.ldexp(scaled.real, e) == x).all() == kept, small
        scaled, _ = pow2_prescale(np.array([np.ldexp(1.0, 1000), np.ldexp(1.0, -1000)]))
        assert scaled[0] == 0.5 and scaled[1] == 0.0

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_layout_independent_bits(self, rng, n):
        # the closed form is elementwise, and LAPACK solves its own copy
        h = random_hermitian(rng, n)
        host = np.zeros((2 * n, 3 * n), dtype=complex)
        host[::2, ::3] = h
        copies = [np.ascontiguousarray(h), np.asfortranarray(h), host[::2, ::3]]
        assert copies[1].flags.f_contiguous and not copies[2].flags.c_contiguous
        results = [hermitian_eig(c) for c in copies]
        for r in results[1:]:
            assert r.eigenvalues.tobytes() == results[0].eigenvalues.tobytes()
            assert r.unitary.tobytes() == results[0].unitary.tobytes()



class TestNorms:
    SHAPES = ([(n,) for n in (1, 2, 7, 8, 33, 64, 1000)]
              + [(a, b) for a in (1, 3, 16, 64) for b in (2, 5, 64)]
              + [(2, 2, 2), (3, 4, 5), (13, 13, 3), (16, 16, 16), (3, 4, 5, 6), (64, 64, 64)])

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_bits_of_numpy_norm_alone_and_in_a_stack(self, rng, shape):
        z = rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
        z[1] *= 1e-6
        want = [np.linalg.norm(a.ravel()) for a in z]
        for got in (_norms(z), [_norms(z[i:i + 1])[0] for i in range(2)]):
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_empty_stack(self):
        assert _norms(np.zeros((0, 2, 2, 2), dtype=complex)).shape == (0,)


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
