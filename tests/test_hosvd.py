import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hosvd3 import (
    ComplexTensor,
    DomainError,
    ValidationError,
    hosvd,
    make_tensor,
    multilinear_transform,
    norm,
    verify_all_orthogonality,
)
from hosvd3.hosvd import _hosvd_stack
from hosvd3.smalllinalg import pow2_prescale
from oracles import (all_orthogonality_by_grams, haar_state, haar_unitary, inner, rdm_eigenvalues,
                     subtensor, validate_unitary)


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
    t = ghz_86
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


def stack_spectra(t):
    """(core, spectra) of t from _hosvd_stack, t alone in the stack."""
    core, _, spectra, _ = _hosvd_stack(t.data[None], 1e-10)
    return core[0], [s[0] for s in spectra]


class TestModeSingularValues:
    """The spectra are the core's mode-n slice norms.  The first three
    states are their own cores: their Grams are diagonal, so no rotation
    runs."""

    def test_equal_ghz(self, ghz_equal):
        core, spectra = stack_spectra(ghz_equal)
        np.testing.assert_array_equal(core, ghz_equal.data)
        for spec in spectra:
            np.testing.assert_allclose(spec, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_w_state(self, w_state):
        core, spectra = stack_spectra(w_state)
        np.testing.assert_array_equal(core, w_state.data)
        for spec in spectra:
            np.testing.assert_allclose(spec, [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-15)

    def test_basis(self):
        t = make_tensor([2, 2, 2], np.eye(8)[0])
        core, spectra = stack_spectra(t)
        np.testing.assert_array_equal(core, t.data)
        for spec in spectra:
            np.testing.assert_array_equal(spec, [1.0, 0.0])

    def test_matches_subtensor_norms(self, rng):
        t = ComplexTensor(rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4)))
        core, spectra = stack_spectra(ComplexTensor(pow2_prescale(t.data)[0]))
        core = ComplexTensor(core)
        for mode, spec in enumerate(spectra, start=1):
            expected = [
                norm(subtensor(core, mode, i)) for i in range(1, core.dims[mode - 1] + 1)
            ]
            np.testing.assert_allclose(spec, expected, rtol=1e-15)


class TestAllOrthogonality:
    def test_ghz_core_exact_zero(self, ghz_equal):
        assert verify_all_orthogonality(ghz_equal) == 0.0

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
        "dims", [(2, 2, 2), (3, 4, 5), (3, 4, 5, 6), (8, 8, 8), (16, 16, 16), (32, 32),
                 (3, 1, 3), (2, 5, 2, 5)]
    )
    def test_equals_subtensor_definition_bit_for_bit(self, rng, dims):
        # the bits of the mode Grams, one unfolding at a time
        data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        core = hosvd(ComplexTensor(data)).core
        got = verify_all_orthogonality(core)
        assert type(got) is float
        assert got == all_orthogonality_by_grams(core)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4, 5), (3, 4, 5, 6), (8, 8, 8), (32, 32)])
    def test_within_rounding_of_the_subtensor_inner_products(self, rng, dims):
        # on a tensor and on its core: each Gram entry is the inner product
        # of two slices summed in another order, so the two differ by at
        # most a few roundings of the sum of |products|, which the
        # Cauchy-Schwarz bound puts below the largest squared slice norm
        x = ComplexTensor(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
        for t in (x, hosvd(x).core):
            want = max(
                abs(inner(subtensor(t, n, a), subtensor(t, n, b)))
                for n in range(1, t.order + 1)
                for a in range(1, t.dims[n - 1] + 1)
                for b in range(a + 1, t.dims[n - 1] + 1)
            )
            bound = 4 * t.data.size * np.finfo(float).eps * max(
                np.sum(np.abs(np.take(t.data, i, axis=n)) ** 2)
                for n in range(t.order) for i in range(t.dims[n]))
            assert abs(verify_all_orthogonality(t) - want) <= bound

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_core_raises(self, bad):
        # a NaN once read as 0.0, perfectly all-orthogonal
        t = make_tensor([2, 2, 2], [bad, 1, 0, 0, 0, 0, 0, 1])
        with pytest.raises(ValidationError, match="finite"):
            verify_all_orthogonality(t)

    def test_large_entries_read_the_scaled_value(self, rng):
        # core entries past about 1e154 once overflowed the Gram to inf - inf,
        # NaN; the value itself, about 1e296 here, is finite
        t = ComplexTensor(rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5)))
        core = hosvd(t).core
        got = verify_all_orthogonality(ComplexTensor(1e155 * core.data))
        assert abs(got / 1e155 / 1e155 - verify_all_orthogonality(core)) <= 1e-13 * norm(t) ** 2
        assert verify_all_orthogonality(ComplexTensor(1e300 * core.data)) == np.inf

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4, 5), (3, 4, 5, 6), (16, 16), (7,)])
    def test_is_the_residual_of_hosvd(self, rng, dims):
        for _ in range(5):
            r = hosvd(ComplexTensor(rng.standard_normal(dims) + 1j * rng.standard_normal(dims)))
            assert verify_all_orthogonality(r.core) == r.residuals.all_orthogonality

    def test_vector_is_zero(self):
        assert verify_all_orthogonality(make_tensor([3], [3, 0, 4])) == 0.0


class TestReconstruct:
    """The factors applied to the core give back the input."""

    def test_basis(self):
        t = make_tensor([2, 2, 2], np.eye(8)[0])
        r = hosvd(t)
        np.testing.assert_allclose(multilinear_transform(r.core, r.factors).data, t.data,
                                   atol=1e-15)

    def test_ghz_86(self, ghz_86):
        r = hosvd(ghz_86)
        np.testing.assert_allclose(multilinear_transform(r.core, r.factors).data, ghz_86.data,
                                   atol=1e-13)

    def test_many_random(self, rng):
        worst = 0.0
        for _ in range(200):
            t = haar_tensor(rng)
            r = hosvd(t)
            err = norm(ComplexTensor(multilinear_transform(r.core, r.factors).data - t.data))
            worst = max(worst, err)
        assert worst <= 1e-12


def assert_lu_copy(rng, t, r1):
    """hosvd of a copy of t under Haar local unitaries against r1 = hosvd(t):
    the same degenerate modes, spectra within 1e-13 of the largest and,
    when no mode is degenerate, so that the factors are fixed up to a phase
    per column, |core| within 1e-13 of its largest entry."""
    r2 = hosvd(multilinear_transform(t, [haar_unitary(rng, n) for n in t.dims]))
    assert r2.degenerate_modes == r1.degenerate_modes
    for a, b in zip(r1.spectra, r2.spectra, strict=True):
        assert np.abs(a - b).max() <= 1e-13 * a.max()
    if not r1.degenerate_modes:
        size = np.abs(r1.core.data)
        assert np.abs(np.abs(r2.core.data) - size).max() <= 1e-13 * size.max()


def assert_lu_invariant(rng, dims, tensors, copies):
    """assert_lu_copy on Gaussian tensors of shape dims, none of whose
    modes is degenerate."""
    for _ in range(tensors):
        t = ComplexTensor(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
        r1 = hosvd(t)
        assert not r1.degenerate_modes
        for _ in range(copies):
            assert_lu_copy(rng, t, r1)


# orders 1-4 with sizes 1-7: size-1 modes, closed-form 2x2 Grams and swept
# ones, and modes larger than the rest of the tensor, whose Grams are rank
# deficient and so degenerate
DIMS = st.lists(st.integers(1, 7), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dims=DIMS)
def test_lu_invariance_property(seed, dims):
    rng = np.random.default_rng(seed)
    t = ComplexTensor(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
    assert_lu_copy(rng, t, hosvd(t))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dims=DIMS, count=st.integers(2, 4))
def test_stack_gives_each_tensor_its_bits(seed, dims, count):
    # complex, real and sparse tensors in one stack: each gets the bits it
    # gets alone, to the sign of every zero
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, *dims)) + 1j * rng.standard_normal((count, *dims))
    x[1] = x[1].real
    x[-1] *= rng.random(dims) < 0.5
    x = np.array([pow2_prescale(t)[0] for t in x])
    stacked = _hosvd_stack(x, 1e-10)
    for i in range(count):
        alone = _hosvd_stack(x[i:i + 1], 1e-10)
        core, factors, spectra, degenerate = (
            [a[i:i + 1] for a in part] if isinstance(part, list) else part[i:i + 1]
            for part in stacked)
        assert core.tobytes() == alone[0].tobytes()
        assert [f.tobytes() for f in factors] == [f.tobytes() for f in alone[1]]
        assert [s.tobytes() for s in spectra] == [s.tobytes() for s in alone[2]]
        assert degenerate.tobytes() == alone[3].tobytes()


@pytest.mark.parametrize("dims", [(32, 32, 32), (16, 16, 16, 16), (4,) * 8])
def test_peak_memory_is_bounded_by_the_tensor(rng, dims):
    # with one mode's unfolding (and its conjugate in the Gram) held at a
    # time, the traced peak stays near 5 copies of the tensor at any order
    t = ComplexTensor(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
    tracemalloc.start()
    try:
        hosvd(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * t.data.nbytes, peak / t.data.nbytes


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

    @pytest.mark.parametrize("dims", [(16, 16), (13, 13, 3), (12, 12), (12, 12, 12)])
    def test_lu_invariance_of_stacked_modes(self, rng, dims):
        # modes of 12 and up are solved as one stack of equal-size Grams
        assert_lu_invariant(rng, dims, tensors=1, copies=3)

    @pytest.mark.parametrize("dims", [(3, 4, 5), (2, 3, 2), (8, 8, 8), (6, 6, 6, 6), (11, 11)])
    def test_lu_invariance_of_list_modes(self, rng, dims):
        # modes below 12, in stacks of one to four equal sizes
        assert_lu_invariant(rng, dims, tensors=10, copies=1)

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


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf, "x", None, 1j, True, np.True_])
def test_bad_tol_rejected(tol):
    # a string or complex tol raised a bare TypeError from the comparison,
    # and True was read as 1
    with pytest.raises(ValidationError, match="tol must be finite and >= 0"):
        hosvd(make_tensor([2, 2], [1, 0, 0, 1]), tol=tol)


def test_degenerate_modes_scale_free(rng, b1_fixture):
    generic = ComplexTensor(rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2)))
    for t in (generic, b1_fixture):
        want = hosvd(t).degenerate_modes
        for c in (1e-6, 1e6):
            assert hosvd(ComplexTensor(c * t.data)).degenerate_modes == want


def test_scale_exact(rng):
    # Gram entries near 1e-300 and 1e300 sit at the ends of the float range;
    # the relative figures must not depend on the scale
    t = haar_tensor(rng)
    ref = hosvd(t)
    for c in (1e-150, 1.0, 1e150):
        r = hosvd(ComplexTensor(c * t.data))
        assert r.degenerate_modes == ref.degenerate_modes
        assert r.residuals.reconstruction < 1e-13
        assert r.residuals.all_orthogonality / c**2 < 1e-13
        for got, want in zip(r.spectra, ref.spectra):
            np.testing.assert_allclose(got / c, want, rtol=1e-13)
        np.testing.assert_allclose(
            multilinear_transform(r.core, r.factors).data / c, t.data, rtol=0, atol=1e-13
        )


def test_power_of_two_scale_keeps_bits(rng):
    t = ComplexTensor(rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5)))
    ref = hosvd(t)
    # the absolute all-orthogonality residual scales as 4^k, so |k| stays
    # where it is representable
    for k in (-500, -3, 7, 500):
        r = hosvd(ComplexTensor(np.ldexp(1.0, k) * t.data))
        assert r.core.data.tobytes() == (np.ldexp(1.0, k) * ref.core.data).tobytes()
        for got, want in zip(r.factors, ref.factors):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(r.spectra, ref.spectra):
            assert got.tobytes() == np.ldexp(want, k).tobytes()
        assert r.residuals.reconstruction == ref.residuals.reconstruction
        assert r.residuals.all_orthogonality == np.ldexp(ref.residuals.all_orthogonality, 2 * k)


def test_all_orthogonality_is_absolute(rng):
    # in ||t||^2 units: below the float range at 2^-1000, past it at 2^1000,
    # where the scale-back once warned of overflow in ldexp
    t = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    assert hosvd(ComplexTensor(np.ldexp(1.0, -1000) * t)).residuals.all_orthogonality == 0.0
    assert hosvd(ComplexTensor(np.ldexp(1.0, 1000) * t)).residuals.all_orthogonality == np.inf


def even_parity(value):
    # entries at the even-parity indices only: all-orthogonal as it is, so
    # the core is the tensor, and each slice norm is sqrt(2) |value|
    t = np.zeros((2, 2, 2), dtype=complex)
    for index in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        t[index] = value
    return ComplexTensor(t)


@pytest.mark.parametrize("t", [
    # the core's one nonzero entry, ||t|| ~ 4e308, is past the float range
    make_tensor([2, 2, 2], [1e308 + 1e308j] * 8),
    # every core entry is finite, but every spectrum entry is 2.1e308
    even_parity(1.5e308),
], ids=["core", "spectra"])
def test_core_or_spectra_past_the_float_range_raise(t):
    # they read inf, with an overflow warning from the scale-back
    with pytest.raises(DomainError, match="exceed the float range"):
        hosvd(t)
    ordinary = hosvd(ComplexTensor(t.data / 4))
    assert all(np.isfinite(s).all() for s in ordinary.spectra)


def test_degenerate_modes_flagged(ghz_equal, b1_fixture):
    assert hosvd(ghz_equal).degenerate_modes == frozenset({1, 2, 3})
    assert hosvd(b1_fixture).degenerate_modes == frozenset({1, 2, 3})
    # inner product sanity for the equal GHZ core slices
    core = hosvd(ghz_equal).core
    assert abs(inner(subtensor(core, 1, 1), subtensor(core, 1, 2))) <= 1e-15
