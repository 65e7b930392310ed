import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hosvd3 import (
    ComplexTensor,
    ShapeError,
    ValidationError,
    make_tensor,
    multilinear_transform,
    norm,
    refold,
    unfold,
)
from hosvd3.tensor import _mode_rows, _stacked_transform, _unfolding
from oracles import (
    haar_state,
    haar_unitary,
    inner,
    subtensor,
    transform_by_summation,
    transform_by_tensordot,
    unfold_column_index,
    unfolding_by_formula,
)


def random_tensor(rng, dims):
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return ComplexTensor(data)


class TestMakeTensor:
    def test_zero_tensor(self):
        t = make_tensor([2, 2, 2], np.zeros(8))
        assert t.dims == (2, 2, 2)
        assert t.order == 3
        assert np.all(t.data.ravel() == 0)

    def test_basis_vector(self):
        t = make_tensor([2], [1, 0])
        assert t[1] == 1 and t[2] == 0

    def test_basis_111(self):
        flat = np.zeros(8)
        flat[0] = 1.0  # flat position of (1, 1, 1)
        t = make_tensor([2, 2, 2], flat)
        assert t[1, 1, 1] == 1
        assert norm(t) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            make_tensor([2, 2, 2], np.zeros(7))

    def test_float_dim_rejected(self):
        with pytest.raises(ShapeError, match="integers"):
            make_tensor([2.5, 2], np.arange(4))

    def test_string_dim_rejected(self):
        with pytest.raises(ShapeError, match="integers"):
            make_tensor(["2", 2], np.arange(4))

    def test_bool_dim_rejected(self):
        # True would otherwise read as 1 and build a (1, 4) tensor
        with pytest.raises(ShapeError, match="integers"):
            make_tensor([True, 4], np.arange(4))

    @pytest.mark.parametrize("dims", [5, None, 2.0])
    def test_dims_that_are_not_a_sequence_rejected(self, dims):
        # tuple(dims) raised a bare TypeError: 'int' object is not iterable
        with pytest.raises(ShapeError, match="integers"):
            make_tensor(dims, np.arange(4))

    def test_negative_dims_rejected_before_reshape(self):
        # numpy's reshape would otherwise fail on them with its own message
        with pytest.raises(ShapeError, match="positive"):
            make_tensor([-2, -2], np.arange(4))

    def test_order_zero_rejected(self):
        with pytest.raises(ShapeError, match="tensor order must be >= 1"):
            ComplexTensor(np.complex128(1.0))
        # no dims is an order error before the element count or the mode
        with pytest.raises(ShapeError, match="tensor order must be >= 1"):
            make_tensor([], [1.0, 2.0])
        with pytest.raises(ShapeError, match="tensor order must be >= 1"):
            refold([[1.0]], 1, [])

    def test_order_63_is_the_limit(self):
        # every stack kernel adds an axis to numpy's 64; order 64 raised
        # numpy's IndexError in unfold and norm, and 65 a ValueError in
        # make_tensor's reshape
        t = make_tensor([1] * 63, [2.0])
        assert norm(t) == 2.0 and unfold(t, 63).shape == (1, 1)
        with pytest.raises(ShapeError, match="at most 63, got 64"):
            ComplexTensor(np.ones((1,) * 64))
        for order in (64, 65):
            with pytest.raises(ShapeError, match=f"at most 63, got {order}"):
                make_tensor([1] * order, [1.0])
            with pytest.raises(ShapeError, match=f"at most 63, got {order}"):
                refold([[1.0]], 1, [1] * order)

    @pytest.mark.parametrize("dims", [(0,), (2, 0, 2)])
    def test_zero_dim_rejected(self, dims):
        with pytest.raises(ShapeError, match="dims must be positive"):
            ComplexTensor(np.zeros(dims))

    @pytest.mark.parametrize("indices", [(1, 1), (1, 1, 1, 1)])
    def test_wrong_number_of_indices(self, indices):
        t = make_tensor([2, 2, 2], np.arange(8))
        with pytest.raises(ShapeError, match=f"expected 3 indices, got {len(indices)}"):
            t[indices]

    def test_numpy_integer_dims_accepted(self):
        t = make_tensor(np.array([2, 3]), np.arange(6))
        assert t.dims == (2, 3) and all(type(d) is int for d in t.dims)

    def test_value_semantics(self):
        buf = np.ones(4, dtype=complex)
        t = make_tensor([2, 2], buf)
        buf[0] = 99.0
        assert t[1, 1] == 1.0
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0  # read-only view


class TestUnfold:
    def test_mode1_single_element(self):
        # psi_122 = 1 lands at row 1, column (i2-1)*I3 + i3 = 4
        flat = np.zeros(8)
        flat[4 * 0 + 2 * 1 + 1] = 1.0
        m = unfold(make_tensor([2, 2, 2], flat), 1)
        assert m.shape == (2, 4)
        expected = np.zeros((2, 4))
        expected[0, 3] = 1.0
        np.testing.assert_array_equal(m, expected)

    def test_mode2_single_element(self):
        # psi_212 = 1 lands at row 1, column (i3-1)*I1 + i1 = 4
        flat = np.zeros(8)
        flat[4 * 1 + 2 * 0 + 1] = 1.0
        m = unfold(make_tensor([2, 2, 2], flat), 2)
        expected = np.zeros((2, 4))
        expected[0, 3] = 1.0
        np.testing.assert_array_equal(m, expected)

    def test_zero_tensor(self):
        m = unfold(make_tensor([2, 2, 2], np.zeros(8)), 3)
        assert not m.any()

    def test_three_qubit_layouts(self):
        # label each element by its own value and check all three unfoldings
        p = {}
        flat = np.zeros(8, dtype=complex)
        for i1 in (1, 2):
            for i2 in (1, 2):
                for i3 in (1, 2):
                    v = complex(i1 * 100 + i2 * 10 + i3)
                    p[i1, i2, i3] = v
                    flat[4 * (i1 - 1) + 2 * (i2 - 1) + (i3 - 1)] = v
        t = make_tensor([2, 2, 2], flat)
        m1 = np.array([
            [p[1, 1, 1], p[1, 1, 2], p[1, 2, 1], p[1, 2, 2]],
            [p[2, 1, 1], p[2, 1, 2], p[2, 2, 1], p[2, 2, 2]],
        ])
        m2 = np.array([
            [p[1, 1, 1], p[2, 1, 1], p[1, 1, 2], p[2, 1, 2]],
            [p[1, 2, 1], p[2, 2, 1], p[1, 2, 2], p[2, 2, 2]],
        ])
        m3 = np.array([
            [p[1, 1, 1], p[1, 2, 1], p[2, 1, 1], p[2, 2, 1]],
            [p[1, 1, 2], p[1, 2, 2], p[2, 1, 2], p[2, 2, 2]],
        ])
        np.testing.assert_array_equal(unfold(t, 1), m1)
        np.testing.assert_array_equal(unfold(t, 2), m2)
        np.testing.assert_array_equal(unfold(t, 3), m3)

    def test_column_formula_higher_order(self, rng):
        # every element of an order-4 tensor sits where the cyclic formula says
        dims = (2, 3, 2, 2)
        t = random_tensor(rng, dims)
        for mode in range(1, 5):
            m = unfold(t, mode)
            import itertools
            for idx in itertools.product(*(range(1, d + 1) for d in dims)):
                row = idx[mode - 1]
                col = unfold_column_index(dims, idx, mode)
                assert m[row - 1, col - 1] == t[idx]

    def test_mode_out_of_range(self):
        t = make_tensor([2, 2], np.zeros(4))
        with pytest.raises(ValidationError, match="out of range"):
            unfold(t, 3)
        with pytest.raises(ValidationError, match="out of range"):
            unfold(t, 0)

    @pytest.mark.parametrize("mode", [True, 1.5, 2.0, "1", None])
    def test_mode_not_an_integer(self, mode):
        t = make_tensor([2, 2], np.zeros(4))
        with pytest.raises(ValueError, match="mode must be an integer"):
            unfold(t, mode)
        with pytest.raises(ValueError, match="mode must be an integer"):
            refold(np.zeros((2, 2)), mode, [2, 2])

    def test_numpy_integer_mode_accepted(self, rng):
        t = random_tensor(rng, (3, 2, 4))
        for mode in (np.int64(2), np.uint8(3)):
            assert unfold(t, mode).tobytes() == unfold(t, int(mode)).tobytes()
            assert refold(unfold(t, mode), mode, t.dims).data.tobytes() == t.data.tobytes()

    def test_frobenius_norm_preserved(self, rng):
        t = random_tensor(rng, (3, 2, 4))
        for mode in (1, 2, 3):
            assert np.isclose(
                np.linalg.norm(unfold(t, mode)), norm(t), rtol=1e-15
            )


class TestNorm:
    def test_power_of_two_scales_exactly(self, rng):
        # entries of magnitude in [1, 2) stay normal numbers at every scale
        # here, so scaling by 2^k scales the norm by exactly 2^k
        data = rng.uniform(1.0, 2.0, (2, 2, 2)) * rng.choice([-1.0, 1.0], (2, 2, 2))
        t = ComplexTensor(data + 1j * data[::-1])
        unit = norm(t)
        for k in range(-1020, 1021, 5):
            assert norm(ComplexTensor(np.ldexp(1.0, k) * t.data)) == np.ldexp(unit, k), k

    @pytest.mark.parametrize("value", [1e200, 1e-170, 1e-200])
    def test_no_overflow_or_underflow(self, value):
        t = make_tensor([2], [value, value])
        assert norm(t) == pytest.approx(value * np.sqrt(2.0), rel=1e-15, abs=0.0)

    def test_beyond_the_float_range_is_inf(self):
        assert norm(make_tensor([2], [1.7e308, 1.7e308])) == np.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        # as hosvd rejects it: no scale exists for an inf or nan entry
        with pytest.raises(ValidationError, match="must be finite"):
            norm(make_tensor([2], [1.0, bad]))


def layout_shapes():
    # orders 1-5, with size-1 modes, in a fixed order
    rng = np.random.default_rng(2031)
    shapes = [(1,), (1, 1), (2, 1, 3), (1, 1, 1, 1, 1), (3, 1, 2, 1, 2)]
    for order in range(1, 6):
        shapes += [tuple(rng.integers(1, 5, size=order).tolist()) for _ in range(16)]
    return shapes


class TestRefold:
    def test_round_trip_bit_identical(self, rng):
        # layout_shapes twice: the second pass meets the axis table cached
        shapes = layout_shapes()
        for dims in [(2, 2, 2), (3, 2, 4), (2,), (2, 5), (7,), (4, 1, 3), (2, 3, 2, 2),
                     *shapes, *shapes[::-1]]:
            t = random_tensor(rng, dims)
            for mode in range(1, len(dims) + 1):
                m = unfold(t, mode)
                assert not m.flags.writeable
                with pytest.raises(ValueError):
                    m[0, 0] = 1.0
                back = refold(m, mode, dims)
                assert back.data.tobytes() == t.data.tobytes()

    def test_zero_matrix(self):
        back = refold(np.zeros((2, 4)), 1, [2, 2, 2])
        assert not back.data.any()

    def test_single_entry_placement(self):
        entries = np.zeros((2, 4))
        entries[0, 3] = 1.0
        t = refold(entries, 1, [2, 2, 2])
        assert t[1, 2, 2] == 1.0
        assert norm(t) == 1.0

    def test_inconsistent_shape(self):
        with pytest.raises(ShapeError):
            refold(np.zeros((2, 3)), 1, [2, 2, 2])
        with pytest.raises(ShapeError):
            refold(np.zeros(8), 1, [2, 2, 2])
        for mode in (0, 4):
            with pytest.raises(ValueError):
                refold(np.zeros((2, 4)), mode, [2, 2, 2])

    def test_float_dim_rejected(self):
        with pytest.raises(ShapeError, match="integers"):
            refold(np.zeros((2, 2)), 1, [2.9, 2])

    def test_dims_that_are_not_a_sequence_rejected(self):
        with pytest.raises(ShapeError, match="integers"):
            refold(np.zeros((1, 4)), 1, 4)


class TestLayoutPlans:
    """The layout steps of a stack read their transposes from one table
    cached per tensor order, and must give each tensor of the stack the
    unfolding of the module docstring's column formula, built by loops in
    oracles.unfolding_by_formula, and unfold must give it alone."""

    def test_unfoldings_are_each_tensors_unfolding(self, rng):
        for dims in layout_shapes():
            for m in (0, 1, 3):
                x = rng.standard_normal((m, *dims)) + 1j * rng.standard_normal((m, *dims))
                for n in range(1, len(dims) + 1):
                    u = _unfolding(x, n)
                    assert u.shape == (m, dims[n - 1], math.prod(dims) // dims[n - 1])
                    for k in range(m):
                        expected = unfolding_by_formula(x[k], n).tobytes()
                        assert u[k].tobytes() == expected
                        assert unfold(ComplexTensor(x[k]), n).tobytes() == expected

    def test_unfold_shares_no_memory_with_the_tensor(self, rng):
        # the kernel's mode-1 unfolding is a view of its stack, so unfold copies
        for dims in layout_shapes():
            t = random_tensor(rng, dims)
            assert np.shares_memory(_unfolding(t.data[None], 1), t.data)
            for n in range(1, t.order + 1):
                assert not np.shares_memory(unfold(t, n), t.data)

    def test_mode_rows_are_each_tensors_slices(self, rng):
        # row i of mode n is the slice at index i of mode n, flattened
        for dims in layout_shapes():
            for m in (0, 1, 3):
                x = rng.standard_normal((m, *dims)) + 1j * rng.standard_normal((m, *dims))
                for n in range(1, len(dims) + 1):
                    rows = _mode_rows(x, n)
                    assert rows.shape == (m, dims[n - 1], math.prod(dims) // dims[n - 1])
                    for k in range(m):
                        for i in range(dims[n - 1]):
                            assert rows[k, i].tobytes() == np.take(
                                x[k], i, axis=n - 1).tobytes()


class TestMultilinearTransform:
    def test_identity(self, rng):
        t = random_tensor(rng, (2, 2, 2))
        eye = np.eye(2)
        out = multilinear_transform(t, [eye, eye, eye])
        np.testing.assert_allclose(out.data, t.data, atol=1e-15)

    def test_bit_flip(self):
        flat = np.zeros(8)
        flat[0] = 1.0  # |111>
        t = make_tensor([2, 2, 2], flat)
        flip = np.array([[0, 1], [1, 0]])
        out = multilinear_transform(t, [flip, np.eye(2), np.eye(2)])
        assert out[2, 1, 1] == 1.0
        assert norm(out) == 1.0

    def test_against_summation_oracle(self, rng):
        t = ComplexTensor(haar_state(rng).reshape(2, 2, 2))
        mats = [haar_unitary(rng) for _ in range(3)]
        expected = transform_by_summation(mats, t.data)
        out = multilinear_transform(t, mats)
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    @pytest.mark.parametrize(
        "dims",
        [(2, 2, 2), (3, 4, 5), (3, 4, 5, 6), (16, 16, 16), (32, 32), (7,), (4, 1, 3), (2, 1),
         (1, 5, 1)],
    )
    def test_bit_for_bit_tensordot_definition(self, rng, dims):
        t = random_tensor(rng, dims)
        mats = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in dims
        ]
        out = multilinear_transform(t, mats).data
        expected = transform_by_tensordot(mats, t.data)
        # bytes, so the sign of every zero counts
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dims, scale", [((1, 1), 1), ((1, 20), 1), ((4, 1, 6), 1),
                                             ((2, 5, 1), 0)])
    def test_size_one_modes_scale_elementwise(self, rng, dims, scale):
        # a 1x1 factor multiplies each entry, with no BLAS call: tensordot's
        # np.dot takes BLAS dot for one entry and BLAS axpy for more, which
        # can round otherwise (fused multiply-add from 16 entries on, and no
        # work at all for a zero factor, which keeps +0.0)
        t = random_tensor(rng, dims)
        mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims]
        mats[dims.index(1)] *= scale
        # bytes, so the sign of every zero counts
        assert (multilinear_transform(t, mats).data.tobytes()
                == transform_by_tensordot(mats, t.data).tobytes())

    @pytest.mark.parametrize("dims", [(4, 1, 3), (1, 5, 1), (2, 1), (1, 20), (1, 1), (3, 4, 2)])
    def test_stacked_equals_single(self, rng, dims):
        # each tensor of a stack gets the bits multilinear_transform gives it
        x = rng.standard_normal((5, *dims)) + 1j * rng.standard_normal((5, *dims))
        mats = [rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
                for d in dims]
        out = _stacked_transform(x, mats)
        for k in range(5):
            alone = multilinear_transform(ComplexTensor(x[k]), [m[k] for m in mats]).data
            assert np.ascontiguousarray(out[k]).tobytes() == alone.tobytes()

    def test_unfolded_form(self, rng):
        # unfold(result, n) == M_n @ unfold(t, n) @ kron(cyclic others).T
        dims = (2, 3, 2)
        t = random_tensor(rng, dims)
        mats = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in dims
        ]
        out = multilinear_transform(t, mats)
        for mode in (1, 2, 3):
            others = [mats[(mode + k) % 3] for k in range(2)]
            chain = others[0]
            for m in others[1:]:
                chain = np.kron(chain, m)
            expected = mats[mode - 1] @ unfold(t, mode) @ chain.T
            np.testing.assert_allclose(unfold(out, mode), expected, atol=1e-12)

    def test_composition(self, rng):
        t = random_tensor(rng, (2, 2, 2))
        a = [haar_unitary(rng) for _ in range(3)]
        b = [haar_unitary(rng) for _ in range(3)]
        once = multilinear_transform(multilinear_transform(t, a), b)
        combined = multilinear_transform(t, [bn @ an for an, bn in zip(a, b)])
        np.testing.assert_allclose(once.data, combined.data, atol=1e-13)

    def test_unitary_norm_preservation(self, rng):
        t = random_tensor(rng, (2, 2, 2))
        out = multilinear_transform(t, [haar_unitary(rng) for _ in range(3)])
        assert abs(norm(out) - norm(t)) < 1e-13 * norm(t)

    def test_dimension_mismatch(self):
        t = make_tensor([2, 2, 2], np.zeros(8))
        with pytest.raises(ShapeError):
            multilinear_transform(t, [np.eye(2), np.eye(3), np.eye(2)])
        with pytest.raises(ShapeError):
            multilinear_transform(t, [np.eye(2), np.eye(2)])


class TestInner:
    def test_basis_states(self):
        e111 = make_tensor([2, 2, 2], np.eye(8)[0])
        e222 = make_tensor([2, 2, 2], np.eye(8)[7])
        assert inner(e111, e111) == 1
        assert inner(e111, e222) == 0

    def test_normalized_ghz(self):
        flat = np.zeros(8)
        flat[0] = flat[7] = 1 / np.sqrt(2)
        g = make_tensor([2, 2, 2], flat)
        assert abs(inner(g, g) - 1) < 1e-15

    def test_conjugate_first(self, rng):
        a = random_tensor(rng, (2, 2))
        b = random_tensor(rng, (2, 2))
        assert np.isclose(inner(a, b), np.conj(inner(b, a)))
        scaled = ComplexTensor(1j * a.data)
        # antilinear in the first slot
        assert np.isclose(inner(scaled, b), -1j * inner(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            inner(make_tensor([2], [1, 0]), make_tensor([3], [1, 0, 0]))


class TestSubtensor:
    def test_ghz_slice(self):
        flat = np.zeros(8)
        flat[0] = flat[7] = 1 / np.sqrt(2)
        g = make_tensor([2, 2, 2], flat)
        s = subtensor(g, 1, 1)
        assert s.dims == (2, 2)
        assert s[1, 1] == 1 / np.sqrt(2)
        assert abs(inner(s, s) - 0.5) < 1e-15

    def test_zero_slice(self):
        e111 = make_tensor([2, 2, 2], np.eye(8)[0])
        assert not subtensor(e111, 3, 2).data.any()

    def test_norm_partition(self, rng):
        t = random_tensor(rng, (2, 2, 2))
        for mode in (1, 2, 3):
            total = sum(
                norm(subtensor(t, mode, i)) ** 2 for i in (1, 2)
            )
            assert abs(total - norm(t) ** 2) < 1e-13 * norm(t) ** 2

    def test_out_of_range(self):
        t = make_tensor([2, 2, 2], np.zeros(8))
        with pytest.raises(ValueError):
            subtensor(t, 1, 3)
        with pytest.raises(ValueError):
            subtensor(t, 4, 1)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
)
def test_round_trip_property(seed, dims):
    rng = np.random.default_rng(seed)
    t = ComplexTensor(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
    for mode in range(1, len(dims) + 1):
        m = unfold(t, mode)
        assert m.shape == (dims[mode - 1], t.data.size // dims[mode - 1])
        assert m.dtype == np.complex128 and not m.flags.writeable
        assert np.isclose(np.linalg.norm(m), norm(t), rtol=1e-15, atol=1e-300)
        assert refold(m, mode, dims).data.tobytes() == t.data.tobytes()
