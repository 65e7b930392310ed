import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hosvd3 import (
    ComplexTensor,
    ShapeError,
    inner,
    make_tensor,
    multilinear_transform,
    norm,
    refold,
    subtensor,
    unfold,
)
from oracles import (
    haar_state,
    haar_unitary,
    transform_by_summation,
    transform_by_tensordot,
    unfold_column_index,
)


def random_tensor(rng, dims):
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return ComplexTensor(data)


class TestMakeTensor:
    def test_zero_tensor(self):
        t = make_tensor([2, 2, 2], np.zeros(8))
        assert t.dims == (2, 2, 2)
        assert t.order == 3
        assert np.all(t.elements == 0)

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
        assert m.rows == 2 and m.cols == 4
        expected = np.zeros((2, 4))
        expected[0, 3] = 1.0
        np.testing.assert_array_equal(m.entries, expected)

    def test_mode2_single_element(self):
        # psi_212 = 1 lands at row 1, column (i3-1)*I1 + i1 = 4
        flat = np.zeros(8)
        flat[4 * 1 + 2 * 0 + 1] = 1.0
        m = unfold(make_tensor([2, 2, 2], flat), 2)
        expected = np.zeros((2, 4))
        expected[0, 3] = 1.0
        np.testing.assert_array_equal(m.entries, expected)

    def test_zero_tensor(self):
        m = unfold(make_tensor([2, 2, 2], np.zeros(8)), 3)
        assert not m.entries.any()

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
        np.testing.assert_array_equal(unfold(t, 1).entries, m1)
        np.testing.assert_array_equal(unfold(t, 2).entries, m2)
        np.testing.assert_array_equal(unfold(t, 3).entries, m3)

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
                assert m.entries[row - 1, col - 1] == t[idx]

    def test_mode_out_of_range(self):
        t = make_tensor([2, 2], np.zeros(4))
        with pytest.raises(ValueError):
            unfold(t, 3)
        with pytest.raises(ValueError):
            unfold(t, 0)

    def test_frobenius_norm_preserved(self, rng):
        t = random_tensor(rng, (3, 2, 4))
        for mode in (1, 2, 3):
            assert np.isclose(
                np.linalg.norm(unfold(t, mode).entries), norm(t), rtol=1e-15
            )


class TestRefold:
    def test_round_trip_bit_identical(self, rng):
        for dims in [(2, 2, 2), (3, 2, 4), (2,), (2, 5)]:
            t = random_tensor(rng, dims)
            for mode in range(1, len(dims) + 1):
                back = refold(unfold(t, mode), dims)
                assert back.data.tobytes() == t.data.tobytes()

    def test_zero_matrix(self):
        from hosvd3 import UnfoldedMatrix

        back = refold(UnfoldedMatrix(np.zeros((2, 4)), 1), [2, 2, 2])
        assert not back.data.any()

    def test_single_entry_placement(self):
        from hosvd3 import UnfoldedMatrix

        entries = np.zeros((2, 4))
        entries[0, 3] = 1.0
        t = refold(UnfoldedMatrix(entries, 1), [2, 2, 2])
        assert t[1, 2, 2] == 1.0
        assert norm(t) == 1.0

    def test_inconsistent_shape(self):
        from hosvd3 import UnfoldedMatrix

        with pytest.raises(ShapeError):
            refold(UnfoldedMatrix(np.zeros((2, 3)), 1), [2, 2, 2])


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
        [(2, 2, 2), (3, 4, 5), (3, 4, 5, 6), (16, 16, 16), (32, 32), (7,), (4, 1, 3)],
    )
    def test_bit_for_bit_tensordot_definition(self, rng, dims):
        t = random_tensor(rng, dims)
        mats = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in dims
        ]
        out = multilinear_transform(t, mats).data
        expected = transform_by_tensordot(mats, t.data)
        assert np.array_equal(out.view(np.float64), expected.view(np.float64))

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
            expected = mats[mode - 1] @ unfold(t, mode).entries @ chain.T
            np.testing.assert_allclose(unfold(out, mode).entries, expected, atol=1e-12)

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
        assert m.rows * m.cols == t.data.size
        assert np.isclose(np.linalg.norm(m.entries), norm(t), rtol=1e-15, atol=1e-300)
        assert refold(m, dims).data.tobytes() == t.data.tobytes()
