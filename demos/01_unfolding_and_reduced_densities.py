# Matrix unfoldings of a three-qubit state and their link to reduced
# density matrices.  Run from the repo root after `pip install -e .`:
#
#   python demos/01_unfolding_and_reduced_densities.py

import numpy as np

from hosvd3 import gram, make_tensor, norm, refold, unfold

np.set_printoptions(precision=4, suppress=True, linewidth=100)

# A three-qubit state is an order-3 tensor: 8 amplitudes psi_{i1 i2 i3}
# with indices 1 or 2.  Flat storage order is 4(i1-1) + 2(i2-1) + (i3-1).
print("=== the W state as a tensor ===")
w = np.zeros(8, dtype=complex)
w[0b001] = w[0b010] = w[0b100] = 1 / np.sqrt(3)  # |112>, |121>, |211>
psi = make_tensor([2, 2, 2], w)
print("dims:", psi.dims, " norm:", norm(psi))

# Each mode-n unfolding is a read-only 2x4 array: row = i_n, columns ranked
# by the remaining indices in cyclic order (i_{n+1}, ..., i_{n-1}).
for mode, qubit in ((1, "A"), (2, "B"), (3, "C")):
    print(f"\nmode-{mode} unfolding (rows indexed by qubit {qubit}):")
    print(unfold(psi, mode))

# The Gram matrix of the mode-n unfolding IS the reduced density matrix of
# qubit n.  For W every one-body density matrix is diag(2/3, 1/3).
print("\n=== one-body reduced density matrices ===")
for mode, qubit in ((1, "A"), (2, "B"), (3, "C")):
    rho = gram(unfold(psi, mode))
    print(f"rho^{qubit} =")
    print(rho.real)

# Unfolding loses nothing: refolding restores the tensor bit for bit.
print("\n=== round trip ===")
for mode in (1, 2, 3):
    back = refold(unfold(psi, mode), mode, psi.dims)
    print(f"mode {mode}: refold(unfold(psi)) identical:",
          bool(np.array_equal(back.data, psi.data)))
