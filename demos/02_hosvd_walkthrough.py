# Walk through a full higher order singular value decomposition of a
# random three-qubit state and verify its defining properties.
#
#   python demos/02_hosvd_walkthrough.py

import numpy as np

from hosvd3 import (
    ComplexTensor,
    hosvd,
    multilinear_transform,
    norm,
    verify_all_orthogonality,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)
rng = np.random.default_rng(2024)

z = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
psi = ComplexTensor(z / np.linalg.norm(z.ravel()))
print("random normalized state, norm =", norm(psi))

result = hosvd(psi)

print("\n=== factors ===")
for n, u in enumerate(result.factors, start=1):
    residual = np.linalg.norm(u.conj().T @ u - np.eye(len(u)))
    print(f"U({n}) unitarity residual: {residual:.2e}")

print("\n=== core tensor ===")
print("all-orthogonality residual:", f"{verify_all_orthogonality(result.core):.2e}")
print("core magnitudes:")
print(np.abs(result.core.data))

print("\n=== mode singular values ===")
for n, spec in enumerate(result.spectra, start=1):
    print(f"mode {n}: sigma = {spec},  sigma^2 sums to {np.sum(spec**2):.12f}")

# sigma^2 are exactly the eigenvalues of the one-body density matrices,
# so they are invariant under local unitaries.
print("\n=== reconstruction ===")
rebuilt = multilinear_transform(result.core, result.factors)
err = norm(ComplexTensor(rebuilt.data - psi.data))
print(f"|| U(1) x U(2) x U(3) core - psi ||_F = {err:.2e}")

# The decomposition is not tied to qubits; any dims work.
print("\n=== a 3x4x2 tensor, same contract ===")
z = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
t = ComplexTensor(z)
r = hosvd(t)
print("spectra lengths per mode:", [len(s) for s in r.spectra])
print("reconstruction residual:", f"{r.residuals.reconstruction:.2e}")

# Applying the factors to the core one mode at a time gives the same thing
# as the single multilinear transform.
step = r.core
for mode in range(3):
    mats = [np.eye(d) for d in step.dims]
    mats[mode] = r.factors[mode]
    step = multilinear_transform(step, mats)
print("mode-by-mode rebuild matches:",
      bool(np.allclose(step.data, t.data, atol=1e-12)))
