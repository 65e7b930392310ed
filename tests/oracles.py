"""Independent brute-force oracles used to compute expected values.

Everything here is implemented directly from definitions with explicit
loops (or numpy's own LAPACK eigensolver), deliberately avoiding the code
paths under test.
"""

import itertools
import math

import numpy as np

from hosvd3 import ComplexTensor, NumericalError, ShapeError, ValidationError


def transform_by_summation(mats, data):
    """Elementwise multilinear transform: out_j = sum_i prod_n M_n[j_n, i_n] x_i."""
    dims = data.shape
    out = np.zeros(dims, dtype=complex)
    for out_idx in itertools.product(*(range(d) for d in dims)):
        acc = 0.0 + 0.0j
        for in_idx in itertools.product(*(range(d) for d in dims)):
            factor = 1.0 + 0.0j
            for n in range(len(dims)):
                factor *= mats[n][out_idx[n], in_idx[n]]
            acc += factor * data[in_idx]
        out[out_idx] = acc
    return out


def transform_by_tensordot(mats, data):
    """The multilinear transform as numpy composes it: contract each matrix
    into its axis, then move the new axis back into place."""
    out = data
    for axis, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(m, out, axes=([1], [axis])), 0, axis)
    return np.ascontiguousarray(out)


def validate_unitary(u):
    """Frobenius residual ||u^dagger u - I||_F (0 for exact unitaries)."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("unitarity check expects a square matrix")
    eye = np.eye(u.shape[0])
    return float(np.linalg.norm(u.conj().T @ u - eye, "fro"))


def inner(a, b):
    """Conjugate-first inner product <a, b> = sum conj(a) * b of two tensors."""
    if a.dims != b.dims:
        raise ShapeError(f"dims differ: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.data, b.data))


def subtensor(t, mode, index):
    """Order N-1 tensor obtained by fixing the given mode's index (1-based)."""
    if t.order < 2:
        raise ValueError("subtensor requires order >= 2")
    if not 1 <= mode <= t.order:
        raise ValueError(f"mode {mode} out of range 1..{t.order}")
    if not 1 <= index <= t.dims[mode - 1]:
        raise ValueError(
            f"index {index} out of range 1..{t.dims[mode - 1]} in mode {mode}"
        )
    return ComplexTensor(np.take(t.data, index - 1, axis=mode - 1))


def all_orthogonality_by_grams(t):
    """The largest off-diagonal modulus of the mode Grams of a tensor of
    order >= 2: per mode n, the unfolding A built by its own transposes
    into the cyclic axis order (n, n+1, ..., n-1), G = A A^dagger, made
    Hermitian as (G + G^dagger) / 2, and the largest |G[a, b]|, a != b.
    The operations of the kernel ``hosvd._all_orthogonality``, one mode at
    a time, and so its bits."""
    data, order = t.data, t.order
    worst = 0.0
    for n in range(order):
        a = data.transpose([(n + k) % order for k in range(order)]).reshape(data.shape[n], -1)
        g = a @ a.conj().T
        g = (g + g.conj().T) / 2.0
        off = np.abs(g[~np.eye(len(g), dtype=bool)])
        worst = max(worst, off.max(initial=0.0))
    return float(worst)


def one_body_rdm_by_summation(amps, qubit):
    """rho for one qubit of a 3-qubit state by direct amplitude sums.

    rho[i, j] = sum over the other two indices of psi(..i..) * conj(psi(..j..)).
    `qubit` is 0, 1, or 2.
    """
    a = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            total = 0.0 + 0.0j
            for rest in itertools.product(range(2), repeat=2):
                idx_i = list(rest)
                idx_j = list(rest)
                idx_i.insert(qubit, i)
                idx_j.insert(qubit, j)
                total += a[tuple(idx_i)] * np.conj(a[tuple(idx_j)])
            rho[i, j] = total
    return rho


def rdm_eigenvalues(amps, qubit):
    """Descending eigenvalues of the one-body density matrix, via numpy."""
    rho = one_body_rdm_by_summation(amps, qubit)
    return np.sort(np.linalg.eigvalsh(rho))[::-1]


def eig2_closed_form(h):
    """Descending eigenvalues of a 2x2 Hermitian matrix from the
    characteristic quadratic (trace / determinant form)."""
    tr = (h[0, 0] + h[1, 1]).real
    det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
    disc = math.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return np.array([tr / 2.0 + disc, tr / 2.0 - disc])


def round_robin(n):
    """One sweep of the round-robin tournament on n indices: a tuple of
    steps, each a pair (ps, qs) of index tuples with ps[k] < qs[k].  The
    pairs of a step are disjoint, and over the steps every pair p < q
    appears exactly once.  For odd n the tournament has a dummy index n,
    so each step leaves out the one index paired with it."""
    m = n + n % 2
    ring = list(range(1, m))
    steps = []
    for _ in range(m - 1):
        seats = [0, *ring]
        pairs = sorted(
            (min(a, b), max(a, b))
            for a, b in zip(seats[: m // 2], seats[: m // 2 - 1 : -1])
            if max(a, b) < n
        )
        steps.append((tuple(p for p, _ in pairs), tuple(q for _, q in pairs)))
        ring = ring[-1:] + ring[:-1]
    return tuple(steps)


def jacobi_eigh(a, max_sweeps=60):
    """(eigenvalues (n,), eigenvector columns (n, n), sweeps, rotations) of
    an exactly Hermitian matrix a, prescaled so that its largest part lies
    in [0.5, 1), by cyclic complex Jacobi sweeps in :func:`round_robin`
    order, with no LAPACK.  Each step rotates its disjoint pairs together: a
    pivot above 1e-15 is zeroed, the columns p, q of [A; V] are replaced by
    c p - s phase q and s p + c phase q, then the rows p, q of A by the
    conjugate rotation, and the diagonal gets app - t |apq| and
    aqq + t |apq|; a smaller pivot is not rotated.  Sweeps run until one
    rotates nothing, at most max_sweeps times.  sweeps counts that last,
    rotation-free sweep too (a diagonal matrix takes 1), and rotations the
    pairs rotated; sweeps > max_sweeps means not converged."""
    a = np.asarray(a, dtype=np.complex128)
    n = len(a)
    w = np.vstack((a, np.eye(n, dtype=np.complex128)))
    sweeps, rotations = 1, 0
    for _ in range(max_sweeps):
        rotated = 0
        for ps, qs in round_robin(n):
            ps, qs = np.array(ps, dtype=np.intp), np.array(qs, dtype=np.intp)
            apq = w[ps, qs]
            mag = np.hypot(apq.real, apq.imag)
            big = mag > 1e-15
            if not big.any():
                continue
            ps, qs, apq, mag = ps[big], qs[big], apq[big], mag[big]
            rotated += len(ps)
            app, aqq = w[ps, ps].real, w[qs, qs].real
            d, m2 = aqq - app, 2.0 * mag
            t = np.copysign(m2 / (np.abs(d) + np.hypot(d, m2)), d)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            phase = apq.real / mag - 1j * (apq.imag / mag)
            sp, cp = s * phase, c * phase
            wp, wq = w[:, ps], w[:, qs]
            w[:, ps] = c * wp - sp * wq
            w[:, qs] = s * wp + cp * wq
            c, s = c[:, None], s[:, None]
            sp, cp = sp.conj()[:, None], cp.conj()[:, None]
            ap, aq = w[ps], w[qs]
            w[ps] = c * ap - sp * aq
            w[qs] = s * ap + cp * aq
            w[ps, ps] = app - t * mag
            w[qs, qs] = aqq + t * mag
            w[ps, qs] = w[qs, ps] = 0.0
        if not rotated:
            break
        sweeps += 1
        rotations += rotated
    return w[:n].diagonal().real.copy(), w[n:].copy(), sweeps, rotations


def eigh_descending(h):
    """Eigenvalues, descending, of a Hermitian matrix by numpy's LAPACK eigh."""
    return np.linalg.eigvalsh(h)[::-1]


def unfold_column_index(dims, idx, mode):
    """1-based column position of element `idx` in the mode-n unfolding,
    written exactly as the cyclic defining formula."""
    order = len(dims)
    cyclic = [((mode - 1) + k) % order for k in range(1, order)]  # 0-based modes
    col = 0
    for pos, m in enumerate(cyclic):
        stride = 1
        for later in cyclic[pos + 1:]:
            stride *= dims[later]
        col += (idx[m] - 1) * stride
    return col + 1


def unfolding_by_formula(data, mode):
    """The mode-n unfolding of an array, each element placed by loops at row
    i_n and at the column of the cyclic defining formula
    (:func:`unfold_column_index`), with no transpose."""
    dims = data.shape
    out = np.empty((dims[mode - 1], data.size // dims[mode - 1]), dtype=data.dtype)
    for idx in itertools.product(*(range(1, d + 1) for d in dims)):
        out[idx[mode - 1] - 1, unfold_column_index(dims, idx, mode) - 1] = data[
            tuple(i - 1 for i in idx)]
    return out


def haar_state(rng, size=8):
    """Normalized vector of iid standard complex Gaussians."""
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return z / np.linalg.norm(z)


def haar_unitary(rng, n=2):
    """Haar-distributed unitary via QR with phase-fixed R diagonal."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def identities_by_formula(x, core, sigma, tol):
    """The core identities of classify's residuals, per row of states x,
    their cores (both (M, 2, 2, 2)) and sigma triples (M, 3), each value
    written out term by term, in the order of operations the kernel
    ``qubit3._identities`` must keep: the reference its index tables are
    checked against, bit for bit.  Rows where the guard of the t111/t222
    formulas holds read NaN there; NumericalError is raised where the plane
    coefficients do not cancel or the two plane forms disagree."""
    flat = core.reshape(-1, 8)
    t111, t112, t121, t122, t211, t212, t221, t222 = flat.T
    power = np.abs(flat) ** 2
    total = power.sum(axis=1)
    a, b, c = power[:, 1] - power[:, 2], power[:, 4] - power[:, 1], power[:, 2] - power[:, 4]
    s1, s2, s3 = sigma.T
    form_a = a * s1 + b * s2 + c * s3
    form_b = power[:, 6] * (s1 - s2) + power[:, 3] * (s2 - s3) + power[:, 5] * (s3 - s1)
    if np.any(np.abs(a + b + c) > 1e-12 * total):
        raise NumericalError(f"plane coefficients do not cancel: {(a + b + c).max()!r}")
    if np.any(np.abs(form_a - form_b) > 1e-12 * total * np.abs(sigma).max(axis=1)):
        i = np.argmax(np.abs(form_a - form_b))
        raise NumericalError(f"equivalent plane forms disagree: {form_a[i]!r} vs {form_b[i]!r}")
    p, q, r = t112 * t221, t121 * t212, t122 * t211
    out = {"plane_identity": np.abs(form_a),
           "phase_identity": np.abs(np.conj(p) * (r - q) + np.conj(q) * (p - r)
                                    + np.conj(r) * (q - p)),
           "plane_a": a, "plane_b": b, "plane_c": c, "plane_coefficient_sum": a + b + c}
    # unfoldings (2, M, 3, 2, 4) of the states and the cores, by the cyclic
    # axis orders (n, n+1, ..., n-1) of the three modes
    both = np.concatenate([x, core])
    unf = np.stack([both.transpose(0, *(1 + (n + k) % 3 for k in range(3))).reshape(-1, 2, 4)
                    for n in range(3)], axis=1).reshape(2, -1, 3, 2, 4)
    cross = unf[..., 0, :, None] * unf[..., 1, None, :]
    minors = np.abs(cross - cross.swapaxes(-1, -2))
    for n, cut in enumerate(("A_BC", "B_CA", "C_AB")):
        out[f"core_bisep_{cut}"] = minors[1, :, n, 1, 2]
        out[f"minors_{cut}"] = minors[0, :, n].max(axis=(1, 2))
    denom = t212 * np.conj(t211) - t122 * np.conj(t121)
    guarded = np.abs(denom) <= tol * total
    denom = np.where(guarded, 1.0, denom)
    t111_formula = -(np.conj(t221) * (q - r) + t112 * (power[:, 5] - power[:, 3])) / denom
    t222_formula = (np.conj(t112) * (q - r) + t221 * (power[:, 2] - power[:, 4])) / np.conj(denom)
    out["t111_formula"] = np.where(guarded, np.nan, np.abs(t111 - t111_formula))
    out["t222_formula"] = np.where(guarded, np.nan, np.abs(t222 - t222_formula))
    return out
