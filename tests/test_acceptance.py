"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from hosvd3 import classify, classify_batch, hosvd, multilinear_transform, normalize
from hosvd3.cli import run
from hosvd3.qubit3 import _identities
from conftest import amplitudes
from oracles import haar_state, haar_unitary, rdm_eigenvalues

SAMPLE_SEED = 424242
BULK_SEED = 31337


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def thousand_decompositions():
    """1000 Haar-random states with their decompositions and oracle spectra."""
    rng = np.random.default_rng(SAMPLE_SEED)
    records = []
    start = time.perf_counter()
    for _ in range(1000):
        amps = haar_state(rng).reshape(2, 2, 2)
        result = hosvd(normalize(amps))
        records.append((amps, result))
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def bulk_sigma():
    """1e5 Haar-random sigma triples, computed by classify_batch."""
    rng = np.random.Generator(np.random.Philox(BULK_SEED))
    start = time.perf_counter()
    z = rng.standard_normal((100_000, 8)) + 1j * rng.standard_normal((100_000, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    sig = classify_batch(z).sigma
    elapsed = time.perf_counter() - start
    return sig, elapsed


def test_criterion_1_hosvd_correctness(thousand_decompositions):
    records, elapsed = thousand_decompositions
    worst_recon = worst_ao = worst_eig = 0.0
    for amps, result in records:
        worst_recon = max(worst_recon, result.residuals.reconstruction)
        worst_ao = max(worst_ao, result.residuals.all_orthogonality)
        for mode, spec in enumerate(result.spectra, start=1):
            oracle = rdm_eigenvalues(amps, mode - 1)
            worst_eig = max(worst_eig, np.abs(spec**2 - oracle).max())
    ok = worst_recon <= 1e-12 and worst_ao <= 1e-12 and worst_eig <= 1e-12 and elapsed < 5.0
    _report(
        1,
        "hosvd correctness, 1000 states",
        ok,
        f"recon {worst_recon:.2e}, all-orth {worst_ao:.2e}, "
        f"eig-vs-oracle {worst_eig:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_normalization(thousand_decompositions):
    records, _ = thousand_decompositions
    worst = 0.0
    for _, result in records:
        for spec in result.spectra:
            worst = max(worst, abs(float(np.sum(spec**2)) - 1.0))
    _report(2, "per-mode sigma^2 sums to 1", worst <= 1e-12, f"max defect {worst:.2e}")


def test_criterion_3_derived_identities(thousand_decompositions):
    records, _ = thousand_decompositions
    worst_plane = worst_phase = worst_forms = 0.0
    for amps, result in records:
        core = result.core
        sigma = tuple(float(spec[0]) ** 2 for spec in result.spectra)
        # the kernel of classify's residuals, on the generic route's core
        found = _identities(amps[None], core.data[None], np.array([sigma]), 1e-10)
        worst_plane = max(worst_plane, float(found["plane_identity"][0]))
        worst_phase = max(worst_phase, float(found["phase_identity"][0]))
        # the two equivalent plane forms, evaluated independently here
        t = core.data
        s1 = float(np.sum(np.abs(t[0]) ** 2))
        s2 = float(np.sum(np.abs(t[:, 0, :]) ** 2))
        s3 = float(np.sum(np.abs(t[:, :, 0]) ** 2))
        form_a = (
            abs(t[0, 0, 1]) ** 2 * (s1 - s2)
            + abs(t[1, 0, 0]) ** 2 * (s2 - s3)
            + abs(t[0, 1, 0]) ** 2 * (s3 - s1)
        )
        form_b = (
            abs(t[1, 1, 0]) ** 2 * (s1 - s2)
            + abs(t[0, 1, 1]) ** 2 * (s2 - s3)
            + abs(t[1, 0, 1]) ** 2 * (s3 - s1)
        )
        worst_forms = max(worst_forms, abs(form_a - form_b))
    ok = worst_plane <= 1e-10 and worst_phase <= 1e-10 and worst_forms <= 1e-12
    _report(
        3,
        "derived core identities",
        ok,
        f"plane {worst_plane:.2e}, phase {worst_phase:.2e}, form gap {worst_forms:.2e}",
    )


def test_criterion_4_polytope(bulk_sigma):
    sig, elapsed = bulk_sigma
    tol = 1e-10
    s1, s2, s3 = sig[:, 0], sig[:, 1], sig[:, 2]
    violations = int(
        np.count_nonzero(
            (s1 + s2 - s3 > 1 + tol)
            | (s1 + s3 - s2 > 1 + tol)
            | (s2 + s3 - s1 > 1 + tol)
            | (sig < 0.5 - tol).any(axis=1)
            | (sig > 1 + tol).any(axis=1)
        )
    )
    ok = violations == 0 and elapsed < 60.0
    mins = ", ".join(f"{sig[:, n].min():.4f}" for n in range(3))
    _report(
        4,
        "polytope membership, 1e5 states",
        ok,
        f"{violations} violations, per-mode min ({mins}), max {sig.max():.6f}, {elapsed:.2f}s",
    )


def test_criterion_5_fixture_classifications():
    failures = []

    c = classify(normalize(amplitudes(a111=0.8, a222=0.6)))
    if not (
        (c.case, c.special) == ("case1", "ghz")
        and np.allclose(c.sigma_triple, [0.64] * 3, atol=1e-12)
    ):
        failures.append(f"ghz: {c.case}/{c.special} {c.sigma_triple}")

    c = classify(normalize(amplitudes(a112=1, a121=1, a211=1)))
    if not (
        (c.case, c.special) == ("case1", "none")
        and np.allclose(c.sigma_triple, [2 / 3] * 3, atol=1e-11)
    ):
        failures.append(f"w: {c.case}/{c.special} {c.sigma_triple}")

    c = classify(
        normalize(
            amplitudes(
                a111=np.sqrt(0.3), a221=np.sqrt(0.3), a112=np.sqrt(0.2), a222=-np.sqrt(0.2)
            )
        )
    )
    if not (
        (c.case, c.special) == ("case2_12", "s1")
        and np.allclose(c.sigma_triple, [0.5, 0.5, 0.6], atol=1e-11)
    ):
        failures.append(f"s1: {c.case}/{c.special} {c.sigma_triple}")

    c = classify(normalize(amplitudes(a111=0.5, a122=0.5, a212=0.5, a221=0.5)))
    b1_ok = c.case == "case3" or (
        c.special == "b1" and c.gauge_warning and c.degenerate_modes
    )
    if not (
        b1_ok
        and all(0.5 - 1e-11 <= v <= 1 + 1e-11 for v in c.sigma_triple)
        and c.residuals["plane_identity"] <= 1e-10
    ):
        failures.append(f"b1: {c.case}/{c.special} warn={c.gauge_warning}")

    c = classify(normalize(amplitudes(a111=1, a221=1)))
    if not (
        c.separability == "biseparable_C_AB"
        and np.allclose(c.sigma_triple, [0.5, 0.5, 1.0], atol=1e-11)
    ):
        failures.append(f"bisep: {c.separability} {c.sigma_triple}")

    _report(5, "fixture classifications", not failures, "; ".join(failures) or "all five fixtures")


def test_criterion_6_lu_covariance():
    rng = np.random.default_rng(SAMPLE_SEED + 1)
    worst_sigma = 0.0
    tag_mismatches = 0
    compared = 0
    for _ in range(200):
        state = normalize(haar_state(rng))
        mats = [haar_unitary(rng) for _ in range(3)]
        transformed = normalize(multilinear_transform(state, mats).data)
        before, after = classify(state), classify(transformed)
        worst_sigma = max(
            worst_sigma, np.abs(np.subtract(before.sigma_triple, after.sigma_triple)).max()
        )
        if not before.degenerate_modes and not after.degenerate_modes:
            compared += 1
            if (before.separability, before.case, before.special) != (
                after.separability,
                after.case,
                after.special,
            ):
                tag_mismatches += 1
    ok = worst_sigma <= 1e-10 and tag_mismatches == 0
    _report(
        6,
        "LU covariance, 200 pairs",
        ok,
        f"max sigma gap {worst_sigma:.2e}, {tag_mismatches} tag mismatches "
        f"on {compared} non-degenerate pairs",
    )


def _polynomial_separability(state, tol=1e-10):
    x = state.data[None]
    minors = _identities(x, x, np.zeros((1, 3)), tol)
    pure = [cut for cut in ("A_BC", "B_CA", "C_AB") if minors[f"minors_{cut}"][0] <= tol]
    if len(pure) >= 2:
        return "fully_separable"
    if len(pure) == 1:
        return f"biseparable_{pure[0]}"
    return "genuine"


def test_criterion_7_separability_oracle_equivalence():
    rng = np.random.default_rng(SAMPLE_SEED + 2)

    def product():
        a, b, c = (haar_state(rng, 2) for _ in range(3))
        return normalize(np.einsum("i,j,k->ijk", a, b, c))

    def biproduct(cut):
        q = haar_state(rng, 2)
        pair = haar_state(rng, 4).reshape(2, 2)
        if cut == "A_BC":
            return normalize(np.einsum("i,jk->ijk", q, pair))
        if cut == "B_CA":
            return normalize(np.einsum("j,ki->ijk", q, pair))
        return normalize(np.einsum("k,ij->ijk", q, pair))

    disagreements = 0
    count = 0
    for _ in range(2000):
        for state in (
            product(),
            biproduct("A_BC"),
            biproduct("B_CA"),
            biproduct("C_AB"),
        ):
            count += 1
            if classify(state).separability != _polynomial_separability(state):
                disagreements += 1
    rng2 = np.random.default_rng(SAMPLE_SEED + 3)
    for _ in range(2000):
        count += 1
        state = normalize(haar_state(rng2))
        if classify(state).separability != _polynomial_separability(state):
            disagreements += 1
    ok = disagreements == 0 and count == 10_000
    _report(
        7,
        "spectral vs polynomial separability",
        ok,
        f"{disagreements} disagreements over {count} constructed states",
    )


def test_criterion_8_case2_spectrum_property(bulk_sigma):
    sig, _ = bulk_sigma
    tol_pure = 1e-10
    genuine = np.all(sig < 1.0 - tol_pure, axis=1)
    eq12 = np.abs(sig[:, 0] - sig[:, 1]) <= 1e-8
    eq13 = np.abs(sig[:, 0] - sig[:, 2]) <= 1e-8
    eq23 = np.abs(sig[:, 1] - sig[:, 2]) <= 1e-8
    one_pair = (eq12.astype(int) + eq13.astype(int) + eq23.astype(int)) == 1
    candidates = genuine & one_pair
    bad = 0
    for idx in np.nonzero(candidates)[0]:
        s = sig[idx]
        pair = (0, 1) if eq12[idx] else ((0, 2) if eq13[idx] else (1, 2))
        if abs(s[pair[0]] - 0.5) > 1e-7 or abs(s[pair[1]] - 0.5) > 1e-7:
            bad += 1
    _report(
        8,
        "case-2 equal pair sits at 1/2",
        bad == 0,
        f"{int(candidates.sum())} genuine single-pair states, {bad} off 1/2",
    )


def test_criterion_9_cli_golden(tmp_path):
    ghz = tmp_path / "ghz.json"
    ghz.write_text(
        json.dumps(
            {
                "dims": [2, 2, 2],
                "amplitudes": [[1 / np.sqrt(2), 0.0]]
                + [[0.0, 0.0]] * 6
                + [[1 / np.sqrt(2), 0.0]],
                "label": "ghz",
            }
        )
    )
    combos = [
        ["decompose", str(ghz), "--tol", "1e-10"],
        ["classify", str(ghz), "--tol", "1e-10", "--sigma-tol", "1e-8"],
        ["sample", "--count", "25", "--seed", "11"],
        ["polytope-mesh", "--resolution", "5"],
    ]
    mismatches = []
    for i, argv in enumerate(combos):
        out1 = tmp_path / f"run{i}_1.out"
        out2 = tmp_path / f"run{i}_2.out"
        assert run(argv + ["--output", str(out1)]) == 0
        assert run(argv + ["--output", str(out2)]) == 0
        if out1.read_bytes() != out2.read_bytes():
            mismatches.append(argv[0])
    _report(
        9,
        "CLI golden determinism",
        not mismatches,
        "; ".join(mismatches) or "4 command pairs byte-identical",
    )
