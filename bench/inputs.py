"""Seeded input pools for the three workloads.

Only numpy is used here; the program under test is never imported, so the
inputs and the truths the checks compare against are made apart from it.
Each pool function writes its input files into a directory and returns a plan
(what the worker runs) and the truths (what the checks need).
"""

from __future__ import annotations

import json
import os

import numpy as np

SAMPLE_COUNT = 100
"""States per timed ``sample`` call: short enough (about 0.1 s) that the host's
speed can be measured between calls (calibrate.py)."""
ALLOC_COUNT = 2000
"""States in the one untimed ``sample`` call whose allocation peak the traced
run measures: enough that the call's output shows in memory."""

# Seed of the decompose tensors that are scaled by SMALL_SCALE, and of their
# unscaled partners.  It does not depend on --seed, so every run holds the
# same failing operations.
FIXED_SEED = 20031005
SMALL_SCALE = 1e-6

# (count, dims) of the seeded decompose tensors.  With the 6 fixed tensors
# below (all under 25 ms), the cycle holds 20 tensors whose latencies climb
# in steps of at most about 2x.  Sorted, positions 8-11 are four ~50 ms
# tensors (12^3 and 16x16) and positions 17-18 are the two 28x28 tensors,
# so p50 (position 9.5) and p90 (position 17.1) each fall between two
# calls of the same cost, not on the edge between two costs, where they
# would read whichever side the machine's speed of the moment favoured.
SEEDED_TENSORS = ((2, (12, 12)), (2, (12, 12, 12)), (2, (16, 16)), (2, (20, 20)),
                  (1, (16, 16, 16)), (2, (24, 24)), (2, (28, 28)), (1, (32, 32)))
# Fixed partners; each is also in the cycle scaled by SMALL_SCALE.
FIXED_TENSORS = ((3, 4, 5, 6), (6, 6, 6, 6), (8, 8, 8))

# Three-qubit constructions in the classify pool and how many of each.
CLASSIFY_MIX = (("haar", 16), ("ghz", 4), ("w", 4), ("b1", 4), ("b2", 4),
                ("bisep_A_BC", 2), ("bisep_B_CA", 2), ("bisep_C_AB", 2),
                ("product", 4), ("s1", 2), ("s2", 2), ("s3", 2))
# Special tag each construction must get; None where the spectra are
# degenerate, since the core, and so the tag, is then gauge-dependent.
EXPECTED_TAG = {"haar": "none", "ghz": "ghz", "w": "none", "b1": "b1", "b2": "b2",
                "bisep_A_BC": "none", "bisep_B_CA": "none", "bisep_C_AB": "none",
                "product": "none", "s1": None, "s2": None, "s3": None}
# Overall scale of a classify file: 10**u with u uniform in this range,
# inside what normalize handles.
LOG10_SCALE = (-100.0, 100.0)


def write_state(path, data, label=""):
    """Write a tensor as a JSON state file; floats keep every digit."""
    data = np.asarray(data, dtype=np.complex128)
    doc = {"dims": list(data.shape),
           "amplitudes": [[float(v.real), float(v.imag)] for v in data.ravel()],
           "label": label}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def haar_unitary(rng, n=2):
    """Haar-random n x n unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def rdm_spectra(psi):
    """Descending eigenvalues of the three one-body reduced density matrices.

    ``psi`` is (..., 2, 2, 2) and normalized; the result is (..., 3, 2).
    """
    psi = np.asarray(psi, dtype=np.complex128)
    out = []
    for mode in range(3):
        m = np.moveaxis(psi, psi.ndim - 3 + mode, -3).reshape(psi.shape[:-3] + (2, 4))
        rho = m @ np.swapaxes(m, -1, -2).conj()
        out.append(np.linalg.eigvalsh(rho)[..., ::-1])
    return np.stack(out, axis=-2)


def _basis(**amps):
    psi = np.zeros((2, 2, 2), dtype=np.complex128)
    for key, value in amps.items():
        psi[tuple(int(ch) for ch in key)] = value
    return psi


def _ordered_core(rng, support):
    """Random core on `support` with every mode's first slice the heavier one
    (an ordered HOSVD core), non-degenerate, and all three sigma1^2 distinct."""
    while True:
        w = rng.uniform(0.05, 1.0, len(support))
        phases = np.exp(2j * np.pi * rng.uniform(size=len(support)))
        psi = _basis(**{k: np.sqrt(v) * p for k, v, p in zip(support, w / w.sum(), phases)})
        rho_diag = [np.sum(np.abs(np.moveaxis(psi, m, 0).reshape(2, 4)) ** 2, axis=1)
                    for m in range(3)]
        top = [d[0] for d in rho_diag]
        if (all(d[0] - d[1] >= 0.05 for d in rho_diag)
                and min(abs(top[0] - top[1]), abs(top[0] - top[2]),
                        abs(top[1] - top[2])) >= 0.02):
            return psi


def _slice_state(rng, free_mode):
    # Slice state S1 (modes 1 and 2 degenerate, mode 3 free) with weight p,
    # moved so that `free_mode` is the non-degenerate one.
    p = rng.uniform(0.3, 0.45)
    q = 0.5 - p
    psi = _basis(**{"000": np.sqrt(p), "110": np.sqrt(p),
                    "001": np.sqrt(q), "111": -np.sqrt(q)})
    return np.moveaxis(psi, 2, free_mode)


def construct(kind, rng):
    """A normalized state of the given construction, before local unitaries."""
    if kind == "haar":
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        return (z / np.linalg.norm(z)).reshape(2, 2, 2)
    if kind == "ghz":
        a2 = rng.uniform(0.55, 0.95)
        phase = np.exp(2j * np.pi * rng.uniform())
        return _basis(**{"000": np.sqrt(a2), "111": np.sqrt(1.0 - a2) * phase})
    if kind == "w":
        return _basis(**{"001": 1.0, "010": 1.0, "100": 1.0}) / np.sqrt(3.0)
    if kind == "b1":
        return _ordered_core(rng, ("000", "011", "101", "110"))
    if kind == "b2":
        return _ordered_core(rng, ("001", "010", "100", "111"))
    if kind.startswith("bisep_"):
        lam = rng.uniform(0.55, 0.95)
        pair = _basis(**{"000": np.sqrt(lam), "011": np.sqrt(1.0 - lam)})
        # pair has qubit 1 pure; move that qubit to the cut's single side
        return np.moveaxis(pair, 0, "ABC".index(kind[6]))
    if kind == "product":
        return _basis(**{"000": 1.0})
    if kind in ("s1", "s2", "s3"):
        return _slice_state(rng, {"s1": 2, "s2": 1, "s3": 0}[kind])
    raise ValueError(f"unknown construction {kind!r}")


def classify_pool(seed, directory):
    """Write the classify state files; return (paths, truths).

    Every state is rotated by Haar-random local unitaries, given a random
    global phase and an overall scale 10**u, u in LOG10_SCALE.
    """
    rng = np.random.default_rng([seed, 2])
    paths, truths = [], []
    for kind, count in CLASSIFY_MIX:
        for _ in range(count):
            psi = construct(kind, rng)
            u = [haar_unitary(rng) for _ in range(3)]
            psi = np.einsum("ai,bj,ck,ijk->abc", *u, psi)
            scale = 10.0 ** rng.uniform(*LOG10_SCALE) * np.exp(2j * np.pi * rng.uniform())
            path = os.path.join(directory, f"classify_{len(paths):02d}_{kind}.json")
            write_state(path, psi * scale, label=kind)
            paths.append(path)
            truths.append({"amps": (psi * scale).ravel(), "expected_tag": EXPECTED_TAG[kind]})
    return paths, truths


def _unit_tensor(rng, dims):
    x = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return x / np.linalg.norm(x)


def decompose_pool(seed, directory):
    """Write the decompose tensor files; return (paths, truths).

    Each truth holds the tensor as written and, for a scaled tensor, the
    index of its unscaled partner.
    """
    tensors = []  # (data, partner index or None)
    rng = np.random.default_rng([seed, 3])
    for count, dims in SEEDED_TENSORS:
        tensors += [(_unit_tensor(rng, dims), None) for _ in range(count)]
    fixed = np.random.default_rng(FIXED_SEED)
    for dims in FIXED_TENSORS:
        x = _unit_tensor(fixed, dims)
        tensors.append((x, None))
        tensors.append((x * SMALL_SCALE, len(tensors) - 1))
    paths, truths = [], []
    for i, (x, partner) in enumerate(tensors):
        path = os.path.join(directory, f"decompose_{i:02d}.json")
        write_state(path, x, label="x".join(map(str, x.shape)))
        paths.append(path)
        truths.append({"data": x, "partner": partner})
    return paths, truths


def build(workload, seed, directory):
    """Write one workload's inputs; return (plan for the worker, truths).

    A sample call's truths are its seed and count, which the plan holds.
    """
    if workload == "sample_haar":
        base = seed * 1_000_000
        plan = {"kind": "sample", "count": SAMPLE_COUNT, "alloc_count": ALLOC_COUNT,
                "seed_base": base,
                "warmup": ["sample", "--count", "50", "--seed", str(base - 1)]}
        return plan, None
    if workload == "classify_files":
        paths, truths = classify_pool(seed, directory)
        plan = {"kind": "classify", "inputs": paths, "warmup": ["classify", paths[0]]}
        return plan, truths
    if workload == "decompose_tensors":
        paths, truths = decompose_pool(seed, directory)
        # warm up on the smallest tensor, so that set-up stays short
        smallest = min(range(len(paths)), key=lambda i: truths[i]["data"].size)
        plan = {"kind": "decompose", "inputs": paths,
                "warmup": ["decompose", paths[smallest]]}
        return plan, truths
    raise ValueError(f"unknown workload {workload!r}")
