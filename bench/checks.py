"""Checks of the program's outputs against values computed apart from it.

Only numpy is used: reduced density matrix eigenvalues from
``numpy.linalg.eigvalsh``, singular values from ``numpy.linalg.svd`` and
reconstructions with ``numpy.einsum``, plus properties the method must
have.  Each check returns a list of problems; an empty list means the
output is right.
"""

from __future__ import annotations

import re

import numpy as np

from inputs import rdm_spectra

TOL = 1e-10
SIGMA_TOL = 1e-8
# A decision is checked only where the value lies further than this from
# its threshold; both sides compute eigenvalues to about 1e-15.
MARGIN = 1e-12
GENERATORS = {"philox4x64": np.random.Philox}
CUT_TAGS = ("biseparable_A_BC", "biseparable_B_CA", "biseparable_C_AB")
CASE2_TAGS = ("case2_12", "case2_13", "case2_23")
PAIRS = ((0, 1), (0, 2), (1, 2))
FAULT_PREFIX = "degenerate_modes"


def normalized(amps):
    """Unit-norm copy of a state, safe from overflow and underflow."""
    a = np.asarray(amps, dtype=np.complex128)
    a = a / np.max(np.abs(a))
    return a / np.linalg.norm(a.ravel())


def expected_separability(top):
    """Separability from one-body purity, or None when a value is too close
    to the purity threshold 1 - TOL to decide."""
    if any(abs(s - (1.0 - TOL)) <= MARGIN for s in top):
        return None
    pure = [n for n in range(3) if top[n] >= 1.0 - TOL]
    if len(pure) >= 2:
        return "fully_separable"
    return CUT_TAGS[pure[0]] if pure else "genuine"


def expected_case(top):
    """Sigma case from pairwise equality at SIGMA_TOL, or None when a gap is
    too close to SIGMA_TOL to decide."""
    gaps = [abs(top[i] - top[j]) for i, j in PAIRS]
    if any(abs(g - SIGMA_TOL) <= MARGIN for g in gaps):
        return None
    equal = [g <= SIGMA_TOL for g in gaps]
    if sum(equal) >= 2:
        return "case1"
    return CASE2_TAGS[equal.index(True)] if any(equal) else "case3"


def polytope_violations(top):
    """Constraints of the polytope 1/2 <= s_i <= 1, s_i + s_j - s_k <= 1
    that the triple breaks by more than TOL."""
    s1, s2, s3 = top
    residuals = (s1 + s2 - s3 - 1, s1 + s3 - s2 - 1, s2 + s3 - s1 - 1,
                 0.5 - s1, 0.5 - s2, 0.5 - s3, s1 - 1, s2 - 1, s3 - 1)
    return sum(r > TOL for r in residuals)


def _decisions(top, separability, case, where):
    problems = []
    want = expected_separability(top)
    if want is not None and separability != want:
        problems.append(f"{where}: separability {separability}, numpy says {want}")
    want = expected_case(top)
    if want is not None and case != want:
        problems.append(f"{where}: case {case}, numpy says {want}")
    return problems


def check_classify(doc, amps, expected_tag):
    """Problems in one ``classify`` report for the state ``amps``."""
    spectra = rdm_spectra(normalized(amps).reshape(2, 2, 2))
    top = spectra[:, 0]
    problems = []
    sigma = np.array(doc["sigma"], dtype=float)
    point = np.array(doc["polytope"]["point"], dtype=float)
    for name, got in (("sigma", sigma), ("polytope point", point)):
        err = float(np.max(np.abs(got - top)))
        if err > TOL:
            problems.append(f"{name} {got.tolist()} is {err:.2e} from numpy {top.tolist()}")
    problems += _decisions(top, doc["separability"], doc["case"], "report")
    if expected_tag is not None and doc["special"] != expected_tag:
        problems.append(f"special {doc['special']}, construction is {expected_tag}")
    if doc["separability"] != "genuine" and doc["special"] != "none":
        problems.append(f"special {doc['special']} on a {doc['separability']} state")
    gaps = spectra[:, 0] - spectra[:, 1]
    if all(abs(g - TOL) > MARGIN for g in gaps):
        want = [n + 1 for n in range(3) if gaps[n] <= TOL]
        if doc["degenerate_modes"] != want:
            problems.append(f"degenerate_modes {doc['degenerate_modes']}, numpy says {want}")
    if doc["gauge_warning"] and not doc["degenerate_modes"]:
        problems.append("gauge_warning without degenerate modes")
    if not doc["polytope"]["member"]:
        problems.append("point reported outside the polytope")
    for key in ("plane_identity", "phase_identity", "reconstruction", "all_orthogonality"):
        if not abs(doc["residuals"][key]) <= TOL:
            problems.append(f"residual {key} = {doc['residuals'][key]!r} above {TOL}")
    return problems


_HEADER = re.compile(r"# generator=(\S+) seed=(\d+) count=(\d+) tol=\S+ sigma_tol=\S+$")
_FOOTER = re.compile(r"# polytope_violations=(\d+)$")


def check_sample(text, seed, count):
    """Problems in one ``sample --count count --seed seed`` CSV.

    The states are regenerated from the seed with the generator the header
    names: per state, two draws of 8 standard normals (real, imaginary).
    """
    lines = text.splitlines()
    header = _HEADER.match(lines[0]) if lines else None
    if header is None:
        return [f"bad header {lines[:1]}"]
    name, got_seed, got_count = header.group(1), int(header.group(2)), int(header.group(3))
    if name not in GENERATORS:
        return [f"unknown generator {name}"]
    if (got_seed, got_count) != (seed, count):
        return [f"header says seed={got_seed} count={got_count}, asked {seed} {count}"]
    problems = []
    if lines[1:2] != ["id,s1,s2,s3,separability,case,special"]:
        problems.append(f"bad column line {lines[1:2]}")
    rows = [line.split(",") for line in lines[2:-1]]
    footer = _FOOTER.match(lines[-1])
    if len(rows) != count or any(len(r) != 7 for r in rows):
        return problems + [f"{len(rows)} rows for count={count}, or a row without 7 fields"]
    if [r[0] for r in rows] != [str(i) for i in range(count)]:
        problems.append("row ids are not 0..count-1 in order")
    z = np.random.Generator(GENERATORS[name](seed)).standard_normal((count, 2, 8))
    psi = z[:, 0] + 1j * z[:, 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    tops = rdm_spectra(psi.reshape(-1, 2, 2, 2))[:, :, 0]
    values = np.array([[float(v) for v in r[1:4]] for r in rows])
    bad = np.nonzero(np.max(np.abs(values - tops), axis=1) > TOL)[0]
    if bad.size:
        problems.append(f"{bad.size} rows off numpy by more than {TOL}, first id {bad[0]}")
    violations = 0
    for i, (row, top) in enumerate(zip(rows, tops)):
        problems += _decisions(top, row[4], row[5], f"row {i}")
        if row[4] == "genuine" and row[6] != "none":
            problems.append(f"row {i}: special {row[6]} on a Haar-random state")
        violations += polytope_violations(values[i]) > 0
    if violations:
        problems.append(f"{violations} rows outside the polytope")
    if footer is None or int(footer.group(1)) != violations:
        problems.append(f"footer {lines[-1]!r}, counted {violations} violations")
    return problems


def _unfold(x, mode):
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1)


def _complex(pairs):
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def check_decompose(doc, x, partner_doc=None):
    """Problems in one ``decompose`` report for the tensor ``x``.

    With ``partner_doc`` (the report for the unscaled tensor that ``x`` is a
    scaled copy of), degenerate_modes must match the partner's; a mismatch
    is reported with the prefix FAULT_PREFIX.  Otherwise degenerate_modes
    must match the modes whose Gram spectrum has a gap within TOL * ||X||^2.
    """
    dims = x.shape
    if doc["dims"] != list(dims):
        return [f"dims {doc['dims']} for a {list(dims)} tensor"]
    scale = float(np.linalg.norm(x.ravel())) ** 2
    core = _complex(doc["core"]).reshape(dims)
    factors = [_complex(f) for f in doc["factors"]]
    problems = []
    for n, (u, d) in enumerate(zip(factors, dims), start=1):
        if u.shape != (d, d):
            return [f"factor {n} has shape {u.shape}"]
        err = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
        if err > TOL:
            problems.append(f"factor {n} is not unitary (max |U^H U - I| = {err:.2e})")
    letters = "abcdefgh"[: len(dims)]
    spec = ",".join(f"{o}{i}" for o, i in zip(letters.upper(), letters))
    recon = np.einsum(f"{letters},{spec}->{letters.upper()}", core, *factors)
    err = float(np.linalg.norm((recon - x).ravel())) / np.sqrt(scale)
    if err > TOL:
        problems.append(f"reconstruction error {err:.2e} relative to ||X||")
    gaps = []
    for n, d in enumerate(dims):
        g = _unfold(core, n) @ _unfold(core, n).conj().T
        off = float(np.max(np.abs(g - np.diag(np.diag(g))))) if d > 1 else 0.0
        if off > TOL * scale:
            problems.append(f"core not all-orthogonal in mode {n + 1}: {off:.2e}")
        sv2 = np.linalg.svd(_unfold(x, n), compute_uv=False) ** 2
        got2 = np.asarray(doc["spectra"][n], dtype=float) ** 2
        if got2.shape != sv2.shape or np.max(np.abs(got2 - sv2)) > TOL * scale:
            problems.append(f"mode {n + 1} spectrum differs from numpy's singular values")
        elif np.any(np.diff(got2) > TOL * scale):
            problems.append(f"mode {n + 1} spectrum is not descending")
        gaps.append(-np.diff(sv2))
    for key in ("reconstruction", "all_orthogonality"):
        value = doc["residuals"][key]
        limit = TOL if key == "reconstruction" else TOL * scale
        if not abs(value) <= limit:
            problems.append(f"residual {key} = {value!r} above {limit:.1e}")
    if partner_doc is not None:
        if doc["degenerate_modes"] != partner_doc["degenerate_modes"]:
            problems.append(f"{FAULT_PREFIX} {doc['degenerate_modes']} differ from the "
                            f"unscaled partner's {partner_doc['degenerate_modes']}")
    elif all(np.all(np.abs(g - TOL * scale) > MARGIN * scale) for g in gaps):
        want = [n + 1 for n, g in enumerate(gaps) if np.any(g <= TOL * scale)]
        if doc["degenerate_modes"] != want:
            problems.append(f"degenerate_modes {doc['degenerate_modes']}, numpy says {want}")
    return problems


def known_fault(problems):
    """True when every problem is the degenerate_modes mismatch of a scaled
    tensor, the fault the decompose workload counts as failed."""
    return bool(problems) and all(p.startswith(FAULT_PREFIX) for p in problems)
