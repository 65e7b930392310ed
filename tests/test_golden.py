"""Frozen CLI outputs: every file under tests/golden/ must be reproduced byte
for byte.

A change that alters an output on purpose regenerates the goldens and names
the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

which prints, per golden, whether its bytes are new, changed or unchanged.
"""

import json
import pathlib
import sys

import numpy as np

from conftest import amplitudes
from hosvd3 import normalize
from hosvd3.cli import EXIT_OK, run

GOLDEN = pathlib.Path(__file__).with_name("golden")

# The conftest fixtures, as (name, amplitude keywords); test_states_match_fixtures
# keeps the two in step.
FIXTURES = (
    ("ghz_86", dict(a111=0.8, a222=0.6)),
    ("w_state", dict(a112=1, a121=1, a211=1)),
    ("s1_fixture", dict(a111=np.sqrt(0.3), a221=np.sqrt(0.3), a112=np.sqrt(0.2),
                        a222=-np.sqrt(0.2))),
    ("b1_fixture", dict(a111=0.5, a122=0.5, a212=0.5, a221=0.5)),
    ("bisep_cab", dict(a111=1, a221=1)),
)
TOL = ["--tol", "1e-10"]
# Seeded complex Gaussian tensors beyond 2x2x2, as (name, dims, Philox seed),
# so the n > 2 bits of decompose are pinned too, and so are orders 1 and 4,
# a mode of size 1, and the stack sweeps: even n, odd n (the round robin's
# dummy index), and stacks of two equal sizes of 12 and up, each next to a
# smaller mode.
GAUSSIAN = (
    ("gaussian_3x4x5", (3, 4, 5), 11),
    ("gaussian_8x8", (8, 8), 12),
    ("gaussian_3x4x5x6", (3, 4, 5, 6), 13),
    ("gaussian_7", (7,), 14),
    ("gaussian_2x1x3", (2, 1, 3), 15),
    ("gaussian_16x16", (16, 16), 18),
    ("gaussian_13x13x3", (13, 13, 3), 19),
    ("gaussian_12x12x2", (12, 12, 2), 20),
)
# A label that the report must escape: non-ASCII text, a quote and a tab.
ESCAPED_LABEL = ("label_escapes", (2, 2), 16, 'ψ "psi"\tstate')
# A generic three-qubit state, so a classify report with nonzero identity
# residuals and the t111/t222 formulas is pinned too.
GENERIC_STATE = ("gaussian_2x2x2", (2, 2, 2), 17)


def fixture_state(kwargs):
    return normalize(amplitudes(**kwargs))


def gaussian_amplitudes(dims, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def write_state_file(path, label, amps):
    doc = {"dims": list(amps.shape),
           "amplitudes": [[float(v.real), float(v.imag)] for v in amps.ravel()],
           "label": label}
    path.write_text(json.dumps(doc))
    return str(path)


def cases(workdir):
    """(golden file name, argv without --output) for every golden."""
    out = []
    for name, kwargs in FIXTURES:
        amps = fixture_state(kwargs).data
        state = write_state_file(workdir / f"{name}.json", name, amps)
        out.append((f"decompose_{name}.json", ["decompose", state, *TOL]))
        out.append((f"classify_{name}.json", ["classify", state, *TOL]))
    for name, dims, seed in GAUSSIAN:
        amps = gaussian_amplitudes(dims, seed)
        state = write_state_file(workdir / f"{name}.json", name, amps)
        out.append((f"decompose_{name}.json", ["decompose", state, *TOL]))
    name, dims, seed, label = ESCAPED_LABEL
    state = write_state_file(workdir / f"{name}.json", label,
                             gaussian_amplitudes(dims, seed))
    out.append((f"decompose_{name}.json", ["decompose", state, *TOL]))
    name, dims, seed = GENERIC_STATE
    state = write_state_file(workdir / f"{name}.json", name, gaussian_amplitudes(dims, seed))
    out.append((f"classify_{name}.json", ["classify", state, *TOL]))
    out.append(("sample_count200_seed7.csv",
                ["sample", "--count", "200", "--seed", "7", *TOL]))
    out.append(("polytope_mesh_resolution5.csv",
                ["polytope-mesh", "--resolution", "5"]))
    return out


def test_states_match_fixtures(request):
    for name, kwargs in FIXTURES:
        want = request.getfixturevalue(name).data
        assert fixture_state(kwargs).data.tobytes() == want.tobytes(), name


def test_outputs_match_goldens(tmp_path):
    for golden, argv in cases(tmp_path):
        out = tmp_path / golden
        assert run([*argv, "--output", str(out)]) == EXIT_OK, golden
        assert out.read_bytes() == (GOLDEN / golden).read_bytes(), golden


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for golden, argv in cases(pathlib.Path(tmp)):
            path = GOLDEN / golden
            before = path.read_bytes() if path.exists() else None
            if run([*argv, "--output", str(path)]) != EXIT_OK:
                sys.exit(f"{golden}: hosvd3 {' '.join(argv)} failed")
            status = ("new" if before is None
                      else "unchanged" if path.read_bytes() == before else "changed")
            print(f"{status:9} {path}")
