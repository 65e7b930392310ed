"""Frozen CLI outputs: every file under tests/golden/ must be reproduced byte
for byte.

A change that alters an output on purpose regenerates the goldens and names
the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
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
# so the n > 2 bits of decompose are pinned too.
GAUSSIAN = (
    ("gaussian_3x4x5", (3, 4, 5), 11),
    ("gaussian_8x8", (8, 8), 12),
)


def fixture_state(kwargs):
    return normalize(amplitudes(**kwargs))


def gaussian_amplitudes(dims, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def write_state_file(path, name, amps):
    doc = {"dims": list(amps.shape),
           "amplitudes": [[float(v.real), float(v.imag)] for v in amps.ravel()],
           "label": name}
    path.write_text(json.dumps(doc))
    return str(path)


def cases(workdir):
    """(golden file name, argv without --output) for every golden."""
    out = []
    for name, kwargs in FIXTURES:
        amps = fixture_state(kwargs).amplitudes
        state = write_state_file(workdir / f"{name}.json", name, amps)
        out.append((f"decompose_{name}.json", ["decompose", state, *TOL]))
        out.append((f"classify_{name}.json", ["classify", state, *TOL]))
    for name, dims, seed in GAUSSIAN:
        amps = gaussian_amplitudes(dims, seed)
        state = write_state_file(workdir / f"{name}.json", name, amps)
        out.append((f"decompose_{name}.json", ["decompose", state, *TOL]))
    out.append(("sample_count200_seed7.csv",
                ["sample", "--count", "200", "--seed", "7", *TOL]))
    out.append(("polytope_mesh_resolution5.csv",
                ["polytope-mesh", "--resolution", "5"]))
    return out


def test_states_match_fixtures(request):
    for name, kwargs in FIXTURES:
        want = request.getfixturevalue(name).amplitudes
        assert fixture_state(kwargs).amplitudes.tobytes() == want.tobytes(), name


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
            if run([*argv, "--output", str(GOLDEN / golden)]) != EXIT_OK:
                sys.exit(f"{golden}: hosvd3 {' '.join(argv)} failed")
            print(f"wrote {GOLDEN / golden}")
