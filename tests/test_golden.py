"""Frozen CLI outputs: every file under tests/golden/ must be reproduced byte
for byte.

A change that alters an output on purpose regenerates the goldens and names
the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

which prints, per golden, whether its bytes are new, changed or unchanged,
and under each changed golden what moved: for JSON, every path whose value
moved, as old -> new; for CSV, the first line that differs.
"""

import json
import pathlib
import sys
from itertools import zip_longest

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
# so the n > 2 bits of decompose (LAPACK eigh) are pinned too, and so are
# orders 1 and 4, a mode of size 1, even and odd sizes, and stacks of two
# equal sizes of 12 and up, each next to a smaller mode.
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


class _Absent:
    def __repr__(self):
        return "<absent>"


ABSENT = _Absent()  # the side of a key, item or line that only the other side has


def moved_values(old, new, path="$"):
    """(path, old, new) for every value that differs between two JSON
    documents, in document order."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*old, *new]):
            yield from moved_values(old.get(key, ABSENT), new.get(key, ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i, (a, b) in enumerate(zip_longest(old, new, fillvalue=ABSENT)):
            yield from moved_values(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def describe_change(name, before, after):
    """Lines naming what moved in a golden between its two byte strings:
    every moved JSON value, or the first CSV line that differs."""
    if name.endswith(".json"):
        return [f"  {path}: {old!r} -> {new!r}"
                for path, old, new in moved_values(json.loads(before), json.loads(after))]
    lines = zip_longest(before.decode().splitlines(), after.decode().splitlines(),
                        fillvalue=ABSENT)
    return [f"  line {i}: {a} -> {b}" for i, (a, b) in enumerate(lines, start=1) if a != b][:1]


def test_describe_change():
    before = b'{"a": 1.0, "b": [1, 2], "c": {"d": "x"}}'
    after = b'{"a": 1.5, "b": [1, 2, 3], "c": {"d": "x", "e": true}}'
    assert describe_change("g.json", before, after) == [
        "  $.a: 1.0 -> 1.5", "  $.b[2]: <absent> -> 3", "  $.c.e: <absent> -> True"]
    assert describe_change("g.json", b'{"a": 1}', b'{"a": 1.0}') == ["  $.a: 1 -> 1.0"]
    assert describe_change("g.csv", b"h\n1\n2\n", b"h\n1\n3\n4\n") == ["  line 3: 2 -> 3"]


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
            after = path.read_bytes()
            status = ("new" if before is None else "unchanged" if after == before else "changed")
            print(f"{status:9} {path}")
            if status == "changed":
                print(*describe_change(golden, before, after), sep="\n")
