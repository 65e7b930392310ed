"""Each workload's output check accepts the program's real output and
rejects a corrupted copy of it.

    python3 -m pytest bench/test_checks.py
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from hosvd3.cli import run  # noqa: E402


def program_output(tmp_path, argv):
    out = tmp_path / "out"
    assert run(argv + ["--output", str(out)]) == 0
    return out.read_text()


@pytest.fixture
def b1_report(tmp_path):
    rng = np.random.default_rng(5)
    psi = np.einsum("ai,bj,ck,ijk->abc", *[inputs.haar_unitary(rng) for _ in range(3)],
                    inputs.construct("b1", rng)) * 1e40
    path = tmp_path / "b1.json"
    inputs.write_state(path, psi)
    doc = json.loads(program_output(tmp_path, ["classify", str(path)]))
    return doc, psi.ravel()


@pytest.fixture
def sample_csv(tmp_path):
    return program_output(tmp_path, ["sample", "--count", "40", "--seed", "11"])


@pytest.fixture
def tensor_reports(tmp_path):
    x = inputs._unit_tensor(np.random.default_rng(7), (3, 4, 5))
    docs = []
    for name, data in (("x", x), ("small", x * inputs.SMALL_SCALE)):
        inputs.write_state(tmp_path / name, data)
        docs.append(json.loads(program_output(tmp_path, ["decompose", str(tmp_path / name)])))
    return x, docs


def test_classify_check_accepts_real_report(b1_report):
    doc, amps = b1_report
    assert doc["special"] == "b1"
    assert checks.check_classify(doc, amps, "b1") == []


def test_classify_check_rejects_flipped_special_tag(b1_report):
    doc, amps = b1_report
    doc["special"] = "b2"
    assert any("special" in p for p in checks.check_classify(doc, amps, "b1"))


def test_classify_check_rejects_sigma_squared_off_by_1e6(b1_report):
    doc, amps = b1_report
    doc["sigma"][1] += 1e-6
    assert any("sigma" in p for p in checks.check_classify(doc, amps, "b1"))


def test_sample_check_accepts_real_csv(sample_csv):
    assert checks.check_sample(sample_csv, 11, 40) == []


def test_sample_check_rejects_dropped_row(sample_csv):
    lines = sample_csv.splitlines()
    del lines[7]
    assert checks.check_sample("\n".join(lines) + "\n", 11, 40) != []


def test_sample_check_rejects_sigma_squared_off_by_1e6(sample_csv):
    lines = sample_csv.splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[5] = ",".join(fields)
    assert any("off numpy" in p for p in checks.check_sample("\n".join(lines), 11, 40))


def test_decompose_check_accepts_real_report(tensor_reports):
    x, (doc, _) = tensor_reports
    assert checks.check_decompose(doc, x) == []


def test_decompose_check_rejects_non_unitary_factor(tensor_reports):
    x, (doc, _) = tensor_reports
    doc["factors"][1][0][0][0] *= 1.001
    assert any("not unitary" in p for p in checks.check_decompose(doc, x))


def test_only_a_degenerate_modes_mismatch_counts_as_the_known_fault(tensor_reports):
    x, (doc, small_doc) = tensor_reports
    small = x * inputs.SMALL_SCALE
    partner = dict(doc, degenerate_modes=[])
    small_doc["degenerate_modes"] = [1, 2, 3]
    assert checks.known_fault(checks.check_decompose(small_doc, small, partner))
    small_doc["factors"][0][0][0][0] *= 1.001
    assert not checks.known_fault(checks.check_decompose(small_doc, small, partner))
