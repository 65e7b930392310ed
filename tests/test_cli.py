import dataclasses
import io
import itertools
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from hosvd3 import NumericalError, cli, make_tensor, multilinear_transform
from hosvd3.cli import (
    EXIT_INPUT,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    haar_random_amplitudes,
    run,
)
from conftest import amplitudes
from oracles import haar_state, jacobi_eigh
from test_golden import GOLDEN, fixture_state


def child_peak_kib(argv):
    """Peak RSS in KiB of a fresh interpreter that runs the CLI with argv.
    The child reads the peak of its own address space (VmHWM): ru_maxrss
    would also count the pages of the test process that forked it."""
    child = (
        "import sys\n"
        "from hosvd3.cli import run\n"
        "assert run(sys.argv[1:]) == 0\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(l.split()[1] for l in fh if l.startswith('VmHWM:')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", child, *argv],
                          env=env, capture_output=True, text=True, check=True)
    return int(done.stdout)


def write_state(path, amps, dims=(2, 2, 2), label=""):
    doc = {
        "dims": list(dims),
        "amplitudes": [[float(v.real), float(v.imag)] for v in np.asarray(amps, dtype=complex).ravel()],
        "label": label,
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    return write_state(tmp_path / "ghz.json", amplitudes(a111=1, a222=1) / np.sqrt(2), label="ghz")


@pytest.fixture
def basis_file(tmp_path):
    return write_state(tmp_path / "basis.json", amplitudes(a111=1))


class TestStateFileErrors:
    def test_short_amplitudes(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]] * 7}))
        assert run(["decompose", str(path)]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run(["decompose", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["classify", str(path)]) == EXIT_INPUT

    def test_classify_needs_three_qubits(self, tmp_path):
        path = write_state(tmp_path / "mat.json", np.ones(4) / 2.0, dims=(2, 2))
        assert run(["classify", str(path)]) == EXIT_INPUT

    def test_zero_state(self, tmp_path):
        path = write_state(tmp_path / "zero.json", np.zeros(8))
        assert run(["decompose", str(path)]) == EXIT_INPUT
        assert run(["classify", str(path)]) == EXIT_INPUT

    def test_order_zero(self, tmp_path, capsys):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({"dims": [], "amplitudes": [[1.0, 0.0]]}))
        assert run(["decompose", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: tensor order must be >= 1\n"

    def test_unwritable_output(self, tmp_path, ghz_file):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
        assert run(["decompose", ghz_file, "--output", str(missing_dir)]) == EXIT_IO

    def test_bad_count(self):
        assert run(["sample", "--count", "0"]) == EXIT_INPUT

    def test_bad_resolution(self):
        assert run(["polytope-mesh", "--resolution", "1"]) == EXIT_INPUT

    def test_negative_seed(self, capsys):
        assert run(["sample", "--seed", "-1", "--count", "1"]) == EXIT_INPUT
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims", [[2.7, 2, 2], [2.0, 2, 2], [True, 2, 2], ["2", 2, 2], 8]
    )
    def test_dims_must_be_json_integers(self, tmp_path, capsys, dims):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"dims": dims, "amplitudes": [[1.0, 0.0]] * 8}))
        assert run(["decompose", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {path}: dims must be integers, got ")

    EIGHT = b', "amplitudes": [' + b", ".join([b"[0.5, 0]"] * 8) + b"]"

    @pytest.mark.parametrize("content, message", [
        pytest.param(b'{"dims": [2, 2, 2]\xff}', "not valid JSON", id="not-utf8"),
        pytest.param(b'{"dims": [2, 2, 2], "amplitudes": ' + b"[" * 100000 + b"]" * 100000 + b"}",
                     "not valid JSON", id="nested-too-deep"),
        pytest.param(b'{"dims": [2, 2, 2], "amplitudes": [[1' + b"0" * 400 + b", 0]"
                     + b", [0, 0]" * 7 + b"]}", "amplitudes must be finite", id="huge-integer"),
        pytest.param(b'{"dims": [2, 2, 2], "amplitudes": [[1' + b"0" * 5000 + b", 0]]}",
                     "not valid JSON", id="integer-past-digit-limit"),
        pytest.param(b'{"dims": [2, 2, 2], "amplitudes": [[true, false]'
                     + b", [0, 0]" * 7 + b"]}", "not true or false", id="boolean-amplitude"),
        pytest.param(b"[[0.5, 0]]", "top level must be an object", id="not-an-object"),
        pytest.param(b'{"dims": [2, 2, 2]}', "need 'dims' and 'amplitudes'", id="no-amplitudes"),
        pytest.param(b'{"amplitudes": [[1, 0]]}', "need 'dims' and 'amplitudes'", id="no-dims"),
        pytest.param(b'{"dims": [2, 0, 2]' + EIGHT + b"}", "dims must be positive",
                     id="zero-dim"),
        pytest.param(b'{"dims": [2, 2, 2], "amplitudes": [[0.5, 0, 0]]}', "[re, im] pairs",
                     id="triples"),
        pytest.param(b'{"dims": [2, 2, 2], "amplitudes": [0.5, 0.5]}', "[re, im] pairs",
                     id="bare-numbers"),
        pytest.param(b'{"dims": [2, 2, 2], "amplitudes": [[NaN, 0]' + b", [0, 0]" * 7 + b"]}",
                     "amplitudes must be finite", id="nan"),
        pytest.param(b'{"dims": [2, 2, 2]' + EIGHT + b', "label": 7}',
                     "label must be a string", id="label-not-string"),
        # the tensor rules, which make_tensor raises and the reader names
        # the file for, and classify's own dims rule
        pytest.param(b'{"dims": [], "amplitudes": [[1, 0]]}', "tensor order must be >= 1",
                     id="order-zero"),
        pytest.param(b'{"dims": [' + b", ".join([b"1"] * 64) + b'], "amplitudes": [[1, 0]]}',
                     "tensor order must be at most 63, got 64", id="order-64"),
        pytest.param(b'{"dims": [2, 2, 2], "amplitudes": [[0.5, 0]]}',
                     "got 1 elements for dims (2, 2, 2) (expected 8)", id="wrong-count"),
        pytest.param(b'{"dims": [2, 2, 3], "amplitudes": [' + b", ".join([b"[0.5, 0]"] * 12)
                     + b"]}", "classify needs dims [2, 2, 2], got [2, 2, 3]", id="2x2x3"),
    ])
    def test_malformed_state_file(self, tmp_path, capsys, content, message):
        # every state-file error is one line that names the file
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run(["classify", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert str(path) in err and err.count("\n") == 1


def unconverged_eigh(monkeypatch, fails=lambda m: True):
    """Make LAPACK's eigh raise LinAlgError on a stack holding a matrix for
    which `fails` is true; returns the list of the stack shapes it is given."""
    real, calls = np.linalg.eigh, []

    def eigh(a):
        calls.append(a.shape)
        if any(fails(m) for m in a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


class TestNumericalFailure:
    @pytest.mark.parametrize("command", ["decompose"])
    def test_unconverged_eigensolver_exits_3(self, tmp_path, monkeypatch, capsys, command):
        rng = np.random.Generator(np.random.Philox(22))
        x = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        state = write_state(tmp_path / "x.json", x, dims=x.shape)
        calls = unconverged_eigh(monkeypatch)
        assert run([command, state]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical error (mode 1): eigensolver failed in mode 1: "
                                "Eigenvalues did not converge\n")
        assert calls == [(1, 3, 3), (1, 3, 3)]  # the stack of mode 1, then mode 1 alone

    @pytest.mark.parametrize("argv", [["classify"], ["decompose"], ["sample", "--count", "50"]],
                             ids=lambda argv: argv[0])
    def test_two_by_two_never_reaches_eigh(self, ghz_file, monkeypatch, capsys, argv):
        # classify, sample and a 2x2x2 decompose solve their 2x2 Grams in closed form
        if argv[0] != "sample":
            argv = [*argv, ghz_file]
        assert run(argv) == EXIT_OK
        want = capsys.readouterr()
        calls = unconverged_eigh(monkeypatch)
        assert run(argv) == EXIT_OK
        assert capsys.readouterr() == want
        assert calls == []

    @pytest.mark.parametrize("sweeps, mode", [(1, 2), (2, 2), (3, 2), (5, 3)])
    def test_lowest_failing_mode_is_reported(self, tmp_path, monkeypatch, capsys, sweeps, mode):
        # an eigh that fails where the reference Jacobi needs more sweeps
        # than allowed: here 1 for mode 1, 5 for mode 2 and 7 for mode 3.
        # X[i,a,k] = A[i,a] H[i,k] with the rows of H orthonormal: the mode-1
        # Gram is diagonal and converges in one sweep, modes 1 and 3 are
        # solved as one 16x16 stack, before mode 2 (3x3) as a stack of one.
        # After a failure each mode is solved alone, so mode 3 failing in
        # the stack with mode 1 names 3, and modes 2 and 3 failing name 2.
        h = np.array([[1.0]])
        for _ in range(4):
            h = np.block([[h, h], [h, -h]])
        rng = np.random.Generator(np.random.Philox(21))
        a = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        x = a[:, :, None] * h[:, None, :] / 4
        state = write_state(tmp_path / "x.json", x, dims=x.shape)
        unconverged_eigh(monkeypatch, lambda m: jacobi_eigh(m, max_sweeps=sweeps)[2] > sweeps)
        assert run(["decompose", state]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"numerical error (mode {mode}): ")

    def test_stack_fails_but_every_mode_alone_solves(self, tmp_path, monkeypatch, capsys):
        # modes 1 and 2 of a 3x3x2 tensor are one stack of two 3x3 Grams;
        # solved again one at a time, neither fails, so no mode is named
        rng = np.random.Generator(np.random.Philox(23))
        x = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
        state = write_state(tmp_path / "x.json", x, dims=x.shape)
        # fails while the stack it is given (the last call) holds two matrices
        calls = unconverged_eigh(monkeypatch, lambda m: calls[-1][0] > 1)
        assert run(["decompose", state]) == EXIT_NUMERICAL
        assert capsys.readouterr() == (
            "", "numerical error: eigensolver failed: Eigenvalues did not converge\n")
        assert calls == [(2, 3, 3), (1, 3, 3), (1, 3, 3)]

    def test_sample_failing_part_way(self, tmp_path, monkeypatch, capsys):
        # chunks of two states, and the batch stage fails on the second one
        monkeypatch.setattr(cli, "_SAMPLE_CHUNK", 2)
        argv = ["sample", "--count", "5", "--seed", "7"]
        assert run(argv) == EXIT_OK
        first_rows = capsys.readouterr().out.splitlines(keepends=True)[:4]
        real = cli.classify_batch

        def classify_batch(amps, **kwargs):
            if next(calls) == 1:
                raise NumericalError("injected failure", mode=2)
            return real(amps, **kwargs)

        monkeypatch.setattr(cli, "classify_batch", classify_batch)
        out = tmp_path / "samples.csv"
        out.write_text("previous samples\n")
        before = sorted(tmp_path.iterdir())
        calls = itertools.count()
        assert run([*argv, "--output", str(out)]) == EXIT_NUMERICAL
        assert out.read_bytes() == b"previous samples\n"
        assert sorted(tmp_path.iterdir()) == before
        assert capsys.readouterr() == ("", "numerical error (mode 2): injected failure\n")
        calls = itertools.count()
        assert run(argv) == EXIT_NUMERICAL
        assert capsys.readouterr() == ("".join(first_rows),
                                       "numerical error (mode 2): injected failure\n")


class TestDecompose:
    def test_ghz_spectra(self, ghz_file, capsys):
        assert run(["decompose", ghz_file]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for spec in doc["spectra"]:
            np.testing.assert_allclose(spec, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert doc["label"] == "ghz"
        assert doc["degenerate_modes"] == [1, 2, 3]

    def test_basis_state(self, basis_file, capsys):
        assert run(["decompose", basis_file]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        core = [complex(re, im) for re, im in doc["core"]]
        np.testing.assert_allclose(core, np.eye(8)[0], atol=1e-15)
        assert doc["residuals"]["reconstruction"] < 1e-14
        assert doc["residuals"]["all_orthogonality"] < 1e-14

    def test_document_round_trip(self, tmp_path, rng, capsys):
        amps = haar_state(rng)
        path = write_state(tmp_path / "random.json", amps)
        assert run(["decompose", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        core = make_tensor(doc["dims"], [complex(re, im) for re, im in doc["core"]])
        factors = [
            np.array([[complex(re, im) for re, im in row] for row in mat])
            for mat in doc["factors"]
        ]
        rebuilt = multilinear_transform(core, factors)
        np.testing.assert_allclose(rebuilt.data.ravel(), amps, atol=1e-12)

    def test_general_dims_allowed(self, tmp_path, rng, capsys):
        data = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        path = write_state(tmp_path / "t.json", data / np.linalg.norm(data), dims=(3, 2, 2))
        assert run(["decompose", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["spectra"][0]) == 3

    def test_residual_past_the_float_range_is_quiet(self, tmp_path, rng, capsys):
        # the all-orthogonality residual of a 3x4 Gaussian at 1e300 exceeds
        # the float range; it reads inf, and no overflow warning reaches stderr
        data = 1e300 * (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        path = write_state(tmp_path / "big.json", data, dims=data.shape)
        assert run(["decompose", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["residuals"]["all_orthogonality"] == math.inf

    def test_core_past_the_float_range_is_an_input_error(self, tmp_path, capsys):
        # the core's one nonzero entry, about 4e308, read Infinity in the
        # report, with overflow warnings from the scale-back
        path = write_state(tmp_path / "big.json", np.full(8, 1e308 + 1e308j))
        assert run(["decompose", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "float range" in captured.err

    @pytest.mark.parametrize("order", [64, 65])
    def test_order_past_63_is_an_input_error(self, tmp_path, capsys, order):
        # order 64 raised numpy's IndexError, order 65 its ValueError
        path = write_state(tmp_path / "long.json", [1.0], dims=[1] * order)
        assert run(["decompose", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: tensor order must be at most 63, got {order}\n"


class TestClassify:
    def test_ghz_document(self, ghz_file, capsys):
        assert run(["classify", ghz_file]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "case1"
        assert doc["special"] == "ghz"
        np.testing.assert_allclose(doc["sigma"], [0.5, 0.5, 0.5], atol=1e-12)
        assert doc["polytope"]["member"] is True

    def test_w_document(self, tmp_path, capsys):
        path = write_state(tmp_path / "w.json", amplitudes(a112=1, a121=1, a211=1) / np.sqrt(3))
        assert run(["classify", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "case1"
        assert doc["special"] == "none"
        np.testing.assert_allclose(doc["sigma"], [2 / 3] * 3, atol=1e-11)

    def test_biseparable_document(self, tmp_path, capsys):
        path = write_state(tmp_path / "bi.json", amplitudes(a111=1, a221=1) / np.sqrt(2))
        assert run(["classify", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["separability"] == "biseparable_C_AB"

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_extreme_scales_classify_like_unit_scale(self, tmp_path, capsys, scale):
        unit = write_state(tmp_path / "unit.json", np.ones(8))
        scaled = write_state(tmp_path / "scaled.json", scale * np.ones(8))
        assert run(["classify", unit]) == EXIT_OK
        want = json.loads(capsys.readouterr().out)["sigma"]
        assert run(["classify", scaled]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["sigma"] == want

    def test_unnormalized_input_renormalized(self, tmp_path, capsys):
        path = write_state(tmp_path / "u.json", amplitudes(a111=3, a222=3))
        assert run(["classify", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["sigma"], [0.5, 0.5, 0.5], atol=1e-12)

    def test_clamped_reporting(self, ghz_file, capsys, monkeypatch):
        # "clamped" clips sigma to [1/2, 1]; "point" keeps the raw values
        raw = (1.0 + 5e-16, 0.5 - 5e-16, 0.75)
        real = cli.classify
        monkeypatch.setattr(cli, "classify", lambda *args, **kwargs: dataclasses.replace(
            real(*args, **kwargs), sigma_triple=raw))
        assert run(["classify", ghz_file]) == EXIT_OK
        polytope = json.loads(capsys.readouterr().out)["polytope"]
        assert polytope["clamped"] == [1.0, 0.5, 0.75]
        assert polytope["point"] == list(raw)


class TestTolerances:
    def test_flag_beats_env(self, ghz_file, capsys):
        assert run(["classify", ghz_file, "--tol", "1e-7"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-7

    def test_default(self, ghz_file, capsys):
        assert run(["classify", ghz_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-10

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_value_rejected(self, ghz_file, capsys, value):
        for argv in (
            ["decompose", ghz_file, "--tol"],
            ["classify", ghz_file, "--tol"],
            ["classify", ghz_file, "--sigma-tol"],
            ["sample", "--count", "1", "--tol"],
            ["sample", "--count", "1", "--sigma-tol"],
        ):
            assert run([*argv, value]) == EXIT_INPUT
            assert f"{argv[-1]} must be finite and >= 0" in capsys.readouterr().err

    def test_zero_tol_classifies(self, tmp_path, rng, capsys):
        # classify decides at tol but does not hold its own core to it
        path = write_state(tmp_path / "g.json", haar_state(rng))
        assert run(["classify", path, "--tol", "0"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["tol"] == 0.0
        assert doc["separability"] == "genuine"

    def test_zero_tol_samples(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sample", "--tol", "0", "--count", "3", "--seed", "7", "--output", str(out)]
        assert run(argv) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].endswith(" tol=0.0 sigma_tol=1e-08")
        assert len(lines) == 6 and lines[-1] == "# polytope_violations=0"

    def test_sample_header_records_the_tolerances(self, capsys):
        # the header must name the run's parameters exactly, not rounded
        argv = ["sample", "--count", "1", "--tol", "1.23456789e-9", "--sigma-tol", "3.3333333333e-8"]
        assert run(argv) == EXIT_OK
        fields = dict(f.split("=") for f in capsys.readouterr().out.splitlines()[0].split()[1:])
        assert float(fields["tol"]) == 1.23456789e-9
        assert float(fields["sigma_tol"]) == 3.3333333333e-8

    def test_mesh_takes_no_tol(self):
        with pytest.raises(SystemExit) as exc:
            run(["polytope-mesh", "--tol", "1e-10"])
        assert exc.value.code == EXIT_INPUT


class TestSample:
    def test_single_record_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["sample", "--count", "1", "--seed", "7", "--output", str(out1)]) == EXIT_OK
        assert run(["sample", "--count", "1", "--seed", "7", "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_violations_are_the_membership_rule(self, tmp_path, monkeypatch):
        # sample counts the rows that qubit3's one membership rule rejects
        def reject_every_row(s1, s2, s3, tol):
            member, residuals = polytope_rule(s1, s2, s3, tol)
            return np.zeros_like(member), residuals

        polytope_rule = cli._polytope
        monkeypatch.setattr(cli, "_polytope", reject_every_row)
        out = tmp_path / "s.csv"
        assert run(["sample", "--count", "5", "--seed", "7", "--output", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[-1] == "# polytope_violations=5"

    def test_csv_layout_and_membership(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sample", "--count", "40", "--seed", "3", "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generator=philox4x64 seed=3 count=40")
        assert lines[1] == "id,s1,s2,s3,separability,case,special"
        assert lines[-1] == "# polytope_violations=0"
        rows = [ln.split(",") for ln in lines[2:-1]]
        assert [r[0] for r in rows] == [str(i) for i in range(40)]
        for r in rows:
            s1, s2, s3 = float(r[1]), float(r[2]), float(r[3])
            for v in (s1, s2, s3):
                assert 0.5 - 1e-10 <= v <= 1 + 1e-10
            assert s1 + s2 - s3 <= 1 + 1e-10
            assert s1 + s3 - s2 <= 1 + 1e-10
            assert s2 + s3 - s1 <= 1 + 1e-10
            assert r[4] in ("fully_separable", "biseparable_A_BC", "biseparable_B_CA",
                            "biseparable_C_AB", "genuine")
            assert r[5] in ("case1", "case2_12", "case2_13", "case2_23", "case3")
            assert r[6] in ("ghz", "s1", "s2", "s3", "b1", "b2", "none")

    def test_different_seeds_differ(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sample", "--count", "5", "--seed", "1", "--output", str(out1)])
        run(["sample", "--count", "5", "--seed", "2", "--output", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_generator_is_gaussian_normalized(self):
        amps = haar_random_amplitudes(np.random.Generator(np.random.Philox(5)), 3)
        assert amps.shape == (3, 2, 2, 2)
        # per state, the 8 real parts and then the 8 imaginary parts
        rng = np.random.Generator(np.random.Philox(5))
        for state in amps:
            z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            np.testing.assert_array_equal(state.ravel(), z / np.linalg.norm(z))
            assert np.linalg.norm(state.ravel()) == pytest.approx(1.0, abs=1e-12)

    def test_haar_induced_measure(self, tmp_path):
        # The largest eigenvalue s of one qubit's reduced density matrix of a
        # Haar-random three-qubit state has density proportional to
        # (2s - 1)^2 s^2 (1 - s)^2 on [1/2, 1] (the induced measure of a 2x4
        # bipartition).  Each sigma column must pass a Kolmogorov-Smirnov
        # test against it at the 0.1% level (critical distance 1.95/sqrt(n)).
        count = 20000
        out = tmp_path / "s.csv"
        assert run(["sample", "--count", str(count), "--seed", "2027",
                    "--output", str(out)]) == EXIT_OK
        sigma = np.loadtxt(out, delimiter=",", skiprows=2, usecols=(1, 2, 3))
        x = np.polynomial.Polynomial([0.0, 1.0])
        integral = ((2 * x - 1) ** 2 * x**2 * (1 - x) ** 2).integ()
        for column in sigma.T:
            cdf = (integral(np.sort(column)) - integral(0.5)) / (integral(1.0) - integral(0.5))
            steps = np.arange(count + 1) / count
            distance = max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
            assert distance < 1.95 / math.sqrt(count), distance

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_memory_flat_in_count(self, tmp_path):
        peak_kib = {count: child_peak_kib(["sample", "--count", str(count), "--seed", "7",
                                           "--output", str(tmp_path / f"s{count}.csv")])
                    for count in (2000, 20000)}
        assert peak_kib[20000] - peak_kib[2000] <= 2 * 1024, peak_kib

    def test_rows_do_not_depend_on_chunks(self, tmp_path, monkeypatch):
        # a run that ends inside the first chunk is a prefix of one that
        # crosses into the second, and chunks of 7 give the same bytes
        chunk = cli._SAMPLE_CHUNK
        runs = {"short": (chunk - 3, chunk), "long": (chunk + 5, chunk), "small": (chunk + 5, 7)}
        rows = {}
        for name, (count, size) in runs.items():
            monkeypatch.setattr(cli, "_SAMPLE_CHUNK", size)
            out = tmp_path / f"{name}.csv"
            assert run(["sample", "--count", str(count), "--seed", "7",
                        "--output", str(out)]) == EXIT_OK
            rows[name] = "".join(out.read_text().splitlines(keepends=True)[2:-1])
        assert rows["long"].startswith(rows["short"])
        assert len(rows["long"]) > len(rows["short"])
        assert rows["small"] == rows["long"]


class TestPolytopeMesh:
    def parse(self, text):
        rows = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("section"):
                continue
            section, element, vertex, s1, s2, s3 = line.split(",")
            rows.append((section, int(element), int(vertex), float(s1), float(s2), float(s3)))
        return rows

    def test_resolution_two_diagonal(self, tmp_path):
        out = tmp_path / "mesh.csv"
        assert run(["polytope-mesh", "--resolution", "2", "--output", str(out)]) == EXIT_OK
        rows = self.parse(out.read_text())
        diag = [r for r in rows if r[0] == "diagonal"]
        assert [(r[3], r[4], r[5]) for r in diag] == [(0.5, 0.5, 0.5), (1.0, 1.0, 1.0)]

    def test_facet_contains_expected_vertices(self, tmp_path):
        out = tmp_path / "mesh.csv"
        run(["polytope-mesh", "--resolution", "2", "--output", str(out)])
        rows = self.parse(out.read_text())
        facet = {(r[3], r[4], r[5]) for r in rows if r[0] == "facet_s1+s2-s3"}
        assert (1.0, 1.0, 1.0) in facet
        assert (0.5, 1.0, 0.5) in facet
        assert (1.0, 0.5, 0.5) in facet

    def test_all_vertices_are_members(self, tmp_path):
        from hosvd3 import polytope_membership

        out = tmp_path / "mesh.csv"
        assert run(["polytope-mesh", "--resolution", "9", "--output", str(out)]) == EXIT_OK
        rows = self.parse(out.read_text())
        assert len(rows) > 100
        sections = {r[0] for r in rows}
        assert sections == {
            "diagonal", "axis_1", "axis_2", "axis_3",
            "bisep_A_BC", "bisep_B_CA", "bisep_C_AB",
            "slice_1", "slice_2", "slice_3",
            "facet_s1+s2-s3", "facet_s1+s3-s2", "facet_s2+s3-s1",
        }
        for r in rows:
            assert polytope_membership((r[3], r[4], r[5]), tol=1e-9).member

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_memory_flat_in_resolution(self, tmp_path):
        peak_kib = {res: child_peak_kib(["polytope-mesh", "--resolution", str(res),
                                         "--output", str(tmp_path / f"mesh{res}.csv")])
                    for res in (10, 150)}
        assert peak_kib[150] - peak_kib[10] <= 2 * 1024, peak_kib

    def test_facet_points_on_plane(self, tmp_path):
        out = tmp_path / "mesh.csv"
        run(["polytope-mesh", "--resolution", "5", "--output", str(out)])
        for section, _, _, s1, s2, s3 in self.parse(out.read_text()):
            if section == "facet_s1+s2-s3":
                assert s1 + s2 - s3 == pytest.approx(1.0, abs=1e-9)
            elif section == "facet_s1+s3-s2":
                assert s1 + s3 - s2 == pytest.approx(1.0, abs=1e-9)
            elif section == "facet_s2+s3-s1":
                assert s2 + s3 - s1 == pytest.approx(1.0, abs=1e-9)


class TestDeterminism:
    def test_decompose_byte_identical(self, tmp_path, ghz_file):
        out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
        run(["decompose", ghz_file, "--output", str(out1)])
        run(["decompose", ghz_file, "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_classify_byte_identical(self, tmp_path, rng):
        path = write_state(tmp_path / "r.json", haar_state(rng))
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run(["classify", path, "--output", str(out1)])
        run(["classify", path, "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_mesh_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        run(["polytope-mesh", "--resolution", "6", "--output", str(out1)])
        run(["polytope-mesh", "--resolution", "6", "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


def json_oracle(doc):
    """doc as json.dumps(indent=2) writes it once each complex array is
    turned into nested [re, im] pairs of Python floats."""
    def plain(obj):
        if isinstance(obj, np.ndarray):
            return np.stack((obj.real, obj.imag), axis=-1).tolist()
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        return obj

    return json.dumps(plain(doc), indent=2)


def _layout(arr, kind):
    if kind == "F":
        return np.asfortranarray(arr)
    if kind == "strided":
        return np.stack((arr, -arr), axis=-1)[..., 0]
    return np.ascontiguousarray(arr)


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e308, math.inf, -math.inf, math.nan]),
    st.floats().map(np.float64),
)
COMPLEX_ARRAYS = st.builds(
    _layout,
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=3),
               elements=st.complex_numbers()),
    st.sampled_from(["C", "F", "strided"]),
)
JSON_VALUES = st.recursive(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none(), FLOATS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=24,
)
# a report is a flat dict: each value is JSON, a complex array, or a tuple of
# arrays (decompose's factors)
REPORTS = st.dictionaries(
    st.text(),
    st.one_of(JSON_VALUES, COMPLEX_ARRAYS,
              st.lists(COMPLEX_ARRAYS, min_size=1, max_size=3).map(tuple)),
    min_size=1, max_size=6,
)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(REPORTS)
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json_oracle(doc)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(4096,), (32, 32), (16, 16, 16), (3, 4, 5, 6)])
    def test_report_sizes(self, rng, shape, layout):
        # the strategy above draws sides of at most 3; decompose writes cores
        # of thousands of entries and factors of 32 rows
        values = _layout(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), layout)
        doc = {"core": values, "factors": (values, values.T)}
        assert cli._json_text(doc) == json_oracle(doc)

    def test_non_finite_and_extremes_in_a_large_array(self, rng):
        values = rng.standard_normal((16, 16, 16)) + 1j * rng.standard_normal((16, 16, 16))
        flat = values.reshape(-1).view(np.float64)
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]
        for k, at in enumerate(rng.choice(flat.size, 60, replace=False)):
            flat[at] = specials[k % len(specials)]
        doc = {"core": values, "factors": (values[3], values[:, 5].T)}
        text = cli._json_text(doc)
        assert text == json_oracle(doc)
        assert all(word in text for word in ("NaN", "-Infinity", "-0.0", "5e-324", "1e+16"))

    @pytest.mark.parametrize("value", [
        object(), 1j, np.int64(1), np.bool_(True), np.array([1.0]), np.array(1 + 2j),
    ])
    def test_rejects_what_it_cannot_write(self, value):
        with pytest.raises(TypeError):
            cli._json_text({"x": [value]})


class TestRunKeepsNoState:
    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        state = write_state(tmp_path / "ghz_86.json", fixture_state(dict(a111=0.8, a222=0.6)).data,
                            label="ghz_86")
        out = tmp_path / "out.json"
        for command in ("classify", "decompose"):
            golden = (GOLDEN / f"{command}_ghz_86.json").read_bytes()
            assert run([command, state, "--tol", "1e-7", "--output", str(out)]) == EXIT_OK
            assert json.loads(out.read_text())["tol"] == 1e-7
            assert capsys.readouterr().out == ""
            assert run([command, state]) == EXIT_OK
            assert capsys.readouterr().out.encode() == golden
            assert run([command, state, "--output", str(out)]) == EXIT_OK
            assert out.read_bytes() == golden
            assert run([command, state]) == EXIT_OK
            assert capsys.readouterr().out.encode() == golden


class TestAtomicOutput:
    @pytest.mark.parametrize("step", ["open", "fchmod", "replace"])
    def test_failed_write_leaves_output_alone(self, tmp_path, ghz_file, monkeypatch, capsys, step):
        out = tmp_path / "out.json"
        out.write_text("previous report")
        before = sorted(tmp_path.iterdir())

        def fail(*args, **kwargs):
            raise OSError("injected failure")

        monkeypatch.setattr(cli.os, step, fail)
        assert run(["decompose", ghz_file, "--output", str(out)]) == EXIT_IO
        assert "injected failure" in capsys.readouterr().err
        assert out.read_text() == "previous report"
        assert sorted(tmp_path.iterdir()) == before

    def test_directory_target_leaves_no_temp_file(self, tmp_path, ghz_file):
        target = tmp_path / "taken"
        (target / "inside").mkdir(parents=True)
        before = sorted(tmp_path.iterdir())
        assert run(["decompose", ghz_file, "--output", str(target)]) == EXIT_IO
        assert sorted(tmp_path.iterdir()) == before

    def test_device_is_written_not_replaced(self, ghz_file):
        assert run(["decompose", ghz_file, "--output", os.devnull]) == EXIT_OK
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_mode_matches_open(self, tmp_path, ghz_file):
        kept = tmp_path / "kept.json"
        kept.write_text("previous report")
        kept.chmod(0o604)
        old = os.umask(0o027)
        try:
            for name in ("new.json", "kept.json"):
                assert run(["decompose", ghz_file, "--output", str(tmp_path / name)]) == EXIT_OK
            with open(tmp_path / "by_open.json", "w"):
                pass
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("new.json", "by_open.json", "kept.json")]
        assert modes == [0o640, 0o640, 0o604]

    def test_umask_is_left_alone(self, tmp_path, ghz_file, monkeypatch):
        # run() is called in-process, and setting the umask even to read it
        # gives a file that another thread creates meanwhile the wrong mode
        (tmp_path / "kept.json").write_text("previous report")
        (tmp_path / "linked.json").write_text("previous report")
        (tmp_path / "link.json").symlink_to(tmp_path / "linked.json")

        def fail(*args, **kwargs):
            raise OSError("umask set")

        monkeypatch.setattr(cli.os, "umask", fail)
        for name in ("new.json", "kept.json", "link.json"):
            assert run(["decompose", ghz_file, "--output", str(tmp_path / name)]) == EXIT_OK
            assert json.loads((tmp_path / name).read_text())["command"] == "decompose"
        assert (tmp_path / "link.json").is_symlink()

    def test_symlink_keeps_its_link(self, tmp_path, ghz_file):
        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "report.json"
        real.write_text("previous report")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        assert run(["decompose", ghz_file, "--output", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert json.loads(real.read_text())["command"] == "decompose"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ghz.json", "link.json", "real"]
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["report.json"]

    @pytest.mark.parametrize("links, output, existing", [
        pytest.param({"link.json": "/real/report.json"}, "link.json", False, id="dangling"),
        pytest.param({"a.json": "/b.json", "b.json": "/real/report.json"}, "a.json", True,
                     id="chain"),
        pytest.param({"link.json": "real/report.json"}, "link.json", True, id="relative"),
        pytest.param({"dir": "/real"}, "dir/report.json", True, id="parent"),
    ])
    def test_symlinked_output_lands_at_its_target(self, tmp_path, ghz_file, links, output,
                                                  existing):
        # a target with a leading / is under tmp_path, any other relative to its link
        (tmp_path / "real").mkdir()
        report = tmp_path / "real" / "report.json"
        if existing:
            report.write_text("previous report")
        for name, target in links.items():
            (tmp_path / name).symlink_to(tmp_path / target[1:] if target[0] == "/" else target)
        before = {name: os.readlink(tmp_path / name) for name in links}
        assert run(["decompose", ghz_file, "--output", str(tmp_path / output)]) == EXIT_OK
        assert {name: os.readlink(tmp_path / name) for name in links} == before
        assert json.loads(report.read_text())["command"] == "decompose"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["ghz.json", "real", *links])
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["report.json"]

    def test_symlink_to_a_device_is_written_in_place(self, tmp_path, ghz_file):
        link = tmp_path / "null.json"
        link.symlink_to(os.devnull)
        assert run(["decompose", ghz_file, "--output", str(link)]) == EXIT_OK
        assert os.readlink(link) == os.devnull
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ghz.json", "null.json"]


# amplitude parts from the smallest subnormal to 1.7e308, of both signs:
# the exponent uniform part by part, or one exponent for the whole file
PARTS = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.7e308, -1.7e308]),
)
BAD_PARTS = st.sampled_from([math.nan, math.inf, -math.inf, True, False, "1.0", None, [1.0]])
BAD_DIMS = st.sampled_from([0, -1, True, 1.5, "2", None])
TOLS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-10, 1e-8, 1.7e308]), st.floats(0.0, 1.0),
                 st.floats(0.0), st.floats())
NO_LABEL = object()


@st.composite
def state_documents(draw):
    """A state file's document: orders 1-64 of small size (dims [2, 2, 2]
    half the time), amplitudes from 5e-324 to 1.7e308, and now and then a
    bad dim, a bad amplitude token, a wrong count or a label that is not a
    string."""
    if draw(st.booleans()):
        dims = [2, 2, 2]
    else:
        dims = [1] * draw(st.integers(1, 64))
        for at in draw(st.lists(st.integers(0, len(dims) - 1), max_size=3)):
            dims[at] = draw(st.integers(2, 3))
    size = math.prod(dims)
    if draw(st.integers(0, 15)) == 0:
        dims[draw(st.integers(0, len(dims) - 1))] = draw(BAD_DIMS)
    if draw(st.integers(0, 15)) == 0:
        size = draw(st.integers(0, size + 1))
    scale = draw(st.one_of(st.none(), st.integers(-1074, 1023)))
    if scale is None:
        parts = draw(st.lists(PARTS, min_size=2 * size, max_size=2 * size))
    else:
        parts = [math.ldexp(p, scale) for p in draw(
            st.lists(st.floats(-1.99, 1.99), min_size=2 * size, max_size=2 * size))]
    if parts and draw(st.integers(0, 7)) == 0:
        parts[draw(st.integers(0, len(parts) - 1))] = draw(BAD_PARTS)
    doc = {"dims": dims, "amplitudes": [parts[i:i + 2] for i in range(0, len(parts), 2)]}
    label = draw(st.one_of(st.just(NO_LABEL), st.text(max_size=6)))
    if draw(st.integers(0, 15)) == 0:
        label = draw(st.one_of(st.none(), st.integers()))
    if label is not NO_LABEL:
        doc["label"] = label
    return doc


def non_finite_floats(obj, path=()):
    """(path, value) of each NaN and infinite float in a parsed JSON document."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [(path, obj)]
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [f for key, value in items for f in non_finite_floats(value, path + (key,))]
    return []


class TestInputContract:
    """Every state file either gives a report or fails at the boundary: exit
    0, 2 or 3, one line on stderr on failure and none on success, no
    warning, no NaN in a report, and no Infinity outside its residuals (the
    all-orthogonality residual is absolute, and may exceed the float range)."""

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = run(argv)
        lines = err.getvalue().splitlines()
        if code == EXIT_OK:
            assert lines == []
            bad = non_finite_floats(json.loads(out.getvalue()))
            assert all(path[0] == "residuals" and value == math.inf for path, value in bad), bad
        else:
            assert code in (EXIT_INPUT, EXIT_NUMERICAL)
            assert out.getvalue() == ""
            assert len(lines) == 1, lines
            assert lines[0].startswith(("error: ", "numerical error")), lines

    @settings(max_examples=150, deadline=None)
    @given(doc=state_documents(), tol=TOLS, sigma_tol=TOLS)
    def test_every_state_file_meets_the_contract(self, doc, tol, sigma_tol):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.check(["decompose", path, f"--tol={tol!r}"])
            if doc["dims"] == [2, 2, 2]:
                self.check(["classify", path, f"--tol={tol!r}", f"--sigma-tol={sigma_tol!r}"])
