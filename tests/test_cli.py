import json

import numpy as np
import pytest

from hosvd3 import make_tensor, multilinear_transform
from hosvd3.cli import (
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    haar_random_amplitudes,
    run,
)
from conftest import amplitudes
from oracles import haar_state


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
        assert "dims must be a list of integers" in capsys.readouterr().err


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
        np.testing.assert_allclose(rebuilt.elements, amps, atol=1e-12)

    def test_general_dims_allowed(self, tmp_path, rng, capsys):
        data = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        path = write_state(tmp_path / "t.json", data / np.linalg.norm(data), dims=(3, 2, 2))
        assert run(["decompose", path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["spectra"][0]) == 3


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
        rng = np.random.Generator(np.random.Philox(5))
        amps = haar_random_amplitudes(rng)
        assert amps.shape == (2, 2, 2)
        assert np.linalg.norm(amps.ravel()) == pytest.approx(1.0, abs=1e-12)


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
        from hosvd3 import PolytopePoint, polytope_membership

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
            assert polytope_membership(PolytopePoint(r[3], r[4], r[5]), tol=1e-9).member

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
