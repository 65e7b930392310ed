"""Smoke test: every demo runs to the end against the current library.

Demo 04 writes polytope_cloud.csv next to its own file, so it runs from a
copy under tmp_path; runpy sets __file__ to the copy, and demos/ stays
untouched.
"""

import pathlib
import runpy
import shutil

import numpy as np
import pytest

DEMO_DIR = pathlib.Path(__file__).parent.parent.joinpath("demos")
DEMOS = sorted(DEMO_DIR.glob("0[1-3]_*.py"))


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    # the demos set numpy print options; restore them for the other tests
    with np.printoptions():
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_polytope_sampling_demo_writes_beside_its_copy(tmp_path, capsys):
    copy = tmp_path / "04_polytope_sampling.py"
    shutil.copy(DEMO_DIR / copy.name, copy)
    with np.printoptions():
        runpy.run_path(str(copy), run_name="__main__")
    assert "violations: 0" in capsys.readouterr().out
    lines = (tmp_path / "polytope_cloud.csv").read_text().splitlines()
    assert lines[0] == "s1,s2,s3"
    assert len(lines) == 1 + 20_000
