"""Smoke test: demos 01-03 run to the end against the current library.

Demo 04 is left out because it writes demos/polytope_cloud.csv into the
source tree; the acceptance tests cover batch_sigma_squares, which it uses.
"""

import pathlib
import runpy

import numpy as np
import pytest

DEMOS = sorted(pathlib.Path(__file__).parent.parent.joinpath("demos").glob("0[1-3]_*.py"))


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    # the demos set numpy print options; restore them for the other tests
    with np.printoptions():
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
