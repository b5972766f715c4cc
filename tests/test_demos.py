"""The demos run to completion against the current API.

Each demo is executed in-process as ``__main__`` with its stdout
captured.  ``parameter_maps.py`` is left out because it writes files
into ``demos/output/``.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["energy_ladder.py", "potential_tour.py", "solver_crosscheck.py"])
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
