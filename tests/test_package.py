import json
import os
import subprocess
import sys
from pathlib import Path

import laserplasma
from laserplasma import oracle, perturbation, potential, sweep

LAYERS = (potential, perturbation, oracle, sweep)


def test_package_exports_every_layer_name():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert laserplasma.__all__ == [*names, "__version__"]
    assert len(set(laserplasma.__all__)) == len(laserplasma.__all__)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(laserplasma, name) is getattr(layer, name), name


def test_oracle_errors_import_from_the_package():
    from laserplasma import ConvergenceError, GroundStateError

    assert ConvergenceError is oracle.ConvergenceError
    assert GroundStateError is oracle.GroundStateError


# Run by a fresh interpreter: evaluate every potential and wavefunction at a
# float radius, then print which of numpy and scipy got imported.
_FLOAT_PROBE = """
import sys
from laserplasma import (ModelParams, dressed_pair_eval, ecsc_eval, taylor_coefficients,
                         total_energy, v0_quadrature, veff_series_eval, wavefunction_eval,
                         zeroth_order)
p = ModelParams(lambda_d=5.0, alpha0=1e-3, field=0.01)
values = [ecsc_eval(1.0, p), dressed_pair_eval(1.0, p), v0_quadrature(1.0, p),
          veff_series_eval(1.0, taylor_coefficients(p)), wavefunction_eval(1.0, p),
          zeroth_order(p)[1](1.0), total_energy(p).total]
assert all(type(value) is float for value in values), values
print("loaded:", *sorted({"numpy", "scipy"} & set(sys.modules)))
"""


def test_a_float_radius_loads_no_numpy():
    # the evaluators take exp and cos from math for a float; only an array
    # of radii imports numpy
    env = dict(os.environ)
    src = str(Path(laserplasma.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _FLOAT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1:] == ["loaded:"], proc.stderr


def test_every_benchmark_record_names_its_commits_machine_and_commands():
    records = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        missing = {"what", "parent", "change", "machine", "commands"} - set(record)
        assert not missing, f"{path.name} lacks {sorted(missing)}"
