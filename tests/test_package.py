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
