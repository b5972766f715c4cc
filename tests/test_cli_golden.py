"""Byte-identity pins for the CLI's CSV output, and one JSON case.

Each digest is the SHA-256 of the CSV that ``laserplasma figure --which
<tag>`` or ``laserplasma table1`` prints at the default precision, or
that ``energy`` and ``sweep`` print at ``--precision 17``, which pins
every breakdown column bit for bit.  One ``energy --format json`` case
pins the single-record JSON object, whose floats print in full.  The
``oracle``, ``sweep --with-overlap`` and ``potential --with-quadrature``
cases are pinned at the default precision only: LAPACK and numpy's SIMD
exp/cos may differ in the last bits between builds.  Even so, the
``deviation`` column of oracle rows prints values of about 1e-10 to 8
digits, so it pins the eigensolver's rounding: a backward-stable solver
may move it by eps |T| ~ 7e-11 on the requested grid, the finest of the
three that the energy is fitted through, so any change of eigensolver,
of the start vector it iterates from or of the fit moves those digits.
The ``sweep --with-overlap`` case also pins the ``error_estimate`` column
that every oracle row prints, as the ``oracle`` case does.
Refactors of the sweep and CLI layers must keep these bytes unchanged; a
deliberate change of output has to update the digest and say why.
"""

import hashlib

import pytest

from laserplasma.cli import EXIT_OK, main

GOLDEN_SHA256 = {
    ("figure", "--which", "fig1a"): "2e7df2587a7bd66bbee6292b11e876867d22f658c03677e19e560019b3a84abd",
    ("figure", "--which", "fig1b"): "64ada72e09c860ab5890adef741eaa5b9bb028cfc6fe55522fc626f486d54463",
    ("figure", "--which", "fig1c"): "af02bcd6c2eaa23fbdaf22e4051b56c7edbe4f78b58d3a9c6407fb97bc8f4e7a",
    ("figure", "--which", "fig2a"): "43f815978fe18e207d357c2a53838a88d735cafaa438d9521ee15d13b91ade5d",
    ("figure", "--which", "fig2b"): "801bcdddb6dfb8a96a8e651377c55fb8c805b2bddf9a236b57a4f1483bf61652",
    ("figure", "--which", "fig2c"): "dcc85dd86b7d954069d95a779bdff42dde592042f68bf24d08a5adab2b23ef06",
    ("figure", "--which", "fig2d"): "b7740bd66071e502e025cddb76a85f9f9c28ffd7ea3161497e3f8278168f6245",
    ("table1",): "31bae30111f3419bcbe489c942731d9e6584adc269cb934c842ab3cd0643bcd9",
    ("energy", "--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.04",
     "--precision", "17"): "21c901fb12254f32564396da2542b1154a296647eed8358bc16c1fde292d53c4",
    ("energy", "--lambda-d", "5", "--alpha0", "0.01", "--field", "0.002", "--z", "2",
     "--precision", "17"): "2f0c571ccdb45deb345357a5ac65048e5b042799a691111678695f5833013e84",
    ("energy", "--lambda-d", "5", "--omega", "2", "--e0-amp", "1",
     "--precision", "17"): "6c0fa7cc99673a96930c3ab4e08b44e4caf6adfe64e3a0acf0472d6f04305cf5",
    ("energy", "--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.04",
     "--format", "json"): "6dd1940c4043655043b758efeff6d3779ac73b9248a28f4c1c7741391ff0a4e3",
    ("sweep", "--vary", "field", "--values", "0.0001,0.001,0.01,0.02,0.04",
     "--lambda-d", "20", "--alpha0", "0.001",
     "--precision", "17"): "1a9b8c9c7ae289ae1abf15891d5f1236cee6626777961f72b9f79f735718268d",
    ("oracle", "--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.01",
     "--grid-rmax", "20"): "957997e98a82234e590bbb92b716fdde8074e5f3f8fcdde96d070aa9fde0edd6",
    ("sweep", "--vary", "field", "--values", "0.0001,0.001,0.01", "--lambda-d", "100",
     "--alpha0", "1e-4", "--with-overlap",
     "--grid-rmax", "20"): "ae45ab7ade26ff74b3b6f5d7653c3f4ea29abcf9b3c3d5dbef29f279c4c97404",
    ("potential", "--lambda-d", "5", "--alpha0", "0.001", "--field", "0.01",
     "--with-quadrature"): "43c1f5005416217c1357acf2d6d9ed8b3e6adf62b397b47fe5a22840ba57cb51",
}


def _case_id(argv):
    # the figure tag or "table1"; any other case is named by its arguments,
    # less a trailing "--precision 17"
    if argv[0] in ("figure", "table1"):
        return argv[-1]
    if argv[-2:] == ("--precision", "17"):
        argv = argv[:-2]
    return "-".join(arg.lstrip("-") for arg in argv)


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=_case_id)
def test_csv_output_is_byte_identical(capsys, argv):
    assert main(list(argv)) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[argv]
