"""Byte-identity pins for the table and figure CSV output.

Each digest is the SHA-256 of the default-precision CSV that
``laserplasma figure --which <tag>`` or ``laserplasma table1`` prints.
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
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=lambda argv: argv[-1])
def test_csv_output_is_byte_identical(capsys, argv):
    assert main(list(argv)) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[argv]
