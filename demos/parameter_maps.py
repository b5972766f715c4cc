#!/usr/bin/env python3
"""Sweeps and figure datasets written out as CSV for plotting elsewhere.

Produces the datasets behind the energy-landscape figures plus one custom
sweep with eigensolver columns, under demos/output/.  Every file is written
by the command-line front end, so each one carries the CLI's ``#`` header
with the full parameter set.
"""

import pathlib

from laserplasma.cli import EXIT_OK, main
from laserplasma.sweep import FIGURE_TAGS

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)


def write(name, argv):
    path = OUT / f"{name}.csv"
    if main([*argv, "--output", str(path)]) != EXIT_OK:
        raise SystemExit(f"failed to write {path}")
    print(f"wrote {path}")


for tag in FIGURE_TAGS:
    write(tag, ["figure", "--which", tag])

# custom sweep: screening dependence with the eigensolver riding along
write("screening_sweep", [
    "sweep", "--vary", "lambda-d", "--values", "5,10,20,40,80",
    "--alpha0", "0.0001", "--field", "0.01",
    "--with-overlap", "--grid-rmax", "20",
])
print("Plot any of these with your tool of choice; every file is self-describing.")
