"""The benchmark's workloads: seeded inputs, one timed task, output checks.

Each workload builds its inputs from ``random.Random(seed)`` only; the
program sees nothing but the generated parameters.  ``setup`` does all
work that precedes the first timed task (imports, input generation,
reference solves, warm-up), ``next_task`` prepares the next input outside
the timed region, ``run`` is the timed task and ``check`` verifies its
output afterwards, returning ``(ok, true_err, detail)``.  ``true_err`` is
the audited |E - E_ref| of the task, or None when the task is not audited.
"""

import csv
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

# Every generated point is log-uniform in this window.  Inside it the
# closed form and the oracle agree to 2.9e-5 at worst on the default box.
WINDOW = {"lambda_d": (5.0, 100.0), "field": (1e-4, 0.04), "alpha0": (1e-4, 1e-2)}

# The paper's Table 1 (Z = 1, alpha0 = 1e-4): varied parameter, value, energy (a.u.).
PAPER_TABLE1 = (
    ("field", 0.0001, -1.9799255), ("field", 0.0004, -1.9797005),
    ("field", 0.001, -1.9792506), ("field", 0.004, -1.9770016),
    ("field", 0.01, -1.9725072), ("field", 0.04, -1.9501083),
    ("lambda_d", 5.0, -1.5959955), ("lambda_d", 10.0, -1.7929741),
    ("lambda_d", 20.0, -1.8925671), ("lambda_d", 40.0, -1.9425144),
    ("lambda_d", 80.0, -1.9675077), ("lambda_d", 100.0, -1.9725072),
)
TABLE_TOL = 5e-7
# Rows of each figure dataset at the commit that introduced this benchmark.
FIGURE_ROWS = {"fig1a": 960, "fig1b": 960, "fig1c": 480, "fig2a": 153,
               "fig2b": 153, "fig2c": 100, "fig2d": 200}
DEVIATION_TOL = 1e-4
OVERLAP_MIN = 0.999
# Two evaluations of one quantity by the program may differ by summation order only.
SAME_VALUE_TOL = 1e-12
REFERENCE_POINTS = 64000
CLI_GRID_RMAX = 20.0


def child_env(root):
    """Environment for a process that imports laserplasma from the checkout's src."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def draw_point(rng, halves=None):
    """Log-uniform point of WINDOW; ``halves`` pins each coordinate to its lower (0) or upper (1) half."""
    point = {}
    for index, (key, (lo, hi)) in enumerate(WINDOW.items()):
        u = rng.random() if halves is None else (halves[index] + rng.random()) / 2.0
        point[key] = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return point


def reference_energy(coeffs, r_min, r_max, p, n_points=REFERENCE_POINTS):
    """E_ref: Richardson-extrapolated lowest eigenvalue on n and 2n + 1 interior points.

    Independent of `laserplasma.oracle`: same cubic potential and box, its
    own 3-point stencil, and bisection run to full relative precision
    (LAPACK's default absolute tolerance, eps * |T|, is ~3e-9 at 128k
    points and would swamp the error being audited).
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    def lowest(n):
        h = (r_max - r_min) / (n + 1)
        r = r_min + h * np.arange(1, n + 1)
        v = coeffs.c_m1 / r + coeffs.c0 + r * (coeffs.c1 + r * (coeffs.c2 + r * coeffs.c3))
        kin = p.hbar**2 / (2.0 * p.mu * h * h)
        return eigh_tridiagonal(2.0 * kin + v, np.full(n - 1, -kin), eigvals_only=True,
                                select="i", select_range=(0, 0),
                                tol=2.0 * np.finfo(float).tiny)[0]

    return (4.0 * lowest(2 * n_points + 1) - lowest(n_points)) / 3.0


def _finite(*values):
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


class Workload:
    """Defaults for a workload whose tasks run in this process."""

    in_process = True
    min_tasks = 1

    def round_open(self):
        """True while the tasks started so far leave a round of the mix unfinished."""
        return False

    def adopt_spans(self, tracer, task_span_index):
        """Merge spans recorded outside this process (none here)."""


class ClosedFormGrid(Workload):
    """One closed-form study per task: Table 1, all seven figures, a 1000-point breakdown sweep."""

    name = "closed_form_grid"
    sweep_points = 1000

    def __init__(self, seed, root):
        self.rng = random.Random(seed)

    def setup(self):
        from laserplasma import perturbation, potential, sweep

        self.perturbation, self.potential, self.sweep = perturbation, potential, sweep
        self.spot_rng = random.Random(self.rng.random())
        warm = self.next_task()
        self.check(warm, self.run(warm))

    def next_task(self):
        vary = self.rng.choice(tuple(WINDOW))
        lo, hi = WINDOW[vary]
        values = set()
        while len(values) < self.sweep_points:
            values.add(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))
        fixed = self.potential.ModelParams(**draw_point(self.rng))
        return vary, tuple(sorted(values)), fixed

    def run(self, task, tracer=None):
        vary, values, fixed = task
        sweep = self.sweep
        table = sweep.table1_rows()
        figures = [(tag, sweep.figure_dataset(tag)) for tag in FIGURE_ROWS]
        rows = sweep.run_sweep(sweep.SweepSpec(vary, values, fixed))
        return table, figures, rows

    def check(self, task, out):
        vary, values, fixed = task
        table, figures, rows = out
        if len(table) != len(PAPER_TABLE1):
            return False, None, f"table has {len(table)} rows"
        true_err = 0.0
        for row, (ref_vary, ref_value, ref_energy) in zip(table, PAPER_TABLE1):
            err = abs(row["total"] - ref_energy)
            if row["vary"] != ref_vary or row["value"] != ref_value or not err <= TABLE_TOL:
                return False, None, f"table row {row} vs {ref_energy}"
            true_err = max(true_err, err)
        for tag, ds in figures:
            if ds.tag != tag or len(ds.rows) != FIGURE_ROWS[tag]:
                return False, None, f"{tag}: {len(ds.rows)} rows"
            if not all(_finite(x, y) for _, x, y in ds.rows):
                return False, None, f"{tag}: non-finite value"
        if [row.value for row in rows] != list(values):
            return False, None, "sweep rows out of order"
        if not all(_finite(row.breakdown.total) for row in rows):
            return False, None, "sweep: non-finite energy"
        for index in self.spot_rng.sample(range(len(rows)), 3):
            expected = self.perturbation.total_energy(replace(fixed, **{vary: values[index]}))
            if not abs(rows[index].breakdown.total - expected.total) <= SAME_VALUE_TOL:
                return False, None, f"sweep row {index} differs from total_energy"
        return True, true_err, ""


class OracleCrosscheck(Workload):
    """One single-row ``run_sweep`` with the oracle on ``default_grid`` per task.

    No point repeats within a run.  The first ``audited`` tasks are one
    point per octant of the (log) window; their oracle energies are
    compared with reference solves made in setup.
    """

    name = "oracle_crosscheck"
    audited = 8
    min_tasks = audited

    def __init__(self, seed, root):
        self.rng = random.Random(seed)
        self.seen = set()

    def _fresh(self, halves=None):
        while True:
            point = draw_point(self.rng, halves)
            key = tuple(point.values())
            if key not in self.seen:
                self.seen.add(key)
                return point

    def setup(self):
        from laserplasma import oracle, potential, sweep

        self.oracle, self.potential, self.sweep = oracle, potential, sweep
        octants = list(itertools.product((0, 1), repeat=len(WINDOW)))
        self.rng.shuffle(octants)
        self.queue = [self._fresh(halves) for halves in octants[:self.audited]]
        self.refs = {}
        for point in self.queue:
            p = potential.ModelParams(**point)
            grid = oracle.default_grid(p)
            self.refs[tuple(point.values())] = reference_energy(
                potential.taylor_coefficients(p), grid.r_min, grid.r_max, p)
        for _ in range(2):
            warm = self._fresh()
            self.check(warm, self.run(warm))

    def next_task(self):
        return self.queue.pop(0) if self.queue else self._fresh()

    def run(self, point, tracer=None):
        p = self.potential.ModelParams(**point)
        sweep = self.sweep
        return sweep.run_sweep(sweep.SweepSpec("field", (p.field,), p,
                                               outputs=frozenset({"breakdown", "oracle"})))

    def check(self, point, rows):
        if len(rows) != 1 or rows[0].value != point["field"]:
            return False, None, "expected one row at the requested field"
        row = rows[0]
        if not _finite(row.oracle_energy, row.deviation):
            return False, None, f"non-finite oracle row {row}"
        if not abs(row.deviation - (row.breakdown.total - row.oracle_energy)) <= SAME_VALUE_TOL:
            return False, None, "deviation is not closed form minus oracle"
        if not abs(row.deviation) <= DEVIATION_TOL:
            return False, None, f"|closed form - oracle| = {abs(row.deviation):.3e} at {point}"
        ref = self.refs.get(tuple(point.values()))
        return True, None if ref is None else abs(row.oracle_energy - ref), ""


def _parse_csv(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _printed_close(token, expected):
    """Does a printed number equal ``expected`` to the precision it was printed at?"""
    value = float(token)
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    half_unit = 0.5 * 10.0 ** (int(exponent or 0) - decimals)
    return abs(value - expected) <= half_unit * (1.0 + 1e-9) + 1e-12 * abs(expected)


def _rows_close(rows, expected):
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for index, (row, want) in enumerate(zip(rows, expected)):
        if len(row) != len(want):
            return f"row {index} has {len(row)} fields"
        for token, value in zip(row, want):
            ok = token == value if isinstance(value, str) else _printed_close(token, value)
            if not ok:
                return f"row {index}: printed {token!r}, expected {value!r}"
    return ""


class CliRequests(Workload):
    """One fresh ``python -m laserplasma.cli`` process per task, one at a time.

    Tasks come in cycles holding each request kind once, in seeded order,
    so every run sees the same mix.  ``oracle`` requests use the box
    r_max = 20 that the README prescribes for overlaps and print JSON; the
    other kinds print CSV.  The audited rows are the Table 1 requests'
    printed deviations from the paper.
    """

    name = "cli_requests"
    in_process = False
    kinds = ("energy", "table1", "figure", "potential", "sweep", "oracle")
    min_tasks = len(kinds)

    def __init__(self, seed, root):
        self.rng = random.Random(seed)
        self.root = root
        self.env = child_env(root)
        self.cycle = []
        self.expected = {}
        self.spans_path = OUT_DIR / "cli-child-spans.json"

    def setup(self):
        from laserplasma import oracle, perturbation, potential, sweep

        self.oracle, self.perturbation = oracle, perturbation
        self.potential, self.sweep = potential, sweep
        self.figures = list(FIGURE_ROWS)
        self.rng.shuffle(self.figures)
        self.figure_turn = 0
        warm = ("energy", self._param_args(draw_point(self.rng)))
        self.check(warm, self.run(warm))

    @staticmethod
    def _param_args(point):
        return ["--lambda-d", repr(point["lambda_d"]), "--alpha0", repr(point["alpha0"]),
                "--field", repr(point["field"])]

    def next_task(self):
        if not self.cycle:
            self.cycle = list(self.kinds)
            self.rng.shuffle(self.cycle)
        kind = self.cycle.pop()
        point = draw_point(self.rng)
        if kind == "table1":
            return kind, []
        if kind == "figure":
            self.figure_turn += 1
            return kind, ["--which", self.figures[self.figure_turn % len(self.figures)]]
        if kind == "potential":
            return kind, self._param_args(point) + ["--with-quadrature"]
        if kind == "sweep":
            lo, hi = WINDOW["field"]
            values = sorted({math.exp(self.rng.uniform(math.log(lo), math.log(hi)))
                             for _ in range(5)})
            return kind, ["--vary", "field", "--values", ",".join(map(repr, values)),
                          "--lambda-d", repr(point["lambda_d"]),
                          "--alpha0", repr(point["alpha0"])]
        if kind == "oracle":
            return kind, self._param_args(point) + [
                "--grid-rmax", repr(CLI_GRID_RMAX), "--format", "json"]
        return kind, self._param_args(point)

    def run(self, task, tracer=None):
        kind, args = task
        if tracer is None:
            cmd = [sys.executable, "-m", "laserplasma.cli", kind, *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(self.spans_path),
                   kind, *args]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=self.env, cwd=self.root) as proc:
            try:
                out, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
        return proc.returncode, out, err

    def round_open(self):
        return bool(self.cycle)

    def adopt_spans(self, tracer, task_span_index):
        with open(self.spans_path, encoding="utf-8") as fh:
            tracer.adopt(json.load(fh), task_span_index)
        os.remove(self.spans_path)

    def _params(self, args):
        """ModelParams from a request's ``--flag value`` pairs."""
        values = dict(zip(args[0::2], args[1::2]))
        return self.potential.ModelParams(
            lambda_d=float(values["--lambda-d"]), alpha0=float(values["--alpha0"]),
            field=float(values.get("--field", 0.0)))

    def _expect(self, kind, args):
        """In-process library values for a request, memoized where requests repeat."""
        key = (kind, tuple(args))
        if key in self.expected:
            return self.expected[key]
        pot = self.potential
        if kind == "table1":
            want = [(r["vary"], r["value"], r["total"], r["reference"], r["deviation"])
                    for r in self.sweep.table1_rows()]
        elif kind == "figure":
            want = [tuple(row) for row in self.sweep.figure_dataset(args[1]).rows]
        elif kind == "energy":
            b = self.perturbation.total_energy(self._params(args))
            want = [(b.e0, b.const_shift, b.e1, b.e2, b.e3, b.total)]
        elif kind == "potential":
            import numpy as np

            p = self._params(args)
            r = np.linspace(0.05, 10.0, 100)
            columns = (r, pot.ecsc_eval(r, p), pot.dressed_pair_eval(r, p),
                       pot.dressed_pair_eval(r, p) + p.field * r,
                       pot.veff_series_eval(r, pot.taylor_coefficients(p)),
                       pot.v0_quadrature(r, p, 64))
            want = [tuple(float(c[i]) for c in columns) for i in range(len(r))]
        elif kind == "sweep":
            p = self._params(args)
            want = []
            for token in args[3].split(","):
                b = self.perturbation.total_energy(replace(p, field=float(token)))
                want.append((float(token), b.e0, b.const_shift, b.e1, b.e2, b.e3, b.total))
        else:
            p = self._params(args)
            coeffs = pot.taylor_coefficients(p)
            result = self.oracle.solve_ground_state(
                lambda r: pot.veff_series_eval(r, coeffs),
                self.oracle.RadialGrid(0.0, CLI_GRID_RMAX, 8000), p)
            b = self.perturbation.total_energy(p)
            want = {"e0": b.e0, "const_shift": b.const_shift, "e1": b.e1, "e2": b.e2,
                    "e3": b.e3, "total": b.total, "oracle_energy": result.energy,
                    "deviation": b.total - result.energy,
                    "overlap": self.oracle.overlap(
                        result, lambda r: self.perturbation.wavefunction_eval(r, p))}
        self.expected[key] = want
        return want

    def check(self, task, out):
        kind, args = task
        code, stdout, stderr = out
        if code != 0:
            return False, None, f"{kind} exited {code}: {stderr.strip()[-300:]}"
        want = self._expect(kind, args)
        if kind == "oracle":
            got = json.loads(stdout)
            for key, value in want.items():
                if not abs(got[key] - value) <= SAME_VALUE_TOL * max(1.0, abs(value)):
                    return False, None, f"oracle {key}: printed {got[key]!r}, expected {value!r}"
            if not got["overlap"] >= OVERLAP_MIN:
                return False, None, f"oracle overlap {got['overlap']} < {OVERLAP_MIN}"
            if not abs(got["deviation"]) <= DEVIATION_TOL:
                return False, None, f"oracle |deviation| {abs(got['deviation']):.3e}"
            return True, None, ""
        _, rows = _parse_csv(stdout)
        problem = _rows_close(rows, want)
        if problem:
            return False, None, f"{kind}: {problem}"
        if kind != "table1":
            return True, None, ""
        for row, (_, _, ref_energy) in zip(rows, PAPER_TABLE1):
            if not abs(float(row[2]) - ref_energy) <= TABLE_TOL:
                return False, None, f"table1 total {row[2]} vs paper {ref_energy}"
        return True, max(abs(float(row[4])) for row in rows), ""


WORKLOADS = {w.name: w for w in (ClosedFormGrid, OracleCrosscheck, CliRequests)}
