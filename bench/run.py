"""Benchmark runner for laserplasma.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
``src/laserplasma``.  One process, closed loop: a task starts when the
previous one (and its output check) is done.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs half the time with layer spans and
half without, and reports the per-layer metrics.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a fuller record goes to ``bench/out/``.  See bench/NOTES.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
PROBE_REPEATS = 3
# The traced phase ends early once this many spans are held in memory
# (a closed-form study records ~16k spans per task).
SPAN_BUDGET = 250_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up of a run and exit (used to time set-up)")
    return parser.parse_args(argv)


def measure(workload, seconds, tracer=None, first_task=0):
    """Closed loop until ``seconds`` of task time and the workload's minimum are done."""
    records = []
    busy = 0.0

    def more():
        if len(records) < workload.min_tasks or workload.round_open():
            return True
        return busy < seconds and not (tracer and len(tracer.spans) >= SPAN_BUDGET)

    while more():
        task = workload.next_task()
        task_id = first_task + len(records)
        span_index = tracer.begin_task(task_id) if tracer else None
        start = time.perf_counter()
        error = None
        try:
            out = workload.run(task, tracer)
        except Exception as exc:  # a task that raises is a failed task, not a crash
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        busy += end - start
        if tracer:
            tracer.end_task(span_index, start, end)
        if error is None:
            if tracer:
                workload.adopt_spans(tracer, span_index)
            try:
                ok, true_err, detail = workload.check(task, out)
            except Exception as exc:  # malformed output fails the check
                ok, true_err, detail = False, None, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, true_err, detail = False, None, error
        if not ok:
            print(f"task {task_id} failed: {detail}", file=sys.stderr)
        records.append({"task": task_id, "seconds": end - start, "ok": ok, "true_err": true_err})
    return records


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_child(cmd, env):
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:4]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stderr


def setup_seconds(args, env):
    """Median wall time of fresh interpreters doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    return statistics.median(timed_child(cmd, env)[0] for _ in range(SETUP_REPEATS))


def importtime(env):
    """Interpreter start and CLI import cost, from ``python -X importtime``."""
    def top_level(stderr):
        entries = []
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cumulative, name = line.split("|")
            level = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((level, name.strip(), int(cumulative)))
        return entries

    startup, imports, scipy_imports = [], [], []
    for _ in range(PROBE_REPEATS):
        startup.append(timed_child([sys.executable, "-c", "pass"], env)[0] * 1e3)
        bare = {name for level, name, _ in top_level(
            timed_child([sys.executable, "-X", "importtime", "-c", "pass"], env)[1]) if level == 0}
        entries = top_level(timed_child(
            [sys.executable, "-X", "importtime", "-c", "import laserplasma.cli"], env)[1])
        imports.append(sum(c for level, name, c in entries
                           if level == 0 and name not in bare) / 1e3)
        # entries are printed children first; walk backwards to see parents first
        ancestors, scipy_us = [], 0
        for level, name, cumulative in reversed(entries):
            del ancestors[level:]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(ancestors):
                scipy_us += cumulative
            ancestors.append(is_scipy)
        scipy_imports.append(scipy_us / 1e3)
    return {"cli.python_startup_ms": statistics.median(startup),
            "cli.import_ms": statistics.median(imports),
            "cli.import_scipy_ms": statistics.median(scipy_imports)}


def end_to_end(records, setup_s, peak_rss_mb):
    latencies = [r["seconds"] for r in records]
    done = sum(r["ok"] for r in records)
    tail_s, tail_pct = tail(latencies)
    errors = [r["true_err"] for r in records if r["true_err"] is not None]
    metrics = {
        "tasks_per_s": (done / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "true_err_max": (max(errors) if errors else float("nan"), "Ha"),
        "setup_s": (setup_s, "s"),
    }
    # Reported without a bound (see NOTES.md): on a shared host the median
    # and the tail follow the host's fast and slow states more than the
    # code, and a ratio that is 0 has no relative bound.
    notes = {"task_p50_ms": statistics.median(latencies) * 1e3, "task_tail_ms": tail_s * 1e3,
             "tail_percentile": tail_pct, "samples": len(latencies),
             "audited_rows": len(errors), "fail_ratio": (len(records) - done) / len(records)}
    return metrics, notes


def per_layer(traced, untraced, spans_list, probes):
    n_tasks = len(traced)
    agg = spans.summarize(spans_list)

    def stat(name, key):
        return agg.get(name, {}).get(key, 0)

    def self_ms(name):
        return stat(name, "self") / n_tasks * 1e3

    def mean_per_call(name, scale):
        calls = stat(name, "calls")
        return stat(name, "incl") / calls * scale if calls else 0.0

    energy_calls = stat("perturbation.total_energy", "calls")
    coeff_under_energy = sum(
        1 for i, s in enumerate(spans_list) if s[spans.NAME] == "potential.taylor_coefficients"
        and spans.has_ancestor(spans_list, i, "perturbation.total_energy"))
    grid_solves = [s[spans.EXTRA] for s in spans_list if s[spans.NAME] == "oracle.solve_on_grid"]
    task_time = stat("task", "incl")
    sweep_self = sum(v["self"] for k, v in agg.items() if k.startswith("sweep."))
    audited = {r["task"]: r["true_err"] for r in traced if r["true_err"]}
    honesty = [s[spans.EXTRA] / audited[s[spans.TASK]] for s in spans_list
               if s[spans.NAME] == "oracle.solve_ground_state" and s[spans.TASK] in audited]
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    untraced_p50 = statistics.median(r["seconds"] for r in untraced)
    ms, count, ratio = "ms", "count", "ratio"
    metrics = {
        "potential.taylor_coefficients.calls_per_energy": (
            coeff_under_energy / energy_calls if energy_calls else 0.0, count),
        "potential.taylor_coefficients.self_ms": (self_ms("potential.taylor_coefficients"), ms),
        "perturbation.total_energy.calls": (energy_calls / n_tasks, count),
        "perturbation.total_energy.self_ms": (self_ms("perturbation.total_energy"), ms),
        "perturbation.total_energy.us_per_call": (
            mean_per_call("perturbation.total_energy", 1e6), "us"),
        "potential.dressed_pair_eval.self_ms": (self_ms("potential.dressed_pair_eval"), ms),
        "sweep.run_sweep.self_ms": (self_ms("sweep.run_sweep"), ms),
        "sweep.figure_dataset.self_ms": (self_ms("sweep.figure_dataset"), ms),
        "sweep.table1_rows.self_ms": (self_ms("sweep.table1_rows"), ms),
        "sweep.share_of_task": (sweep_self / task_time, ratio),
        "oracle.solve_on_grid.calls": (len(grid_solves) / n_tasks, count),
        "oracle.grid_points_solved": (sum(grid_solves) / n_tasks, count),
        "oracle.solve_ground_state.ms_per_call": (
            mean_per_call("oracle.solve_ground_state", 1e3), ms),
        "oracle.hamiltonian_arrays.self_ms": (self_ms("oracle.hamiltonian_arrays"), ms),
        "oracle.eigensolve.self_ms": (self_ms("oracle.solve_on_grid"), ms),
        "potential.veff_series_eval.self_ms": (self_ms("potential.veff_series_eval"), ms),
        # computed, not measured: per n-point solve, 8 bytes each for grid
        # points, potential samples, diagonal, off-diagonal and eigenvector
        "oracle.computed_bytes": (sum(8 * (5 * n - 1) for n in grid_solves) / n_tasks, "B"),
        "oracle.estimate_over_true_err": (statistics.median(honesty) if honesty else 0.0, ratio),
        "oracle.overlap.self_ms": (self_ms("oracle.overlap"), ms),
        "perturbation.wavefunction_eval.self_ms": (self_ms("perturbation.wavefunction_eval"), ms),
        "potential.v0_quadrature.self_ms": (self_ms("potential.v0_quadrature"), ms),
        "cli.parse_args.self_ms": (self_ms("cli.parse_args"), ms),
        "cli.run.self_ms": (self_ms("cli.run"), ms),
        "cli.python_startup_ms": (probes["cli.python_startup_ms"], ms),
        "cli.import_ms": (probes["cli.import_ms"], ms),
        "cli.import_scipy_ms": (probes["cli.import_scipy_ms"], ms),
        "trace.coverage": ((task_time - stat("task", "self")) / task_time, ratio),
        "trace.overhead_ratio": (traced_p50 / untraced_p50, ratio),
    }
    notes = {"traced_tasks": n_tasks, "untraced_tasks": len(untraced),
             "layers": {k: v for k, v in sorted(agg.items())}}
    return metrics, notes


def machine_info():
    import numpy
    import scipy

    import laserplasma

    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "laserplasma": laserplasma.__version__, "git_revision": revision}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "laserplasma" / "__init__.py").is_file():
        print(f"no laserplasma sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # one BLAS thread here and in every child, set before numpy is imported
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    workload.setup()
    if args.setup_only:
        return 0
    env = workloads.child_env(ROOT)

    if args.trace == 0:
        records = measure(workload, args.seconds)
        # children reaped so far are the CLI requests (and set-up's warm-up request)
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      0 if workload.in_process
                      else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics, notes = end_to_end(records, setup_seconds(args, env), peak_kb / 1024.0)
        all_records = records
    else:
        tracer = spans.Tracer()
        restore = spans.install(tracer) if workload.in_process else None
        traced = measure(workload, args.seconds / 2.0, tracer)
        if restore:
            restore()
        untraced = measure(workload, args.seconds / 2.0, first_task=len(traced))
        spans_path = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        spans.write(spans_path, tracer.spans)
        metrics, notes = per_layer(traced, untraced, tracer.spans, importtime(env))
        notes["spans_file"] = str(spans_path.relative_to(ROOT))
        all_records = traced + untraced

    failed = sum(not r["ok"] for r in all_records)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine_info(), **notes}
    result = {"correct": failed == 0, "attempted": len(all_records), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    out_path = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    if args.trace == 0:
        print(f"{'task_p50_ms':48s} {notes['task_p50_ms']:.6g} ms "
              f"(no bound; {notes['samples']} samples)")
        print(f"{'task_tail_ms':48s} {notes['task_tail_ms']:.6g} ms "
              f"(no bound; p{notes['tail_percentile']:.4g})")
    print(f"{'fail_ratio':48s} {failed / len(all_records):.6g} ratio "
          f"(no bound; {failed}/{len(all_records)})")
    print("info " + json.dumps(info if args.trace == 0 else
                               {k: v for k, v in info.items() if k != "layers"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
