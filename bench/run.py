"""Benchmark of the westervelt-hdg studies, timed end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke]

Run from the root of a checkout. Each round runs the whole workload in a
fresh process (bench/round.py) through westervelt_hdg.cli.main, then checks
the CSV files it wrote. Rounds repeat while the next one would end no
more than half a round after --seconds; at least one round runs. Timings
are medians over rounds.

--trace 0 reports the end-to-end metrics. --trace 1 runs every round twice,
untraced and traced, and reports the per-layer metrics of the traced run;
the wall-time difference between the two is the tracing overhead.

The inputs are deterministic (structured meshes, analytic data), so --seed
changes nothing; it is accepted and recorded. --smoke runs the reduced-size
variant of the workload through the same checks.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. One attempted operation is one solver run
(a call of newmark.run); a run that raises counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / "runs"
BLAS_THREADS = "1"
# every process the benchmark starts ends before this many seconds have
# passed since it started
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "dof_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "mesh.topology_s": "s",
    "operators.assemble_s": "s",
    "operators.assemble_calls": "count",
    "operators.nonlinear_mass_s": "s",
    "operators.nonlinear_mass_calls": "count",
    "operators.load_s": "s",
    "condensation.build_s": "s",
    "condensation.build_calls": "count",
    "condensation.solve_s": "s",
    "condensation.solve_calls": "count",
    "condensation.facet_dofs": "count",
    "condensation.lu_nnz": "count",
    "newmark.init_s": "s",
    "newmark.step_s": "s",
    "newmark.step_self_s": "s",
    "newmark.steps": "count",
    "newmark.passes": "count",
    "newmark.passes_per_step": "passes/step",
    "analysis.energy_s": "s",
    "analysis.energy_calls": "count",
    "analysis.postprocess_s": "s",
    "trace.other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# layers whose self times, with trace.other_s, add up to trace.wall_s
SELF_TIMES = {
    "mesh.topology_s": "mesh.topology",
    "operators.assemble_s": "operators.assemble",
    "operators.nonlinear_mass_s": "operators.nonlinear_mass",
    "operators.load_s": "operators.load",
    "condensation.build_s": "condensation.build",
    "condensation.solve_s": "condensation.solve",
    "newmark.init_s": "newmark.init",
    "newmark.step_self_s": "newmark.step",
    "analysis.energy_s": "analysis.energy",
    "analysis.postprocess_s": "analysis.postprocess",
}


class BenchError(Exception):
    """The benchmark could not run the program."""


def run_round(name: str, trace: bool, smoke: bool, deadline: float) -> dict:
    """One workload round in a fresh process; returns its summary."""
    round_dir = RUNS_DIR / f"{name}-trace{int(trace)}"
    shutil.rmtree(round_dir, ignore_errors=True)
    round_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "round.py"), name, str(round_dir),
           str(int(trace)), str(int(smoke))]
    log = round_dir / "program.log"
    try:
        with open(log, "w", encoding="utf-8") as fh:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=fh,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"round of {name} did not end in time") from err
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"round of {name} exited with {proc.returncode}:\n"
                         f"{tail}")
    summary = json.loads((round_dir / "round.json").read_text("utf-8"))
    summary["dir"] = round_dir
    return summary


def end_to_end(summary: dict) -> dict:
    runs = summary["runs"]
    loop_s = sum(r["loop_s"] for r in runs)
    return {
        "wall_s": summary["wall_s"],
        "setup_s": sum(r["setup_s"] for r in runs),
        "dof_steps_per_s": (sum(r["dofs"] * r["steps"] for r in runs) / loop_s
                            if loop_s > 0.0 else 0.0),
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced_wall: float) -> dict:
    layers = traced["layers"]

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    runs = traced["runs"]
    steps = sum(r["steps"] for r in runs)
    passes = sum(r["passes"] for r in runs)
    out = {metric: get(layer, "self_s") for metric, layer in SELF_TIMES.items()}
    out.update({
        "operators.assemble_calls": get("operators.assemble", "calls"),
        "operators.nonlinear_mass_calls": get("operators.nonlinear_mass",
                                              "calls"),
        "condensation.build_calls": get("condensation.build", "calls"),
        "condensation.solve_calls": get("condensation.solve", "calls"),
        "condensation.facet_dofs": max(r["facet_dofs"] for r in runs),
        "condensation.lu_nnz": max(r["lu_nnz"] for r in runs),
        "newmark.step_s": get("newmark.step", "total_s"),
        "newmark.steps": steps,
        "newmark.passes": passes,
        "newmark.passes_per_step": passes / steps,
        "analysis.energy_calls": get("analysis.energy", "calls"),
        "trace.other_s": (get("cli.main", "self_s")
                          + get("newmark.run", "self_s")),
        "trace.wall_s": get("cli.main", "total_s"),
    })
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S

    if not (ROOT / "src" / "westervelt_hdg" / "__init__.py").is_file():
        print(f"no westervelt_hdg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    planned = workload.planned_runs(args.smoke)
    print(f"workload {workload.name} (seed {args.seed} unused: inputs are "
          f"deterministic), BLAS threads {BLAS_THREADS}, "
          f"{'smoke' if args.smoke else 'full'} size, "
          f"trace {args.trace}")

    rows: list[dict] = []
    attempted = failed = 0
    correct = True
    try:
        while True:
            round_start = time.monotonic()
            summaries = [run_round(workload.name, False, args.smoke,
                                   deadline)]
            row = end_to_end(summaries[0])
            if args.trace:
                summaries.append(run_round(workload.name, True, args.smoke,
                                           deadline))
                row = per_layer(summaries[1], summaries[0]["wall_s"])
            for summary in summaries:
                attempted += planned
                failed += planned - len(summary["runs"])
                if summary["rc"] != 0:
                    print(f"westervelt-hdg exited with {summary['rc']}, see "
                          f"{summary['dir'] / 'program.log'}", file=sys.stderr)
                try:
                    figures = workload.check(summary["dir"] / "out",
                                             summary["runs"], args.smoke)
                    print("check passed: " + ", ".join(
                        f"{k}={v:.6g}" for k, v in figures.items()))
                except CheckError as err:
                    correct = False
                    print(f"check FAILED: {err}", file=sys.stderr)
            rows.append(row)
            # start another round only if at least half of it would fall
            # within --seconds and it would end well before the deadline
            now = time.monotonic()
            round_s = now - round_start
            if (now - started + 0.5 * round_s >= args.seconds
                    or now + 1.5 * round_s > deadline):
                break
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        values = [row[name] for row in rows]
        value = (max(values) if name == "peak_rss_mb"
                 else statistics.median(values))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"rounds {len(rows)}, solver runs attempted {attempted}, "
          f"failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
