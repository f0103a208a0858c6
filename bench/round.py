"""One round of a benchmark workload, in a process of its own.

    python3 bench/round.py WORKLOAD ROUND_DIR TRACE SMOKE

Writes the workload's config to ROUND_DIR/config.ini, runs it through
westervelt_hdg.cli.main with outputs in ROUND_DIR/out, and writes a summary
of the round to ROUND_DIR/round.json. TRACE=1 also records a span around
every call into the layers, keeps the spans in memory and writes them to
ROUND_DIR/spans.json at the end. The caller sets PYTHONPATH to the
checkout's src directory and the BLAS thread count.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[1] / "src"

# (module, function, layer): each function is wrapped where the program
# looks it up, so the span covers every call the studies make
LAYER_SPANS = (
    ("cli", "main", "cli.main"),
    ("experiments", "run", "newmark.run"),
    ("newmark", "compute_facet_topology", "mesh.topology"),
    ("newmark", "assemble_operators", "operators.assemble"),
    ("newmark", "assemble_nonlinear_mass", "operators.nonlinear_mass"),
    ("newmark", "assemble_load", "operators.load"),
    ("newmark", "build_condensed", "condensation.build"),
    ("newmark", "condensed_solve", "condensation.solve"),
    ("newmark", "compute_initial_state", "newmark.init"),
    ("newmark", "compute_initial_acceleration", "newmark.init"),
    ("newmark", "advance_step", "newmark.step"),
    ("experiments", "energy", "analysis.energy"),
    ("experiments", "reconstruct_velocity", "analysis.postprocess"),
    ("experiments", "postprocess", "analysis.postprocess"),
    ("experiments", "l2_error", "analysis.postprocess"),
)


class Tracer:
    """Spans [layer, start, end, parent index], appended as calls begin."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, layer: str) -> None:
        fn = getattr(module, attr)
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()

        setattr(module, attr, traced)

    def layers(self) -> dict:
        """Per layer: calls, total time, and self time (total minus the
        time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (layer, start, end, _) in enumerate(self.spans):
            acc = out.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            acc["calls"] += 1
            acc["total_s"] += end - start
            acc["self_s"] += end - start - child[i]
        return out


def record_runs(newmark, experiments, runs: list, factors: list | None):
    """Split each solver run into setup (entering newmark.run up to the
    first time step) and time loop, and keep its step and pass counts."""
    solve = experiments.run
    count_steps = newmark.number_of_steps
    loop_start = [0.0]

    def steps_begin(*args, **kwargs):
        loop_start[0] = perf_counter()
        return count_steps(*args, **kwargs)

    def timed_run(*args, **kwargs):
        start = perf_counter()
        result = solve(*args, **kwargs)
        end = perf_counter()
        lay, passes = result.ops.layout, result.iterations
        runs.append({
            "setup_s": loop_start[0] - start,
            "loop_s": end - loop_start[0],
            "dofs": lay.n_scalar + lay.n_facet,
            "facet_dofs": lay.n_facet,
            "steps": len(passes),
            "passes": sum(passes),
            "min_passes": min(passes),
            "max_passes": max(passes),
        })
        if factors is not None:
            factors.append(result.cond.facet_solver)
        return result

    newmark.number_of_steps = steps_begin
    experiments.run = timed_run


def main(argv: list[str]) -> int:
    name, round_dir = argv[0], Path(argv[1])
    trace, smoke = argv[2] == "1", argv[3] == "1"
    workload = WORKLOADS[name]

    import westervelt_hdg
    from westervelt_hdg import cli, experiments, newmark

    if not Path(westervelt_hdg.__file__).resolve().is_relative_to(SRC):
        print(f"westervelt_hdg imported from {westervelt_hdg.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    config = round_dir / "config.ini"
    config.write_text(workload.config_text(smoke), encoding="utf-8")

    runs: list[dict] = []
    factors: list | None = [] if trace else None
    record_runs(newmark, experiments, runs, factors)
    tracer = Tracer()
    if trace:
        modules = {"cli": cli, "experiments": experiments, "newmark": newmark}
        for module, attr, layer in LAYER_SPANS:
            tracer.wrap(modules[module], attr, layer)

    argv_cli = [workload.command, "--config", str(config),
                "--out", str(round_dir / "out")]
    start = perf_counter()
    rc = cli.main(argv_cli)
    wall = perf_counter() - start

    summary = {
        "workload": name,
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "runs": runs,
    }
    if trace:
        for run, lu in zip(runs, factors):
            run["lu_nnz"] = (0 if not hasattr(lu, "L")
                             else int(lu.L.nnz + lu.U.nnz))
        summary["layers"] = tracer.layers()
        (round_dir / "spans.json").write_text(json.dumps(tracer.spans),
                                              encoding="utf-8")
    (round_dir / "round.json").write_text(json.dumps(summary, indent=1),
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
