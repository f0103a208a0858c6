"""The package names that the benchmark harness hooks into.

bench/round.py wraps module attributes by name to time each layer
(LAYER_SPANS), wraps newmark.number_of_steps to split a run's setup from its
time loop, and reads the facet factorization of every run for its L + U
fill. A refactor that renames one of these would quietly drop a layer from
the benchmark's trace, so they are checked here without running the harness.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from westervelt_hdg import experiments, newmark
from westervelt_hdg.config import default_config
from westervelt_hdg.mesh import generate_structured_mesh

ROUND = Path(__file__).resolve().parents[1] / "bench" / "round.py"


def layer_spans():
    """LAYER_SPANS of bench/round.py, read without importing the harness."""
    tree = ast.parse(ROUND.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "LAYER_SPANS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{ROUND} defines no LAYER_SPANS")


def test_every_layer_span_resolves():
    spans = layer_spans()
    assert len(spans) > 10
    for module, attr, layer in spans:
        mod = importlib.import_module(f"westervelt_hdg.{module}")
        assert callable(getattr(mod, attr, None)), (module, attr, layer)


def test_run_hooks_resolve(monkeypatch):
    # run looks number_of_steps up in the newmark module between setup and
    # the time loop, and its result carries the facet factorization
    count = newmark.number_of_steps
    calls = []

    def counting(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(newmark, "number_of_steps", counting)
    assert experiments.run is newmark.run
    prob = newmark.ProblemDefinition(c=1.0, final_time=0.02)
    result = newmark.run(
        prob, newmark.Discretization(generate_structured_mesh(2), 1),
        newmark.NewmarkConfig(dt=0.01))
    assert calls == [(0.02, 0.01)]
    assert result.iterations == [2, 2]
    lu = result.cond.facet_solver
    assert lu.L.nnz + lu.U.nnz > 0
    lay = result.ops.layout
    assert lay.n_facet > 0 and lay.n_scalar > 0


def test_single_run_evaluates_the_energies_once(monkeypatch):
    # the trace counts the energy evaluations of the run subcommand through
    # experiments.energy: one over the run's whole history
    energy = experiments.energy
    calls = []

    def counting(states, *args):
        calls.append(len(states.t))
        return energy(states, *args)

    monkeypatch.setattr(experiments, "energy", counting)
    cfg = dataclasses.replace(default_config("delta_convergence"), k=0.0,
                              degree=1, levels=(2,), final_time=0.04,
                              dt=0.01)
    summary = experiments.single_run_study(cfg)
    assert calls == [5]
    assert summary.times == [0.0, 0.01, 0.02, 0.03, 0.04]
