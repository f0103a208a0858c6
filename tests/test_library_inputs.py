"""Every library entry point refuses bad input in its own words.

A property test over the entry points the README documents: each call,
with valid values mixed with the values a caller may pass by mistake,
either succeeds or raises the exception class the README names for that
entry point. The runs use an n = 2 mesh and at most 10 time steps.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from westervelt_hdg.basis import TriangleBasis
from westervelt_hdg.condensation import CondensationError, build_condensed
from westervelt_hdg.mesh import (
    MeshError,
    compute_facet_topology,
    generate_structured_mesh,
)
from westervelt_hdg.newmark import (
    Discretization,
    NewmarkConfig,
    ProblemDefinition,
    run,
)
from westervelt_hdg.operators import (
    AssemblyError,
    SolverError,
    assemble_operators,
)
from westervelt_hdg.parameters import MAX_STEPS, TAU_MODES

MESH = generate_structured_mesh(2)
TOPO = compute_facet_topology(MESH)
OPS = assemble_operators(MESH, TOPO, 1)

# values a caller may pass by mistake: signed zeros, subnormals, non-finite
# and huge numbers, bools, numpy scalars, one-element arrays, strings, None
ODD = (0.0, -0.0, 5.0e-324, -5.0e-324, math.nan, math.inf, -math.inf,
       1.0e308, -1.0e308, -1, True, False, np.True_, np.float64(math.nan),
       np.float32(1.0e-45), np.int64(-1), np.array([1.0]), np.array([2]),
       "1", "", None)
# a huge integer, beyond every size cap
HUGE = 10**30

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=100)


def inputs(valid):
    """valid values, as Python and as numpy scalars, mixed with ODD and
    HUGE."""
    return st.one_of(valid, valid.map(lambda v: np.asarray(v)[()]),
                     st.sampled_from(ODD + (HUGE,)))


# valid values of the parameters of a run on MESH
VALID = dict(c=st.floats(0.5, 2.0), k=st.floats(-0.5, 0.5),
             delta=st.sampled_from([0.0, 1.0e-3]),
             final_time=st.sampled_from([0.02, 0.05]),
             dt=st.sampled_from([0.01, 0.025]), gamma=st.floats(0.0, 1.0),
             beta=st.floats(0.0, 0.5), tol=st.sampled_from([1.0e-10, 1.0e-6]),
             max_iterations=st.integers(1, 30), degree=st.integers(0, 2),
             tau_bar=st.floats(0.5, np.finfo(float).max),
             tau_mode=st.sampled_from(TAU_MODES))
# the initial data, through their Laplacians
LAPLACIANS = st.sampled_from([
    None, lambda x, y: -2.0 * math.pi ** 2 * np.sin(math.pi * x)
    * np.sin(math.pi * y), lambda x, y: np.full_like(x, -1.0)])
DATA = dict(lap_psi0=LAPLACIANS, lap_psi1=LAPLACIANS)
PROBLEM = ("c", "k", "delta", "final_time")
NEWMARK = ("dt", "gamma", "beta", "tol", "max_iterations")
DISCRETIZATION = ("degree", "tau_bar", "tau_mode")


def drawn(*names):
    """Strategies of the named parameters, each mixed with ODD."""
    return {name: inputs(VALID[name]) for name in names}


def outcome(make, error):
    """make() or None when it raises error; any other exception fails."""
    try:
        # the entry points report breakdowns themselves
        with np.errstate(all="ignore"):
            return make()
    except error:
        return None


@SETTINGS
@given(**drawn(*NEWMARK))
def test_newmark_config(**kwargs):
    outcome(lambda: NewmarkConfig(**kwargs), ValueError)


@SETTINGS
@given(**drawn(*PROBLEM), **DATA)
def test_problem_definition(**kwargs):
    outcome(lambda: ProblemDefinition(**kwargs), ValueError)


@SETTINGS
@given(**drawn(*DISCRETIZATION))
def test_discretization(**kwargs):
    # the first use of the operators assembles them
    outcome(lambda: Discretization(MESH, **kwargs).ops, AssemblyError)


@SETTINGS
@given(**drawn(*DISCRETIZATION))
def test_assemble_operators(degree, tau_bar, tau_mode):
    outcome(lambda: assemble_operators(MESH, TOPO, degree, tau_bar, tau_mode),
            AssemblyError)


@SETTINGS
@given(**drawn("c", "delta", "dt", "gamma", "beta"))
def test_build_condensed(**kwargs):
    outcome(lambda: build_condensed(OPS, **kwargs), CondensationError)


@SETTINGS
@given(n=inputs(st.integers(1, 3)))
def test_generate_structured_mesh(n):
    outcome(lambda: generate_structured_mesh(n), MeshError)


@SETTINGS
@given(degree=inputs(st.integers(0, 4)))
def test_triangle_basis(degree):
    outcome(lambda: TriangleBasis(degree), ValueError)


@settings(SETTINGS, max_examples=200)
@given(values=st.fixed_dictionaries(VALID),
       odd=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(VALID)),
                                          st.sampled_from(ODD + (HUGE,)))),
       data=st.fixed_dictionaries(DATA))
def test_run(values, odd, data):
    # valid values, but for at most one parameter
    if odd is not None:
        values = {**values, odd[0]: odd[1]}
    prob = outcome(lambda: ProblemDefinition(
        **{name: values[name] for name in PROBLEM}, **data), ValueError)
    cfg = outcome(lambda: NewmarkConfig(
        **{name: values[name] for name in NEWMARK}), ValueError)
    if prob is None or cfg is None:
        return
    # at most 10 steps: a larger whole number of steps would be marched,
    # while a count that is not whole or above MAX_STEPS is refused
    if 10.5 < float(prob.final_time) / float(cfg.dt) <= MAX_STEPS + 0.5:
        return
    disc = Discretization(MESH, **{name: values[name]
                                   for name in DISCRETIZATION})
    outcome(lambda: run(prob, disc, cfg),
            (ValueError, SolverError, AssemblyError))
