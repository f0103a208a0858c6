"""HDG discretization of the Westervelt equation on triangulated domains.

The package splits into mesh handling (:mod:`mesh`), reference element tools
(:mod:`basis`), operator assembly (:mod:`operators`), static condensation
(:mod:`condensation`), the predictor-corrector Newmark integrator
(:mod:`newmark`), error and energy evaluation (:mod:`analysis`), experiment
recipes (:mod:`experiments`) and a command line front end (:mod:`cli`).
"""

from .analysis import (
    DiscreteScalarField,
    DiscreteVectorField,
    convergence_rates,
    energy,
    l2_error,
    postprocess,
    scalar_field,
    vector_field,
)
from .basis import (
    QuadratureRule,
    SegmentBasis,
    TriangleBasis,
    scalar_space_dim,
    segment_quadrature,
    triangle_quadrature,
)
from .condensation import (
    CondensationError,
    CondensedOperators,
    build_condensed,
    condensed_solve,
    reconstruct_velocity,
)
from .config import ConfigError, RunConfig, default_config, load_config, parse_config
from .experiments import (
    ConvergenceReport,
    DeltaReport,
    WavefrontResult,
    delta_convergence_study,
    export_field,
    h_convergence_study,
    single_run_study,
    wavefront_study,
)
from .mesh import (
    FacetTopology,
    Mesh,
    MeshError,
    compute_facet_topology,
    generate_structured_mesh,
    mesh_metrics,
)
from .newmark import (
    InitializationError,
    NewmarkConfig,
    NonconvergenceError,
    ProblemDefinition,
    RunResult,
    State,
    advance_step,
    compute_initial_acceleration,
    compute_initial_state,
    run,
)
from .operators import (
    AssembledOperators,
    AssemblyError,
    NondegeneracyError,
    assemble_load,
    assemble_nonlinear_mass,
    assemble_operators,
    build_layout,
)
from .problems import (
    delta_study_problem,
    manufactured_problem,
    wavefront_problem,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledOperators",
    "AssemblyError",
    "CondensationError",
    "CondensedOperators",
    "ConfigError",
    "ConvergenceReport",
    "DeltaReport",
    "DiscreteScalarField",
    "DiscreteVectorField",
    "FacetTopology",
    "InitializationError",
    "Mesh",
    "MeshError",
    "NewmarkConfig",
    "NonconvergenceError",
    "NondegeneracyError",
    "ProblemDefinition",
    "QuadratureRule",
    "RunConfig",
    "RunResult",
    "SegmentBasis",
    "State",
    "TriangleBasis",
    "WavefrontResult",
    "advance_step",
    "assemble_load",
    "assemble_nonlinear_mass",
    "assemble_operators",
    "build_condensed",
    "build_layout",
    "compute_facet_topology",
    "compute_initial_acceleration",
    "compute_initial_state",
    "condensed_solve",
    "convergence_rates",
    "default_config",
    "delta_convergence_study",
    "delta_study_problem",
    "energy",
    "export_field",
    "generate_structured_mesh",
    "h_convergence_study",
    "l2_error",
    "load_config",
    "manufactured_problem",
    "mesh_metrics",
    "parse_config",
    "postprocess",
    "reconstruct_velocity",
    "run",
    "scalar_field",
    "scalar_space_dim",
    "segment_quadrature",
    "single_run_study",
    "triangle_quadrature",
    "vector_field",
    "wavefront_study",
]
