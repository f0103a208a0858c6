"""HDG discretization of the Westervelt equation on triangulated domains.

The package splits into the range of every input value (:mod:`parameters`),
mesh handling (:mod:`mesh`), reference element tools (:mod:`basis`),
operator assembly (:mod:`operators`), static condensation
(:mod:`condensation`), the predictor-corrector Newmark integrator
(:mod:`newmark`), the analytic test problems (:mod:`problems`), error and
energy evaluation (:mod:`analysis`), experiment recipes (:mod:`experiments`),
run configuration files (:mod:`config`) and a command line front end
(:mod:`cli`).
"""

__version__ = "0.1.0"
