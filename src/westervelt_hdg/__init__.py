"""HDG discretization of the Westervelt equation on triangulated domains.

The package splits into mesh handling (:mod:`mesh`), reference element tools
(:mod:`basis`), operator assembly (:mod:`operators`), static condensation
(:mod:`condensation`), the predictor-corrector Newmark integrator
(:mod:`newmark`), error and energy evaluation (:mod:`analysis`), experiment
recipes (:mod:`experiments`) and a command line front end (:mod:`cli`).
"""

__version__ = "0.1.0"
