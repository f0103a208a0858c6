"""The range of every input value, in the one table PARAMETERS that every
module checks its inputs against; a leaf that imports nothing of the package."""

from __future__ import annotations

import math
import numbers

KINDS = ("h_convergence", "delta_convergence", "wavefront")
TAU_MODES = ("single_facet", "uniform")
MAX_QUADRATURE_ORDER = 60

# a degree-p study needs quadrature up to order max(3p, 2p + 6): 3p for the
# nonlinear mass, 2(p + 1) + 4 for the error of the postprocessed field
MAX_DEGREE = max(p for p in range(MAX_QUADRATURE_ORDER)
                 if max(3 * p, 2 * p + 6) <= MAX_QUADRATURE_ORDER)

# the most time steps one run may ask for, through dt, coarse_steps or the
# h-rule
MAX_STEPS = 10**7

# the most bytes a mesh level may take, the memory of a large compute node:
# config.level_bytes of a level a study runs, and the vertex and triangle
# arrays of a structured mesh
MAX_LEVEL_BYTES = 2**39

# the most points of the wavefront profile, a few arrays of that many floats
MAX_PROFILE_SAMPLES = 10**6

# the range of every parameter that one value decides, checked by
# check_parameter wherever it enters: name -> (description, choices, an
# interval of finite values or "integer in" one[, the message's wording of
# the interval]); an interval open at its lower end starts at 0
PARAMETERS = {
    "kind": ("problem kind", KINDS),
    "c": ("wave speed", "(0, inf)"),
    "c^2": ("wave speed squared", "(0, inf)", "a positive finite number"),
    "k": ("nonlinearity coefficient", "(-inf, inf)"),
    "delta": ("damping", "[0, inf)"),
    "final_time": ("final time", "(0, inf)"),
    "degree": ("polynomial degree", f"integer in [0, {MAX_DEGREE}]"),
    # a basis also serves the postprocessed field, one degree above degree
    "basis_degree": ("basis polynomial degree",
                     f"integer in [0, {MAX_DEGREE + 1}]"),
    "quadrature_order": ("quadrature order",
                         f"integer in [0, {MAX_QUADRATURE_ORDER}]"),
    "levels": ("elements per side", "integer in [1, inf)"),
    "tau": ("stabilization parameter", "(0, inf)"),
    "tau_mode": ("tau mode", TAU_MODES),
    "gamma": ("Newmark weight", "[0, 1]"),
    "beta": ("Newmark weight", "[0, 0.5]"),
    "tol": ("corrector tolerance", "(0, inf)"),
    "max_iterations": ("corrector iteration budget", "integer in [1, inf)"),
    "coarse_steps": ("time steps on the anchor level",
                     f"integer in [1, {MAX_STEPS}]"),
    "dt": ("time step", "(0, inf)"),
    "snapshot_times": ("snapshot time", "(-inf, inf)"),
    "profile_samples": ("profile samples",
                        f"integer in [2, {MAX_PROFILE_SAMPLES}]"),
}


def check_parameter(name: str, value, error: type[Exception]) -> None:
    """Raise error, with a message that starts with name, unless value is
    allowed for the parameter name of PARAMETERS. Choices are strings; an
    interval admits only real numbers: Python's and numpy's, but no bool,
    string, complex number or array."""
    description, allowed, *requirement = PARAMETERS[name]
    if isinstance(allowed, tuple):
        if not isinstance(value, str) or value not in allowed:
            raise error(f"{name} must be one of {allowed}, got unknown "
                        f"{description} {value!r}")
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number ({description}), got "
                    f"type {type(value).__name__}")
    _, integer, allowed = allowed.rpartition("integer in ")
    if integer and not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer ({description}), got "
                    f"{value!r}")
    low, high = allowed[1:-1].split(", ")
    open_low = allowed[0] == "("
    if not -math.inf < value < math.inf:
        words = "finite"
    elif value < float(low) or (open_low and value == float(low)):
        words = "positive" if open_low else f">= {low}"
    elif value > float(high):
        words = f"<= {high}"
    else:
        return
    raise error(f"{name} must be {requirement[0] if requirement else words} "
                f"({description}), got {value}")
