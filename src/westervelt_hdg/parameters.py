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
# level_bytes of a level a study runs or a Discretization builds, and the
# vertex and triangle arrays of a structured mesh
MAX_LEVEL_BYTES = 2**39

# the most the facet penalty G_K may exceed the rest of A_K, Et E / |det J|
# (largest entries): A_K then keeps that part to about 2e-4 relative. Beyond
# it the errors of a run drift on rounding (from tau = 1e13 on a p = 0,
# n = 2 study, penalty ratio 1.8e12) and then its facet factors turn singular
MAX_PENALTY_RATIO = 1.0e12

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
    # 0 in the explicit scheme, beta = 0 without damping
    "mu": ("step weight c^2 dt^2 beta + delta gamma dt", "[0, inf)"),
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


def level_bytes(n: int, degree: int, states: int = 0,
                tau_mode: str = "single_facet") -> float:
    """Estimated bytes of the level-n structured mesh (2 n^2 triangles), of
    the element blocks, sparse matrices and facet factors stored for it at
    degree under tau_mode and of `states` states of a monitored run.

    Counts the float64 element blocks of AssembledOperators, [B | E],
    [Ks | R] and A_K (the masses are |det J| I and not stored),
    ElementTables (with its int64 dof map, without the physical gradients
    that assembly forms and drops) and the corrector's Elimination; the
    values of W, which shares the int32 index arrays of the scalar-facet
    pattern; the facet-facet pattern; the value and int32 index
    of every nonzero and the int32 row pointers of -Wt and of the L and U
    factors of the facet Schur complement and the Gram matrix A, with 1.5
    interior facets per element; assembly's temporaries come on top. A
    stored state (analysis.History) holds its accelerations ddpsi and ddlam.
    degree must be valid (check_level).
    """
    d, pf = (degree + 1) * (degree + 2) // 2, degree + 1  # scalar, facet
    q = (degree + 2) ** 2  # points of the cell rule, order 2p + 2
    q_nl = (max(3 * degree, 2) // 2 + 1) ** 2  # of the nonlinear rule
    dense = (4 * d * d  # B; (M + mu Ks)^-1 and Ks
             + 12 * d * pf  # E and R on the 3 pf facet dofs; W values
             + 9 * pf * pf + 3  # A_K, tau
             + 2 * q + q_nl + 8 + d + 3 * pf)  # geometry, element_rows
    # the patterns: first term and column of every entry (3 d pf
    # scalar-facet, 7.5 pf^2 facet-facet), the second term of the 1.5 pf^2
    # facet-facet entries on one facet (entry and position), and row
    # pointers; the row pointers of -Wt and the four factors
    ints = 6 * d * pf + 18 * pf * pf + d + 9 * pf
    try:
        n = float(n)
        # L + U nonzeros of both factors per element, fitted to the fill
        # of the minimum degree ordering at n = 8...128, p = 0...3, and
        # high beyond (21% at n = 256, p = 1); at p = 0 under single-facet
        # stabilization the perpendicular sides of an element couple
        # through no entry of A, which fills in less
        fill = (11.0 * n ** (1.0 / 3.0)
                if degree == 0 and tau_mode == "single_facet"
                else 10.5 * pf * pf * math.sqrt(n))
        nonzeros = 3 * d * pf + fill  # -Wt and the factors
        # 144: the mesh and its topology
        return 2.0 * n ** 2 * (8 * dense + 12 * nonzeros + 4 * ints + 144
                               + 8 * states * (d + 1.5 * pf))
    except OverflowError:
        return math.inf


def check_level(n: int, degree: int, tau_mode: str, states: int,
                error: type[Exception]) -> None:
    """Raise error unless degree is a valid degree and level n at degree
    under tau_mode, with `states` stored states, takes at most
    MAX_LEVEL_BYTES (level_bytes)."""
    check_parameter("degree", degree, error)
    need = level_bytes(n, degree, states, tau_mode)
    if need > MAX_LEVEL_BYTES:
        raise error(f"level {n} needs an estimated {need / 2**30:.3g} GiB "
                    f"for the mesh and its element blocks at degree {degree}"
                    + (f" and {states} stored states" if states else "")
                    + f", more than {MAX_LEVEL_BYTES / 2**30:g} GiB; use "
                    f"coarser levels" + (" or fewer steps" if states else ""))
