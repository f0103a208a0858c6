"""Static condensation of the implicit step onto the facet unknowns.

For a time step dt and Newmark weights (gamma, beta), the corrector solves

    (M + mu Ks) a_psi + mu R a_lam = rhs,      Rt a_psi + A a_lam = 0,

with mu = c^2 dt^2 beta + delta gamma dt, the mass M = |det J| I
(ElementTables.detj), the element rows [Ks | R] (scalar_row) and the facet
Gram matrix A = sum_K A_K (facet_block): fields of the AssembledOperators,
which every elimination on them shares. The stationary solves of the
initial data are the same system with Ks in place of M + mu Ks and mu = 1.
For either block-diagonal matrix D, one routine (_eliminate) forms W_K =
D_K^-1 R_K once per element, stores D^-1, W and -Wt and factorizes the
facet Schur complement, summed from the element blocks A_K - mu R_Kt W_K;
both are gathered through the block patterns that the operators'
ElementTables sorted once, so an elimination sorts nothing. A solve

    z = D^-1 rhs,   a_lam = (A - mu Rt W)^-1 (-Wt rhs),   a_psi = z - mu (W a_lam)

is one element-block apply, two sparse products and one facet solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .operators import (
    AssembledOperators,
    CondensationError,
    _factorize,
    apply_blocks,
)
from .parameters import check_parameter


@dataclass
class Elimination:
    """D^-1, W = D^-1 R and -Wt of a block-diagonal D, and the factorized
    facet Schur complement A - mu Rt W (see condensed_solve)."""

    mu: float
    block_inv: np.ndarray  # (ne, d, d) D^-1
    elim: sp.csr_matrix  # (n_scalar, n_facet) W
    minus_elim_t: sp.csr_matrix  # (n_facet, n_scalar) -Wt
    facet_solver: object = field(repr=False)


def step_mu(c: float, delta: float, dt: float, gamma: float,
            beta: float) -> float:
    """The weight mu = c^2 dt^2 beta + delta gamma dt of the corrector's
    elimination for (c, delta, dt, gamma, beta)."""
    return c * c * dt * dt * beta + delta * gamma * dt


def _eliminate(ops: AssembledOperators, block_inv: np.ndarray, mu: float,
               name: str) -> Elimination:
    """The Elimination of the element blocks D^-1; name is the facet Schur
    complement's in a factorization failure."""
    r_loc = ops.scalar_row[:, :, ops.layout.dim_scalar:]
    w_loc = block_inv @ r_loc
    schur = ops.tables.facet_facet.assemble(
        ops.facet_block - mu * (r_loc.transpose(0, 2, 1) @ w_loc))
    elim = ops.tables.scalar_facet.assemble(w_loc)
    return Elimination(mu=mu, block_inv=block_inv, elim=elim,
                       minus_elim_t=-elim.T.tocsr(),
                       facet_solver=_factorize(name, schur))


def build_condensed(ops: AssembledOperators, c: float, delta: float,
                    dt: float, gamma: float, beta: float) -> Elimination:
    """The corrector's elimination, D = M + mu Ks with mu = step_mu(c,
    delta, dt, gamma, beta); refuses a mu that is not finite."""
    for name, value in (("c", c), ("delta", delta), ("dt", dt),
                        ("gamma", gamma), ("beta", beta)):
        check_parameter(name, value, CondensationError)
    check_parameter("c^2", c * c, CondensationError)
    mu = step_mu(c, delta, dt, gamma, beta)
    check_parameter("mu", mu, CondensationError)
    d = ops.layout.dim_scalar
    try:
        shifted_inv = np.linalg.inv(ops.tables.detj[:, None, None] * np.eye(d)
                                    + mu * ops.scalar_row[:, :, :d])
    except np.linalg.LinAlgError as err:
        raise CondensationError(
            f"element block M + mu Ks singular (mu = {mu:g})") from err
    return _eliminate(ops, shifted_inv, mu, "facet Schur complement")


def stationary_elimination(ops: AssembledOperators) -> Elimination:
    """The elimination of the stationary system, D = Ks and mu = 1.

    Refuses Ks blocks whose smallest eigenvalue is subnormal or at most d eps
    times their largest: their inverse overflows or has no correct digit.
    """
    d, fp = ops.layout.dim_scalar, np.finfo(float)
    stiffness = ops.scalar_row[:, :, :d]
    eig = np.linalg.eigvalsh(stiffness)
    bad = np.flatnonzero(~(eig[:, 0] > np.maximum(d * fp.eps * eig[:, -1],
                                                  fp.tiny)))
    if bad.size:
        raise CondensationError(
            f"condensed stiffness block singular on elements {bad[:8].tolist()}"
            f" (smallest eigenvalue subnormal or <= {d} eps x largest)")
    return _eliminate(ops, np.linalg.inv(stiffness), 1.0,
                      "stationary facet Schur complement")


def condensed_solve(elim: Elimination,
                    rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve D a_psi + mu R a_lam = rhs, Rt a_psi + A a_lam = 0 for a
    scalar-field right side (accelerations for the corrector's D)."""
    a_psi = apply_blocks(elim.block_inv, rhs)
    a_lam = elim.facet_solver.solve(elim.minus_elim_t @ rhs)
    shift = elim.elim @ a_lam
    shift *= elim.mu
    a_psi -= shift
    return a_psi, a_lam


def reconstruct_velocity(ops: AssembledOperators, psi: np.ndarray,
                         lam: np.ndarray) -> np.ndarray:
    """Element-wise velocity solve Mv v = -(B psi + E lam)."""
    rhs = apply_blocks(ops.velocity_row, ops.tables.element_values(psi, lam))
    return -rhs / np.repeat(ops.tables.detj, 2 * ops.layout.dim_scalar)
