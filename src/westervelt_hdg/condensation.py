"""Static condensation of the implicit step onto the facet unknowns.

For a time step dt and Newmark weights (gamma, beta), the corrector solves

    (M + mu Ks) a_psi + mu R a_lam = rhs,      Rt a_psi + A a_lam = 0,

with mu = c^2 dt^2 beta + delta gamma dt, Ks = S + Bt Mv^-1 B (element
blocks), R = F + Bt Mv^-1 E and A = G + Et Mv^-1 E. Eliminating a_psi element
by element leaves one sparse facet system; its matrix and the dt-independent
analog used by the stationary initial-data solves are factorized once.

With W = (M + mu Ks)^-1 R stored once, a corrector solve is

    z = (M + mu Ks)^-1 rhs,   a_lam = (A - mu Rt W)^-1 (-Wt rhs),
    a_psi = z - mu W a_lam,

one element-block apply and one facet solve. A right side equal bit for bit
to the one of the previous solve with the same operators returns that
solve's result without solving again; a NaN never compares equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .operators import (
    AssembledOperators,
    apply_blocks,
    element_dofs,
    scatter_csr,
)


class CondensationError(Exception):
    """Invalid parameters or unusable condensed operators."""


class _EmptySolver:
    """Stand-in factorization for meshes without interior facets."""

    def solve(self, b):
        return np.zeros_like(b)


def _factorize(name: str, matrix: sp.spmatrix):
    if matrix.shape[0] == 0:
        return _EmptySolver()
    try:
        # the facet matrices are symmetric, so a minimum degree ordering of
        # A^T + A fills in less than the default COLAMD
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:
        raise CondensationError(
            f"cannot factorize the {name} ({matrix.shape[0]} facet dofs): "
            f"{err}") from err


@dataclass
class CondensedOperators:
    """Facet Schur complements and element elimination data for fixed
    (c, delta, dt, gamma, beta)."""

    c: float
    delta: float
    dt: float
    gamma: float
    beta: float
    mu: float
    stiffness: np.ndarray  # (ne, d, d) condensed element stiffness Ks
    shifted_inv: np.ndarray  # (ne, d, d) inverse of M + mu Ks
    coupling: sp.csr_matrix  # (n_scalar, n_facet) R
    coupling_t: sp.csr_matrix  # (n_facet, n_scalar) Rt
    shifted_elim: sp.csr_matrix  # (n_scalar, n_facet) W = (M + mu Ks)^-1 R
    shifted_elim_t: sp.csr_matrix  # (n_facet, n_scalar) Wt
    facet_gram: sp.csr_matrix  # (n_facet, n_facet) A
    facet_schur: sp.csr_matrix  # (n_facet, n_facet) A - mu Rt (M + mu Ks)^-1 R
    static_schur: sp.csr_matrix | None  # dt-independent analog (needs Ks^-1)
    static_sca_elim: sp.csr_matrix | None  # Ks^-1 R
    stiffness_inv: np.ndarray | None
    static_error: str | None = None
    facet_solver: object = field(default=None, repr=False)
    gram_solver: object = field(default=None, repr=False)
    static_solver: object = field(default=None, repr=False)
    # (rhs, a_psi, a_lam) of the last condensed_solve; the arrays are the
    # ones that call returned
    last_solve: tuple | None = field(default=None, repr=False)

    def check_params(self, c: float, delta: float, dt: float,
                     gamma: float, beta: float) -> None:
        mine = (self.c, self.delta, self.dt, self.gamma, self.beta)
        theirs = (c, delta, dt, gamma, beta)
        if mine != theirs:
            raise CondensationError(
                f"condensed operators were built for (c, delta, dt, gamma, "
                f"beta) = {mine}, refusing use with {theirs}"
            )

    def require_static(self) -> None:
        if self.static_schur is None:
            raise CondensationError(
                f"stationary elimination path unavailable: {self.static_error}")


def build_condensed(ops: AssembledOperators, c: float, delta: float,
                    dt: float, gamma: float, beta: float) -> CondensedOperators:
    if c <= 0.0:
        raise CondensationError(f"wave speed must be positive, got {c}")
    if delta < 0.0:
        raise CondensationError(f"damping parameter must be >= 0, got {delta}")
    if dt <= 0.0:
        raise CondensationError(f"time step must be positive, got {dt}")
    mu = c * c * dt * dt * beta + delta * gamma * dt

    lay = ops.layout
    ne, d = lay.n_elements, lay.dim_scalar
    nfac = lay.n_facet

    bt_minv = np.matmul(ops.divergence.transpose(0, 2, 1), ops.vector_mass_inv)
    stiffness = ops.boundary_penalty + np.matmul(bt_minv, ops.divergence)
    stiffness = 0.5 * (stiffness + stiffness.transpose(0, 2, 1))
    shifted = ops.scalar_mass + mu * stiffness
    try:
        shifted_inv = np.linalg.inv(shifted)
    except np.linalg.LinAlgError as err:
        raise CondensationError(
            f"element block M + mu Ks singular (mu = {mu:g})") from err

    stiffness_inv = None
    static_error = None
    try:
        np.linalg.cholesky(stiffness)
        stiffness_inv = np.linalg.inv(stiffness)
    except np.linalg.LinAlgError:
        bad = np.flatnonzero(np.linalg.eigvalsh(stiffness).min(axis=1) <= 0.0)
        static_error = (
            f"condensed stiffness block singular on elements {bad[:8].tolist()}")

    # element blocks against the element's 3 pf facet columns; columns of
    # boundary facets are zero and dropped by the scatter
    e_loc, f_loc = ops.trace_vector_local, ops.trace_scalar_local
    e_t, f_t = e_loc.transpose(0, 2, 1), f_loc.transpose(0, 2, 1)
    r_loc = f_loc + bt_minv @ e_loc
    w_loc = shifted_inv @ r_loc
    y_loc = shifted_inv @ (mu * r_loc)
    x_loc = ops.vector_mass_inv @ (e_loc - ops.divergence @ y_loc)

    cols = ops.tables.facet_dofs
    rows = element_dofs(ne, d)
    facet_diag = element_dofs(lay.n_interior_facets, lay.dim_facet)
    penalty = (ops.trace_penalty, facet_diag, facet_diag)
    shape = (nfac, nfac)
    schur = scatter_csr(shape, penalty, (e_t @ x_loc - f_t @ y_loc, cols, cols))
    gram = scatter_csr(shape, penalty,
                       (e_t @ ops.vector_mass_inv @ e_loc, cols, cols))
    coupling = scatter_csr((lay.n_scalar, nfac), (r_loc, rows, cols))
    shifted_elim = scatter_csr((lay.n_scalar, nfac), (w_loc, rows, cols))
    static = static_sca = None
    if stiffness_inv is not None:
        ybar = stiffness_inv @ r_loc
        xbar = ops.vector_mass_inv @ (e_loc - ops.divergence @ ybar)
        static = scatter_csr(shape, penalty,
                             (e_t @ xbar - f_t @ ybar, cols, cols))
        static_sca = scatter_csr((lay.n_scalar, nfac), (ybar, rows, cols))

    cond = CondensedOperators(
        c=c, delta=delta, dt=dt, gamma=gamma, beta=beta, mu=mu,
        stiffness=stiffness,
        shifted_inv=shifted_inv,
        coupling=coupling,
        coupling_t=coupling.T.tocsr(),
        shifted_elim=shifted_elim,
        shifted_elim_t=shifted_elim.T.tocsr(),
        facet_gram=gram,
        facet_schur=schur,
        static_schur=static,
        static_sca_elim=static_sca,
        stiffness_inv=stiffness_inv,
        static_error=static_error,
    )
    cond.facet_solver = _factorize("facet Schur complement", schur)
    cond.gram_solver = _factorize("facet Gram matrix", gram)
    if static is not None:
        cond.static_solver = _factorize("stationary facet Schur complement",
                                        static)
    return cond


def condensed_solve(cond: CondensedOperators,
                    rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the corrector linear system for a scalar-field right side.

    Returns accelerations (scalar, facet) of the coupled system
    (M + mu Ks) a_psi + mu R a_lam = rhs with Rt a_psi + A a_lam = 0. A
    right side equal bit for bit to the previous call's returns the previous
    arrays again, so callers must not modify the results in place.
    """
    last = cond.last_solve
    if last is not None and np.array_equal(rhs, last[0]):
        return last[1], last[2]
    z = apply_blocks(cond.shifted_inv, rhs)
    a_lam = cond.facet_solver.solve(-(cond.shifted_elim_t @ rhs))
    a_psi = z - cond.mu * (cond.shifted_elim @ a_lam)
    cond.last_solve = (rhs.copy(), a_psi, a_lam)
    return a_psi, a_lam


def reconstruct_velocity(ops: AssembledOperators, psi: np.ndarray,
                         lam: np.ndarray) -> np.ndarray:
    """Element-wise velocity solve Mv v = -(B psi + E lam)."""
    lam_e = ops.tables.facet_values(lam).ravel()
    rhs = (apply_blocks(ops.divergence, psi)
           + apply_blocks(ops.trace_vector_local, lam_e))
    return -apply_blocks(ops.vector_mass_inv, rhs)
