"""Error norms, energy functionals, superconvergent postprocessing, rates."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .basis import TriangleBasis, scalar_space_dim, triangle_quadrature
from .mesh import Mesh, element_geometry, quadrature_points
from .newmark import NewmarkConfig, State, corrected_state, predictor
from .operators import (AssembledOperators, NondegeneracyError,
                        refuse_nonpositive)


@dataclass
class DiscreteScalarField:
    """Piecewise polynomial of one scalar unknown per element block."""

    mesh: Mesh
    degree: int
    coeffs: np.ndarray  # (n_elements * dim,)
    _basis: TriangleBasis = field(default=None, repr=False)

    def __post_init__(self):
        self._basis = TriangleBasis(self.degree)
        d = self._basis.dim
        if self.coeffs.shape != (self.mesh.n_triangles * d,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, expected "
                f"({self.mesh.n_triangles * d},)")

    def eval_reference(self, ref_points: np.ndarray) -> np.ndarray:
        """Values at the same reference points in every element, (ne, nq)."""
        phi = self._basis.eval_values(ref_points)
        return self.coeffs.reshape(self.mesh.n_triangles, -1) @ phi.T

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Values at physical points, each in the first element containing it
        to 1e-12, located in chunks of at most 2^18 point-element pairs."""
        points = np.atleast_2d(points)
        vert0, jac, _ = element_geometry(self.mesh)
        jinv = np.linalg.inv(jac)
        coeffs = self.coeffs.reshape(self.mesh.n_triangles, -1)
        chunk = max(1, 2**18 // self.mesh.n_triangles)
        out = np.empty(points.shape[0])
        for i in range(0, points.shape[0], chunk):
            pts = points[i:i + chunk]
            ref = (jinv @ (pts[:, None, :] - vert0)[..., None])[..., 0]
            inside = ((ref[..., 0] >= -1.0e-12) & (ref[..., 1] >= -1.0e-12)
                      & (ref.sum(axis=2) <= 1.0 + 1.0e-12))
            if not inside.any(axis=1).all():
                pt = pts[np.argmin(inside.any(axis=1))]
                raise ValueError(f"point {tuple(pt)} lies outside the mesh")
            e = np.argmax(inside, axis=1)  # first containing element
            phi = self._basis.eval_values(
                np.clip(ref[np.arange(len(pts)), e], 0.0, 1.0))
            out[i:i + chunk] = (coeffs[e][:, None, :] @ phi[:, :, None]).ravel()
        return out


@dataclass
class DiscreteVectorField:
    """Piecewise polynomial vector field, [x-coeffs, y-coeffs] per element."""

    mesh: Mesh
    degree: int
    coeffs: np.ndarray  # (2 * n_elements * dim,)
    _basis: TriangleBasis = field(default=None, repr=False)

    def __post_init__(self):
        self._basis = TriangleBasis(self.degree)
        d = self._basis.dim
        if self.coeffs.shape != (2 * self.mesh.n_triangles * d,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, expected "
                f"({2 * self.mesh.n_triangles * d},)")

    def eval_reference(self, ref_points: np.ndarray) -> np.ndarray:
        """Values at shared reference points, (ne, nq, 2)."""
        phi = self._basis.eval_values(ref_points)
        d = self._basis.dim
        c = self.coeffs.reshape(self.mesh.n_triangles, 2, d)
        return np.einsum("ecd,qd->eqc", c, phi)


def scalar_field(ops: AssembledOperators, coeffs: np.ndarray) -> DiscreteScalarField:
    return DiscreteScalarField(ops.tables.mesh, ops.layout.degree,
                               np.asarray(coeffs, dtype=float))


def vector_field(ops: AssembledOperators, coeffs: np.ndarray) -> DiscreteVectorField:
    return DiscreteVectorField(ops.tables.mesh, ops.layout.degree,
                               np.asarray(coeffs, dtype=float))


def l2_error(fld, exact, t: float = 0.0, quad_order: int | None = None) -> float:
    """L2 distance between a discrete field and a callable exact(x, y, t).

    For vector fields the callable must return a pair of arrays. Quadrature
    defaults to degree 2p + 4 on the field's mesh.
    """
    order = 2 * fld.degree + 4 if quad_order is None else quad_order
    rule = triangle_quadrature(order)
    xq = quadrature_points(fld.mesh, rule.points)
    wdet = rule.weights[None, :] * element_geometry(fld.mesh)[2][:, None]
    if isinstance(fld, DiscreteVectorField):
        vals = fld.eval_reference(rule.points)
        ex, ey = exact(xq[..., 0], xq[..., 1], t)
        diff2 = (vals[..., 0] - ex) ** 2 + (vals[..., 1] - ey) ** 2
    else:
        vals = fld.eval_reference(rule.points)
        diff2 = (vals - exact(xq[..., 0], xq[..., 1], t)) ** 2
    return float(np.sqrt(np.sum(wdet * diff2)))


def postprocess(psi: np.ndarray, v: np.ndarray,
                ops: AssembledOperators) -> DiscreteScalarField:
    """Element-wise gradient recovery into polynomials one degree higher.

    The recovered field matches the velocity field weakly through its
    gradient and preserves each element mean of psi; for degrees >= 1 its
    error superconverges by one order.
    """
    lay = ops.layout
    p, d = lay.degree, lay.dim_scalar
    basis_hi = TriangleBasis(p + 1)
    dhi = basis_hi.dim
    rule = triangle_quadrature(2 * (p + 1))
    _, gphi_hi = basis_hi.eval(rule.points)
    tab = ops.tables
    ghi = tab.physical_gradients(gphi_hi)
    wdet = rule.weights[None, :] * tab.detj[:, None]
    gram = np.einsum("eq,eqia,eqja->eij", wdet, ghi, ghi)
    vq = DiscreteVectorField(tab.mesh, p, np.asarray(v, dtype=float)
                             ).eval_reference(rule.points)
    rhs = np.einsum("eq,eqa,eqia->ei", wdet, vq, ghi)
    ne = lay.n_elements
    coeffs = np.zeros((ne, dhi))
    # mode 0 is the constant: fixing its coefficient to the low-order one
    # preserves the element means, the rest solve the gradient system
    coeffs[:, 0] = psi.reshape(ne, d)[:, 0]
    coeffs[:, 1:] = np.linalg.solve(gram[:, 1:, 1:], rhs[:, 1:, None])[..., 0]
    return DiscreteScalarField(tab.mesh, p + 1, coeffs.reshape(-1))


# states per chunk of energy: its temporaries grow with the chunk, and
# chunks of 4 to 8 states run fastest
ENERGY_CHUNK = 4


class History:
    """The states of one run, kept as the accelerations from which energy
    replays them: t (S,) and one row ddpsi, ddlam (S, n_scalar + n_facet)
    per state, plus a copy of the first state. Calling it with a State
    records that state in the next row, so it serves as an observer of
    newmark.run with the run's cfg; the rows are allocated at the first
    call, and a state beyond them is refused. Every later state must be the
    next step, at exactly the previous t + cfg.dt: chunks rebuilds it from
    cfg alone with newmark.predictor and newmark.corrected_state."""

    FIELDS = ("psi", "dpsi", "ddpsi", "lam", "dlam")

    def __init__(self, rows: int, cfg: NewmarkConfig):
        self.t = np.empty(rows)
        self.size = 0
        self.cfg = cfg

    def __call__(self, state: State) -> None:
        if self.size == self.t.size:
            raise ValueError(f"History holds rows = {self.t.size} states, "
                             f"refusing one more at t = {state.t!r}")
        if self.size == 0:
            self.first = copy.deepcopy(state)
            self.accelerations = np.empty(
                (self.t.size, state.ddpsi.size + state.ddlam.size))
        elif state.t != self.t[self.size - 1] + self.cfg.dt:
            raise ValueError(
                f"state at t = {state.t!r} is not the step of dt = "
                f"{self.cfg.dt!r} after t = {self.t[self.size - 1]!r}: only "
                f"consecutive steps of one run can be replayed")
        ns = state.ddpsi.size
        self.t[self.size] = state.t
        self.accelerations[self.size, :ns] = state.ddpsi
        self.accelerations[self.size, ns:] = state.ddlam
        self.size += 1

    def chunks(self):
        """The recorded states, replayed in order, in stacks of up to
        ENERGY_CHUNK: tuples (t, psi, dpsi, ddpsi, lam, dlam) of arrays
        whose leading axis runs over the states of the stack."""
        state = self.first
        ns = state.ddpsi.size
        for start in range(0, self.size, ENERGY_CHUNK):
            stop = min(start + ENERGY_CHUNK, self.size)
            stacks = [np.empty((stop - start, getattr(state, name).size))
                      for name in self.FIELDS]
            for row in range(start, stop):
                if row > 0:
                    acc = self.accelerations[row]
                    state = corrected_state(predictor(state, self.cfg),
                                            acc[:ns], acc[ns:], self.cfg)
                for stack, name in zip(stacks, self.FIELDS):
                    stack[row - start] = getattr(state, name)
            yield (self.t[start:stop], *stacks)


def energy(states: History, ops: AssembledOperators, k: float, c: float):
    """Discrete energies of the states of a History.

    Returns (e0, e1), arrays (S,) for the S recorded states. e0 combines
    the weighted kinetic term of the velocity unknown with the stored
    acoustic terms (vector field plus stabilization jumps); e1 is the
    same functional one time-derivative higher, both with the weight
    1 + 2 k (d psi/dt). Raises NondegeneracyError, naming the first state
    and its elements, where that weight is not strictly positive. The
    states go through in the chunks of History.chunks.
    """
    table = _stored_energy_table(ops)
    e0, e1 = np.empty(len(states.t)), np.empty(len(states.t))
    start = 0
    for times, psi, dpsi, ddpsi, lam, dlam in states.chunks():
        m = len(times)
        part = slice(start, start + m)
        kin0, kin1 = _kinetic_energies(dpsi, ddpsi, k, ops.tables, start,
                                       times)
        # the columns: the m states' (psi, lam), then their (dpsi, dlam)
        out = table @ ops.tables.element_values(
            np.concatenate([psi, dpsi]).T, np.concatenate([lam, dlam]).T)
        stored = np.einsum("eis,eis->s", out, out)
        e0[part] = 0.5 * kin0 + 0.5 * c * c * stored[:m]
        e1[part] = 0.5 * kin1 + 0.5 * c * c * stored[m:]
        start += m
    return e0, e1


def _stored_energy_table(ops: AssembledOperators) -> np.ndarray:
    """Element blocks T (ne, 2d + 3nq, d + 3pf) such that the stored energy
    of a state (psi, lam) is the sum of squares of T applied to its
    ElementTables.element_values.

    The first 2d rows are the element rows [B | E] (velocity_row) over
    sqrt|det J|: their squares sum to v Mv v for the velocity v = -Mv^-1
    (B psi + E lam), Mv = |det J| I. The other 3nq are sqrt(tau w) (lam -
    psi) at the facet quadrature points, with lam = 0 on boundary facets.
    The jump is taken at the points, because on a smooth state it is far
    smaller than psi S psi or lam G lam and their quadratic-form expansion
    would cancel it away.
    """
    tab, lay = ops.tables, ops.layout
    ne, d, pf = lay.n_elements, lay.dim_scalar, lay.dim_facet
    root_w = np.sqrt((ops.tau * tab.topo.facet_lengths[tab.topo.elem_facets])
                     [:, :, None] * tab.facet_rule.weights).reshape(ne, -1, 1)
    table = np.empty((ne, 2 * d + root_w.shape[1], d + 3 * pf))
    table[:, :2 * d] = ops.velocity_row / np.sqrt(tab.detj)[:, None, None]
    table[:, 2 * d:, :d] = -root_w * tab.trace[tab.sides].reshape(ne, -1, d)
    table[:, 2 * d:, d:] = root_w * np.kron(np.eye(3), tab.mu)
    return table


def _kinetic_energies(dpsi, ddpsi, k: float, tab, start: int, times):
    """Integrals of (1 + 2k dpsi) dpsi^2 and (1 + 2k dpsi) ddpsi^2 over the
    domain of stacked states (m, n_scalar), the first of which is state
    start."""
    m, d = len(dpsi), tab.layout.dim_scalar
    dpsi_q = (dpsi.reshape(-1, d) @ tab.phi_nl.T).reshape(m, -1)
    weight = 2.0 * k * dpsi_q
    weight += 1.0
    if np.min(weight) <= 0.0:
        s = int(np.argmax(np.min(weight, axis=1) <= 0.0))
        try:
            refuse_nonpositive(weight[s].reshape(tab.layout.n_elements, -1))
        except NondegeneracyError as err:
            raise NondegeneracyError(
                f"state {start + s} (t = {times[s]:.6g}): {err}",
                elements=err.elements) from err
    weight *= tab.weights_nl.reshape(-1)
    kin0 = np.einsum("sq,sq,sq->s", weight, dpsi_q, dpsi_q)
    ddpsi_q = (ddpsi.reshape(-1, d) @ tab.phi_nl.T).reshape(m, -1)
    return kin0, np.einsum("sq,sq,sq->s", weight, ddpsi_q, ddpsi_q)


def convergence_rates(errors, hs) -> list[float]:
    """Observed orders between consecutive levels; nan where undefined."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape:
        raise ValueError("errors and mesh sizes must have matching lengths")
    if np.any(hs <= 0.0) or np.any(np.diff(hs) >= 0.0):
        raise ValueError("mesh sizes must be positive and strictly decreasing")
    rates = []
    for i in range(1, len(errors)):
        if errors[i - 1] <= 0.0 or errors[i] <= 0.0:
            rates.append(float("nan"))
        else:
            rates.append(float(np.log(errors[i - 1] / errors[i])
                               / np.log(hs[i - 1] / hs[i])))
    return rates
