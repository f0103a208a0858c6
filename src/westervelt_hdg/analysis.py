"""Error norms, energy functionals, superconvergent postprocessing, rates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import TriangleBasis, scalar_space_dim, triangle_quadrature
from .condensation import reconstruct_velocity
from .mesh import Mesh, element_geometry
from .newmark import State
from .operators import AssembledOperators, apply_blocks, nonlinear_coefficient


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
    vert0, jac, detj = element_geometry(fld.mesh)
    xq = vert0[:, None, :] + np.einsum("eab,qb->eqa", jac, rule.points)
    wdet = rule.weights[None, :] * detj[:, None]
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
    # physical gradients of the enriched basis (ne, nq, dhi, 2)
    ghi = np.einsum("eab,qib->eqia", tab.jinv_t, gphi_hi)
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


def energy(state: State, ops: AssembledOperators, k: float,
           c: float) -> tuple[float, float]:
    """Discrete energies of the current state.

    Returns (e0, e1): e0 combines the weighted kinetic term of the velocity
    unknown with the stored acoustic terms (vector field plus stabilization
    jumps); e1 is the same functional one time-derivative higher, both with
    the weight 1 + 2 k (d psi/dt).
    """
    tab, lay = ops.tables, ops.layout
    ne, d = lay.n_elements, lay.dim_scalar
    wdet_nl = tab.weights_nl
    dpsi_q, weight = nonlinear_coefficient(state.dpsi, k, tab)
    ddpsi_q = state.ddpsi.reshape(ne, d) @ tab.phi_nl.T
    kin0 = 0.5 * float(np.sum(wdet_nl * weight * dpsi_q**2))
    kin1 = 0.5 * float(np.sum(wdet_nl * weight * ddpsi_q**2))

    vel = reconstruct_velocity(ops, state.psi, state.lam)
    dvel = reconstruct_velocity(ops, state.dpsi, state.dlam)
    store0 = float(vel @ apply_blocks(ops.vector_mass, vel))
    store1 = float(dvel @ apply_blocks(ops.vector_mass, dvel))

    # tau (lam - psi)^2 on every side, lam = 0 on boundary facets; the
    # difference is taken at the facet quadrature points, because on a
    # smooth state the jump is far smaller than psi S psi or lam G lam and
    # their quadratic-form expansion would cancel it away
    traces = tab.trace[tab.sides]  # (ne, 3, nq, d)
    jump_w = ((ops.tau * tab.topo.facet_lengths[tab.topo.elem_facets])
              [:, :, None] * tab.facet_rule.weights)

    def jump(psi, lam):
        psi_q = np.einsum("elqi,ei->elq", traces, psi.reshape(ne, d))
        lam_q = tab.facet_values(lam).reshape(ne, 3, -1) @ tab.mu.T
        return float(np.sum(jump_w * (lam_q - psi_q) ** 2))

    jump0 = jump(state.psi, state.lam)
    jump1 = jump(state.dpsi, state.dlam)
    c2 = c * c
    e0 = kin0 + 0.5 * c2 * (store0 + jump0)
    e1 = kin1 + 0.5 * c2 * (store1 + jump1)
    return e0, e1


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
