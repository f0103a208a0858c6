"""Block assembly of the HDG operators for the mixed wave system.

Unknowns per element: a scalar polynomial (the acoustic potential), a vector
polynomial (its gradient proxy), and per interior facet a polynomial trace.
The basis is orthonormal and every element affine, so the masses (psi, w)_K
and (v, r)_K (Mv) are |det J| I, ElementTables.detj, and are not stored. The
other bilinear forms, with w/r/mu running over scalar/vector/facet test
functions, are

    B  (psi, div r)_K                 E  -(lam, [r . n])_F
    F  -(tau lam, w)_{dK interior}    G  (tau lam, mu)_{dK interior}
    S  (tau psi, w)_{dK}

and, with the velocity eliminated, each element stores three blocks:

    velocity_row  [B | E]                                   (ne, 2d, d + 3pf)
    scalar_row    [Ks | R], Ks = S + Bt B / |det J|,
                  R = F + Bt E / |det J|                    (ne, d, d + 3pf)
    facet_block   A_K = G_K + Et E / |det J|                (ne, 3pf, 3pf)

where G_K puts the penalty tau |F| (mu_m, mu_n)_F of each interior side on
its own diagonal block, so that the facet Gram matrix is A = sum_K A_K
(factored in gram_solver).

The facet columns of E, F, R and A_K run over the element's three local
facets, pf modes each; they are zero on boundary facets and, for F and G_K,
on unstabilized sides. ElementTables.element_rows, the one facet dof map,
maps the columns of velocity_row and scalar_row, the element's scalar dofs
and then these, into [psi; lam; 0]: boundary facets map to the trailing
zero, one past the last facet dof. Vector dofs are stored per element as
[x-component coeffs, y-component coeffs]. Facet dofs exist on interior
facets only; homogeneous Dirichlet traces are hard zeros.

Every sparse facet matrix is summed from element blocks through one of the
two BlockPatterns of ElementTables, sorted once by scatter_csr on the facet
part of that map: scalar_facet (scalar dof x facet dof: every W, and R for
the Rt psi of the initial traces) and facet_facet (facet dof x facet dof: A
and every facet Schur complement). Both drop the boundary facets, whose
index lies on the bound. An assembly is then one gather, with the terms of
every entry added in element order and exactly-zero sums dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import (
    SegmentBasis,
    TriangleBasis,
    scalar_space_dim,
    segment_quadrature,
    triangle_quadrature,
)
from .mesh import (LOCAL_FACETS, FacetTopology, Mesh, element_geometry,
                   quadrature_points)
from .parameters import MAX_PENALTY_RATIO, check_parameter


class AssemblyError(Exception):
    """Inconsistent sizes or parameters during operator assembly."""


class SolverError(Exception):
    """A solve that broke down on valid input: the command line exits 3."""


class CondensationError(SolverError):
    """Invalid parameters or unusable condensed operators."""


class NondegeneracyError(SolverError):
    """The nonlinear coefficient 1 + 2 k theta lost positivity."""

    def __init__(self, message, elements=()):
        super().__init__(message)
        self.elements = tuple(int(e) for e in elements)


# reference triangle vertices, numbered like the local vertices
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class DofLayout:
    """Global index layout for the three unknown fields."""

    degree: int
    n_elements: int
    n_interior_facets: int

    @property
    def dim_scalar(self) -> int:
        return scalar_space_dim(self.degree)

    @property
    def dim_facet(self) -> int:
        return self.degree + 1

    @property
    def n_scalar(self) -> int:
        return self.n_elements * self.dim_scalar

    @property
    def n_facet(self) -> int:
        return self.n_interior_facets * self.dim_facet


def facet_traces(basis: TriangleBasis, s: np.ndarray) -> np.ndarray:
    """Element basis values (3, 2, nq, d) on each local facet at the segment
    points s, for both orientations: index 1 runs the facet from its first
    to its second local vertex, index 0 the other way round."""
    first, second = _REF_VERTS[np.array(LOCAL_FACETS).T][:, :, None, None]
    # (3, 2, nq, 2) reference points: reversed, then forward
    lo = np.concatenate([second, first], axis=1)
    hi = np.concatenate([first, second], axis=1)
    ref = lo + s[:, None] * (hi - lo)
    return basis.eval_values(ref.reshape(-1, 2)).reshape(3, 2, s.shape[0], -1)


class ElementTables:
    """Geometry and basis evaluations shared by all assembly routines. The
    physical basis gradients, which only assembly and postprocessing read,
    are formed on demand (physical_gradients)."""

    def __init__(self, mesh: Mesh, topo: FacetTopology, layout: DofLayout):
        p = layout.degree
        self.mesh = mesh
        self.topo = topo
        self.layout = layout
        basis = TriangleBasis(p)
        self.cell_rule = triangle_quadrature(2 * p + 2)
        nonlinear_rule = triangle_quadrature(max(3 * p, 2))
        self.facet_rule = segment_quadrature(2 * p + 2)

        self.phi, self.gphi = basis.eval(self.cell_rule.points)
        self.phi_nl = basis.eval_values(nonlinear_rule.points)
        self.mu = SegmentBasis(p).eval(self.facet_rule.points)

        _, jac, self.detj = element_geometry(mesh)
        self.jinv_t = np.linalg.inv(jac).transpose(0, 2, 1)
        # nonlinear-rule weights times |det J|, (ne, nq)
        self.weights_nl = nonlinear_rule.weights[None, :] * self.detj[:, None]
        self.xq = quadrature_points(mesh, self.cell_rule.points)

        self.trace = facet_traces(basis, self.facet_rule.points)
        # picks each element's own (local facet, orientation) entry from the
        # leading axes of trace and of tables built from it
        self.sides = (np.arange(3)[None, :], topo.elem_facet_forward.astype(int))
        # the facet dof map: the global facet dof of every (element, local
        # facet, facet mode), flattened to (ne, 3 pf); n_facet, one past the
        # last, on boundary facets
        pf, nf = layout.dim_facet, layout.n_facet
        ifac = topo.interior_index[topo.elem_facets][:, :, None]
        facet = np.where(ifac >= 0, ifac * pf + np.arange(pf),
                         nf).reshape(-1, 3 * pf)
        # each element's entries of [psi; lam; 0]: its scalar dofs, then its
        # facet dofs, boundary facets on the trailing zero
        scalar = element_dofs(layout.n_elements, layout.dim_scalar)
        self.element_rows = np.concatenate([scalar, layout.n_scalar + facet],
                                           axis=1)
        # the patterns of every facet matrix, sorted once: element blocks on
        # (scalar dof, facet dof) and on (facet dof, facet dof); both drop
        # the boundary facets, which lie on the bound nf
        self.scalar_facet = scatter_csr((layout.n_scalar, nf), scalar, facet)
        self.facet_facet = scatter_csr((nf, nf), facet, facet)

    def physical_gradients(self, gref: np.ndarray) -> np.ndarray:
        """Gradients (ne, nq, dim, 2) in every element of the basis whose
        reference gradients at nq points are gref (nq, dim, 2)."""
        return np.einsum("eab,qib->eqia", self.jinv_t, gref)

    def at_nonlinear_points(self, u) -> np.ndarray:
        """Values (ne, nq) at the points of the nonlinear rule of the scalar
        field with coefficients u."""
        lay = self.layout
        u = np.asarray(u, dtype=float)
        if u.shape != (lay.n_scalar,):
            raise AssemblyError(f"coefficient vector has shape {u.shape}, "
                                f"expected ({lay.n_scalar},)")
        return u.reshape(lay.n_elements, lay.dim_scalar) @ self.phi_nl.T

    def element_values(self, psi: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """The scalar then facet coefficients of each element, (ne, d + 3 pf,
        ...) in the order of element_rows, of psi (n_scalar, ...) and lam
        (n_facet, ...); zero on boundary facets."""
        zero = np.zeros((1, *np.shape(psi)[1:]))
        return np.concatenate([psi, lam, zero])[self.element_rows]


def tau_pattern(topo: FacetTopology, tau_bar: float, tau_mode: str) -> np.ndarray:
    """Per-(element, local facet) stabilization values."""
    check_parameter("tau", tau_bar, AssemblyError)
    check_parameter("tau_mode", tau_mode, AssemblyError)
    nt = topo.elem_facets.shape[0]
    if tau_mode == "uniform":
        return np.full((nt, 3), tau_bar, dtype=float)
    tau = np.zeros((nt, 3))
    tau[np.arange(nt), topo.stab_facet] = tau_bar
    return tau


@dataclass
class AssembledOperators:
    """Static matrices of the semidiscrete system in block storage."""

    layout: DofLayout
    tables: ElementTables
    tau: np.ndarray  # (ne, 3)
    velocity_row: np.ndarray  # (ne, 2d, d + 3pf) [B | E], element_rows columns
    scalar_row: np.ndarray  # (ne, d, d + 3pf) [Ks | R], element_rows columns
    facet_block: np.ndarray  # (ne, 3pf, 3pf) A_K, its facet columns
    gram_solver: object = field(repr=False)


def apply_blocks(blocks: np.ndarray, u) -> np.ndarray:
    """Apply a block-diagonal operator (ne, r, d) to a vector of stacked
    coefficients."""
    ne, d = blocks.shape[0], blocks.shape[2]
    # einsum beats the batched matmul on these small blocks
    return np.einsum("eij,ej->ei", blocks, np.reshape(u, (ne, d))).reshape(-1)


def element_dofs(n_elements: int, dim: int) -> np.ndarray:
    """Global indices (ne, dim) of the element-blocked unknowns."""
    return np.arange(n_elements * dim).reshape(n_elements, dim)


@dataclass(frozen=True)
class BlockPattern:
    """The CSR pattern of a sum of blocks on fixed global indices, sorted
    once by scatter_csr. Its arrays are read-only; a matrix that drops no
    entry shares indices and indptr with it."""

    shape: tuple[int, int]
    block_shape: tuple[int, int, int]
    # position in the flattened blocks of the first term of every entry,
    # and (entries, positions) of the second, third...
    first: np.ndarray
    later: tuple[tuple[np.ndarray, np.ndarray], ...]
    indices: np.ndarray  # column of every entry, in row-major order
    indptr: np.ndarray

    def assemble(self, blocks: np.ndarray) -> sp.csr_matrix:
        """The sum of blocks: the terms of each entry are added in block
        order, like an element-by-element accumulation, and sums that
        vanish are not stored."""
        if blocks.shape != self.block_shape:
            raise AssemblyError(f"blocks of shape {blocks.shape} do not fit "
                                f"a pattern of {self.block_shape}")
        flat = blocks.ravel()
        # take and put: fancy indexing would convert the int32 indices on
        # every call
        data = flat.take(self.first)
        for entries, positions in self.later:
            terms = data.take(entries)
            terms += flat.take(positions)
            data.put(entries, terms)
        keep = data != 0.0
        if keep.all():
            return sp.csr_matrix((data, self.indices, self.indptr),
                                 shape=self.shape)
        # each row starts earlier by the entries dropped before it
        indptr = self.indptr - np.searchsorted(np.flatnonzero(~keep),
                                               self.indptr)
        return sp.csr_matrix((data[keep], self.indices[keep],
                              indptr.astype(self.indptr.dtype)),
                             shape=self.shape)


def scatter_csr(shape, rows, cols) -> BlockPattern:
    """The pattern of a sparse matrix of shape summed from blocks (n, r, c)
    whose entry (b, i, j) lies on row rows[b, i] and column cols[b, j]. An
    entry whose row or column lies outside shape, negative or on the bound,
    is dropped; the terms of an entry are summed in block order."""
    rr, cc = np.broadcast_arrays(rows[:, :, None], cols[:, None, :])
    inside = (rr >= 0) & (rr < shape[0]) & (cc >= 0) & (cc < shape[1])
    keys = np.where(inside, rr * shape[1] + cc, -1).ravel()
    index = np.int32 if max(keys.size, *shape) < 2**31 else np.int64
    kept = np.flatnonzero(keys >= 0)
    order = kept[np.argsort(keys[kept], kind="stable")]
    keys = keys[order]
    # where each entry's terms start among the sorted ones, and how many
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(starts, append=keys.size)
    later = []
    for t in range(1, counts.max(initial=1)):
        entries = np.flatnonzero(counts > t)
        later.append((entries.astype(index),
                      order[starts[entries] + t].astype(index)))
    # the keys are sorted and unique: row-major CSR order already
    keys = keys[starts]
    first = order[starts].astype(index)
    indices = (keys % shape[1]).astype(index)
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    indptr = indptr.astype(index)
    for arr in (first, indices, indptr, *(a for pair in later for a in pair)):
        arr.setflags(write=False)
    return BlockPattern(shape=tuple(shape), block_shape=rr.shape,
                        first=first, later=tuple(later), indices=indices,
                        indptr=indptr)


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


def assemble_operators(mesh: Mesh, topo: FacetTopology, degree: int,
                       tau_bar: float = 1.0,
                       tau_mode: str = "single_facet") -> AssembledOperators:
    """Assemble all static matrices of the scheme at degree on mesh, whose
    facet topology is topo. Raises AssemblyError for a degree, tau_bar or
    tau_mode out of range, for a tau_bar so large that the condensed
    stiffness Ks or coupling R is not finite, and for one whose facet
    penalty G_K exceeds the rest of A_K, largest entry against largest
    entry, by more than parameters.MAX_PENALTY_RATIO."""
    check_parameter("degree", degree, AssemblyError)
    layout = DofLayout(degree, mesh.n_triangles, topo.n_interior)
    tab = ElementTables(mesh, topo, layout)
    tau = tau_pattern(topo, tau_bar, tau_mode)
    ne, d = layout.n_elements, layout.dim_scalar
    pf = layout.dim_facet
    w = tab.cell_rule.weights
    phi, detj = tab.phi, tab.detj
    gphys = tab.physical_gradients(tab.gphi)

    # divergence[e, comp*d + i, j] = int_K phi_j d(phi_i)/d(x_comp);
    # the (comp, i) flattening matches the vector dof layout
    div = np.einsum("q,qj,eqic->ecij", w, phi, gphys) * detj[:, None, None, None]
    divergence = div.reshape(ne, 2 * d, d)

    # reference facet integrals per (local facet, orientation), gathered to
    # every (element, local facet) and scaled by the facet length
    wf = tab.facet_rule.weights
    trace_t = tab.trace.transpose(0, 1, 3, 2)
    trace_mu = trace_t @ (wf[:, None] * tab.mu)
    trace_trace = trace_t @ (wf[:, None] * tab.trace)
    length = topo.facet_lengths[topo.elem_facets]  # (ne, 3)
    interior = topo.is_interior[topo.elem_facets]  # (ne, 3)
    tau_len = (tau * length)[:, :, None, None]
    # C[t, i, lf, m] = int_F phi_i mu_m on local facet lf
    cmat = (length[:, :, None, None] * trace_mu[tab.sides]).transpose(0, 2, 1, 3)
    boundary_penalty = (tau_len * trace_trace[tab.sides]).sum(axis=1)
    normals = (interior[:, :, None] * topo.normals).transpose(0, 2, 1)
    trace_vector_local = -(normals[:, :, None, :, None] * cmat[:, None]
                           ).reshape(ne, 2 * d, 3 * pf)
    tau_in = tau * interior  # zero on boundary facets
    trace_scalar_local = -(tau_in[:, None, :, None] * cmat
                           ).reshape(ne, d, 3 * pf)

    # Bt and Et times Mv^-1 = I / |det J|
    bt_minv = divergence.transpose(0, 2, 1) / detj[:, None, None]
    et_minv = trace_vector_local.transpose(0, 2, 1) / detj[:, None, None]
    # A_K = G_K + Et Mv^-1 E, G_K each interior side's penalty on its own
    # diagonal block
    facet_block = et_minv @ trace_vector_local
    by_facet = facet_block.reshape(ne, 3, pf, 3, pf)  # a view
    mu_mass = tab.mu.T @ (wf[:, None] * tab.mu)
    side_penalty = tau_in * length
    # the largest entries of G_K and of the rest of A_K
    penalty = np.max(side_penalty) * np.max(np.abs(mu_mass))
    coupling = max(facet_block.max(), -facet_block.min())
    for lf in range(3):
        by_facet[:, lf, :, lf] += side_penalty[:, lf, None, None] * mu_mass
    stiffness = boundary_penalty + np.matmul(bt_minv, divergence)
    scalar_row = np.concatenate(
        [0.5 * (stiffness + stiffness.transpose(0, 2, 1)),
         trace_scalar_local + bt_minv @ trace_vector_local], axis=2)
    if not np.isfinite(scalar_row).all():
        raise AssemblyError(f"tau = {tau_bar} overflows the condensed "
                            f"stiffness or coupling at degree {degree}")
    if penalty > MAX_PENALTY_RATIO * coupling:
        raise AssemblyError(
            f"tau = {tau_bar} makes the facet penalty {penalty / coupling:.3g} "
            f"times the rest of A_K at degree {degree}, above "
            f"{MAX_PENALTY_RATIO:g}")
    return AssembledOperators(
        layout=layout,
        tables=tab,
        tau=tau,
        velocity_row=np.concatenate([divergence, trace_vector_local], axis=2),
        scalar_row=scalar_row,
        facet_block=facet_block,
        gram_solver=_factorize("facet Gram matrix",
                               tab.facet_facet.assemble(facet_block)),
    )


def refuse_nonpositive(coeff: np.ndarray) -> None:
    """Raise NondegeneracyError naming the elements where the values
    1 + 2 k theta (ne, nq) at the nonlinear points are not strictly
    positive, if any."""
    if np.min(coeff) <= 0.0:
        bad = np.flatnonzero(np.min(coeff, axis=1) <= 0.0)
        raise NondegeneracyError(
            f"1 + 2k*theta nonpositive (min {np.min(coeff):.6g}) on elements "
            f"{bad[:8].tolist()}",
            elements=bad,
        )


def assemble_nonlinear_mass(theta: np.ndarray, k: float,
                            tables: ElementTables) -> np.ndarray:
    """Element blocks of ((1 + 2 k theta) phi_i, phi_j)_K.

    theta holds scalar-field coefficients. Raises NondegeneracyError when
    1 + 2 k theta is not strictly positive at every quadrature point of the
    nonlinear rule.
    """
    coeff = 1.0 + 2.0 * k * tables.at_nonlinear_points(theta)
    refuse_nonpositive(coeff)
    phi = tables.phi_nl
    weights = coeff * tables.weights_nl
    return np.matmul((weights[:, :, None] * phi[None, :, :]).transpose(0, 2, 1),
                     phi)


def nonlinear_defect(theta: np.ndarray, a: np.ndarray, k: float,
                     tables: ElementTables) -> np.ndarray:
    """The vector (M - N(theta)) a = -2k ((theta a) phi_i)_K, evaluated at
    the points of the nonlinear rule without forming N(theta).

    Raises NondegeneracyError under the same condition as
    assemble_nonlinear_mass, and forms 1 + 2 k theta only then: it is
    monotone in theta, so its smallest value is the one at the smallest
    theta for k > 0 and at the largest for k < 0.
    """
    theta_q = tables.at_nonlinear_points(theta)
    a_q = tables.at_nonlinear_points(a)
    if k != 0.0 and 1.0 + 2.0 * k * (
            theta_q.min() if k > 0.0 else theta_q.max()) <= 0.0:
        refuse_nonpositive(1.0 + 2.0 * k * theta_q)
    # theta_q becomes -2k w theta a in place
    theta_q *= tables.weights_nl
    theta_q *= a_q
    theta_q *= -2.0 * k
    return (theta_q @ tables.phi_nl).ravel()


def assemble_load(f, t: float, tables: ElementTables) -> np.ndarray:
    """Load vector (f(., t), phi_i)_K for a vectorized callable f(x, y, t)."""
    xq = tables.xq
    vals = f(xq[..., 0], xq[..., 1], t)
    weights = (tables.cell_rule.weights[None, :] * tables.detj[:, None]) * vals
    return (weights @ tables.phi).ravel()
