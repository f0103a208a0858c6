"""Independent dense reference implementations backing the test suite.

Chain of trust: the oracle quadrature below is its own Duffy-type
construction from numpy Gauss-Legendre nodes and is certified against exact
rational monomial moments; the basis is rebuilt symbolically with sympy and
certified against the package basis pointwise. Dense matrix oracles then use
only the symbolic basis, oracle quadrature, nested loops and dense numpy
linear algebra. No assembly, condensation or time-integration code from the
package is exercised inside an oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse
import sympy as sp
from scipy.special import eval_legendre

from westervelt_hdg.basis import (
    SegmentBasis,
    TriangleBasis,
    scalar_space_dim,
    segment_quadrature,
    triangle_quadrature,
)
from westervelt_hdg.condensation import build_condensed
from westervelt_hdg.mesh import (
    LOCAL_FACETS,
    FacetTopology,
    Mesh,
    MeshError,
    element_geometry,
    generate_structured_mesh,
)
from westervelt_hdg.newmark import (
    Discretization,
    NewmarkConfig,
    NonconvergenceError,
    ProblemDefinition,
    State,
    _change_metric,
    compute_initial_acceleration,
    compute_initial_state,
    corrector_step,
    load_function,
    number_of_steps,
    predictor,
    stiffness_load,
)
from westervelt_hdg.operators import (
    AssembledOperators,
    DofLayout,
    ElementTables,
    apply_blocks,
    element_dofs,
    facet_traces,
    scatter_csr,
)


# ----------------------------------------------------------------------
# quadrature


def oracle_triangle_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Duffy rule on the unit triangle, exact for total degree <= order.

    Substituting x = u, y = v (1 - u) gives
    int_T f = int_0^1 int_0^1 f(u, v (1 - u)) (1 - u) dv du, a polynomial of
    degree order + 1 in u, handled exactly by enough Gauss-Legendre points.
    """
    q = order // 2 + 2
    xg, wg = np.polynomial.legendre.leggauss(q)
    u = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    uu = np.repeat(u, q)
    vv = np.tile(u, q)
    ww = np.repeat(w, q) * np.tile(w, q) * (1.0 - uu)
    pts = np.column_stack([uu, vv * (1.0 - uu)])
    return pts, ww


def oracle_segment_rule(npoints: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1]."""
    xg, wg = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (xg + 1.0), 0.5 * wg


def monomial_moment(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the unit triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# ----------------------------------------------------------------------
# symbolic basis


def _norm2(n: int, alpha: int, beta: int):
    """Weighted L2 norm squared of the Jacobi polynomial, exact rational."""
    return (sp.Rational(2 ** (alpha + beta + 1), 2 * n + alpha + beta + 1)
            * sp.factorial(n + alpha) * sp.factorial(n + beta)
            / (sp.factorial(n + alpha + beta) * sp.factorial(n)))


@functools.lru_cache(maxsize=None)
def symbolic_basis(degree: int):
    """Dubiner modes on the unit triangle as explicit sympy polynomials."""
    x, y = sp.symbols("x y")
    exprs = []
    for total in range(degree + 1):
        for m in range(total + 1):
            n = total - m
            b = 2 * y - 1
            a = 2 * x / (1 - y) - 1
            fa = sp.jacobi(m, 0, 0, a) / sp.sqrt(_norm2(m, 0, 0))
            gb = sp.jacobi(n, 2 * m + 1, 0, b) / sp.sqrt(_norm2(n, 2 * m + 1, 0))
            expr = 2 * sp.sqrt(2) * fa * gb * (1 - b) ** m
            exprs.append(sp.expand(sp.cancel(sp.together(expr))))
    return x, y, tuple(exprs)


@functools.lru_cache(maxsize=None)
def lambdified_basis(degree: int):
    """Numpy-callable (values only) version of the symbolic basis."""
    x, y, exprs = symbolic_basis(degree)
    return tuple(sp.lambdify((x, y), e, "numpy") for e in exprs)


def basis_values(degree: int, points: np.ndarray) -> np.ndarray:
    """(npts, dim) basis value table from the symbolic construction."""
    fns = lambdified_basis(degree)
    out = np.empty((points.shape[0], len(fns)))
    for i, fn in enumerate(fns):
        out[:, i] = np.broadcast_to(fn(points[:, 0], points[:, 1]),
                                    points.shape[0])
    return out


@functools.lru_cache(maxsize=None)
def reference_matrices(degree: int):
    """Exact reference mass and derivative-moment matrices (sympy integrals).

    Returns (mass, px, py) with mass[i, j] = int_T phi_i phi_j,
    px[i, j] = int_T phi_j d(phi_i)/dx and py likewise.
    """
    x, y, exprs = symbolic_basis(degree)
    dim = len(exprs)
    mass = np.empty((dim, dim))
    px = np.empty((dim, dim))
    py = np.empty((dim, dim))

    def tri_int(e):
        return float(sp.integrate(sp.integrate(e, (x, 0, 1 - y)),
                                  (y, 0, 1)).evalf(30))

    dx = [sp.expand(sp.diff(e, x)) for e in exprs]
    dy = [sp.expand(sp.diff(e, y)) for e in exprs]
    for i in range(dim):
        for j in range(dim):
            mass[i, j] = tri_int(sp.expand(exprs[i] * exprs[j]))
            px[i, j] = tri_int(sp.expand(exprs[j] * dx[i]))
            py[i, j] = tri_int(sp.expand(exprs[j] * dy[i]))
    return mass, px, py


def facet_basis_values(degree: int, s: np.ndarray) -> np.ndarray:
    """Orthonormal shifted Legendre values, (npts, degree + 1)."""
    return np.column_stack([
        math.sqrt(2 * k + 1) * eval_legendre(k, 2.0 * s - 1.0)
        for k in range(degree + 1)])


# ----------------------------------------------------------------------
# mesh helpers


def perturbed_mesh(n: int, seed: int, amplitude: float = 0.15) -> Mesh:
    """Structured mesh with interior vertices jittered; stays valid."""
    rng = np.random.default_rng(seed)
    base = generate_structured_mesh(n)
    verts = np.array(base.vertices)
    interior = ((verts[:, 0] > 1.0e-12) & (verts[:, 0] < 1.0 - 1.0e-12)
                & (verts[:, 1] > 1.0e-12) & (verts[:, 1] < 1.0 - 1.0e-12))
    verts[interior] += (amplitude / n) * rng.uniform(-1.0, 1.0,
                                                     (interior.sum(), 2))
    return Mesh(vertices=verts, triangles=np.array(base.triangles))


def loop_facet_topology(mesh: Mesh) -> FacetTopology:
    """Facet tables built by walking every (element, local facet) through a
    dict, numbering facets in order of first appearance; the reference for
    mesh.compute_facet_topology."""
    nt = mesh.n_triangles
    facet_id: dict[tuple[int, int], int] = {}
    facets: list[tuple[int, int]] = []
    neighbors: list[list[int]] = []
    seen_directions: list[set[tuple[int, int]]] = []
    elem_facets = np.empty((nt, 3), dtype=np.int64)
    forward = np.empty((nt, 3), dtype=bool)
    for t, tri in enumerate(mesh.triangles):
        for lf, (la, lb) in enumerate(LOCAL_FACETS):
            va, vb = int(tri[la]), int(tri[lb])
            key = (min(va, vb), max(va, vb))
            fid = facet_id.get(key)
            if fid is None:
                fid = len(facets)
                facet_id[key] = fid
                facets.append(key)
                neighbors.append([])
                seen_directions.append(set())
            if len(neighbors[fid]) >= 2:
                raise MeshError(f"facet {key} shared by more than two "
                                f"triangles: mesh is nonconforming")
            if (va, vb) in seen_directions[fid]:
                raise MeshError(f"facet {key} traversed twice in the same "
                                f"direction: inconsistent element orientation")
            seen_directions[fid].add((va, vb))
            neighbors[fid].append(t)
            elem_facets[t, lf] = fid
            forward[t, lf] = (va, vb) == key
    nf = len(facets)
    facets_arr = np.array(facets, dtype=np.int64)
    is_interior = np.array([len(elems) == 2 for elems in neighbors],
                           dtype=bool)
    lengths = np.linalg.norm(
        mesh.vertices[facets_arr[:, 1]] - mesh.vertices[facets_arr[:, 0]], axis=1
    )
    normals = np.empty((nt, 3, 2))
    for lf, (la, lb) in enumerate(LOCAL_FACETS):
        tang = (
            mesh.vertices[mesh.triangles[:, lb]] - mesh.vertices[mesh.triangles[:, la]]
        )
        tang = tang / np.linalg.norm(tang, axis=1)[:, None]
        normals[:, lf, 0] = tang[:, 1]
        normals[:, lf, 1] = -tang[:, 0]
    interior_index = np.full(nf, -1, dtype=np.int64)
    interior_index[is_interior] = np.arange(int(is_interior.sum()))
    # largest facet, ties broken by smallest global facet id
    stab = np.empty(nt, dtype=np.int64)
    for t in range(nt):
        fids = elem_facets[t]
        lens = lengths[fids]
        stab[t] = max(range(3), key=lambda lf: (lens[lf], -fids[lf]))
    return FacetTopology(
        is_interior=is_interior,
        elem_facets=elem_facets,
        elem_facet_forward=forward,
        normals=normals,
        facet_lengths=lengths,
        interior_index=interior_index,
        stab_facet=stab,
        n_interior=int(is_interior.sum()),
    )


def facet_vertices(mesh: Mesh, topo: FacetTopology) -> np.ndarray:
    """Vertex ids (n_facets, 2) of every facet of topo, lower id first,
    read off the triangles through topo.elem_facets."""
    ends = np.sort(mesh.triangles[:, np.array(LOCAL_FACETS)], axis=2)
    out = np.empty((topo.facet_lengths.size, 2), dtype=np.int64)
    out[topo.elem_facets] = ends
    return out


def _element_geometry(mesh: Mesh, t: int):
    tri = mesh.vertices[mesh.triangles[t]]
    jac = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    detj = float(np.linalg.det(jac))
    return tri, jac, detj, np.linalg.inv(jac)


def oracle_tau(mesh: Mesh, topo, tau_bar: float, tau_mode: str) -> np.ndarray:
    """Stabilization pattern recomputed from scratch, (ne, 3)."""
    ne = mesh.n_triangles
    tau = np.zeros((ne, 3))
    if tau_mode == "uniform":
        tau[:] = tau_bar
        return tau
    facets = facet_vertices(mesh, topo)
    for t in range(ne):
        candidates = []
        for lf in range(3):
            fid = int(topo.elem_facets[t, lf])
            lo, hi = facets[fid]
            length = float(np.linalg.norm(mesh.vertices[hi]
                                          - mesh.vertices[lo]))
            candidates.append((-length, fid, lf))
        candidates.sort()
        tau[t, candidates[0][2]] = tau_bar
    return tau


def _outward_normal(mesh: Mesh, t: int, lo: int, hi: int) -> np.ndarray:
    edge = mesh.vertices[hi] - mesh.vertices[lo]
    n = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)
    opposite = [v for v in mesh.triangles[t] if v not in (lo, hi)][0]
    mid = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
    if np.dot(n, mid - mesh.vertices[opposite]) < 0.0:
        n = -n
    return n


# ----------------------------------------------------------------------
# global index helpers


def n_vector(lay: DofLayout) -> int:
    """Number of vector-field unknowns."""
    return 2 * lay.n_scalar


def scalar_slice(lay: DofLayout, e: int) -> slice:
    d = lay.dim_scalar
    return slice(e * d, (e + 1) * d)


def vector_slice(lay: DofLayout, e: int) -> slice:
    d = 2 * lay.dim_scalar
    return slice(e * d, (e + 1) * d)


def facet_slice(lay: DofLayout, interior_idx: int) -> slice:
    d = lay.dim_facet
    return slice(interior_idx * d, (interior_idx + 1) * d)


def jacobian_mass(ops: AssembledOperators, components: int = 1) -> np.ndarray:
    """The scalar (components = 1) or vector (2) mass |det J| I that the
    package does not store, as a dense global matrix."""
    return np.diag(np.repeat(ops.tables.detj,
                             components * ops.layout.dim_scalar))


def block_diag_csr(blocks: np.ndarray) -> scipy.sparse.csr_matrix:
    """Expand (ne, r, c) blocks into the global block-diagonal sparse matrix."""
    ne, r, c = blocks.shape
    pattern = scatter_csr((ne * r, ne * c), element_dofs(ne, r),
                          element_dofs(ne, c))
    return pattern.assemble(blocks)


def facet_dofs(ops: AssembledOperators) -> np.ndarray:
    """The global facet dof (ne, 3 pf) of every facet column of the element
    blocks, -1 on boundary facets: the facet part of
    ElementTables.element_rows."""
    lay = ops.layout
    cols = ops.tables.element_rows[:, lay.dim_scalar:] - lay.n_scalar
    return np.where(cols < lay.n_facet, cols, -1)


def stiffness_blocks(ops: AssembledOperators) -> np.ndarray:
    """The Ks blocks (ne, d, d) of the stored element rows [Ks | R]."""
    return ops.scalar_row[:, :, :ops.layout.dim_scalar]


def global_scalar_row(ops: AssembledOperators) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """The stored element rows [Ks | R] summed through
    ElementTables.element_rows into the dense global Ks (n_scalar, n_scalar)
    and R (n_scalar, n_facet); the trailing zero column of the boundary
    facets must receive nothing."""
    lay = ops.layout
    ns = lay.n_scalar
    pattern = scatter_csr((ns, ns + lay.n_facet + 1),
                          element_dofs(lay.n_elements, lay.dim_scalar),
                          ops.tables.element_rows)
    row = pattern.assemble(ops.scalar_row).toarray()
    assert not row[:, -1].any()
    return row[:, :ns], row[:, ns:-1]


def global_velocity_row(ops: AssembledOperators) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """The stored element rows [B | E] summed through
    ElementTables.element_rows into the dense global B (n_vector, n_scalar)
    and E (n_vector, n_facet); the trailing zero column of the boundary
    facets must receive nothing."""
    lay = ops.layout
    ns = lay.n_scalar
    pattern = scatter_csr((n_vector(lay), ns + lay.n_facet + 1),
                          element_dofs(lay.n_elements, 2 * lay.dim_scalar),
                          ops.tables.element_rows)
    row = pattern.assemble(ops.velocity_row).toarray()
    assert not row[:, -1].any()
    return row[:, :ns], row[:, ns:-1]


def gram_matrix(ops: AssembledOperators) -> np.ndarray:
    """The facet Gram matrix A = sum_K A_K, dense, summed from the stored
    facet blocks."""
    return ops.tables.facet_facet.assemble(ops.facet_block).toarray()


# ----------------------------------------------------------------------
# dense matrices


def dense_seven(mesh: Mesh, topo, degree: int, tau_bar: float = 1.0,
                tau_mode: str = "single_facet") -> dict:
    """All seven matrices of the scheme as global dense arrays.

    Keys: M (scalar mass), Mv (vector mass), B (divergence, rows ordered
    [x-dofs, y-dofs] per element), S (boundary penalty), E (vector trace),
    F (scalar trace), G (facet penalty), plus the tau pattern.
    """
    ne = mesh.n_triangles
    d = (degree + 1) * (degree + 2) // 2
    pf = degree + 1
    nlam = topo.n_interior * pf
    ns, nv = ne * d, 2 * ne * d

    mass_ref, px_ref, py_ref = reference_matrices(degree)
    tau = oracle_tau(mesh, topo, tau_bar, tau_mode)
    sq, sw = oracle_segment_rule(10)
    fns = lambdified_basis(degree)

    M = np.zeros((ns, ns))
    Mv = np.zeros((nv, nv))
    B = np.zeros((nv, ns))
    S = np.zeros((ns, ns))
    E = np.zeros((nv, nlam))
    F = np.zeros((ns, nlam))
    G = np.zeros((nlam, nlam))

    mu_vals = facet_basis_values(degree, sq)
    facets = facet_vertices(mesh, topo)

    for t in range(ne):
        tri, jac, detj, jinv = _element_geometry(mesh, t)
        sl = slice(t * d, (t + 1) * d)
        M[sl, sl] = detj * mass_ref
        for comp in range(2):
            vs = slice(t * 2 * d + comp * d, t * 2 * d + (comp + 1) * d)
            Mv[vs, vs] = detj * mass_ref
            # physical d/dx_comp = sum_r jinv[r, comp] * reference d/dref_r
            B[vs, sl] = detj * (jinv[0, comp] * px_ref
                                + jinv[1, comp] * py_ref)
        for lf in range(3):
            fid = int(topo.elem_facets[t, lf])
            lo, hi = facets[fid]
            plo, phys_hi = mesh.vertices[lo], mesh.vertices[hi]
            length = float(np.linalg.norm(phys_hi - plo))
            pts = plo[None, :] + sq[:, None] * (phys_hi - plo)[None, :]
            ref = ((pts - tri[0][None, :]) @ jinv.T)
            trace = np.column_stack([
                np.broadcast_to(fn(ref[:, 0], ref[:, 1]), sq.shape[0])
                for fn in fns])
            if tau[t, lf] > 0.0:
                S[sl, sl] += tau[t, lf] * length * (
                    trace.T @ (sw[:, None] * trace))
            if not topo.is_interior[fid]:
                continue
            fi = int(topo.interior_index[fid])
            cols = slice(fi * pf, (fi + 1) * pf)
            nvec = _outward_normal(mesh, t, lo, hi)
            cmat = length * (trace.T @ (sw[:, None] * mu_vals))
            for comp in range(2):
                vs = slice(t * 2 * d + comp * d, t * 2 * d + (comp + 1) * d)
                E[vs, cols] += -nvec[comp] * cmat
            if tau[t, lf] > 0.0:
                F[sl, cols] += -tau[t, lf] * cmat
                G[cols, cols] += tau[t, lf] * length * (
                    mu_vals.T @ (sw[:, None] * mu_vals))

    return {"M": M, "Mv": Mv, "B": B, "S": S, "E": E, "F": F, "G": G,
            "tau": tau, "d": d, "pf": pf}


def dense_nonlinear_mass(mesh: Mesh, degree: int, theta: np.ndarray,
                         k: float) -> np.ndarray:
    """Dense ((1 + 2 k theta) phi_i, phi_j) with theta in package coeffs."""
    ne = mesh.n_triangles
    d = (degree + 1) * (degree + 2) // 2
    pts, wts = oracle_triangle_rule(3 * degree + 2)
    vals = basis_values(degree, pts)
    out = np.zeros((ne * d, ne * d))
    for t in range(ne):
        _, _, detj, _ = _element_geometry(mesh, t)
        th = vals @ theta[t * d:(t + 1) * d]
        wq = detj * wts * (1.0 + 2.0 * k * th)
        out[t * d:(t + 1) * d, t * d:(t + 1) * d] = vals.T @ (wq[:, None] * vals)
    return out


def oracle_load(mesh: Mesh, degree: int, f, t_val: float = 0.0,
                order: int = 30) -> np.ndarray:
    """Dense load vector (f(., t), phi_i) with oracle quadrature."""
    ne = mesh.n_triangles
    d = (degree + 1) * (degree + 2) // 2
    pts, wts = oracle_triangle_rule(order)
    vals = basis_values(degree, pts)
    out = np.zeros(ne * d)
    for t in range(ne):
        tri, jac, detj, _ = _element_geometry(mesh, t)
        xq = tri[0][None, :] + pts @ jac.T
        fq = f(xq[:, 0], xq[:, 1], t_val)
        out[t * d:(t + 1) * d] = detj * (vals.T @ (wts * fq))
    return out


# ----------------------------------------------------------------------
# dense condensation and solves


def dense_condensed(seven: dict, mu: float) -> dict:
    """Schur-complement building blocks from the dense matrices."""
    M, Mv, B = seven["M"], seven["Mv"], seven["B"]
    S, E, F, G = seven["S"], seven["E"], seven["F"], seven["G"]
    mv_inv = np.linalg.inv(Mv)
    ks = S + B.T @ mv_inv @ B
    coupling = F + B.T @ mv_inv @ E
    gram = G + E.T @ mv_inv @ E
    shifted = M + mu * ks
    schur = gram - mu * coupling.T @ np.linalg.solve(shifted, coupling)
    return {"Ks": ks, "R": coupling, "A": gram, "shifted": shifted,
            "schur": schur, "Mv_inv": mv_inv}


def dense_elliptic(seven: dict, source: np.ndarray):
    """Three-field stationary solve [[Mv,B,E],[-Bt,S,F],[-Et,Ft,G]]."""
    Mv, B, E = seven["Mv"], seven["B"], seven["E"]
    S, F, G = seven["S"], seven["F"], seven["G"]
    nv, ns = B.shape
    nlam = E.shape[1]
    big = np.zeros((nv + ns + nlam, nv + ns + nlam))
    big[:nv, :nv] = Mv
    big[:nv, nv:nv + ns] = B
    big[:nv, nv + ns:] = E
    big[nv:nv + ns, :nv] = -B.T
    big[nv:nv + ns, nv:nv + ns] = S
    big[nv:nv + ns, nv + ns:] = F
    big[nv + ns:, :nv] = -E.T
    big[nv + ns:, nv:nv + ns] = F.T
    big[nv + ns:, nv + ns:] = G
    rhs = np.zeros(nv + ns + nlam)
    rhs[nv:nv + ns] = source
    sol = np.linalg.solve(big, rhs)
    return sol[:nv], sol[nv:nv + ns], sol[nv + ns:]


def dense_corrector_solve(seven: dict, mu: float, rhs: np.ndarray):
    """Monolithic [[M + mu Ks, mu R], [Rt, A]] solve for (a_psi, a_lam)."""
    pieces = dense_condensed(seven, mu)
    ns = seven["M"].shape[0]
    nlam = seven["G"].shape[0]
    big = np.zeros((ns + nlam, ns + nlam))
    big[:ns, :ns] = pieces["shifted"]
    big[:ns, ns:] = mu * pieces["R"]
    big[ns:, :ns] = pieces["R"].T
    big[ns:, ns:] = pieces["A"]
    full_rhs = np.concatenate([rhs, np.zeros(nlam)])
    sol = np.linalg.solve(big, full_rhs)
    return sol[:ns], sol[ns:]


def dense_advance(seven: dict, mesh: Mesh, degree: int, state: dict,
                  *, c: float, k: float, delta: float, dt: float,
                  gamma: float, beta: float, tol: float, load_next: np.ndarray,
                  max_iterations: int = 100):
    """One full predictor-corrector step, dense algebra throughout.

    state maps the keys psi/dpsi/ddpsi/lam/dlam/ddlam to vectors; returns the
    advanced state dict and the iteration count. Mirrors the fixed-point
    semantics (warm start from the previous accelerations, relative change
    of the monitored Newmark iterate, at least two passes, depth-one
    Anderson mixing of the accelerations from the second pass on) without
    reusing package solvers.
    """
    c2 = c * c
    mu = c2 * dt * dt * beta + delta * gamma * dt
    pieces = dense_condensed(seven, mu)
    half = 0.5 * dt * dt * (1.0 - 2.0 * beta)
    psi_hat = state["psi"] + dt * state["dpsi"] + half * state["ddpsi"]
    lam_hat = state["lam"] + dt * state["dlam"] + half * state["ddlam"]
    dpsi_hat = state["dpsi"] + (1.0 - gamma) * dt * state["ddpsi"]
    dlam_hat = state["dlam"] + (1.0 - gamma) * dt * state["ddlam"]
    w = delta / c2
    ln = load_next - c2 * (pieces["Ks"] @ (psi_hat + w * dpsi_hat)
                           + pieces["R"] @ (lam_hat + w * dlam_hat))
    M = seven["M"]
    ddpsi = state["ddpsi"].copy()
    residuals, images = [], []
    for s in range(1, max_iterations + 1):
        dpsi_iter = dpsi_hat + gamma * dt * ddpsi
        nmass = dense_nonlinear_mass(mesh, degree, dpsi_iter, k)
        rhs = M @ ddpsi - nmass @ ddpsi + ln
        ddpsi_new, ddlam = dense_corrector_solve(seven, mu, rhs)
        if beta > 0.0:
            scale = beta * dt * dt
            ref = psi_hat + scale * ddpsi_new
        elif gamma > 0.0:
            scale = gamma * dt
            ref = dpsi_hat + scale * ddpsi_new
        else:
            scale = 1.0
            ref = ddpsi_new
        num = scale * float(np.linalg.norm(ddpsi_new - ddpsi))
        den = float(np.linalg.norm(ref))
        change = num / den if den > 0.0 else num
        if change < tol and s >= 2:
            ddpsi = ddpsi_new
            break
        # x_{s+1} = (1 - a) g_s + a g_{s-1}, the a minimizing the residual
        # combination |(1 - a) f_s + a f_{s-1}|, f = g - x
        residuals.append(ddpsi_new - ddpsi)
        images.append(ddpsi_new)
        ddpsi = ddpsi_new
        if s >= 2:
            diff = residuals[-1] - residuals[-2]
            if diff @ diff > 0.0:
                a = (diff @ residuals[-1]) / (diff @ diff)
                if np.isfinite(a):
                    ddpsi = (1.0 - a) * images[-1] + a * images[-2]
    else:
        raise RuntimeError("dense oracle corrector did not converge")
    iterations = s
    return {
        "psi": psi_hat + beta * dt * dt * ddpsi,
        "dpsi": dpsi_hat + gamma * dt * ddpsi,
        "ddpsi": ddpsi,
        "lam": lam_hat + beta * dt * dt * ddlam,
        "dlam": dlam_hat + gamma * dt * ddlam,
        "ddlam": ddlam,
    }, iterations


def dense_newmark_linear(M: np.ndarray, C: np.ndarray, K: np.ndarray,
                         u0: np.ndarray, v0: np.ndarray, loads: list,
                         dt: float, gamma: float, beta: float):
    """Classical a-form Newmark on M u'' + C u' + K u = load.

    loads[i] is the load vector at time i * dt; returns the trajectory of
    (u, v, a) triples including the initial one.
    """
    a = np.linalg.solve(M, loads[0] - C @ v0 - K @ u0)
    u, v = u0.copy(), v0.copy()
    lhs = M + gamma * dt * C + beta * dt * dt * K
    out = [(u.copy(), v.copy(), a.copy())]
    for i in range(1, len(loads)):
        u_hat = u + dt * v + 0.5 * dt * dt * (1.0 - 2.0 * beta) * a
        v_hat = v + (1.0 - gamma) * dt * a
        a = np.linalg.solve(lhs, loads[i] - C @ v_hat - K @ u_hat)
        u = u_hat + beta * dt * dt * a
        v = v_hat + gamma * dt * a
        out.append((u.copy(), v.copy(), a.copy()))
    return out


# ----------------------------------------------------------------------
# projections onto the discrete spaces (for constructing test data)


def l2_project_scalar(mesh: Mesh, degree: int, f, order: int = 30) -> np.ndarray:
    """Element-wise L2 projection coefficients of f(x, y)."""
    ne = mesh.n_triangles
    d = (degree + 1) * (degree + 2) // 2
    pts, wts = oracle_triangle_rule(order)
    vals = basis_values(degree, pts)
    out = np.empty(ne * d)
    for t in range(ne):
        tri, jac, _, _ = _element_geometry(mesh, t)
        xq = tri[0][None, :] + pts @ jac.T
        fq = f(xq[:, 0], xq[:, 1])
        out[t * d:(t + 1) * d] = vals.T @ (wts * fq)
    return out


def l2_project_vector(mesh: Mesh, degree: int, f, order: int = 30) -> np.ndarray:
    """[x-component, y-component] per element projection of f -> (fx, fy)."""
    ne = mesh.n_triangles
    d = (degree + 1) * (degree + 2) // 2
    pts, wts = oracle_triangle_rule(order)
    vals = basis_values(degree, pts)
    out = np.empty(2 * ne * d)
    for t in range(ne):
        tri, jac, _, _ = _element_geometry(mesh, t)
        xq = tri[0][None, :] + pts @ jac.T
        fx, fy = f(xq[:, 0], xq[:, 1])
        base = t * 2 * d
        out[base:base + d] = vals.T @ (wts * fx)
        out[base + d:base + 2 * d] = vals.T @ (wts * fy)
    return out


# ----------------------------------------------------------------------
# HDG projection of smooth fields (test data for the convergence checks).
# Unlike the oracles above, these read the package's ElementTables and
# facet traces.


class ProjectionError(Exception):
    """A local projection system could not be solved."""


def assemble_penalty_load(g, tables: ElementTables, tau: np.ndarray,
                          quad_order: int | None = None) -> np.ndarray:
    """Boundary moments sum_F tau_F (g, phi_i)_F of a callable g(x, y)."""
    rule = tables.facet_rule if quad_order is None else segment_quadrature(quad_order)
    topo, mesh = tables.topo, tables.mesh
    # end points of every side's facet, in the global facet direction
    ends = mesh.vertices[facet_vertices(mesh, topo)[topo.elem_facets]]
    lo, hi = ends[:, :, :1], ends[:, :, 1:]  # (ne, 3, 1, 2)
    pts = lo + rule.points[:, None] * (hi - lo)
    traces = facet_traces(TriangleBasis(tables.layout.degree),
                          rule.points)[tables.sides]
    wg = ((tau * topo.facet_lengths[topo.elem_facets])[:, :, None]
          * rule.weights * g(pts[..., 0], pts[..., 1]))
    return np.einsum("elq,elqi->ei", wg, traces).ravel()


def hdg_project(psi, v, ops: AssembledOperators,
                quad_order: int | None = None):
    """Elementwise HDG projection of a smooth pair (psi, v).

    Returns coefficients (scalar, vector, facet-trace) where the scalar and
    vector parts match (psi, v) against all polynomials one degree lower and
    the projected normal flux v.n - tau psi matches facet-wise against the
    full trace space. The facet part is the plain facet L2 projection of psi
    on interior facets.
    """
    lay, tab = ops.layout, ops.tables
    p, d, pf = lay.degree, lay.dim_scalar, lay.dim_facet
    d_lo = scalar_space_dim(p - 1) if p > 0 else 0
    cell_rule = (tab.cell_rule if quad_order is None
                 else triangle_quadrature(quad_order))
    facet_rule = (tab.facet_rule if quad_order is None
                  else segment_quadrature(min(quad_order, 60)))
    basis = TriangleBasis(p)
    phi = basis.eval_values(cell_rule.points)
    mu = SegmentBasis(p).eval(facet_rule.points)
    traces = facet_traces(basis, facet_rule.points)[tab.sides]
    topo, mesh = tab.topo, tab.mesh
    facets = facet_vertices(mesh, topo)
    vert0, jac, _ = element_geometry(mesh)

    psi_coef = np.zeros(lay.n_scalar)
    v_coef = np.zeros(n_vector(lay))
    lam_coef = np.zeros(lay.n_facet)

    for t in range(lay.n_elements):
        if not np.any(ops.tau[t] > 0.0):
            raise ProjectionError(
                f"element {t} has no positively stabilized facet")
        xq = vert0[t][None, :] + cell_rule.points @ jac[t].T
        psi_q = psi(xq[:, 0], xq[:, 1])
        v_q = np.asarray(v(xq[:, 0], xq[:, 1]))
        wdet = cell_rule.weights * tab.detj[t]
        n_unk = 3 * d
        amat = np.zeros((n_unk, n_unk))
        rhs = np.zeros(n_unk)
        mass = phi.T @ (wdet[:, None] * phi)
        # volume moment rows against the degree p-1 subspace
        for comp in range(2):
            rows = slice(comp * d_lo, (comp + 1) * d_lo)
            amat[rows, comp * d : comp * d + d] = mass[:d_lo]
            rhs[rows] = phi[:, :d_lo].T @ (wdet * v_q[comp])
        amat[2 * d_lo : 3 * d_lo, 2 * d :] = mass[:d_lo]
        rhs[2 * d_lo : 3 * d_lo] = phi[:, :d_lo].T @ (wdet * psi_q)
        # facet flux rows
        row = 3 * d_lo
        for lf in range(3):
            fid = topo.elem_facets[t, lf]
            lo, hi = facets[fid]
            plo, phi_v = mesh.vertices[lo], mesh.vertices[hi]
            pts = plo[None, :] + facet_rule.points[:, None] * (phi_v - plo)[None, :]
            wlen = facet_rule.weights * topo.facet_lengths[fid]
            cmat = traces[t, lf].T @ (wlen[:, None] * mu)  # (d, pf)
            nvec = topo.normals[t, lf]
            tau = ops.tau[t, lf]
            psi_f = psi(pts[:, 0], pts[:, 1])
            v_f = np.asarray(v(pts[:, 0], pts[:, 1]))
            flux = v_f[0] * nvec[0] + v_f[1] * nvec[1] - tau * psi_f
            block = slice(row, row + pf)
            amat[block, 0:d] = nvec[0] * cmat.T
            amat[block, d : 2 * d] = nvec[1] * cmat.T
            amat[block, 2 * d :] = -tau * cmat.T
            rhs[block] = mu.T @ (wlen * flux)
            row += pf
            if topo.is_interior[fid]:
                fi = topo.interior_index[fid]
                lam_coef[facet_slice(lay, fi)] = mu.T @ (
                    facet_rule.weights * psi_f)
        try:
            sol = np.linalg.solve(amat, rhs)
        except np.linalg.LinAlgError as err:
            raise ProjectionError(
                f"singular projection system on element {t}") from err
        v_coef[vector_slice(lay, t)] = sol[: 2 * d]
        psi_coef[scalar_slice(lay, t)] = sol[2 * d :]
    return psi_coef, v_coef, lam_coef


# ----------------------------------------------------------------------
# field files


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def loop_export_field(fld, path, fmt: str) -> None:
    """experiments.export_field written row by row, with the VTK vertex
    values averaged in an element loop; the reference for its bytes."""
    mesh = fld.mesh
    if fmt == "csv":
        rule = triangle_quadrature(2 * fld.degree + 2)
        vert0, jac, _ = element_geometry(mesh)
        xq = vert0[:, None, :] + np.einsum("eab,qb->eqa", jac, rule.points)
        vals = fld.eval_reference(rule.points)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,value\n")
            for e in range(mesh.n_triangles):
                for q in range(rule.points.shape[0]):
                    fh.write(f"{_fmt(xq[e, q, 0])},{_fmt(xq[e, q, 1])},"
                             f"{_fmt(vals[e, q])}\n")
        return
    ref_corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    corner_vals = fld.eval_reference(ref_corners)
    acc = np.zeros(mesh.n_vertices)
    cnt = np.zeros(mesh.n_vertices)
    for e, tri in enumerate(mesh.triangles):
        for lv, v in enumerate(tri):
            acc[v] += corner_vals[e, lv]
            cnt[v] += 1.0
    vertex_vals = acc / np.maximum(cnt, 1.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("scalar field\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{_fmt(x)} {_fmt(y)} 0\n")
        fh.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"3 {i} {j} {k}\n")
        fh.write(f"CELL_TYPES {mesh.n_triangles}\n")
        fh.write("5\n" * mesh.n_triangles)
        fh.write(f"POINT_DATA {mesh.n_vertices}\n")
        fh.write("SCALARS value double 1\nLOOKUP_TABLE default\n")
        for v in vertex_vals:
            fh.write(f"{_fmt(v)}\n")


def import_field_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back an exported CSV field as (points, values)."""
    pts: list[tuple[float, float]] = []
    vals: list[float] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,y,value":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            x, y, v = line.strip().split(",")
            pts.append((float(x), float(y)))
            vals.append(float(v))
    return np.array(pts), np.array(vals)


def loop_eval_at(fld, points: np.ndarray) -> np.ndarray:
    """DiscreteScalarField.eval_at one point at a time: every element's
    reference coordinates of the point, the first element that contains it
    to 1e-12, and the field's expansion there."""
    points = np.atleast_2d(points)
    vert0, jac, _ = element_geometry(fld.mesh)
    jinv = np.linalg.inv(jac)
    out = np.empty(points.shape[0])
    coeffs = fld.coeffs.reshape(fld.mesh.n_triangles, -1)
    for i, pt in enumerate(points):
        ref = np.einsum("eab,eb->ea", jinv, pt[None, :] - vert0)
        inside = ((ref[:, 0] >= -1.0e-12) & (ref[:, 1] >= -1.0e-12)
                  & (ref.sum(axis=1) <= 1.0 + 1.0e-12))
        if not inside.any():
            raise ValueError(f"point {tuple(pt)} lies outside the mesh")
        e = int(np.argmax(inside))
        phi = fld._basis.eval_values(np.clip(ref[e], 0.0, 1.0)[None, :])
        out[i] = float(coeffs[e] @ phi[0])
    return out


# ----------------------------------------------------------------------
# the unaccelerated corrector. Unlike the oracles above, it is built from
# the package's predictor, corrector pass and change metric.


def plain_advance(state: State, cfg: NewmarkConfig, prob: ProblemDefinition,
                  ops: AssembledOperators, cond, step_index: int = 0,
                  start: np.ndarray | None = None) -> tuple[State, int]:
    """newmark.advance_step without mixing, without the contraction monitor
    and without reusing the first solve when k = 0: every pass starts from
    the previous pass's acceleration and solves."""
    load = load_function(prob.forcing, ops.tables)
    pred = predictor(state, cfg)
    t_next = state.t + cfg.dt
    ln = stiffness_load(pred.psi_hat, pred.dpsi_hat, pred.lam_hat,
                        pred.dlam_hat, load(t_next), prob, ops)
    ddpsi = state.ddpsi if start is None else start
    for s in range(1, cfg.max_iterations + 1):
        ddpsi_new, ddlam = corrector_step(ddpsi, pred.dpsi_hat, ln, cfg, prob,
                                          ops, cond)
        change = _change_metric(cfg, pred, ddpsi_new - ddpsi, ddpsi_new)
        if not np.isfinite(change):
            raise NonconvergenceError(f"change {change} at step {step_index}")
        ddpsi = ddpsi_new
        if change < cfg.tol and s >= 2:
            break
    else:
        raise NonconvergenceError(f"no convergence at step {step_index}")
    dt = cfg.dt
    return State(
        t=t_next,
        psi=pred.psi_hat + cfg.beta * dt * dt * ddpsi,
        dpsi=pred.dpsi_hat + cfg.gamma * dt * ddpsi,
        ddpsi=ddpsi,
        lam=pred.lam_hat + cfg.beta * dt * dt * ddlam,
        dlam=pred.dlam_hat + cfg.gamma * dt * ddlam,
        ddlam=ddlam,
    ), s


def expression_advance(state: State, cfg: NewmarkConfig,
                       prob: ProblemDefinition, ops: AssembledOperators,
                       cond, step_index: int = 0,
                       start: np.ndarray | None = None) -> tuple[State, int]:
    """newmark.advance_step with its mixing but without the contraction
    monitor, written as whole-array expressions from the stored operators,
    without the package's step kernels or any in-place update. A solve is
    a deterministic function of its right side, so this chain must match
    advance_step bit for bit. Needs beta > 0."""
    assert cfg.beta > 0.0
    load = load_function(prob.forcing, ops.tables)
    dt, tab, c2 = cfg.dt, ops.tables, prob.c * prob.c
    half = 0.5 * dt * dt * (1.0 - 2.0 * cfg.beta)
    psi_hat = state.psi + dt * state.dpsi + half * state.ddpsi
    lam_hat = state.lam + dt * state.dlam + half * state.ddlam
    dpsi_hat = state.dpsi + (1.0 - cfg.gamma) * dt * state.ddpsi
    dlam_hat = state.dlam + (1.0 - cfg.gamma) * dt * state.ddlam
    w = prob.delta / c2
    ln = load(state.t + dt) - c2 * apply_blocks(
        ops.scalar_row,
        tab.element_values(psi_hat + w * dpsi_hat, lam_hat + w * dlam_hat))
    x = state.ddpsi if start is None else start
    scale = cfg.beta * dt * dt
    x_old = g_old = f_old = None
    for s in range(1, cfg.max_iterations + 1):
        theta_q = tab.at_nonlinear_points(dpsi_hat + cfg.gamma * dt * x)
        x_q = tab.at_nonlinear_points(x)
        rhs = ((-2.0 * prob.k) * (tab.weights_nl * theta_q * x_q)
               @ tab.phi_nl).ravel() + ln
        ddlam = cond.facet_solver.solve(-(cond.elim.T.tocsr() @ rhs))
        g = apply_blocks(cond.block_inv, rhs) - cond.mu * (cond.elim @ ddlam)
        num = scale * float(np.linalg.norm(g - x))
        den = float(np.linalg.norm(psi_hat + scale * g))
        change = num / den if den > 0.0 else num
        if not np.isfinite(change):
            raise NonconvergenceError(f"change {change} at step {step_index}")
        if change < cfg.tol and s >= 2:
            break
        x_next = g
        if s >= 2:
            if f_old is None:
                f_old = g_old - x_old
            f = g - x
            df = f - f_old
            dd = float(df @ df)
            mix = float(df @ f) / dd if dd > 0.0 else np.nan
            if np.isfinite(mix):
                x_next = g - mix * (g - g_old)
            f_old = f
        x_old, g_old, x = x, g, x_next
    else:
        raise NonconvergenceError(f"no convergence at step {step_index}")
    return State(
        t=state.t + dt,
        psi=psi_hat + cfg.beta * dt * dt * g,
        dpsi=dpsi_hat + cfg.gamma * dt * g,
        ddpsi=g,
        lam=lam_hat + cfg.beta * dt * dt * ddlam,
        dlam=dlam_hat + cfg.gamma * dt * ddlam,
        ddlam=ddlam,
    ), s


def plain_run(prob: ProblemDefinition, disc: Discretization,
              cfg: NewmarkConfig, advance=plain_advance,
              orders: list | None = None) -> tuple[State, list[int]]:
    """newmark.run with the steps of advance (plain_advance or
    expression_advance) and the same starts; returns the final state and the
    passes of every step, and appends the order of every start to orders
    when given. Only the operators of disc are used; everything else is
    built here.

    The starts restate newmark.ExtrapolatedStart as whole-array expressions
    of the backward differences D[j] = nabla^j a_n, j = 0..5: the order-m
    start is D[0] + ... + D[m]; accepting a_{n+1} gives the differences
    a_{n+1}, a_{n+1} - D[0], ... of which the (m+1)-th is the error of the
    order-m start, scored by an exponential average with weight 0.99 on the
    old score. Steps 0, 1 and 2 start from the orders 0, 1 and 2, every later
    one from the lowest score; with k = 0 no start is formed."""
    ops = disc.ops
    cond = build_condensed(ops, prob.c, prob.delta, cfg.dt, cfg.gamma,
                           cfg.beta)
    state = compute_initial_state(prob, ops)
    compute_initial_acceleration(state, prob, ops)
    table = np.zeros((6, state.ddpsi.size))
    table[0] = state.ddpsi
    scores = np.full(6, np.inf)
    passes = []
    for step in range(number_of_steps(prob.final_time, cfg.dt)):
        start = None
        if prob.k != 0.0:
            order = step if step < 3 else int(np.argmin(scores))
            start = sum(table[1:order + 1], table[0])
            if orders is not None:
                orders.append(order)
        state, iters = advance(state, cfg, prob, ops, cond,
                               step_index=step, start=start)
        passes.append(iters)
        new = [state.ddpsi]
        for row in table:
            new.append(new[-1] - row)
        errors = np.array([np.linalg.norm(d) for d in new[1:]])
        table = np.array(new[:6])
        scored = slice(0, min(step + 1, 6))
        scores[scored] = np.where(
            np.isinf(scores[scored]), errors[scored],
            0.99 * scores[scored] + (1.0 - 0.99) * errors[scored])
    return state, passes
