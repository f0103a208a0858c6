"""Assembly tests for the static matrices, loads, and the HDG projection.

Every matrix is checked entry by entry against the dense reference
constructions in oracles.py, which build the same objects from symbolic
basis functions and an independent quadrature.
"""

import re
import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import oracles
from oracles import (
    ProjectionError,
    assemble_penalty_load,
    block_diag_csr,
    facet_slice,
    hdg_project,
    jacobian_mass,
    n_vector,
    scalar_slice,
    vector_slice,
)
from westervelt_hdg.basis import TriangleBasis, triangle_quadrature
from westervelt_hdg.mesh import (Mesh, compute_facet_topology,
                                 generate_structured_mesh, quadrature_points)
from westervelt_hdg.operators import (
    AssemblyError,
    DofLayout,
    NondegeneracyError,
    ElementTables,
    assemble_load,
    assemble_nonlinear_mass,
    assemble_operators,
    nonlinear_defect,
    scatter_csr,
    tau_pattern,
)


def build(msh, degree, tau_bar=1.0, tau_mode="single_facet"):
    topo = compute_facet_topology(msh)
    ops = assemble_operators(msh, topo, degree, tau_bar=tau_bar,
                             tau_mode=tau_mode)
    return topo, ops.layout, ops


def unit_right_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


def rand_poly2(rng, deg, scale=1.0):
    """Random bivariate polynomial of total degree deg and its coefficients."""
    c = rng.standard_normal((deg + 1, deg + 1)) * scale
    for i in range(deg + 1):
        for j in range(deg + 1):
            if i + j > deg:
                c[i, j] = 0.0
    return c


def polyder2d(c, axis):
    """Coefficient matrix of the partial derivative of polyval2d(x, y, c)."""
    out = np.zeros_like(c)
    n = c.shape[axis]
    for k in range(1, n):
        idx_src = (k, slice(None)) if axis == 0 else (slice(None), k)
        idx_dst = (k - 1, slice(None)) if axis == 0 else (slice(None), k - 1)
        out[idx_dst] = k * c[idx_src]
    return out


def commutativity_residual(ops, psi, v, div_v, order=30):
    """Max residual and scale of the discrete commuting-diagram identity.

    For each scalar test function w the volume form of the projected vector
    field minus the exact one must equal the boundary penalty form of the
    projected scalar minus the exact one:

        b(w, Pi_V v) - b(w, v) = s(w, Pi_S psi) - s(w, psi).

    All smooth-field integrals use quadrature of the given order, so the
    residual is at roundoff whenever that order integrates the data exactly
    (polynomials) or to machine precision (low-frequency trigonometry). The
    operators must have the default stabilization, which the dense boundary
    penalty s is built with.
    """
    lay, tab = ops.layout, ops.tables
    psi_c, v_c, _ = hdg_project(psi, v, ops, quad_order=order)
    bh_proj = oracles.global_velocity_row(ops)[0].T @ v_c
    bh_exact = oracles.oracle_load(tab.mesh, lay.degree,
                                   lambda x, y, t: div_v(x, y), order=order)
    sh_proj = oracles.dense_seven(tab.mesh, tab.topo, lay.degree)["S"] @ psi_c
    sh_exact = assemble_penalty_load(psi, tab, ops.tau,
                                     quad_order=min(order, 60))
    resid = (bh_proj - bh_exact) - (sh_proj - sh_exact)
    scale = max(np.max(np.abs(bh_proj)), np.max(np.abs(bh_exact)),
                np.max(np.abs(sh_proj)), np.max(np.abs(sh_exact)), 1e-30)
    return np.max(np.abs(resid)), scale


MESH_CASES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


class TestSevenMatrices:
    @pytest.mark.parametrize("n,degree", MESH_CASES)
    @pytest.mark.parametrize("tau_mode", ["single_facet", "uniform"])
    def test_all_blocks_match_dense_oracle(self, n, degree, tau_mode):
        msh = generate_structured_mesh(n)
        topo, lay, ops = build(msh, degree, tau_bar=2.5, tau_mode=tau_mode)
        ora = oracles.dense_seven(msh, topo, degree, tau_bar=2.5,
                                  tau_mode=tau_mode)
        b, e = oracles.global_velocity_row(ops)
        ks, r = oracles.global_scalar_row(ops)
        condensed = oracles.dense_condensed(ora, 0.0)
        pairs = [
            (jacobian_mass(ops), ora["M"]),
            (jacobian_mass(ops, 2), ora["Mv"]),
            (b, ora["B"]),
            (e, ora["E"]),
            # Ks = S + Bt Mv^-1 B, R = F + Bt Mv^-1 E and A = G + Et Mv^-1
            # E: S, F and G are not stored
            (ks, condensed["Ks"]),
            (r, condensed["R"]),
            (oracles.gram_matrix(ops), condensed["A"]),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_perturbed_mesh_matches_dense_oracle(self, degree):
        msh = oracles.perturbed_mesh(3, seed=90 + degree)
        topo, lay, ops = build(msh, degree, tau_bar=1.0)
        ora = oracles.dense_seven(msh, topo, degree)
        assert np.max(np.abs(jacobian_mass(ops) - ora["M"])) <= 1e-12
        assert np.max(np.abs(jacobian_mass(ops, 2) - ora["Mv"])) <= 1e-12
        b, e = oracles.global_velocity_row(ops)
        assert np.max(np.abs(b - ora["B"])) <= 1e-12
        assert np.max(np.abs(e - ora["E"])) <= 1e-12
        ks, r = oracles.global_scalar_row(ops)
        condensed = oracles.dense_condensed(ora, 0.0)
        assert np.max(np.abs(ks - condensed["Ks"])) <= 1e-12
        assert np.max(np.abs(r - condensed["R"])) <= 1e-12
        assert np.max(np.abs(oracles.gram_matrix(ops)
                             - condensed["A"])) <= 1e-12

    def test_tau_table_matches_oracle_selection(self):
        msh = oracles.perturbed_mesh(2, seed=11)
        topo, lay, ops = build(msh, 1, tau_bar=3.0)
        ora = oracles.dense_seven(msh, topo, 1, tau_bar=3.0)
        assert np.array_equal(ops.tau, ora["tau"])

    def test_trace_blocks_consistent_with_sparse_matrices(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 2)
        e_dense = np.zeros((n_vector(lay), lay.n_facet))
        r_dense = np.zeros((lay.n_scalar, lay.n_facet))
        d, pf = lay.dim_scalar, lay.dim_facet
        for t in range(lay.n_elements):
            for lf in range(3):
                fid = topo.elem_facets[t, lf]
                cols = slice(d + lf * pf, d + (lf + 1) * pf)
                e_blk = ops.velocity_row[t, :, cols]
                r_blk = ops.scalar_row[t, :, cols]
                if not topo.is_interior[fid]:
                    assert np.max(np.abs(e_blk)) == 0.0
                    assert np.max(np.abs(r_blk)) == 0.0
                    continue
                cols = facet_slice(lay, topo.interior_index[fid])
                e_dense[vector_slice(lay, t), cols] += e_blk
                r_dense[scalar_slice(lay, t), cols] += r_blk
        e_scat = oracles.global_velocity_row(ops)[1]
        r_scat = oracles.global_scalar_row(ops)[1]
        assert np.max(np.abs(e_dense - e_scat)) == 0.0
        assert np.max(np.abs(r_dense - r_scat)) == 0.0


class TestElementRows:
    @pytest.mark.parametrize("degree", [0, 2])
    def test_rows_list_the_scalar_then_the_facet_dofs(self, degree):
        msh = oracles.perturbed_mesh(3, seed=23)
        topo, lay, ops = build(msh, degree)
        rows, d = ops.tables.element_rows, lay.dim_scalar
        ns, nf = lay.n_scalar, lay.n_facet
        assert rows.shape == (lay.n_elements, d + 3 * lay.dim_facet)
        # each scalar dof once, in element order
        assert np.array_equal(rows[:, :d].ravel(), np.arange(ns))
        # each interior facet dof in exactly two elements; boundary facets
        # on the trailing zero of [psi; lam; 0]
        facet = rows[:, d:]
        assert facet.min() >= ns and facet.max() <= ns + nf
        assert np.array_equal(np.bincount(facet.ravel() - ns)[:nf],
                              np.full(nf, 2))
        # local facet by local facet, pf modes each, as the topology says
        pf = lay.dim_facet
        for e, lf in np.ndindex(lay.n_elements, 3):
            fid = topo.elem_facets[e, lf]
            got = facet[e, lf * pf:(lf + 1) * pf]
            if topo.is_interior[fid]:
                want = facet_slice(lay, topo.interior_index[fid])
                assert got.tolist() == list(range(ns + want.start,
                                                  ns + want.stop))
            else:
                assert got.tolist() == [ns + nf] * pf

    def test_element_values_read_zero_on_boundary_columns(self):
        rng = np.random.default_rng(24)
        msh = generate_structured_mesh(3)
        topo, lay, ops = build(msh, 1)
        tab, d = ops.tables, lay.dim_scalar
        psi = rng.uniform(1.0, 2.0, lay.n_scalar)
        lam = rng.uniform(1.0, 2.0, lay.n_facet)
        vals = tab.element_values(psi, lam)
        assert np.array_equal(vals[:, :d].ravel(), psi)
        cols = oracles.facet_dofs(ops)
        inner = cols >= 0
        assert np.array_equal(vals[:, d:][inner], lam[cols[inner]])
        assert (~inner).any() and not vals[:, d:][~inner].any()


class TestMatrixStructure:
    def test_scalar_mass_is_jacobian_times_identity(self):
        # the reference basis is orthonormal, so affine elements give det(J) I
        msh = oracles.perturbed_mesh(2, seed=5)
        topo, lay, ops = build(msh, 2)
        ora = oracles.dense_seven(msh, topo, 2)
        d = lay.dim_scalar
        for t in range(msh.n_triangles):
            block = ora["M"][t * d:(t + 1) * d, t * d:(t + 1) * d]
            want = ops.tables.detj[t] * np.eye(d)
            assert np.max(np.abs(block - want)) <= 1e-13

    def test_unit_triangle_lowest_order_mass(self):
        msh = unit_right_triangle()
        topo, lay, ops = build(msh, 0)
        mass = assemble_nonlinear_mass(np.zeros(1), 0.0, ops.tables)
        assert mass.shape == (1, 1, 1)
        assert abs(mass[0, 0, 0] - 1.0) <= 1e-15

    def test_divergence_form_value_constant_field(self):
        # b(1, (x, 0)) = integral of div (x, 0) = area of the domain
        msh = unit_right_triangle()
        topo, lay, ops = build(msh, 1)
        psi_c = oracles.l2_project_scalar(msh, 1, lambda x, y: np.ones_like(x))
        v_c = oracles.l2_project_vector(
            msh, 1, lambda x, y: (x, np.zeros_like(x)))
        val = v_c @ (oracles.global_velocity_row(ops)[0] @ psi_c)
        assert abs(val - 0.5) <= 1e-14

    def test_divergence_form_value_quadratic_field(self):
        # b(x, (x^2, 0)) = integral of 2 x^2 over the unit right triangle
        msh = unit_right_triangle()
        topo, lay, ops = build(msh, 2)
        psi_c = oracles.l2_project_scalar(msh, 2, lambda x, y: x)
        v_c = oracles.l2_project_vector(
            msh, 2, lambda x, y: (x * x, np.zeros_like(x)))
        val = v_c @ (oracles.global_velocity_row(ops)[0] @ psi_c)
        assert abs(val - 2.0 * oracles.monomial_moment(2, 0)) <= 1e-14

    def test_penalty_scales_linearly_in_tau_bar(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops1 = build(msh, 1, tau_bar=1.0)
        topo, lay, ops2 = build(msh, 1, tau_bar=3.5)
        # the divergence and the vector trace do not involve tau
        assert np.array_equal(ops1.velocity_row, ops2.velocity_row)
        # [S | F] = [Ks | R] - Bt Mv^-1 [B | E], G_K = A_K - Et Mv^-1 E
        d = lay.dim_scalar
        row = ops1.velocity_row / np.sqrt(ops1.tables.detj)[:, None, None]
        gram = row.transpose(0, 2, 1) @ row
        bt_row, et_e = gram[:, :d], gram[:, d:, d:]
        assert np.max(np.abs((ops2.scalar_row - bt_row)
                             - 3.5 * (ops1.scalar_row - bt_row))) <= 1e-13
        assert np.max(np.abs((ops2.facet_block - et_e)
                             - 3.5 * (ops1.facet_block - et_e))) <= 1e-13

    def test_scatter_sums_duplicates_in_given_order(self):
        # (1e-17 + 1) - 1 is exactly zero in the given order, so the entry
        # is not stored; the entries with a negative column index or one
        # equal to the bound are dropped
        blocks = np.array([[[1.0e-17, 4.0]], [[1.0, 0.0]], [[-1.0, 0.0]],
                           [[2.0, 5.0]], [[3.0, 6.0]]])
        rows = np.array([[0], [0], [0], [1], [1]])
        cols = np.array([[1, 0], [1, 0], [1, 0], [-1, 1], [2, 1]])
        mat = scatter_csr((2, 2), rows, cols).assemble(blocks)
        assert mat.nnz == 2
        assert mat.toarray().tolist() == [[4.0, 0.0], [0.0, 11.0]]

    def test_scatter_drops_rows_on_the_bound(self):
        # row 2 of a two-row matrix, like the boundary facets of
        # ElementTables.element_rows, would otherwise wrap onto row 3's
        # key, past the end; no entry of it is stored
        blocks = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        pattern = scatter_csr((2, 2), np.array([[2, 1]]), np.array([[0, 2]]))
        mat = pattern.assemble(blocks)
        assert mat.toarray().tolist() == [[0.0, 0.0], [3.0, 0.0]]
        assert pattern.indptr.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_pattern_assembles_like_an_in_order_accumulation(self, seed):
        # many blocks on few rows and columns, so entries take up to a
        # dozen terms; values that cancel exactly, in some orders only;
        # indices from -1 to the bound, both outside the shape
        rng = np.random.default_rng(seed)
        shape = (6, 5)
        size = (28, 3, 2)
        rows = rng.integers(-1, shape[0] + 1, size[:2])
        cols = rng.integers(-1, shape[1] + 1, (size[0], size[2]))
        pattern = scatter_csr(shape, rows, cols)
        for _ in range(3):
            blocks = rng.choice([1.0, -1.0, 1.0e-17, 0.0], size)
            dense, terms = np.zeros(shape), np.zeros(shape, dtype=int)
            for b, i, j in np.ndindex(*size):
                r, c = rows[b, i], cols[b, j]
                if 0 <= r < shape[0] and 0 <= c < shape[1]:
                    dense[r, c] += blocks[b, i, j]
                    terms[r, c] += 1
            mat = pattern.assemble(blocks)
            assert mat.toarray().tobytes() == dense.tobytes()
            # exactly the nonzero sums are stored, in canonical CSR order
            assert mat.nnz == np.count_nonzero(dense)
            assert mat.has_canonical_format
            assert terms.max() >= 3 and np.any((terms > 0) & (dense == 0.0))
        # a matrix that drops no entry shares the pattern's index arrays
        full = pattern.assemble(np.ones(size))
        assert full.nnz == np.count_nonzero(terms)
        assert np.shares_memory(full.indices, pattern.indices)
        assert np.shares_memory(full.indptr, pattern.indptr)
        with pytest.raises(AssemblyError, match="do not fit a pattern"):
            pattern.assemble(np.ones((size[0], size[2], size[1])))

    def test_tau_pattern_single_facet_one_entry_per_element(self):
        msh = generate_structured_mesh(3)
        topo = compute_facet_topology(msh)
        tau = tau_pattern(topo, 2.0, "single_facet")
        assert tau.shape == (msh.n_triangles, 3)
        for t in range(msh.n_triangles):
            nz = np.flatnonzero(tau[t])
            assert nz.tolist() == [topo.stab_facet[t]]
            assert tau[t, nz[0]] == 2.0

    def test_tau_pattern_uniform(self):
        msh = generate_structured_mesh(2)
        topo = compute_facet_topology(msh)
        assert np.array_equal(tau_pattern(topo, 1.5, "uniform"),
                              np.full((msh.n_triangles, 3), 1.5))
        # an integer beyond int64 gives floats, not Python objects
        assert tau_pattern(topo, 10**30, "uniform").dtype == np.float64

    def test_tau_pattern_rejects_bad_inputs(self):
        topo = compute_facet_topology(generate_structured_mesh(1))
        with pytest.raises(AssemblyError, match="positive"):
            tau_pattern(topo, 0.0, "single_facet")
        with pytest.raises(AssemblyError, match="finite"):
            tau_pattern(topo, np.inf, "uniform")
        with pytest.raises(AssemblyError, match="unknown tau mode"):
            tau_pattern(topo, 1.0, "everywhere")

    @pytest.mark.parametrize("tau_mode", ["single_facet", "uniform"])
    def test_overflowing_penalty_refused(self, tau_mode):
        msh = generate_structured_mesh(2)
        topo = compute_facet_topology(msh)
        # the error reports the overflow: numpy must not warn of it too
        with warnings.catch_warnings(), pytest.raises(
                AssemblyError, match=r"^tau = 1e\+308 overflows"):
            warnings.simplefilter("error")
            assemble_operators(msh, topo, 1, 1.0e308, tau_mode)

    @pytest.mark.parametrize("tau_mode", ["single_facet", "uniform"])
    def test_penalty_that_swamps_the_facet_block_refused(self, tau_mode):
        # at p = 1 on the n = 2 mesh the largest penalty entry of A_K is
        # 0.0589 tau times the largest entry of Et E / |det J|
        msh = generate_structured_mesh(2)
        topo = compute_facet_topology(msh)
        ops = assemble_operators(msh, topo, 1, 1.0e13, tau_mode)
        assert np.isfinite(ops.scalar_row).all()
        for tau in (1.0e16, 1.0e60, 1.0e300):
            with pytest.raises(AssemblyError, match=(
                    rf"^tau = {re.escape(str(tau))} makes the facet penalty "
                    rf"[0-9.]+e\+[0-9]+ times the rest of A_K at degree 1, "
                    rf"above 1e\+12$")):
                assemble_operators(msh, topo, 1, tau, tau_mode)


class TestNonlinearMass:
    def test_zero_state_reduces_to_scalar_mass(self):
        msh = oracles.perturbed_mesh(2, seed=3)
        topo, lay, ops = build(msh, 2)
        n_blocks = assemble_nonlinear_mass(np.zeros(lay.n_scalar), 0.7,
                                           ops.tables)
        want = ops.tables.detj[:, None, None] * np.eye(lay.dim_scalar)
        assert np.max(np.abs(n_blocks - want)) <= 1e-13

    def test_constant_state_scales_scalar_mass(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 1)
        theta0, k = 0.25, 0.8
        theta = np.zeros(lay.n_scalar)
        # mode 0 of the orthonormal basis has constant value sqrt(2)
        theta[scalar_slice(lay, 0).start::lay.dim_scalar] = 0.0
        for t in range(msh.n_triangles):
            theta[scalar_slice(lay, t).start] = theta0 / np.sqrt(2.0)
        n_blocks = assemble_nonlinear_mass(theta, k, ops.tables)
        want = ((1.0 + 2.0 * k * theta0) * ops.tables.detj[:, None, None]
                * np.eye(lay.dim_scalar))
        assert np.max(np.abs(n_blocks - want)) <= 1e-13

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_random_state_matches_dense_oracle(self, degree):
        rng = np.random.default_rng(41 + degree)
        msh = oracles.perturbed_mesh(2, seed=19)
        topo, lay, ops = build(msh, degree)
        theta = 0.05 * rng.standard_normal(lay.n_scalar)
        k = 0.6
        got = assemble_nonlinear_mass(theta, k, ops.tables)
        want = oracles.dense_nonlinear_mass(msh, degree, theta, k)
        assert np.max(np.abs(block_diag_csr(got).toarray() - want)) <= 1e-12

    def test_random_state_blocks_are_spd(self):
        rng = np.random.default_rng(4)
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 2)
        theta = 0.05 * rng.standard_normal(lay.n_scalar)
        blocks = assemble_nonlinear_mass(theta, 0.5, ops.tables)
        for t in range(msh.n_triangles):
            assert np.max(np.abs(blocks[t] - blocks[t].T)) <= 1e-14
            assert np.min(np.linalg.eigvalsh(blocks[t])) > 0.0

    def test_degenerate_state_raises_with_element_list(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 0)
        theta = np.zeros(lay.n_scalar)
        theta[scalar_slice(lay, 3).start] = -5.0  # constant value -5 sqrt(2)
        with pytest.raises(NondegeneracyError, match="nonpositive") as exc:
            assemble_nonlinear_mass(theta, 0.5, ops.tables)
        assert 3 in tuple(exc.value.elements)

    def test_wrong_coefficient_shape_rejected(self):
        msh = generate_structured_mesh(1)
        topo, lay, ops = build(msh, 1)
        with pytest.raises(AssemblyError, match="shape"):
            assemble_nonlinear_mass(np.zeros(lay.n_scalar + 1), 0.1,
                                    ops.tables)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_defect_matches_dense_oracle(self, degree):
        rng = np.random.default_rng(71 + degree)
        msh = oracles.perturbed_mesh(2, seed=23)
        topo, lay, ops = build(msh, degree)
        # at p = 3 the basis peaks higher: a smaller theta keeps
        # 1 + 2k theta positive
        theta = (0.05 if degree < 3 else 0.02) * rng.standard_normal(
            lay.n_scalar)
        accel = rng.standard_normal(lay.n_scalar)
        kept = theta.copy(), accel.copy()
        k = 0.6
        got = nonlinear_defect(theta, accel, k, ops.tables)
        assert np.array_equal(theta, kept[0])
        assert np.array_equal(accel, kept[1])
        # the dense nonlinear mass at k = 0 is the mass matrix M
        mass = oracles.dense_nonlinear_mass(msh, degree, theta, 0.0)
        nmass = oracles.dense_nonlinear_mass(msh, degree, theta, k)
        want = (mass - nmass) @ accel
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_defect_rounds_like_the_whole_array_expression(self, degree):
        # the in-place defect forms -2k (w theta a) phi in the order of the
        # expression below, so the corrector's iterates, and with them the
        # pass counts of runs whose stop test sits at the tolerance, do not
        # depend on how the defect is computed
        rng = np.random.default_rng(5 + degree)
        msh = oracles.perturbed_mesh(3, seed=2)
        topo, lay, ops = build(msh, degree)
        tab, k = ops.tables, -0.45
        theta = 0.02 * rng.standard_normal(lay.n_scalar)
        accel = rng.standard_normal(lay.n_scalar)
        theta_q = tab.at_nonlinear_points(theta)
        a_q = tab.at_nonlinear_points(accel)
        want = ((-2.0 * k) * (tab.weights_nl * theta_q * a_q)
                @ tab.phi_nl).ravel()
        assert np.array_equal(nonlinear_defect(theta, accel, k, tab), want)

    @pytest.mark.parametrize("k", [0.5, -0.5])
    def test_defect_degenerate_state_names_same_elements(self, k):
        # 1 + 2k theta is checked from the smallest theta for k > 0 and from
        # the largest for k < 0
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 1)
        theta = np.zeros(lay.n_scalar)
        for t in (3, 5):
            theta[scalar_slice(lay, t).start] = -5.0 * np.sign(k)
        with pytest.raises(NondegeneracyError, match="nonpositive") as mass:
            assemble_nonlinear_mass(theta, k, ops.tables)
        assert mass.value.elements == (3, 5)
        accel = np.random.default_rng(8).standard_normal(lay.n_scalar)
        with pytest.raises(NondegeneracyError, match="nonpositive") as defect:
            nonlinear_defect(theta, accel, k, ops.tables)
        assert str(defect.value) == str(mass.value)
        assert defect.value.elements == mass.value.elements

    def test_defect_vanishes_without_nonlinearity(self):
        # with k = 0 no theta is refused, and the defect is zero
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 1)
        got = nonlinear_defect(np.full(lay.n_scalar, -1e300),
                               np.ones(lay.n_scalar), 0.0, ops.tables)
        assert np.array_equal(got, np.zeros(lay.n_scalar))


class TestLoads:
    def test_constant_load_lowest_order_unit_triangle(self):
        msh = unit_right_triangle()
        topo, lay, ops = build(msh, 0)
        vec = assemble_load(lambda x, y, t: np.ones_like(x), 0.0, ops.tables)
        # (1, phi_0) with phi_0 = sqrt(2): det(J) * sqrt(2) / 2
        assert vec.shape == (1,)
        assert abs(vec[0] - np.sqrt(2.0) / 2.0) <= 1e-15

    def test_linear_load_unit_triangle(self):
        msh = unit_right_triangle()
        topo, lay, ops = build(msh, 1)
        vec = assemble_load(lambda x, y, t: x, 0.0, ops.tables)
        assert abs(vec[0] - np.sqrt(2.0) / 6.0) <= 1e-15

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_polynomial_loads_match_oracle(self, degree):
        msh = oracles.perturbed_mesh(2, seed=23)
        topo, lay, ops = build(msh, degree)

        def f(x, y, t):
            return 1.0 + x - 2.0 * y + x * y + 0.5 * x * x

        got = assemble_load(f, 0.0, ops.tables)
        want = oracles.oracle_load(msh, degree, f)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_smooth_load_matches_high_order_oracle(self):
        msh = generate_structured_mesh(2)
        topo = compute_facet_topology(msh)
        tab = ElementTables(msh, topo, DofLayout(2, msh.n_triangles,
                                                 topo.n_interior))
        # the load reads the cell rule, its basis values and points
        tab.cell_rule = triangle_quadrature(30)
        tab.phi = TriangleBasis(2).eval_values(tab.cell_rule.points)
        tab.xq = quadrature_points(msh, tab.cell_rule.points)

        def f(x, y, t):
            return np.sin(np.pi * x) * np.cos(np.pi * y)

        got = assemble_load(f, 0.0, tab)
        want = oracles.oracle_load(msh, 2, f, order=30)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_load_passes_time_argument(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 1)

        def f(x, y, t):
            return t * x

        v1 = assemble_load(f, 1.0, ops.tables)
        v2 = assemble_load(f, 2.0, ops.tables)
        assert np.max(np.abs(v2 - 2.0 * v1)) <= 1e-14

    @pytest.mark.parametrize("tau_mode", ["single_facet", "uniform"])
    def test_penalty_load_agrees_with_matrix_on_discrete_data(self, tau_mode):
        # for g in the scalar space, s(g, .) equals the penalty matrix action
        rng = np.random.default_rng(77)
        msh = oracles.perturbed_mesh(2, seed=31)
        topo, lay, ops = build(msh, 2, tau_bar=1.7, tau_mode=tau_mode)
        c = rand_poly2(rng, 2)

        def g(x, y):
            return npoly.polyval2d(x, y, c)

        g_c = oracles.l2_project_scalar(msh, 2, g)
        got = assemble_penalty_load(g, ops.tables, ops.tau)
        want = oracles.dense_seven(msh, topo, 2, tau_bar=1.7,
                                   tau_mode=tau_mode)["S"] @ g_c
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_penalty_load_quad_order_override(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 1)

        def g(x, y):
            return x + 2.0 * y

        base = assemble_penalty_load(g, ops.tables, ops.tau)
        high = assemble_penalty_load(g, ops.tables, ops.tau, quad_order=40)
        assert np.max(np.abs(base - high)) <= 1e-14


class TestProjection:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_reproduces_pairs_in_the_discrete_space(self, degree):
        rng = np.random.default_rng(101 + degree)
        msh = oracles.perturbed_mesh(2, seed=13)
        topo, lay, ops = build(msh, degree)
        cp = rand_poly2(rng, degree)
        cx = rand_poly2(rng, degree)
        cy = rand_poly2(rng, degree)

        def psi(x, y):
            return npoly.polyval2d(x, y, cp)

        def v(x, y):
            return (npoly.polyval2d(x, y, cx), npoly.polyval2d(x, y, cy))

        psi_c, v_c, lam_c = hdg_project(psi, v, ops)
        assert np.max(np.abs(psi_c - oracles.l2_project_scalar(
            msh, degree, psi))) <= 1e-11
        assert np.max(np.abs(v_c - oracles.l2_project_vector(
            msh, degree, v))) <= 1e-11

    def test_facet_part_is_facet_l2_projection(self):
        msh = oracles.perturbed_mesh(2, seed=29)
        topo, lay, ops = build(msh, 2)

        def psi(x, y):
            return np.sin(1.1 * x) + 0.3 * np.cos(0.9 * y) + x * y

        def v(x, y):
            return (np.cos(x + 0.2 * y), np.sin(0.5 * x - y))

        _, _, lam_c = hdg_project(psi, v, ops, quad_order=40)
        pts, wts = oracles.oracle_segment_rule(24)
        pf = lay.dim_facet
        facets = oracles.facet_vertices(msh, topo)
        for fi, fid in enumerate(np.flatnonzero(topo.is_interior)):
            lo, hi = facets[fid]
            a, b = msh.vertices[lo], msh.vertices[hi]
            xy = a[None, :] + pts[:, None] * (b - a)[None, :]
            vals = psi(xy[:, 0], xy[:, 1])
            mu = oracles.facet_basis_values(lay.degree, pts)
            want = mu.T @ (wts * vals)
            got = lam_c[fi * pf:(fi + 1) * pf]
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_defining_equations_hold_for_smooth_pair(self):
        # verify volume moments and facet flux moments of the projection
        msh = oracles.perturbed_mesh(2, seed=59)
        topo, lay, ops = build(msh, 2)
        tab = ops.tables

        def psi(x, y):
            return np.sin(x + 0.5 * y)

        def v(x, y):
            return (np.cos(0.7 * x) * y, np.sin(y) + 0.1 * x)

        order = 40
        psi_c, v_c, _ = hdg_project(psi, v, ops, quad_order=order)
        pts, wts = oracles.oracle_triangle_rule(order)
        d = lay.dim_scalar
        d_lo = d - (lay.degree + 1)
        phi = oracles.basis_values(lay.degree, pts)
        facets = oracles.facet_vertices(msh, topo)
        for t in range(msh.n_triangles):
            tri, jac, detj, jinv = oracles._element_geometry(msh, t)
            xq = tri[0][None, :] + pts @ jac.T
            wdet = wts * detj
            pl = psi_c[scalar_slice(lay, t)]
            vl = v_c[vector_slice(lay, t)]
            # volume moments against the degree p-1 subspace
            for comp, data in enumerate(v(xq[:, 0], xq[:, 1])):
                diff = phi @ vl[comp * d:(comp + 1) * d] - data
                mom = phi[:, :d_lo].T @ (wdet * diff)
                assert np.max(np.abs(mom)) <= 1e-12
            diff = phi @ pl - psi(xq[:, 0], xq[:, 1])
            mom = phi[:, :d_lo].T @ (wdet * diff)
            assert np.max(np.abs(mom)) <= 1e-12
            # facet flux moments against the full trace space
            spts, swts = oracles.oracle_segment_rule(24)
            mu = oracles.facet_basis_values(lay.degree, spts)
            for lf in range(3):
                fid = topo.elem_facets[t, lf]
                lo, hi = facets[fid]
                a, b = msh.vertices[lo], msh.vertices[hi]
                xy = a[None, :] + spts[:, None] * (b - a)[None, :]
                ref = (xy - tri[0]) @ jinv.T
                phif = oracles.basis_values(lay.degree, ref)
                nvec = oracles._outward_normal(msh, t, lo, hi)
                tau = ops.tau[t, lf]
                vx, vy = v(xy[:, 0], xy[:, 1])
                exact = vx * nvec[0] + vy * nvec[1] - tau * psi(xy[:, 0],
                                                                xy[:, 1])
                proj = (phif @ vl[:d]) * nvec[0] + (phif @ vl[d:]) * nvec[1] \
                    - tau * (phif @ pl)
                mom = mu.T @ (swts * (proj - exact))
                assert np.max(np.abs(mom)) <= 1e-12

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_commutes_with_divergence_polynomial_pairs(self, degree, seed):
        rng = np.random.default_rng(1000 * degree + seed)
        msh = oracles.perturbed_mesh(2, seed=seed) if seed % 2 else \
            generate_structured_mesh(2)
        topo, lay, ops = build(msh, degree)
        deg_data = degree + 2
        cp = rand_poly2(rng, deg_data)
        cx = rand_poly2(rng, deg_data)
        cy = rand_poly2(rng, deg_data)
        cdiv = polyder2d(cx, 0) + polyder2d(cy, 1)

        def psi(x, y):
            return npoly.polyval2d(x, y, cp)

        def v(x, y):
            return (npoly.polyval2d(x, y, cx), npoly.polyval2d(x, y, cy))

        def div_v(x, y):
            return npoly.polyval2d(x, y, cdiv)

        resid, scale = commutativity_residual(ops, psi, v, div_v, order=30)
        assert resid <= 1e-12 * scale

    @pytest.mark.parametrize("degree", [1, 2])
    def test_commutes_with_divergence_trigonometric_pair(self, degree):
        msh = oracles.perturbed_mesh(3, seed=degree)
        topo, lay, ops = build(msh, degree)

        def psi(x, y):
            return np.sin(1.3 * x + 0.4 * y) + 0.2 * np.cos(y)

        def v(x, y):
            return (np.cos(x - 0.7 * y), np.sin(0.5 * x + y))

        def div_v(x, y):
            return -np.sin(x - 0.7 * y) + np.cos(0.5 * x + y)

        resid, scale = commutativity_residual(ops, psi, v, div_v, order=40)
        assert resid <= 1e-12 * scale

    def test_unstabilized_element_rejected(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops = build(msh, 1)
        ops.tau[0, :] = 0.0
        with pytest.raises(ProjectionError, match="stabilized"):
            hdg_project(lambda x, y: x, lambda x, y: (x, y), ops)
