"""Static condensation tests against dense Schur-complement references."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from oracles import block_diag_csr, n_vector
from westervelt_hdg import condensation, operators
from westervelt_hdg.mesh import Mesh, compute_facet_topology, generate_structured_mesh
from westervelt_hdg.operators import apply_blocks, assemble_operators
from westervelt_hdg.condensation import (
    CondensationError,
    build_condensed,
    condensed_solve,
    reconstruct_velocity,
    stationary_elimination,
)


def build(msh, degree, *, c=2.0, delta=1.0e-3, dt=0.05, gamma=0.5, beta=0.25,
          tau_bar=1.0, tau_mode="single_facet"):
    topo = compute_facet_topology(msh)
    ops = assemble_operators(msh, topo, degree, tau_bar=tau_bar,
                             tau_mode=tau_mode)
    cond = build_condensed(ops, c, delta, dt, gamma, beta)
    return topo, ops.layout, ops, cond


def dense_pieces(msh, degree, mu, tau_bar=1.0, tau_mode="single_facet"):
    topo = compute_facet_topology(msh)
    seven = oracles.dense_seven(msh, topo, degree, tau_bar=tau_bar,
                                tau_mode=tau_mode)
    return seven, oracles.dense_condensed(seven, mu)


def capture_factorizations(monkeypatch, module) -> list:
    """The matrices that module factorizes from now on, in the order they
    are built."""
    seen = []
    factorize = module._factorize

    def capture(name, matrix):
        seen.append(matrix)
        return factorize(name, matrix)

    monkeypatch.setattr(module, "_factorize", capture)
    return seen


@pytest.fixture
def factored(monkeypatch):
    """The facet matrices that the eliminations built from now on factorize,
    in the order they are built."""
    return capture_factorizations(monkeypatch, condensation)


@pytest.fixture
def grams(monkeypatch):
    """The facet Gram matrices A that assemble_operators factorizes from now
    on, in the order they are built."""
    return capture_factorizations(monkeypatch, operators)


class TestShiftParameter:
    def test_mu_formula_reference_values(self):
        msh = generate_structured_mesh(1)
        topo, lay, ops, cond = build(msh, 0, c=100.0, delta=6.0e-9, dt=1.0e-3,
                                     gamma=0.5, beta=0.25)
        want = 100.0 ** 2 * 1.0e-3 ** 2 * 0.25 + 6.0e-9 * 0.5 * 1.0e-3
        assert cond.mu == want
        assert abs(cond.mu - 2.5e-3) <= 1e-11

    def test_mu_without_damping(self):
        msh = generate_structured_mesh(1)
        topo, lay, ops, cond = build(msh, 0, c=3.0, delta=0.0, dt=0.1,
                                     gamma=0.5, beta=0.25)
        assert cond.mu == 3.0 * 3.0 * 0.1 * 0.1 * 0.25

    def test_invalid_parameters_rejected(self):
        msh = generate_structured_mesh(1)
        topo = compute_facet_topology(msh)
        ops = assemble_operators(msh, topo, 0)
        with pytest.raises(CondensationError, match="wave speed"):
            build_condensed(ops, 0.0, 0.0, 0.1, 0.5, 0.25)
        with pytest.raises(CondensationError, match="damping"):
            build_condensed(ops, 1.0, -1.0e-9, 0.1, 0.5, 0.25)
        with pytest.raises(CondensationError, match="time step"):
            build_condensed(ops, 1.0, 0.0, 0.0, 0.5, 0.25)

    @pytest.mark.parametrize("c,delta,dt,match", [
        (np.nan, 0.0, 0.1, "wave speed"),
        (1.0, np.nan, 0.1, "damping"),
        (1.0, 0.0, np.nan, "time step"),
        (np.inf, 0.0, 0.1, "wave speed"),
        (1.0e200, 0.0, 0.1, "wave speed"),
        (1.0, np.inf, 0.1, "damping"),
        (1.0, 0.0, np.inf, "time step"),
    ], ids=["c", "delta", "dt", "c-inf", "c-1e200", "delta-inf", "dt-inf"])
    def test_nan_parameters_rejected(self, c, delta, dt, match):
        topo, lay, ops, cond = build(generate_structured_mesh(1), 0)
        with pytest.raises(CondensationError, match=match):
            build_condensed(ops, c, delta, dt, 0.5, 0.25)

    def test_step_weight_must_be_finite(self):
        # each parameter is in range, but c^2 dt^2 beta overflows
        topo, lay, ops, cond = build(generate_structured_mesh(1), 0)
        with pytest.raises(CondensationError, match=r"^mu must be finite "
                           r"\(step weight c\^2 dt\^2 beta \+ delta gamma "
                           r"dt\), got inf$"):
            build_condensed(ops, 1.0, 0.0, 1.0e299, 0.5, 0.25)
        # mu = 0, the explicit scheme without damping, is valid
        assert build_condensed(ops, 1.0, 0.0, 0.1, 0.5, 0.0).mu == 0.0


MESH_CASES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


class TestAgainstDenseElimination:
    @pytest.mark.parametrize("n,degree,tau_mode", [
        pytest.param(n, p, mode, id=f"{n}-{p}" if mode == "single_facet"
                     else f"{mode}-{n}-{p}")
        for mode in ("single_facet", "uniform") for n, p in MESH_CASES])
    def test_blocks_match_dense_oracle(self, n, degree, tau_mode, factored,
                                       grams):
        msh = generate_structured_mesh(n)
        topo, lay, ops, cond = build(msh, degree, tau_mode=tau_mode)
        seven, dc = dense_pieces(msh, degree, cond.mu, tau_mode=tau_mode)

        ks, r = oracles.global_scalar_row(ops)
        assert np.max(np.abs(ks - dc["Ks"])) <= 1e-12
        shifted_inv = np.linalg.inv(dc["shifted"])
        assert np.max(np.abs(block_diag_csr(cond.block_inv).toarray()
                             - shifted_inv)) <= 1e-11
        assert np.max(np.abs(r - dc["R"])) <= 1e-12
        assert np.max(np.abs(grams[0].toarray() - dc["A"])) <= 1e-12
        assert np.max(np.abs(factored[0].toarray() - dc["schur"])) <= 1e-12

    @pytest.mark.parametrize("n,degree", [(2, 1), (2, 2)])
    def test_static_schur_matches_dense_oracle(self, n, degree, factored):
        msh = generate_structured_mesh(n)
        topo, lay, ops, cond = build(msh, degree)
        seven, dc = dense_pieces(msh, degree, cond.mu)
        want = dc["A"] - dc["R"].T @ np.linalg.solve(dc["Ks"], dc["R"])
        static = stationary_elimination(ops)
        assert static.mu == 1.0
        assert np.max(np.abs(factored[1].toarray() - want)) <= 1e-11

    def test_elimination_maps_match_dense_oracle(self):
        msh = oracles.perturbed_mesh(2, seed=17)
        topo, lay, ops, cond = build(msh, 2)
        seven, dc = dense_pieces(msh, 2, cond.mu)

        ybar = np.linalg.solve(dc["Ks"], dc["R"])
        static = stationary_elimination(ops)
        assert np.max(np.abs(np.asarray(static.elim.todense())
                             - ybar)) <= 1e-10
        assert np.max(np.abs(np.asarray(-static.minus_elim_t.todense())
                             - ybar.T)) <= 1e-10

    def test_perturbed_mesh_matches_dense_oracle(self, factored, grams):
        msh = oracles.perturbed_mesh(3, seed=8)
        topo, lay, ops, cond = build(msh, 1, delta=2.0e-3, dt=0.02)
        seven, dc = dense_pieces(msh, 1, cond.mu)
        assert np.max(np.abs(factored[0].toarray() - dc["schur"])) <= 1e-12
        assert np.max(np.abs(grams[0].toarray() - dc["A"])) <= 1e-12


class TestSparsity:
    @pytest.mark.parametrize("n,degree", [(2, 0), (3, 1), (4, 2)])
    @pytest.mark.parametrize("tau_mode", ["single_facet", "uniform"])
    def test_no_explicit_zeros_stored(self, n, degree, tau_mode, factored,
                                      grams):
        # a horizontal and a vertical facet of one element couple through
        # exact zeros; storing them would change the fill of the facet
        # factorizations
        msh = generate_structured_mesh(n)
        topo, lay, ops, cond = build(msh, degree, tau_mode=tau_mode)
        stationary_elimination(ops)
        assert len(factored) == 2
        for mat in (*factored, *grams, cond.elim):
            assert mat.nnz > 0
            assert np.count_nonzero(mat.data == 0.0) == 0

    def test_second_build_sorts_nothing(self, monkeypatch):
        # the facet patterns are sorted once, when the operators are built
        calls = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            calls.append(args)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        topo, lay, ops, cond = build(generate_structured_mesh(4), 1)
        assert calls
        calls.clear()
        build_condensed(ops, 1.5, 0.0, 0.02, 0.5, 0.25)
        stationary_elimination(ops)
        assert not calls


    @pytest.mark.parametrize("degree", [1, 2])
    def test_factors_fill_less_than_colamd(self, degree, factored, grams):
        # the facet matrices are symmetric; a minimum degree ordering of
        # A^T + A leaves fewer L + U nonzeros than splu's default COLAMD
        msh = generate_structured_mesh(8)
        topo, lay, ops, cond = build(msh, degree)
        static = stationary_elimination(ops)
        for mat, lu in ((factored[0], cond.facet_solver),
                        (grams[0], ops.gram_solver),
                        (factored[1], static.facet_solver)):
            colamd = spla.splu(mat.tocsc())
            assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


class TestSpectralStructure:
    def test_facet_gram_is_spd(self, grams):
        msh = oracles.perturbed_mesh(2, seed=44)
        build(msh, 2)
        a = grams[0].toarray()
        assert np.max(np.abs(a - a.T)) <= 1e-13
        assert np.min(np.linalg.eigvalsh(a)) > 0.0

    def test_facet_schur_is_spd(self, factored):
        msh = oracles.perturbed_mesh(2, seed=45)
        topo, lay, ops, cond = build(msh, 1)
        s = factored[0].toarray()
        assert np.max(np.abs(s - s.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(0.5 * (s + s.T))) > 0.0

    def test_condensed_stiffness_blocks_symmetric(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 2)
        stiffness = oracles.stiffness_blocks(ops)
        assert np.max(np.abs(stiffness
                             - stiffness.transpose(0, 2, 1))) == 0.0

    def test_static_schur_independent_of_time_step(self, factored):
        # without the mass, the corrector's A - mu Rt (mu Ks)^-1 R is the
        # stationary Schur complement at every dt; with it, it depends on dt
        msh = generate_structured_mesh(2)
        _, _, ops, cond1 = build(msh, 1, dt=0.05)
        _, _, _, cond2 = build(msh, 1, dt=0.005)
        stationary_elimination(ops)
        schur1, schur2, static = (m.toarray() for m in factored)
        for dt in (0.05, 0.005):
            mu = condensation.step_mu(2.0, 1.0e-3, dt, 0.5, 0.25)
            condensation._eliminate(
                ops, np.linalg.inv(mu * oracles.stiffness_blocks(ops)), mu,
                "massless Schur complement")
            d_static = np.abs(factored[-1].toarray() - static)
            assert np.max(d_static) <= 1e-12 * np.max(np.abs(static))
        d_facet = np.abs(schur1 - schur2)
        assert np.max(d_facet) > 1e-6


class TestSolves:
    @pytest.mark.parametrize("n,degree", [(2, 0), (2, 1), (2, 2)])
    def test_condensed_solve_matches_dense_monolithic(self, n, degree):
        rng = np.random.default_rng(7 + degree)
        msh = generate_structured_mesh(n)
        topo, lay, ops, cond = build(msh, degree)
        seven, dc = dense_pieces(msh, degree, cond.mu)
        rhs = rng.standard_normal(lay.n_scalar)
        a_psi, a_lam = condensed_solve(cond, rhs)
        want_psi, want_lam = oracles.dense_corrector_solve(seven, cond.mu, rhs)
        scale = max(np.max(np.abs(want_psi)), np.max(np.abs(want_lam)))
        assert np.max(np.abs(a_psi - want_psi)) <= 1e-10 * scale
        assert np.max(np.abs(a_lam - want_lam)) <= 1e-10 * scale

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_condensed_solve_through_w_matches_dense_solves(self, degree):
        # the solve goes through the stored W = (M + mu Ks)^-1 R and -Wt;
        # both and the solution match dense solves of the monolithic system
        rng = np.random.default_rng(90 + degree)
        msh = oracles.perturbed_mesh(3, seed=11)
        topo, lay, ops, cond = build(msh, degree, c=1.5, delta=2.0e-2,
                                     dt=0.02)
        seven, dc = dense_pieces(msh, degree, cond.mu)
        w = np.linalg.solve(dc["shifted"], dc["R"])
        assert np.max(np.abs(cond.elim.toarray() - w)) <= 1e-12 * (
            np.max(np.abs(w)))
        assert np.max(np.abs(-cond.minus_elim_t.toarray() - w.T)) <= 1e-12 * (
            np.max(np.abs(w)))
        rhs = rng.standard_normal(lay.n_scalar)
        a_psi, a_lam = condensed_solve(cond, rhs)
        want_psi, want_lam = oracles.dense_corrector_solve(seven, cond.mu, rhs)
        scale = max(np.max(np.abs(want_psi)), np.max(np.abs(want_lam)))
        assert np.max(np.abs(a_psi - want_psi)) <= 1e-12 * scale
        assert np.max(np.abs(a_lam - want_lam)) <= 1e-12 * scale

    def test_condensed_solve_satisfies_monolithic_equations(self, grams):
        rng = np.random.default_rng(21)
        msh = oracles.perturbed_mesh(2, seed=3)
        topo, lay, ops, cond = build(msh, 2, delta=5.0e-4, dt=0.01)
        rhs = rng.standard_normal(lay.n_scalar)
        a_psi, a_lam = condensed_solve(cond, rhs)
        ks, r = oracles.global_scalar_row(ops)
        shifted = oracles.jacobian_mass(ops) + cond.mu * ks
        r1 = shifted @ a_psi + cond.mu * (r @ a_lam) - rhs
        r2 = r.T @ a_psi + grams[0] @ a_lam
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(r1)) <= 1e-11 * scale
        assert np.max(np.abs(r2)) <= 1e-11 * scale

    def test_zero_rhs_gives_zero_solution(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        a_psi, a_lam = condensed_solve(cond, np.zeros(lay.n_scalar))
        assert np.max(np.abs(a_psi)) == 0.0
        assert np.max(np.abs(a_lam)) == 0.0

    def test_gram_solver_matches_dense(self):
        rng = np.random.default_rng(5)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        seven, dc = dense_pieces(msh, 1, cond.mu)
        b = rng.standard_normal(lay.n_facet)
        got = ops.gram_solver.solve(b)
        want = np.linalg.solve(dc["A"], b)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_reconstruct_velocity_matches_dense(self):
        rng = np.random.default_rng(31)
        msh = oracles.perturbed_mesh(2, seed=2)
        topo, lay, ops, cond = build(msh, 2)
        seven, dc = dense_pieces(msh, 2, cond.mu)
        psi = rng.standard_normal(lay.n_scalar)
        lam = rng.standard_normal(lay.n_facet)
        got = reconstruct_velocity(ops, psi, lam)
        want = -dc["Mv_inv"] @ (seven["B"] @ psi + seven["E"] @ lam)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


class TestGuards:
    def test_static_path_unavailable_reported(self):
        # wipe the condensed stiffness block of one lowest-order element
        # (at p = 0 it is that element's penalty block): the stationary
        # elimination must refuse it by element
        msh = generate_structured_mesh(2)
        topo = compute_facet_topology(msh)
        ops = assemble_operators(msh, topo, 0)
        lay = ops.layout
        oracles.stiffness_blocks(ops)[0] = 0.0
        cond = build_condensed(ops, 1.0, 0.0, 0.1, 0.5, 0.25)
        with pytest.raises(CondensationError,
                           match=r"stiffness block singular on elements \[0\]"):
            stationary_elimination(ops)
        # the time-stepping path is still usable
        a_psi, a_lam = condensed_solve(cond, np.ones(lay.n_scalar))
        assert np.all(np.isfinite(a_psi)) and np.all(np.isfinite(a_lam))

    def test_single_triangle_has_empty_facet_system(self):
        msh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]))
        topo, lay, ops, cond = build(msh, 1)
        assert lay.n_facet == 0
        rhs = np.array([0.3, -0.1, 0.7])
        a_psi, a_lam = condensed_solve(cond, rhs)
        assert a_lam.shape == (0,)
        want = np.linalg.solve(ops.tables.detj[0] * np.eye(lay.dim_scalar)
                               + cond.mu * oracles.stiffness_blocks(ops)[0],
                               rhs)
        assert np.max(np.abs(a_psi - want)) <= 1e-12
        v = reconstruct_velocity(ops, a_psi, a_lam)
        assert v.shape == (n_vector(lay),)
