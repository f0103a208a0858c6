"""Time integrator tests: initialization, corrector algebra, full steps.

The dense references in oracles.py re-derive every solve monolithically,
so agreement here certifies both the static condensation and the
predictor-corrector bookkeeping.
"""

import copy
import dataclasses
import math
import weakref

import numpy as np
import pytest

import oracles
from westervelt_hdg.mesh import (Mesh, compute_facet_topology,
                                 generate_structured_mesh)
from westervelt_hdg.operators import (
    AssemblyError,
    assemble_load,
    assemble_operators,
)
from westervelt_hdg.condensation import CondensationError, build_condensed
from westervelt_hdg.newmark import (
    Discretization,
    NewmarkConfig,
    NonconvergenceError,
    ProblemDefinition,
    State,
    advance_step,
    compute_initial_acceleration,
    compute_initial_state,
    consistent_traces,
    corrector_step,
    load_function,
    number_of_steps,
    predictor,
    run,
    stiffness_load,
)
from westervelt_hdg import experiments, newmark, operators, parameters
from westervelt_hdg.config import ConfigError, default_config
from westervelt_hdg.parameters import MAX_STEPS, level_bytes
from westervelt_hdg.problems import (
    delta_study_problem,
    manufactured_problem,
    wavefront_problem,
)


def build(msh, degree, *, c=1.0, delta=1.0e-3, dt=0.01, gamma=0.5, beta=0.25):
    topo = compute_facet_topology(msh)
    ops = assemble_operators(msh, topo, degree)
    cond = build_condensed(ops, c, delta, dt, gamma, beta)
    return topo, ops.layout, ops, cond


def random_consistent_state(lay, ops, rng, scale=0.01):
    psi = scale * rng.standard_normal(lay.n_scalar)
    dpsi = scale * rng.standard_normal(lay.n_scalar)
    return State(
        t=0.0, psi=psi, dpsi=dpsi, ddpsi=np.zeros(lay.n_scalar),
        lam=consistent_traces(ops, psi),
        dlam=consistent_traces(ops, dpsi),
        ddlam=np.zeros(lay.n_facet),
    )


def lap_bump(x, y):
    """The Laplacian of x (1 - x) y (1 - y)."""
    return -2.0 * (y * (1.0 - y) + x * (1.0 - x))


def standing_wave(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def lap_standing_wave(x, y):
    return -2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


class TestInitialState:
    def test_zero_data_gives_zero_state(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        prob = ProblemDefinition(c=1.0)
        state = compute_initial_state(prob, ops)
        for vec in (state.psi, state.dpsi, state.ddpsi, state.lam,
                    state.dlam, state.ddlam):
            assert np.max(np.abs(vec)) == 0.0
        assert state.t == 0.0

    @pytest.mark.parametrize("degree", [1, 2])
    def test_matches_dense_three_field_solve(self, degree):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, degree)
        prob = ProblemDefinition(
            c=1.0, lap_psi0=lap_standing_wave, lap_psi1=lap_bump)
        state = compute_initial_state(prob, ops)
        seven = oracles.dense_seven(msh, topo, degree)
        for lap, psi_got, lam_got in (
                (prob.lap_psi0, state.psi, state.lam),
                (prob.lap_psi1, state.dpsi, state.dlam)):
            source = assemble_load(lambda x, y, t: -lap(x, y), 0.0,
                                   ops.tables)
            v_d, psi_d, lam_d = oracles.dense_elliptic(seven, source)
            scale = max(np.max(np.abs(psi_d)), 1e-30)
            assert np.max(np.abs(psi_got - psi_d)) <= 1e-11 * scale
            assert np.max(np.abs(lam_got - lam_d)) <= 1e-11 * scale

    def test_laplacian_alone_is_projected(self):
        # a datum enters through its Laplacian alone; the other stays zero
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        state = compute_initial_state(
            ProblemDefinition(c=1.0, lap_psi0=lap_standing_wave), ops)
        source = assemble_load(lambda x, y, t: -lap_standing_wave(x, y), 0.0,
                               ops.tables)
        _, psi_d, lam_d = oracles.dense_elliptic(
            oracles.dense_seven(msh, topo, 1), source)
        scale = np.max(np.abs(psi_d))
        assert scale > 0.0
        assert np.max(np.abs(state.psi - psi_d)) <= 1e-11 * scale
        assert np.max(np.abs(state.lam - lam_d)) <= 1e-11 * scale
        assert not state.dpsi.any() and not state.dlam.any()

    def test_projection_error_decreases_with_resolution(self):
        errs = []
        for n in (2, 4):
            msh = generate_structured_mesh(n)
            topo, lay, ops, cond = build(msh, 1)
            prob = ProblemDefinition(c=1.0, lap_psi0=lap_standing_wave)
            state = compute_initial_state(prob, ops)
            from westervelt_hdg.analysis import l2_error, scalar_field
            errs.append(l2_error(scalar_field(ops, state.psi),
                                 lambda x, y, t: standing_wave(x, y)))
        assert errs[1] < 0.4 * errs[0]


class TestInitialAcceleration:
    def test_matches_dense_algebra(self):
        rng = np.random.default_rng(12)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1, c=1.0, delta=2.0e-3)

        def forcing(x, y, t):
            return np.sin(np.pi * x) * y * (1.0 - y) * np.cos(t)

        prob = ProblemDefinition(c=1.0, k=0.3, delta=2.0e-3, forcing=forcing)
        state = random_consistent_state(lay, ops, rng)
        compute_initial_acceleration(state, prob, ops)

        seven = oracles.dense_seven(msh, topo, 1)
        dc = oracles.dense_condensed(seven, cond.mu)
        w = prob.delta / prob.c ** 2
        rhs = -(prob.c ** 2) * (dc["Ks"] @ (state.psi + w * state.dpsi)
                                + dc["R"] @ (state.lam + w * state.dlam))
        rhs = rhs + assemble_load(forcing, 0.0, ops.tables)
        nmass = oracles.dense_nonlinear_mass(msh, 1, state.dpsi, prob.k)
        ddpsi_d = np.linalg.solve(nmass, rhs)
        ddlam_d = np.linalg.solve(dc["A"], -dc["R"].T @ ddpsi_d)
        scale = max(np.max(np.abs(ddpsi_d)), 1e-30)
        assert np.max(np.abs(state.ddpsi - ddpsi_d)) <= 1e-11 * scale
        assert np.max(np.abs(state.ddlam - ddlam_d)) <= 1e-11 * scale

    def test_nondegeneracy_failure_names_the_initial_acceleration(self):
        # k = 1e300 makes 1 + 2k dpsi(0) negative on some elements at t = 0
        prob = manufactured_problem(k=1.0e300, final_time=0.01)
        ops = Discretization(generate_structured_mesh(2), 1).ops
        state = compute_initial_state(prob, ops)
        with pytest.raises(operators.NondegeneracyError) as bare:
            operators.assemble_nonlinear_mass(state.dpsi, prob.k, ops.tables)
        with pytest.raises(operators.NondegeneracyError) as exc:
            compute_initial_acceleration(state, prob, ops)
        assert str(exc.value) == f"initial acceleration (t = 0): {bare.value}"
        assert exc.value.elements == bare.value.elements
        assert len(exc.value.elements) > 0

    def test_forcing_toggle(self):
        rng = np.random.default_rng(3)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)

        def forcing(x, y, t):
            return x + y

        prob = ProblemDefinition(c=1.0, delta=1.0e-3, forcing=forcing)
        s1 = random_consistent_state(lay, ops, rng)
        s2 = copy.deepcopy(s1)
        compute_initial_acceleration(s1, prob, ops)
        compute_initial_acceleration(
            s2, dataclasses.replace(prob, forcing=None), ops)
        # the two accelerations differ exactly by the inverted t=0 load
        load = assemble_load(forcing, 0.0, ops.tables)
        diff_want = (load.reshape(lay.n_elements, -1)
                     / ops.tables.detj[:, None]).ravel()
        diff_got = s1.ddpsi - s2.ddpsi
        assert np.max(np.abs(diff_got - diff_want)) <= 1e-11


class TestPredictor:
    def test_formulas(self):
        rng = np.random.default_rng(9)
        msh = generate_structured_mesh(1)
        topo, lay, ops, cond = build(msh, 1)
        cfg = NewmarkConfig(dt=0.02, gamma=0.6, beta=0.3)
        state = random_consistent_state(lay, ops, rng)
        state.ddpsi = rng.standard_normal(lay.n_scalar)
        state.ddlam = rng.standard_normal(lay.n_facet)
        pred = predictor(state, cfg)
        dt = cfg.dt
        half = 0.5 * dt * dt * (1.0 - 2.0 * cfg.beta)
        assert np.allclose(pred.psi_hat,
                           state.psi + dt * state.dpsi + half * state.ddpsi,
                           rtol=0.0, atol=1e-15)
        assert np.allclose(pred.dpsi_hat,
                           state.dpsi + (1.0 - cfg.gamma) * dt * state.ddpsi,
                           rtol=0.0, atol=1e-15)
        assert np.allclose(pred.lam_hat,
                           state.lam + dt * state.dlam + half * state.ddlam,
                           rtol=0.0, atol=1e-15)

    def test_zero_acceleration_is_taylor_step(self):
        rng = np.random.default_rng(10)
        msh = generate_structured_mesh(1)
        topo, lay, ops, cond = build(msh, 1)
        cfg = NewmarkConfig(dt=0.1)
        state = random_consistent_state(lay, ops, rng)
        pred = predictor(state, cfg)
        assert np.allclose(pred.psi_hat, state.psi + cfg.dt * state.dpsi,
                           rtol=0.0, atol=1e-16)
        assert np.array_equal(pred.dpsi_hat, state.dpsi)


class TestCorrector:
    def test_single_pass_matches_dense_monolithic(self):
        rng = np.random.default_rng(14)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1, c=1.0, delta=1.0e-3, dt=0.01)
        cfg = NewmarkConfig(dt=0.01)
        prob = ProblemDefinition(c=1.0, k=0.3, delta=1.0e-3)
        state = random_consistent_state(lay, ops, rng)
        compute_initial_acceleration(state, prob, ops)
        pred = predictor(state, cfg)
        ln = stiffness_load(pred.psi_hat, pred.dpsi_hat, pred.lam_hat,
                            pred.dlam_hat, np.zeros(lay.n_scalar), prob, ops)
        got_psi, got_lam = corrector_step(state.ddpsi, pred.dpsi_hat, ln, cfg,
                                          prob, ops, cond)

        # the nonlinear mass is lagged at the velocity iterate
        dpsi_iter = pred.dpsi_hat + cfg.gamma * cfg.dt * state.ddpsi
        seven = oracles.dense_seven(msh, topo, 1)
        nmass = oracles.dense_nonlinear_mass(msh, 1, dpsi_iter, prob.k)
        rhs = seven["M"] @ state.ddpsi - nmass @ state.ddpsi + ln
        want_psi, want_lam = oracles.dense_corrector_solve(
            seven, cond.mu, rhs)
        scale = max(np.max(np.abs(want_psi)), 1e-30)
        assert np.max(np.abs(got_psi - want_psi)) <= 1e-10 * scale
        assert np.max(np.abs(got_lam - want_lam)) <= 1e-10 * scale

    def test_stiffness_load_formula(self):
        rng = np.random.default_rng(15)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1, c=2.0, delta=1.0e-3, dt=0.01)
        cfg = NewmarkConfig(dt=0.02, gamma=0.6, beta=0.3)
        state = random_consistent_state(lay, ops, rng)
        state.ddpsi = rng.standard_normal(lay.n_scalar)
        state.ddlam = rng.standard_normal(lay.n_facet)
        pred = predictor(state, cfg)
        load = rng.standard_normal(lay.n_scalar)
        undamped = ProblemDefinition(c=2.0)
        ks, r = oracles.global_scalar_row(ops)
        for delta in (5.0e-3, 0.0):
            got = stiffness_load(pred.psi_hat, pred.dpsi_hat, pred.lam_hat,
                                 pred.dlam_hat, load,
                                 ProblemDefinition(c=2.0, delta=delta), ops)
            # the damped values x + (delta/c^2) dx of the predictions
            w = delta / 4.0
            psi_tilde = pred.psi_hat + w * pred.dpsi_hat
            lam_tilde = pred.lam_hat + w * pred.dlam_hat
            want = load - 4.0 * (ks @ psi_tilde + r @ lam_tilde)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(
                1.0, np.max(np.abs(want)))
            # delta enters only through them, rounded as that sum is; with
            # delta = 0 they are the predictions and the velocities drop out
            assert np.array_equal(got, stiffness_load(
                psi_tilde, np.zeros(lay.n_scalar), lam_tilde,
                np.zeros(lay.n_facet), load, undamped, ops))


class TestAdvance:
    def test_linear_problem_takes_exactly_two_iterations(self):
        rng = np.random.default_rng(18)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        cfg = NewmarkConfig(dt=0.01, tol=1.0e-10)
        prob = ProblemDefinition(c=1.0, k=0.0, delta=1.0e-3)
        state = random_consistent_state(lay, ops, rng)
        compute_initial_acceleration(state, prob, ops)
        load = load_function(prob.forcing, ops.tables)
        for step in range(3):
            state, iters = advance_step(state, cfg, prob, ops, cond, load,
                                        step_index=step)
            assert iters == 2

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_chained_steps_match_dense_advance(self, degree):
        rng = np.random.default_rng(50 + degree)
        msh = generate_structured_mesh(2)
        c, k, delta, dt = 1.0, 0.3, 1.0e-3, 0.01
        topo, lay, ops, cond = build(msh, degree, c=c, delta=delta, dt=dt)
        cfg = NewmarkConfig(dt=dt, tol=1.0e-10)

        def forcing(x, y, t):
            return 0.05 * np.sin(np.pi * x) * np.sin(np.pi * y) * np.cos(t)

        prob = ProblemDefinition(c=c, k=k, delta=delta, forcing=forcing)
        state = random_consistent_state(lay, ops, rng,
                                        scale=0.01 / (degree + 1))
        compute_initial_acceleration(state, prob, ops)

        seven = oracles.dense_seven(msh, topo, degree)
        dstate = {"psi": state.psi.copy(), "dpsi": state.dpsi.copy(),
                  "ddpsi": state.ddpsi.copy(), "lam": state.lam.copy(),
                  "dlam": state.dlam.copy(), "ddlam": state.ddlam.copy()}
        load = load_function(prob.forcing, ops.tables)
        for step in range(4):
            t_next = (step + 1) * dt
            load_next = assemble_load(forcing, t_next, ops.tables)
            state, iters = advance_step(state, cfg, prob, ops, cond, load,
                                        step_index=step)
            dstate, diters = oracles.dense_advance(
                seven, msh, degree, dstate, c=c, k=k, delta=delta, dt=dt,
                gamma=cfg.gamma, beta=cfg.beta, tol=cfg.tol,
                load_next=load_next)
            assert iters == diters
            for key, vec in (("psi", state.psi), ("dpsi", state.dpsi),
                             ("ddpsi", state.ddpsi), ("lam", state.lam),
                             ("dlam", state.dlam), ("ddlam", state.ddlam)):
                scale = max(np.max(np.abs(dstate[key])), 1e-12)
                assert np.max(np.abs(vec - dstate[key])) <= 1e-10 * scale

    def test_zero_data_zero_forcing_stays_zero(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        cfg = NewmarkConfig(dt=0.01)
        prob = ProblemDefinition(c=1.0, k=0.3, delta=1.0e-3)
        state = compute_initial_state(prob, ops)
        compute_initial_acceleration(state, prob, ops)
        load = load_function(prob.forcing, ops.tables)
        for step in range(3):
            state, _ = advance_step(state, cfg, prob, ops, cond, load)
        assert np.max(np.abs(state.psi)) == 0.0
        assert np.max(np.abs(state.lam)) == 0.0

    def test_acceleration_trace_constraint_holds(self):
        rng = np.random.default_rng(60)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        cfg = NewmarkConfig(dt=0.01)
        prob = ProblemDefinition(c=1.0, k=0.2, delta=1.0e-3)
        state = random_consistent_state(lay, ops, rng)
        compute_initial_acceleration(state, prob, ops)
        load = load_function(prob.forcing, ops.tables)
        state, _ = advance_step(state, cfg, prob, ops, cond, load)
        gram = oracles.dense_condensed(oracles.dense_seven(msh, topo, 1),
                                       0.0)["A"]
        _, r = oracles.global_scalar_row(ops)
        resid = r.T @ state.ddpsi + gram @ state.ddlam
        scale = max(np.max(np.abs(state.ddpsi)), 1e-30)
        assert np.max(np.abs(resid)) <= 1e-11 * scale

    @pytest.mark.parametrize("degree", [0, 2])
    def test_consistent_traces_match_dense_solve(self, degree):
        rng = np.random.default_rng(61 + degree)
        msh = oracles.perturbed_mesh(3, seed=12)
        topo, lay, ops, cond = build(msh, degree)
        dc = oracles.dense_condensed(oracles.dense_seven(msh, topo, degree),
                                     0.0)
        psi = rng.standard_normal(lay.n_scalar)
        want = np.linalg.solve(dc["A"], -dc["R"].T @ psi)
        got = consistent_traces(ops, psi)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_consistent_traces_without_interior_facets_are_empty(self):
        msh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]))
        topo, lay, ops, cond = build(msh, 2)
        assert lay.n_facet == 0
        lam = consistent_traces(ops, np.ones(lay.n_scalar))
        assert lam.shape == (0,)

    @pytest.mark.parametrize("c,dt", [(1.0, 0.02), (2.0, 0.01)])
    def test_mismatched_condensation_rejected(self, c, dt):
        msh = generate_structured_mesh(1)
        # cond was factorized for c = 1, dt = 0.01
        topo, lay, ops, cond = build(msh, 1, c=1.0, dt=0.01)
        cfg = NewmarkConfig(dt=dt)
        prob = ProblemDefinition(c=c, delta=1.0e-3)
        state = compute_initial_state(prob, ops)
        load = load_function(prob.forcing, ops.tables)
        with pytest.raises(CondensationError, match="refusing"):
            advance_step(state, cfg, prob, ops, cond, load)

    def test_nonconvergence_reports_diagnostics(self):
        rng = np.random.default_rng(61)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        cfg = NewmarkConfig(dt=0.01, tol=1.0e-16, max_iterations=2)
        prob = ProblemDefinition(c=1.0, k=0.3, delta=1.0e-3)
        state = random_consistent_state(lay, ops, rng)
        compute_initial_acceleration(state, prob, ops)
        load = load_function(prob.forcing, ops.tables)
        with pytest.raises(NonconvergenceError, match="did not converge") \
                as exc:
            advance_step(state, cfg, prob, ops, cond, load, step_index=7)
        err = exc.value
        assert err.step == 7
        assert err.iterations == 2
        assert err.last_change > 0.0


    def test_non_finite_change_stops_at_once(self):
        # delta = 1e300 overflows the element blocks of M + mu Ks: the first
        # pass already yields NaN, and the corrector must not spend its
        # remaining 99 passes on it
        prob = manufactured_problem(c=100.0, k=0.0, delta=1.0e300,
                                    final_time=0.01)
        with pytest.raises(NonconvergenceError, match="not finite") as exc:
            run(prob, Discretization(generate_structured_mesh(2), 0),
                NewmarkConfig(dt=1.0e-3))
        err = exc.value
        assert err.step == 0
        assert err.iterations <= 2
        assert not np.isfinite(err.last_change)
        assert len(err.elements) > 0
        assert f"corrector iteration {err.iterations}" in str(err)
        assert str(err.elements[0]) in str(err)

    def test_overflowing_change_of_a_finite_image_names_elements(self):
        # k = 1e300 gives a finite first image, max |g| about 1.5e297, but
        # g . g overflows: the report names the elements of the largest |g|
        prob = manufactured_problem(k=1.0e300, final_time=0.01)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NonconvergenceError, match="not finite") as exc:
            run(prob, Discretization(generate_structured_mesh(1), 0),
                NewmarkConfig(dt=0.005))
        err = exc.value
        assert err.step == 0 and err.iterations == 1
        assert "the change's norm overflowed" in str(err)
        assert "non-finite accelerations" not in str(err)
        assert len(err.elements) > 0
        assert f"on elements {list(err.elements)}" in str(err)


class TestLinearLimit:
    def test_matches_classical_newmark_on_reduced_system(self):
        # with k = 0 and consistent traces the condensed update is exactly
        # the a-form Newmark scheme on M u'' + delta Kr u' + c^2 Kr u = f,
        # where Kr is the trace-eliminated stiffness
        rng = np.random.default_rng(77)
        msh = generate_structured_mesh(2)
        c, delta, dt, nsteps = 2.0, 2.0e-3, 0.02, 5
        topo, lay, ops, cond = build(msh, 1, c=c, delta=delta, dt=dt)
        cfg = NewmarkConfig(dt=dt)

        def forcing(x, y, t):
            return np.sin(np.pi * x) * np.sin(np.pi * y) * np.cos(3.0 * t)

        prob = ProblemDefinition(c=c, k=0.0, delta=delta, forcing=forcing)
        u0 = 0.01 * rng.standard_normal(lay.n_scalar)
        v0 = 0.01 * rng.standard_normal(lay.n_scalar)
        state = State(t=0.0, psi=u0.copy(), dpsi=v0.copy(),
                      ddpsi=np.zeros(lay.n_scalar),
                      lam=consistent_traces(ops, u0),
                      dlam=consistent_traces(ops, v0),
                      ddlam=np.zeros(lay.n_facet))
        compute_initial_acceleration(state, prob, ops)

        seven = oracles.dense_seven(msh, topo, 1)
        dc = oracles.dense_condensed(seven, cond.mu)
        kred = dc["Ks"] - dc["R"] @ np.linalg.solve(dc["A"], dc["R"].T)
        loads = [assemble_load(forcing, i * dt, ops.tables)
                 for i in range(nsteps + 1)]
        traj = oracles.dense_newmark_linear(
            seven["M"], delta * kred, c * c * kred, u0, v0, loads, dt,
            cfg.gamma, cfg.beta)

        u_d, v_d, a_d = traj[0]
        assert np.max(np.abs(state.ddpsi - a_d)) <= 1e-9 * max(
            np.max(np.abs(a_d)), 1e-30)
        load = load_function(prob.forcing, ops.tables)
        for i in range(1, nsteps + 1):
            state, iters = advance_step(state, cfg, prob, ops, cond, load,
                                        step_index=i)
            assert iters == 2
            u_d, v_d, a_d = traj[i]
            scale = max(np.max(np.abs(u_d)), 1e-30)
            assert np.max(np.abs(state.psi - u_d)) <= 1e-9 * scale
            assert np.max(np.abs(state.dpsi - v_d)) <= 1e-9 * max(
                np.max(np.abs(v_d)), 1e-30)
            assert np.max(np.abs(state.ddpsi - a_d)) <= 1e-9 * max(
                np.max(np.abs(a_d)), 1e-30)
        # traces remain consistent throughout the march
        resid = dc["A"] @ state.lam + dc["R"].T @ state.psi
        assert np.max(np.abs(resid)) <= 1e-9 * max(np.max(np.abs(state.psi)),
                                                   1e-30)


class TestDriver:
    def test_number_of_steps_exact_multiple(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert number_of_steps(1.0, 0.01) == 100
            assert number_of_steps(0.5, 0.25) == 2

    def test_number_of_steps_refuses_inexact(self):
        with pytest.raises(ValueError, match="not a whole number of steps"):
            number_of_steps(1.0, 0.03)
        with pytest.raises(ValueError, match="not a whole number of steps"):
            number_of_steps(0.001, 0.01)
        with pytest.raises(ValueError, match="final_time / dt = 3.33"):
            number_of_steps(0.01, 3.0e-3)
        # a ratio off by roundoff only is a whole number of steps
        assert 2.0e-4 / 1.0e-6 != 200.0
        assert number_of_steps(2.0e-4, 1.0e-6) == 200
        # a ratio too large for a float is refused like an inexact one
        for final_time, dt in ((1.0e300, 1.0e-300), (1.0, 1.0e-320)):
            with pytest.raises(ValueError, match="final_time / dt overflows"):
                number_of_steps(final_time, dt)

    def test_number_of_steps_refuses_more_than_max_steps(self):
        assert number_of_steps(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
        for dt in (1.0e-9, 9.0e-8, 1.0e-300):
            with pytest.raises(ValueError, match=r"final_time / dt must be "
                                                 r"<= 10000000 steps"):
                number_of_steps(1.0, dt)

    def test_run_samples_observers_each_step(self):
        msh = generate_structured_mesh(2)
        prob = ProblemDefinition(
            c=1.0, delta=1.0e-3, final_time=0.05, lap_psi0=lap_bump)
        cfg = NewmarkConfig(dt=0.01)
        times = []
        result = run(prob, Discretization(msh, 1), cfg,
                     lambda s: times.append(s.t))
        assert len(result.iterations) == 5
        assert len(times) == 6
        assert times[0] == 0.0
        assert abs(times[-1] - 0.05) <= 1e-12
        assert abs(result.state.t - 0.05) <= 1e-12
        assert result.mean_iterations == pytest.approx(
            np.mean(result.iterations))

    def test_extrapolated_start_saves_passes(self):
        # run() starts the second and third steps from the linear and the
        # quadratic extrapolation and every later one from the
        # extrapolation that has lately predicted best (ExtrapolatedStart);
        # a chain of advance_step calls starts each step from a_n and must
        # reach the same solution, to the corrector tolerance, in more passes
        msh = generate_structured_mesh(4)
        prob = manufactured_problem(c=1.0, k=0.3, delta=1.0e-3,
                                    omega=2.0 * np.pi, final_time=0.2)
        cfg = NewmarkConfig(dt=0.01)
        result = run(prob, Discretization(msh, 1), cfg)
        topo, lay, ops, cond = build(msh, 1, c=prob.c, delta=prob.delta,
                                     dt=cfg.dt)
        state = compute_initial_state(prob, ops)
        compute_initial_acceleration(state, prob, ops)
        chain = []
        load = load_function(prob.forcing, ops.tables)
        for step in range(len(result.iterations)):
            state, iters = advance_step(state, cfg, prob, ops, cond, load,
                                        step_index=step)
            chain.append(iters)
        scale = np.max(np.abs(state.psi))
        assert np.max(np.abs(result.state.psi - state.psi)) <= 1e-8 * scale
        assert result.iterations[0] == chain[0]
        assert sum(result.iterations) < sum(chain)

    # the delta study's data and stabilization at n = 8, p = 1, 30 steps
    DELTA_STUDY = dict(degree=1, tau_bar=4.0, tau_mode="uniform")

    def test_mixing_reaches_the_plain_solution_in_fewer_passes(self):
        # from the same starts, the unmixed corrector contracts by about
        # 0.55 per pass; depth-one mixing must reach its final psi, to the
        # corrector tolerance, in fewer passes
        msh = generate_structured_mesh(8)
        prob = delta_study_problem(0.0, c=1.0, k=0.3, final_time=0.3)
        cfg = NewmarkConfig(dt=0.01)
        result = run(prob, Discretization(msh, **self.DELTA_STUDY), cfg)
        plain, passes = oracles.plain_run(
            prob, Discretization(msh, **self.DELTA_STUDY), cfg)
        scale = np.max(np.abs(plain.psi))
        assert np.max(np.abs(result.state.psi - plain.psi)) <= 1e-8 * scale
        assert sum(result.iterations) < sum(passes)

    def test_linear_run_matches_the_plain_chain_bit_for_bit(self):
        # with k = 0 every step stops at its second pass, before any mixing
        msh = generate_structured_mesh(8)
        prob = delta_study_problem(1.0e-2, c=1.0, k=0.0, final_time=0.3)
        cfg = NewmarkConfig(dt=0.01)
        result = run(prob, Discretization(msh, **self.DELTA_STUDY), cfg)
        plain, passes = oracles.plain_run(
            prob, Discretization(msh, **self.DELTA_STUDY), cfg)
        assert result.iterations == passes == [2] * 30
        for name in ("psi", "dpsi", "ddpsi", "lam", "dlam", "ddlam"):
            assert np.array_equal(getattr(result.state, name),
                                  getattr(plain, name)), name

    @pytest.mark.parametrize("degree,k", [(1, 0.3), (2, -0.3), (2, 0.0)])
    def test_run_rounds_like_whole_array_expressions(self, degree, k):
        # the in-place kernels of a step round as the expressions of
        # oracles.expression_advance do, mixing included: where the stop test
        # sits at the tolerance, a change in the last bit of an iterate can
        # change the pass count of a step and of every step after it
        msh = oracles.perturbed_mesh(4, seed=6)
        prob = manufactured_problem(c=1.0, k=k, delta=1.0e-3,
                                    omega=2.0 * np.pi, final_time=0.2)
        cfg = NewmarkConfig(dt=0.01)
        result = run(prob, Discretization(msh, degree), cfg)
        want, passes = oracles.plain_run(prob, Discretization(msh, degree),
                                         cfg, advance=oracles.expression_advance)
        assert result.iterations == passes
        assert k == 0.0 or max(passes) > 2
        for name in ("psi", "dpsi", "ddpsi", "lam", "dlam", "ddlam"):
            assert np.array_equal(getattr(result.state, name),
                                  getattr(want, name)), name

    def test_run_starts_from_the_oracle_orders_bit_for_bit(self,
                                                           monkeypatch):
        # at p = 0 the scores pick the linear start again at step 3, then
        # the cubic and the quartic: the in-place difference table of
        # ExtrapolatedStart must start every step as oracles.plain_run's
        # whole-array table does, to the last bit
        picked = []
        extrapolate = newmark.ExtrapolatedStart.extrapolate

        def spy(self, order):
            picked.append(order)
            return extrapolate(self, order)

        monkeypatch.setattr(newmark.ExtrapolatedStart, "extrapolate", spy)
        msh = generate_structured_mesh(4)
        prob = manufactured_problem(c=1.0, k=0.3, delta=1.0e-3,
                                    omega=2.0 * np.pi, final_time=0.1)
        cfg = NewmarkConfig(dt=5.0e-3)
        result = run(prob, Discretization(msh, 0), cfg)
        orders = []
        want, passes = oracles.plain_run(
            prob, Discretization(msh, 0), cfg,
            advance=oracles.expression_advance, orders=orders)
        assert picked == orders
        assert orders[:4] == [0, 1, 2, 1]
        assert set(orders) == {0, 1, 2, 3, 4}
        assert result.iterations == passes
        for name in ("psi", "dpsi", "ddpsi", "lam", "dlam", "ddlam"):
            assert np.array_equal(getattr(result.state, name),
                                  getattr(want, name)), name

    def test_linear_run_forms_no_start(self, monkeypatch):
        # with k = 0 the corrector's image does not depend on its start, so
        # run builds no ExtrapolatedStart; with k != 0 it builds one and
        # extrapolates once per step
        made, extrapolated = [], []

        class Spy(newmark.ExtrapolatedStart):
            def __init__(self, a0):
                made.append(1)
                super().__init__(a0)

            def extrapolate(self, order):
                extrapolated.append(order)
                return super().extrapolate(order)

        monkeypatch.setattr(newmark, "ExtrapolatedStart", Spy)
        msh = generate_structured_mesh(4)
        for k, want in ((0.0, 0), (0.3, 1)):
            prob = manufactured_problem(c=1.0, k=k, delta=1.0e-3,
                                        omega=2.0 * np.pi, final_time=0.05)
            result = run(prob, Discretization(msh, 1), NewmarkConfig(dt=0.01))
            assert len(made) == want
            assert len(extrapolated) == want * len(result.iterations)

    def test_contraction_monitor_stops_a_growing_change(self):
        # single-facet stabilization at tau = 1 and p = 0 drives the delta
        # study's data towards the degeneracy barrier: from step 120 on the
        # change grows from pass to pass, and without the monitor the
        # corrector ran on until 1 + 2k dpsi/dt lost positivity at pass 13
        prob = delta_study_problem(0.0, c=1.0, k=0.3, final_time=1.0)
        with pytest.raises(NonconvergenceError,
                           match="stops contracting") as exc:
            run(prob, Discretization(generate_structured_mesh(16), 0,
                                     tau_bar=1.0, tau_mode="single_facet"),
                NewmarkConfig(dt=5.0e-3))
        err = exc.value
        assert err.step == 120
        assert 3 <= err.iterations < 13
        assert f"at step 120, corrector iteration {err.iterations} " \
               f"(theta = " in str(err)
        assert 0.0 < err.last_change < np.inf

    def test_linear_run_takes_two_passes_every_step(self):
        # at this step size the extrapolated start is already within the
        # tolerance, so the first pass alone would pass the change test
        msh = generate_structured_mesh(4)
        prob = manufactured_problem(c=1.0, k=0.0, delta=1.0e-3,
                                    omega=2.0 * np.pi, final_time=0.01)
        result = run(prob, Discretization(msh, 1), NewmarkConfig(dt=5.0e-4))
        assert result.iterations == [2] * 20

    @staticmethod
    def count_facet_solves(monkeypatch) -> list:
        """Record every facet solve of the condensed operators that run
        builds from now on."""
        calls = []

        def counting_build(*args, **kwargs):
            cond = build_condensed(*args, **kwargs)
            solver = cond.facet_solver

            class Counting:
                def solve(self, b):
                    calls.append(1)
                    return solver.solve(b)

            cond.facet_solver = Counting()
            return cond

        monkeypatch.setattr(newmark, "build_condensed", counting_build)
        return calls

    def test_linear_run_solves_once_per_step(self, monkeypatch):
        # with k = 0 the second pass's right side equals the first's, so the
        # corrector reuses the first solve; the pass still counts
        calls = self.count_facet_solves(monkeypatch)
        msh = generate_structured_mesh(4)
        prob = manufactured_problem(c=1.0, k=0.0, delta=1.0e-3,
                                    omega=2.0 * np.pi, final_time=0.01)
        result = run(prob, Discretization(msh, 1), NewmarkConfig(dt=5.0e-4))
        assert result.iterations == [2] * 20
        assert len(calls) == 20

    def test_nonlinear_run_solves_once_per_pass(self, monkeypatch):
        # with k != 0 every pass solves, and nothing else does
        calls = self.count_facet_solves(monkeypatch)
        msh = generate_structured_mesh(4)
        prob = manufactured_problem(c=1.0, k=0.3, delta=1.0e-3,
                                    omega=2.0 * np.pi, final_time=0.2)
        result = run(prob, Discretization(msh, 1), NewmarkConfig(dt=0.01))
        assert max(result.iterations) > 2
        assert len(calls) == sum(result.iterations)

    @pytest.mark.parametrize("family", ["manufactured", "wavefront"])
    def test_separable_load_matches_plain_callable(self, family,
                                                   monkeypatch):
        # a forcing with terms is assembled once per term before the time
        # loop; wrapped in a plain callable it is assembled every step, and
        # both runs agree to roundoff
        if family == "manufactured":
            prob = manufactured_problem(c=2.0, k=0.3, delta=1.0e-2,
                                        omega=2.0 * np.pi, final_time=0.05)
            cfg = NewmarkConfig(dt=2.5e-3)
        else:
            prob = wavefront_problem(k=-10.0, c=1500.0, final_time=2.0e-5,
                                     width=0.1)
            cfg = NewmarkConfig(dt=1.0e-6, gamma=0.85, beta=0.45)
        plain = dataclasses.replace(
            prob, forcing=lambda x, y, t: prob.forcing(x, y, t))
        assert not hasattr(plain.forcing, "terms")
        calls = []

        def counting_load(*args, **kwargs):
            calls.append(1)
            return assemble_load(*args, **kwargs)

        monkeypatch.setattr(newmark, "assemble_load", counting_load)
        msh = generate_structured_mesh(4)
        want = run(plain, Discretization(msh, 2), cfg)
        plain_calls, calls[:] = len(calls), []
        got = run(prob, Discretization(msh, 2), cfg)
        assert plain_calls >= len(want.iterations)
        assert len(calls) < len(want.iterations)
        assert got.iterations == want.iterations
        scale = np.max(np.abs(want.state.psi))
        assert scale > 0.0
        assert np.max(np.abs(got.state.psi - want.state.psi)) <= 1e-10 * scale

    def test_run_without_observers(self):
        msh = generate_structured_mesh(1)
        prob = ProblemDefinition(c=1.0, final_time=0.02)
        result = run(prob, Discretization(msh, 0), NewmarkConfig(dt=0.01))
        assert len(result.iterations) == 2


class TestExtrapolatedStart:
    @staticmethod
    def accepted(values):
        """An ExtrapolatedStart that has accepted values[1:] after
        values[0]."""
        starts = newmark.ExtrapolatedStart(values[0])
        for a in values[1:]:
            starts.accept(a)
        return starts

    @pytest.mark.parametrize("order", range(newmark.START_ORDERS))
    def test_order_m_start_is_exact_on_degree_m_sequences(self, order):
        rng = np.random.default_rng(10 + order)
        coeffs = rng.standard_normal((order + 1, 40))
        seq = [sum(c * n ** i for i, c in enumerate(coeffs))
               for n in range(10)]
        starts = self.accepted(seq[:9])
        want = seq[9]
        got = starts.extrapolate(order)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if order > 0:
            # one order less misses the leading term
            lower = starts.extrapolate(order - 1)
            assert np.max(np.abs(lower - want)) > 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("accepted", [1, 2, 5, 6, 7, 12])
    def test_starts_match_the_binomial_form(self, accepted):
        # a_n + nabla a_n + ... + nabla^m a_n
        #   = sum_j (-1)^j C(m + 1, j + 1) a_{n-j}, j = 0..m
        rng = np.random.default_rng(accepted)
        seq = list(rng.standard_normal((accepted + 1, 30)))
        starts = self.accepted(seq)
        scale = max(np.max(np.abs(a)) for a in seq)
        for m in range(min(accepted, newmark.START_ORDERS - 1) + 1):
            want = sum((-1) ** j * math.comb(m + 1, j + 1) * seq[-1 - j]
                       for j in range(m + 1))
            assert np.max(np.abs(starts.extrapolate(m) - want)) <= (
                1e-13 * 2 ** m * scale), m

    def test_scores_average_the_start_errors(self):
        # each order is scored from the step whose acceleration first
        # determines its error, by the norm of that error and then an
        # exponential average; the first three starts have orders 0, 1, 2
        # and every later one the lowest score
        rng = np.random.default_rng(7)
        n = np.arange(30)[:, None]
        seq = (np.sin(0.3 * n + rng.uniform(0, 6, 20))
               + 1e-3 * rng.standard_normal((30, 20)))
        starts = newmark.ExtrapolatedStart(seq[0])
        want = [math.inf] * newmark.START_ORDERS
        for step, a in enumerate(seq[1:]):
            assert starts.order() == (
                step if step < 3 else int(np.argmin(want)))
            errors = [np.linalg.norm(a - starts.extrapolate(m))
                      for m in range(newmark.START_ORDERS)]
            starts.accept(a)
            for m in range(min(step + 1, newmark.START_ORDERS)):
                want[m] = errors[m] if want[m] == math.inf else (
                    newmark.SCORE_DECAY * want[m]
                    + (1.0 - newmark.SCORE_DECAY) * errors[m])
            assert starts.scores == pytest.approx(want, rel=1e-12)

    def test_accept_does_not_keep_the_accepted_array(self):
        seq = list(np.random.default_rng(3).standard_normal((4, 10)))
        starts = self.accepted(seq)
        start = starts.extrapolate(3)
        seq[-1][:] = 0.0
        assert np.array_equal(starts.extrapolate(3), start)


class TestValidation:
    def test_newmark_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="time step"):
            NewmarkConfig(dt=0.0)
        with pytest.raises(ValueError, match="gamma"):
            NewmarkConfig(dt=0.1, gamma=1.5)
        with pytest.raises(ValueError, match="beta"):
            NewmarkConfig(dt=0.1, beta=0.75)
        with pytest.raises(ValueError, match="tolerance"):
            NewmarkConfig(dt=0.1, tol=0.0)
        with pytest.raises(ValueError, match="budget"):
            NewmarkConfig(dt=0.1, max_iterations=0)

    @pytest.mark.parametrize("make,kwargs,match", [
        (NewmarkConfig, dict(dt=math.nan), "time step"),
        (NewmarkConfig, dict(dt=0.1, gamma=math.nan), "gamma"),
        (NewmarkConfig, dict(dt=0.1, beta=math.nan), "beta"),
        (NewmarkConfig, dict(dt=0.1, tol=math.nan), "tolerance"),
        (ProblemDefinition, dict(c=math.nan), "wave speed"),
        (ProblemDefinition, dict(c=1.0, delta=math.nan), "damping"),
        (ProblemDefinition, dict(c=1.0, final_time=math.nan), "final time"),
        (NewmarkConfig, dict(dt=math.inf), "time step"),
        (NewmarkConfig, dict(dt=0.1, tol=math.inf), "tolerance"),
        (NewmarkConfig, dict(dt=0.1, max_iterations=math.inf), "budget"),
        (ProblemDefinition, dict(c=math.inf), "wave speed"),
        (ProblemDefinition, dict(c=1.0e200), "wave speed"),
        (ProblemDefinition, dict(c=1.0, k=math.inf), "nonlinearity"),
        (ProblemDefinition, dict(c=1.0, k=-math.inf), "nonlinearity"),
        (ProblemDefinition, dict(c=1.0, delta=math.inf), "damping"),
        (ProblemDefinition, dict(c=1.0, final_time=math.inf), "final time"),
    ], ids=["dt", "gamma", "beta", "tol", "c", "delta", "final_time",
            "dt-inf", "tol-inf", "max_iterations-inf", "c-inf", "c-1e200",
            "k-inf", "k--inf", "delta-inf", "final_time-inf"])
    def test_nan_is_rejected(self, make, kwargs, match):
        with pytest.raises(ValueError, match=match):
            make(**kwargs)

    def test_problem_definition_rejects_bad_values(self):
        with pytest.raises(ValueError, match="wave speed"):
            ProblemDefinition(c=0.0)
        with pytest.raises(ValueError, match="damping"):
            ProblemDefinition(c=1.0, delta=-1.0e-9)
        with pytest.raises(ValueError, match="final time"):
            ProblemDefinition(c=1.0, final_time=0.0)


class TestDiscretization:
    # the delta study at n = 4, p = 1 with 5 steps per run
    DELTA = dataclasses.replace(default_config("delta_convergence"),
                                degree=1, levels=(4,), final_time=0.05,
                                dt=0.01)
    WAVEFRONT = dataclasses.replace(default_config("wavefront"), degree=1,
                                    levels=(4,), final_time=4.0e-6, dt=2.0e-6,
                                    snapshot_times=(4.0e-6,),
                                    profile_samples=16)

    def test_shared_sweep_writes_the_table_of_fresh_runs(self, monkeypatch):
        # the sweep's six runs share one discretization; run on a fresh one
        # each, they must give the same table byte for byte
        shared = experiments.delta_convergence_study(self.DELTA).to_csv()

        def fresh_run(prob, disc, cfg, observe=None):
            return run(prob, Discretization(disc.mesh, disc.degree,
                                            disc.tau_bar, disc.tau_mode),
                       cfg, observe)

        monkeypatch.setattr(experiments, "run", fresh_run)
        assert experiments.delta_convergence_study(self.DELTA).to_csv() \
            == shared

    # facet factorizations: the Gram matrix once per discretization, then
    # one Schur complement per stationary elimination and per run
    @pytest.mark.parametrize("study,counts", [
        ("delta", dict(topology=1, assemble=1, stationary=1, condensed=6,
                       initial=1, splu=8)),
        ("wavefront", dict(topology=1, assemble=1, stationary=0,
                           condensed=2, initial=1, splu=3)),
    ])
    def test_study_builds_its_discretization_once(self, monkeypatch, study,
                                                  counts):
        calls = dict.fromkeys(counts, 0)
        for module, key, name in (
                (newmark, "topology", "compute_facet_topology"),
                (newmark, "assemble", "assemble_operators"),
                (newmark, "stationary", "stationary_elimination"),
                (newmark, "condensed", "build_condensed"),
                (newmark, "initial", "compute_initial_state"),
                (operators.spla, "splu", "splu")):
            def counting(*args, key=key, fn=getattr(module, name),
                         **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        if study == "delta":
            experiments.delta_convergence_study(self.DELTA)
        else:
            experiments.wavefront_study(self.WAVEFRONT)
        assert calls == counts

    def test_first_build_refuses_a_level_over_the_cap(self, monkeypatch):
        # the cap that RunConfig.validate applies, before any topology
        def no_topology(mesh):
            raise AssertionError("topology formed")

        monkeypatch.setattr(parameters, "MAX_LEVEL_BYTES",
                            level_bytes(4, 2))
        assert Discretization(generate_structured_mesh(4), 2).ops
        monkeypatch.setattr(newmark, "compute_facet_topology", no_topology)
        for n, degree in ((5, 2), (4, 3)):
            disc = Discretization(generate_structured_mesh(n), degree)
            with pytest.raises(AssemblyError) as err:
                disc.ops
            with pytest.raises(ConfigError) as config_err:
                dataclasses.replace(self.DELTA, levels=(n,),
                                    degree=degree).validate()
            assert str(err.value) == str(config_err.value)
            assert str(err.value).startswith(f"level {n} needs an estimated ")

    def test_run_projects_before_it_builds_the_corrector(self, monkeypatch):
        # the initial data are projected and accelerated first, so the
        # stationary elimination is freed before the corrector's is built
        # and their facet factors are never held together
        calls, static = [], []
        for name in ("assemble_operators", "compute_initial_state",
                     "stationary_elimination", "compute_initial_acceleration",
                     "build_condensed", "number_of_steps"):
            def recording(*args, name=name, fn=getattr(newmark, name),
                          **kwargs):
                calls.append(name)
                if name == "build_condensed":
                    assert static[0]() is None
                out = fn(*args, **kwargs)
                if name == "stationary_elimination":
                    static.append(weakref.ref(out))
                return out

            monkeypatch.setattr(newmark, name, recording)
        prob = delta_study_problem(0.0, c=1.0, k=0.3, final_time=0.02)
        run(prob, Discretization(generate_structured_mesh(2), 1),
            NewmarkConfig(dt=0.01))
        assert calls == ["assemble_operators", "compute_initial_state",
                         "stationary_elimination",
                         "compute_initial_acceleration", "build_condensed",
                         "number_of_steps"]

    def test_run_refuses_what_build_condensed_refuses(self):
        # a coefficient that escaped ProblemDefinition's check is refused
        # with build_condensed's message, now after the projection
        prob = delta_study_problem(0.0, c=1.0, k=0.3, final_time=0.02)
        object.__setattr__(prob, "c", math.inf)
        with np.errstate(invalid="ignore"), pytest.raises(
                CondensationError, match=r"^c must be finite \(wave speed\)"):
            run(prob, Discretization(generate_structured_mesh(2), 1),
                NewmarkConfig(dt=0.01))

    def test_runs_get_their_own_initial_state(self):
        # overwriting the t = 0 state of one run must not reach the
        # projection that the next run on the same discretization reuses
        disc = Discretization(generate_structured_mesh(2), 1)
        prob = delta_study_problem(0.0, c=1.0, k=0.3, final_time=0.02)
        cfg = NewmarkConfig(dt=0.01)
        fresh = compute_initial_state(prob, disc.ops)
        names = ("psi", "dpsi", "lam", "dlam")
        first, second = [], []
        run(prob, disc, cfg, first.append)
        for name in names:
            getattr(first[0], name)[:] = 7.0
        run(dataclasses.replace(prob, delta=1.0e-2), disc, cfg,
            lambda s: second.append(copy.deepcopy(s)))
        got = second[0]
        for name in names:
            assert np.array_equal(getattr(got, name), getattr(fresh, name))
        # other data callables are projected anew
        other = delta_study_problem(0.0, c=1.0, k=0.3, final_time=0.02,
                                    amplitude0=0.0)
        state = disc.initial_state(other)
        assert np.max(np.abs(state.psi)) == 0.0
        assert np.array_equal(state.dpsi, fresh.dpsi)
