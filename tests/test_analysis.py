"""Tests for field evaluation, error norms, postprocessing, and energies."""

import copy
import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import oracles
from oracles import n_vector
from westervelt_hdg.basis import scalar_space_dim
from westervelt_hdg.mesh import Mesh, compute_facet_topology, generate_structured_mesh
from westervelt_hdg.operators import (
    NondegeneracyError,
    assemble_operators,
)
from westervelt_hdg.condensation import build_condensed
from westervelt_hdg.parameters import level_bytes
from westervelt_hdg.newmark import (
    Discretization,
    NewmarkConfig,
    ProblemDefinition,
    State,
    advance_step,
    compute_initial_acceleration,
    consistent_traces,
    load_function,
    run,
)
from westervelt_hdg.problems import manufactured_problem
from westervelt_hdg.analysis import (
    ENERGY_CHUNK,
    DiscreteScalarField,
    History,
    DiscreteVectorField,
    convergence_rates,
    energy,
    l2_error,
    postprocess,
    scalar_field,
    vector_field,
)


def build(msh, degree, *, c=1.0, delta=0.0, dt=0.01, gamma=0.5, beta=0.25):
    topo = compute_facet_topology(msh)
    ops = assemble_operators(msh, topo, degree)
    cond = build_condensed(ops, c, delta, dt, gamma, beta)
    return topo, ops.layout, ops, cond


def unit_right_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


def rand_poly2(rng, deg):
    c = rng.standard_normal((deg + 1, deg + 1))
    for i in range(deg + 1):
        for j in range(deg + 1):
            if i + j > deg:
                c[i, j] = 0.0
    return c


def polyder2d(c, axis):
    out = np.zeros_like(c)
    for k in range(1, c.shape[axis]):
        if axis == 0:
            out[k - 1, :] = k * c[k, :]
        else:
            out[:, k - 1] = k * c[:, k]
    return out


class TestFields:
    def test_eval_reference_reproduces_projected_polynomial(self):
        msh = oracles.perturbed_mesh(2, seed=1)
        coeffs = oracles.l2_project_scalar(msh, 2, lambda x, y: x * x - y)
        fld = DiscreteScalarField(msh, 2, coeffs)
        pts = np.array([[0.2, 0.3], [0.0, 0.0], [0.5, 0.25]])
        vals = fld.eval_reference(pts)
        vert0, jac = msh.vertices[msh.triangles][:, 0], None
        tri = msh.vertices[msh.triangles]
        jac = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=2)
        xq = vert0[:, None, :] + np.einsum("eab,qb->eqa", jac, pts)
        want = xq[..., 0] ** 2 - xq[..., 1]
        assert np.max(np.abs(vals - want)) <= 1e-12

    def test_eval_at_physical_points(self):
        msh = oracles.perturbed_mesh(3, seed=4)
        coeffs = oracles.l2_project_scalar(msh, 1, lambda x, y: 2.0 * x - y)
        fld = DiscreteScalarField(msh, 1, coeffs)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.05, 0.95, size=(20, 2))
        vals = fld.eval_at(pts)
        assert np.max(np.abs(vals - (2.0 * pts[:, 0] - pts[:, 1]))) <= 1e-11

    def test_eval_at_rejects_outside_points(self):
        msh = generate_structured_mesh(1)
        fld = DiscreteScalarField(msh, 0, np.zeros(2))
        with pytest.raises(ValueError, match="outside"):
            fld.eval_at(np.array([[2.0, 2.0]]))

    @pytest.mark.parametrize("n,degree", [(4, 1), (16, 5), (32, 3)])
    def test_eval_at_matches_loop_reference_bit_for_bit(self, n, degree):
        # the profile points of the wavefront study, points on element
        # edges and vertices (the first containing element wins) and random
        # points; at n = 32 the points are located in three chunks
        msh = generate_structured_mesh(n)
        rng = np.random.default_rng(n)
        fld = DiscreteScalarField(
            msh, degree, rng.standard_normal(msh.n_triangles
                                             * scalar_space_dim(degree)))
        x = np.linspace(0.0, 1.0, 257)
        pts = np.vstack([np.column_stack([x, np.full_like(x, 0.5)]),
                         np.column_stack([x, x]), msh.vertices,
                         rng.uniform(0.0, 1.0, size=(100, 2))])
        got = fld.eval_at(pts)
        assert got.tobytes() == oracles.loop_eval_at(fld, pts).tobytes()
        # the first point outside is named, also past the first chunk
        pts[300] = (1.5, 0.25)
        pts[400] = (-0.5, 0.25)
        with pytest.raises(ValueError, match="outside the mesh") as got:
            fld.eval_at(pts)
        with pytest.raises(ValueError) as want:
            oracles.loop_eval_at(fld, pts)
        assert str(got.value) == str(want.value) and "1.5" in str(got.value)

    def test_coefficient_length_validated(self):
        msh = generate_structured_mesh(1)
        with pytest.raises(ValueError, match="shape"):
            DiscreteScalarField(msh, 1, np.zeros(5))
        with pytest.raises(ValueError, match="shape"):
            DiscreteVectorField(msh, 1, np.zeros(11))

    def test_vector_eval_reference(self):
        msh = generate_structured_mesh(2)
        coeffs = oracles.l2_project_vector(
            msh, 1, lambda x, y: (x + y, x - y))
        fld = DiscreteVectorField(msh, 1, coeffs)
        pts = np.array([[0.25, 0.25], [0.1, 0.6]])
        vals = fld.eval_reference(pts)
        assert vals.shape == (msh.n_triangles, 2, 2)
        tri = msh.vertices[msh.triangles]
        jac = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=2)
        xq = tri[:, 0][:, None, :] + np.einsum("eab,qb->eqa", jac, pts)
        assert np.max(np.abs(vals[..., 0]
                             - (xq[..., 0] + xq[..., 1]))) <= 1e-12
        assert np.max(np.abs(vals[..., 1]
                             - (xq[..., 0] - xq[..., 1]))) <= 1e-12

    def test_field_constructors_from_operators(self):
        msh = generate_structured_mesh(1)
        topo, lay, ops, cond = build(msh, 1)
        s = scalar_field(ops, np.zeros(lay.n_scalar))
        v = vector_field(ops, np.zeros(n_vector(lay)))
        assert s.degree == 1 and v.degree == 1


class TestL2Error:
    def test_scalar_closed_form(self):
        # zero field against t x at t=2: || 2x ||_{L2} = 2 / sqrt(3)
        msh = generate_structured_mesh(2)
        fld = DiscreteScalarField(msh, 1, np.zeros(8 * 3))
        err = l2_error(fld, lambda x, y, t: t * x, t=2.0)
        assert abs(err - 2.0 / np.sqrt(3.0)) <= 1e-13

    def test_vector_closed_form(self):
        # zero field against (y, x): squared norm 2/3
        msh = generate_structured_mesh(2)
        fld = DiscreteVectorField(msh, 1, np.zeros(2 * 8 * 3))
        err = l2_error(fld, lambda x, y, t: (y, x))
        assert abs(err - np.sqrt(2.0 / 3.0)) <= 1e-13

    def test_projected_polynomial_has_zero_error(self):
        msh = oracles.perturbed_mesh(2, seed=2)
        coeffs = oracles.l2_project_scalar(msh, 2,
                                           lambda x, y: x * y + 0.5 * y * y)
        fld = DiscreteScalarField(msh, 2, coeffs)
        err = l2_error(fld, lambda x, y, t: x * y + 0.5 * y * y)
        assert err <= 1e-13

    def test_trigonometric_norm_high_order(self):
        # || sin(pi x) sin(pi y) || = 1/2 on the unit square
        msh = generate_structured_mesh(4)
        fld = DiscreteScalarField(msh, 1, np.zeros(32 * 3))
        err = l2_error(fld, lambda x, y, t: np.sin(np.pi * x)
                       * np.sin(np.pi * y), quad_order=20)
        assert abs(err - 0.5) <= 1e-10


class TestPostprocess:
    def test_constant_gradient_closed_form(self):
        # v = (2, 3) and element mean 5 recover 2x + 3y + 10/3
        msh = unit_right_triangle()
        topo, lay, ops, cond = build(msh, 1)
        psi = np.zeros(lay.n_scalar)
        psi[0] = 5.0 / np.sqrt(2.0)  # mode 0 has constant value sqrt(2)
        v = np.zeros(n_vector(lay))
        v[0] = 2.0 / np.sqrt(2.0)
        v[lay.dim_scalar] = 3.0 / np.sqrt(2.0)
        star = postprocess(psi, v, ops)
        assert star.degree == 2
        pts = np.array([[0.0, 0.0], [0.2, 0.3], [0.5, 0.5], [1.0, 0.0]])
        got = star.eval_at(pts)
        want = 2.0 * pts[:, 0] + 3.0 * pts[:, 1] + 10.0 / 3.0
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_lowest_order_recovers_linears(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 0)
        psi = oracles.l2_project_scalar(msh, 0, lambda x, y: x - 2.0 * y)
        v = oracles.l2_project_vector(
            msh, 0, lambda x, y: (np.ones_like(x), -2.0 * np.ones_like(x)))
        star = postprocess(psi, v, ops)
        err = l2_error(star, lambda x, y, t: x - 2.0 * y)
        assert err <= 1e-13

    @pytest.mark.parametrize("degree", [1, 2])
    def test_exact_for_enriched_polynomials(self, degree):
        rng = np.random.default_rng(degree)
        msh = oracles.perturbed_mesh(2, seed=degree)
        topo, lay, ops, cond = build(msh, degree)
        c = rand_poly2(rng, degree + 1)
        cx, cy = polyder2d(c, 0), polyder2d(c, 1)

        def psi(x, y):
            return npoly.polyval2d(x, y, c)

        def grad(x, y):
            return (npoly.polyval2d(x, y, cx), npoly.polyval2d(x, y, cy))

        psi_h = oracles.l2_project_scalar(msh, degree, psi)
        v_h = oracles.l2_project_vector(msh, degree, grad)
        star = postprocess(psi_h, v_h, ops)
        err = l2_error(star, lambda x, y, t: psi(x, y))
        assert err <= 1e-11

    def test_preserves_element_means(self):
        rng = np.random.default_rng(23)
        msh = oracles.perturbed_mesh(2, seed=5)
        topo, lay, ops, cond = build(msh, 1)
        psi = rng.standard_normal(lay.n_scalar)
        v = rng.standard_normal(n_vector(lay))
        star = postprocess(psi, v, ops)
        lo = psi.reshape(lay.n_elements, lay.dim_scalar)[:, 0]
        hi = star.coeffs.reshape(lay.n_elements, -1)[:, 0]
        assert np.max(np.abs(lo - hi)) == 0.0


class Stack:
    """Arbitrary states, not steps of a run, in the chunks that
    History.chunks yields."""

    def __init__(self, states):
        self.t = np.array([state.t for state in states])
        self.fields = [np.array([getattr(state, name) for state in states])
                       for name in History.FIELDS]

    def chunks(self):
        for start in range(0, len(self.t), ENERGY_CHUNK):
            part = slice(start, start + ENERGY_CHUNK)
            yield (self.t[part], *(f[part] for f in self.fields))


# a one-state stack, and one that ends in a partial chunk
COUNTS = (1, 2 * ENERGY_CHUNK + 3)


class TestEnergy:
    def zero_state(self, lay):
        return State(t=0.0, psi=np.zeros(lay.n_scalar),
                     dpsi=np.zeros(lay.n_scalar),
                     ddpsi=np.zeros(lay.n_scalar),
                     lam=np.zeros(lay.n_facet), dlam=np.zeros(lay.n_facet),
                     ddlam=np.zeros(lay.n_facet))

    def test_zero_state_has_zero_energy(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        (e0,), (e1,) = energy(Stack([self.zero_state(lay)]), ops, 0.5, 1.0)
        assert e0 == 0.0 and e1 == 0.0

    def test_constant_velocity_closed_form(self):
        # dpsi = 1 everywhere, k = 1/2: e0 = (1 + 2k)/2 * |Omega| = 1
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        state = self.zero_state(lay)
        state.dpsi = state.dpsi.reshape(lay.n_elements, -1)
        state.dpsi[:, 0] = 1.0 / np.sqrt(2.0)
        state.dpsi = state.dpsi.reshape(-1)
        (e0,), (e1,) = energy(Stack([state]), ops, 0.5, 1.0)
        assert abs(e0 - 1.0) <= 1e-13
        assert e1 >= 0.0 and np.isfinite(e1)

    def test_degenerate_weight_rejected(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        state = self.zero_state(lay)
        state.dpsi = state.dpsi.reshape(lay.n_elements, -1)
        state.dpsi[:, 0] = -2.0 / np.sqrt(2.0)
        state.dpsi = state.dpsi.reshape(-1)
        with pytest.raises(NondegeneracyError, match="nonpositive"):
            energy(Stack([state]), ops, 0.5, 1.0)

    def random_states(self, lay, rng, count, **scales):
        """count states with standard normal unknowns, each field scaled
        by scales (default 1; 0 leaves it zero)."""
        states = []
        for i in range(count):
            state = self.zero_state(lay)
            state.t = 0.1 * i
            for name in History.FIELDS:
                value = getattr(state, name)
                setattr(state, name, scales.get(name, 1.0)
                        * rng.standard_normal(value.size))
            states.append(state)
        return states

    def test_matches_dense_quadratic_form_linear_case(self):
        rng = np.random.default_rng(3)
        msh = oracles.perturbed_mesh(2, seed=9)
        c = 2.0
        topo, lay, ops, cond = build(msh, 1, c=c)
        seven = oracles.dense_seven(msh, topo, 1)
        dc = oracles.dense_condensed(seven, 1.0)

        def store(p, l):
            return (p @ dc["Ks"] @ p + 2.0 * p @ dc["R"] @ l
                    + l @ dc["A"] @ l)

        for count in COUNTS:
            states = self.random_states(lay, rng, count)
            e0, e1 = energy(Stack(states), ops, 0.0, c)
            for state, got0, got1 in zip(states, e0, e1):
                want0 = 0.5 * state.dpsi @ seven["M"] @ state.dpsi \
                    + 0.5 * c * c * store(state.psi, state.lam)
                want1 = 0.5 * state.ddpsi @ seven["M"] @ state.ddpsi \
                    + 0.5 * c * c * store(state.dpsi, state.dlam)
                assert abs(got0 - want0) <= 1e-12 * max(abs(want0), 1.0)
                assert abs(got1 - want1) <= 1e-12 * max(abs(want1), 1.0)

    @pytest.mark.parametrize("tau_mode", ["single_facet", "uniform"])
    def test_jump_part_matches_dense_oracle(self, tau_mode):
        # with dpsi = 0 and c = 1, 2 e0 is the vector field term plus the
        # stabilization jumps psi S psi + 2 psi F lam + lam G lam
        rng = np.random.default_rng(29)
        msh = oracles.perturbed_mesh(3, seed=12)
        topo = compute_facet_topology(msh)
        ops = assemble_operators(msh, topo, 2, tau_bar=1.5,
                                 tau_mode=tau_mode)
        lay = ops.layout
        seven = oracles.dense_seven(msh, topo, 2, tau_bar=1.5,
                                    tau_mode=tau_mode)
        for count in COUNTS:
            states = self.random_states(lay, rng, count, dpsi=0.0)
            e0, _ = energy(Stack(states), ops, 0.0, 1.0)
            for state, got in zip(states, e0):
                flux = seven["B"] @ state.psi + seven["E"] @ state.lam
                store = flux @ np.linalg.solve(seven["Mv"], flux)
                want = (state.psi @ seven["S"] @ state.psi
                        + 2.0 * state.psi @ seven["F"] @ state.lam
                        + state.lam @ seven["G"] @ state.lam)
                assert want > 0.0
                assert abs((2.0 * got - store) - want) <= 1e-12 * want

    def test_nonlinear_kinetic_correction(self):
        # e0(k) - e0(0) = k * integral of (d psi)^3
        rng = np.random.default_rng(13)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 2)
        k = 0.4
        pts, wts = oracles.oracle_triangle_rule(12)
        phi = oracles.basis_values(2, pts)
        for count in COUNTS:
            states = self.random_states(lay, rng, count, psi=0.0,
                                        dpsi=0.05, ddpsi=0.05, lam=0.0,
                                        dlam=0.0)
            e0k, e1k = energy(Stack(states), ops, k, 1.0)
            e00, e10 = energy(Stack(states), ops, 0.0, 1.0)
            for i, state in enumerate(states):
                cube = quad_mixed = 0.0
                for t in range(msh.n_triangles):
                    _, _, detj, _ = oracles._element_geometry(msh, t)
                    dvals = phi @ state.dpsi.reshape(lay.n_elements, -1)[t]
                    avals = phi @ state.ddpsi.reshape(lay.n_elements, -1)[t]
                    cube += detj * np.sum(wts * dvals ** 3)
                    quad_mixed += detj * np.sum(wts * dvals * avals ** 2)
                assert abs((e0k[i] - e00[i]) - k * cube) <= 1e-13
                assert abs((e1k[i] - e10[i]) - k * quad_mixed) <= 1e-13

    def test_degenerate_state_in_a_stack_is_named(self):
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1)
        states = self.random_states(lay, np.random.default_rng(5),
                                    2 * ENERGY_CHUNK + 3, dpsi=0.01)
        bad = ENERGY_CHUNK + 1  # in the second chunk
        dpsi = states[bad].dpsi.reshape(lay.n_elements, -1)
        dpsi[3, 0] = -2.0 / np.sqrt(2.0)  # weight 1 - 2 on element 3
        with pytest.raises(NondegeneracyError,
                           match=rf"^state {bad} \(t = 0\.5\): 1 \+ 2k\*theta "
                                 r"nonpositive") as err:
            energy(Stack(states), ops, 0.5, 1.0)
        assert err.value.elements == (3,)

    def test_energy_conserved_without_damping_or_forcing(self):
        rng = np.random.default_rng(17)
        msh = generate_structured_mesh(2)
        topo, lay, ops, cond = build(msh, 1, c=1.0, delta=0.0, dt=0.01)
        cfg = NewmarkConfig(dt=0.01, gamma=0.5, beta=0.25)
        prob = ProblemDefinition(c=1.0, k=0.0, delta=0.0)
        psi = 0.1 * rng.standard_normal(lay.n_scalar)
        dpsi = 0.1 * rng.standard_normal(lay.n_scalar)
        state = State(t=0.0, psi=psi, dpsi=dpsi,
                      ddpsi=np.zeros(lay.n_scalar),
                      lam=consistent_traces(ops, psi),
                      dlam=consistent_traces(ops, dpsi),
                      ddlam=np.zeros(lay.n_facet))
        compute_initial_acceleration(state, prob, ops)
        load = load_function(prob.forcing, ops.tables)
        history = History(21, cfg)
        history(state)
        for step in range(20):
            state, _ = advance_step(state, cfg, prob, ops, cond, load,
                                    step_index=step)
            history(state)
        e0, _ = energy(history, ops, 0.0, 1.0)
        assert e0[0] > 0.0
        assert np.max(np.abs(e0 - e0[0])) <= 1e-10 * e0[0]


class TestHistory:
    def recorded_run(self, steps, **coefficients):
        """A History of the manufactured problem at n = 2, p = 2 over
        `steps` steps, and deep copies of the states the run observed."""
        cfg = NewmarkConfig(dt=1.0e-3)
        prob = manufactured_problem(final_time=steps * cfg.dt, **coefficients)
        history = History(steps + 1, cfg)
        states = []

        def observe(state):
            history(state)
            states.append(copy.deepcopy(state))

        result = run(prob, Discretization(generate_structured_mesh(2), 2),
                     cfg, observe)
        return history, states, result.ops

    @pytest.mark.parametrize("coefficients", [
        dict(k=0.5, delta=1.0e-3), dict(k=0.0, delta=0.0)])
    def test_replay_equals_the_run_bit_for_bit(self, coefficients):
        # 11 states: the last chunk is partial; k != 0 with forcing and
        # delta > 0, and the linear undamped run
        history, states, ops = self.recorded_run(10, **coefficients)
        assert len(states) % ENERGY_CHUNK != 0
        replayed = []
        for times, *fields in history.chunks():
            assert 1 <= len(times) <= ENERGY_CHUNK
            for i, t in enumerate(times):
                replayed.append((t, [f[i] for f in fields]))
        assert len(replayed) == len(states)
        for state, (t, fields) in zip(states, replayed):
            assert t == state.t
            for name, value in zip(History.FIELDS, fields):
                assert np.array_equal(value, getattr(state, name)), name
        k = coefficients["k"]
        got, want = (energy(h, ops, k, 100.0) for h in (history,
                                                       Stack(states)))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_a_row_holds_the_two_accelerations(self):
        history, states, ops = self.recorded_run(3)
        lay = ops.layout
        rows = len(states)
        assert history.accelerations.shape == (rows,
                                               lay.n_scalar + lay.n_facet)
        # no other array grows with the states but t
        per_state = sum(value.nbytes for value in vars(history).values()
                        if isinstance(value, np.ndarray))
        assert per_state == 8 * rows * (lay.n_scalar + lay.n_facet + 1)
        estimate = level_bytes(2, 2, rows) - level_bytes(2, 2)
        assert history.accelerations.nbytes <= estimate

    def test_refuses_a_state_that_is_not_the_next_step(self):
        msh = generate_structured_mesh(1)
        lay = build(msh, 1)[1]
        history = History(3, NewmarkConfig(dt=0.01))
        state = TestEnergy().zero_state(lay)
        history(state)
        for t in (0.0, 0.02, np.nextafter(0.01, 1.0)):
            with pytest.raises(ValueError, match="consecutive steps"):
                history(dataclasses.replace(state, t=t))
        history(dataclasses.replace(state, t=0.01))
        assert history.size == 2

    def test_refuses_a_state_beyond_its_rows(self):
        # a run of 4 steps yields 5 states
        history = History(3, NewmarkConfig(dt=0.01))
        with pytest.raises(ValueError, match="rows = 3"):
            run(ProblemDefinition(c=1.0, final_time=0.04),
                Discretization(generate_structured_mesh(1), 1),
                NewmarkConfig(dt=0.01), history)
        assert history.size == 3


class TestConvergenceRates:
    def test_closed_form_orders(self):
        rates = convergence_rates([0.1, 0.025, 0.00625], [0.4, 0.2, 0.1])
        assert np.allclose(rates, [2.0, 2.0], rtol=0.0, atol=1e-13)

    def test_zero_errors_marked_nan(self):
        rates = convergence_rates([0.1, 0.0], [0.2, 0.1])
        assert len(rates) == 1 and np.isnan(rates[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="matching"):
            convergence_rates([1.0, 0.5], [0.2])
        with pytest.raises(ValueError, match="decreasing"):
            convergence_rates([1.0, 0.5], [0.1, 0.2])
        with pytest.raises(ValueError, match="decreasing"):
            convergence_rates([1.0, 0.5], [0.2, -0.1])
