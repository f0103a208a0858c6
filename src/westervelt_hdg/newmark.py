"""Predictor-corrector Newmark integration of the condensed HDG system.

Semidiscrete system in coefficient vectors (scalar Psi, facet Lam, with the
velocity field eliminated element-wise):

    N(dPsi) ddPsi + c^2 Ks tld(Psi) + c^2 R tld(Lam) = load(t)
    Rt tld(Psi) + A tld(Lam) = 0,        tld(X) = X + (delta/c^2) dX

The run starts from the HDG elliptic projections of psi(0) and dpsi/dt(0),
driven by their Laplacians (ProblemDefinition), and from the acceleration
that the first equation gives at t = 0 (compute_initial_acceleration).

Each step predicts Psi, dPsi, Lam and dLam (predictor), forms the right side at
their damped values (stiffness_load, the one place where delta enters), then
fixed-point-iterates the implicit Newmark equations, lagging the nonlinear
mass: every pass maps the acceleration iterate x to g = G(x) by solving one
condensed linear system whose matrix is frozen in the corrector's Elimination
(corrector_step). With k = 0 the right side does not depend on x: a linear
step reuses its first solve as the image of its second pass. Convergence is
judged by the relative Euclidean change from x to g of the new-time solution,
after at least two passes, and the step accepts g with the facet accelerations
of the same solve; a change that is not finite stops the step at once, and so
does a change that grows on two consecutive passes (contraction ratio
theta >= 1). In-place updates round as the whole-array formulas do: near a
zero crossing of the solution the stop test turns on the change's last bit. The
second pass starts from g_1; every later one from the depth-one Anderson
mixing x = g_s - a (g_s - g_{s-1}) of the last two images, with a minimizing
the residual combination |f_s - a (f_s - f_{s-1})|, f = g - x. run() starts
each step from an extrapolation of the accepted accelerations a_n = ddPsi_n
(ExtrapolatedStart): of order m = 0..5, a_n + nabla a_n + ... + nabla^m a_n
in backward differences. The first three steps take the orders 0, 1 and 2
(a_0, 2 a_n - a_{n-1}, 3 (a_n - a_{n-1}) + a_{n-2}); every later one the
order whose past starts lay closest to the accelerations then accepted, in an
exponential average of the Euclidean distances (weight 0.99 on the past).
With k = 0 the start does not matter, and run forms none. The accepted
accelerations give the new state through the Newmark update corrected_state,
so a run can be replayed from its accelerations and its NewmarkConfig alone
(analysis.History).

The load of a forcing with terms ((g_i, f_i), ...), f = sum_i g_i(t)
f_i(x, y), is assembled once per spatial factor; any other forcing callable
is assembled at every step (load_function).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .condensation import (
    Elimination,
    build_condensed,
    condensed_solve,
    stationary_elimination,
    step_mu,
)
from .mesh import Mesh, compute_facet_topology
from .operators import (
    AssembledOperators,
    AssemblyError,
    CondensationError,
    ElementTables,
    NondegeneracyError,
    SolverError,
    apply_blocks,
    assemble_load,
    assemble_nonlinear_mass,
    assemble_operators,
    nonlinear_defect,
)
from .parameters import MAX_STEPS, check_level, check_parameter


class NonconvergenceError(SolverError):
    """Corrector failed to reach tolerance within the iteration budget, or
    its change stopped being finite or stopped contracting."""

    def __init__(self, message, step=None, iterations=None, last_change=None,
                 elements=()):
        super().__init__(message)
        self.step = step
        self.iterations = iterations
        self.last_change = last_change
        self.elements = tuple(int(e) for e in elements)


@dataclass(frozen=True)
class NewmarkConfig:
    dt: float
    gamma: float = 0.5
    beta: float = 0.25
    tol: float = 1.0e-10
    max_iterations: int = 100

    def __post_init__(self):
        for name in ("dt", "gamma", "beta", "tol", "max_iterations"):
            check_parameter(name, getattr(self, name), ValueError)


@dataclass(frozen=True)
class ProblemDefinition:
    """Coefficients, initial data and forcing of one wave problem.

    The initial data psi(0) and d(psi)/dt(0) enter through their Laplacians
    lap_psi0 and lap_psi1 (vectorized callables of (x, y)), which with the
    homogeneous Dirichlet condition determine them; None means a zero
    datum. The forcing is a vectorized callable of (x, y, t) or None; see
    load_function for forcings that also carry separable terms.
    """

    c: float
    k: float = 0.0
    delta: float = 0.0
    final_time: float = 1.0
    lap_psi0: Callable | None = None
    lap_psi1: Callable | None = None
    forcing: Callable | None = None
    exact_psi: Callable | None = None
    exact_v: Callable | None = None

    def __post_init__(self):
        for name in ("c", "k", "delta", "final_time"):
            check_parameter(name, getattr(self, name), ValueError)
        check_parameter("c^2", self.c * self.c, ValueError)


@dataclass
class State:
    """Coefficient vectors of all time levels at time t."""

    t: float
    psi: np.ndarray
    dpsi: np.ndarray
    ddpsi: np.ndarray
    lam: np.ndarray
    dlam: np.ndarray
    ddlam: np.ndarray


@dataclass(frozen=True)
class Prediction:
    t: float
    psi_hat: np.ndarray
    dpsi_hat: np.ndarray
    lam_hat: np.ndarray
    dlam_hat: np.ndarray


def _axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y + a x in one new array, rounded as that expression is."""
    out = a * x
    out += y
    return out


def predictor(state: State, cfg: NewmarkConfig) -> Prediction:
    """Newmark predictions of values and velocities at the next time level,
    t + dt, which no coefficient enters: stiffness_load damps them."""
    dt = cfg.dt
    half = 0.5 * dt * dt * (1.0 - 2.0 * cfg.beta)
    psi_hat = _axpy(dt, state.dpsi, state.psi)
    psi_hat += half * state.ddpsi
    lam_hat = _axpy(dt, state.dlam, state.lam)
    lam_hat += half * state.ddlam
    dpsi_hat = _axpy((1.0 - cfg.gamma) * dt, state.ddpsi, state.dpsi)
    dlam_hat = _axpy((1.0 - cfg.gamma) * dt, state.ddlam, state.dlam)
    return Prediction(t=state.t + dt, psi_hat=psi_hat, dpsi_hat=dpsi_hat,
                      lam_hat=lam_hat, dlam_hat=dlam_hat)


def corrected_state(pred: Prediction, ddpsi: np.ndarray, ddlam: np.ndarray,
                    cfg: NewmarkConfig) -> State:
    """The Newmark update: the state at pred.t with the accepted
    accelerations ddpsi and ddlam. A run and analysis.History's replay of it
    both go through predictor and this function, so they round alike."""
    bdt2, gdt = cfg.beta * cfg.dt * cfg.dt, cfg.gamma * cfg.dt
    return State(
        t=pred.t,
        psi=_axpy(bdt2, ddpsi, pred.psi_hat),
        dpsi=_axpy(gdt, ddpsi, pred.dpsi_hat),
        ddpsi=ddpsi,
        lam=_axpy(bdt2, ddlam, pred.lam_hat),
        dlam=_axpy(gdt, ddlam, pred.dlam_hat),
        ddlam=ddlam,
    )


def consistent_traces(ops: AssembledOperators, psi: np.ndarray) -> np.ndarray:
    """The facet values lam of the trace constraint A lam = -Rt psi, with R
    gathered from its element blocks through the scalar-facet pattern; each
    entry of Rt psi is summed in scalar dof order."""
    r_loc = ops.scalar_row[:, :, ops.layout.dim_scalar:]
    return ops.gram_solver.solve(
        -(ops.tables.scalar_facet.assemble(r_loc).T @ psi))


def compute_initial_state(prob: ProblemDefinition,
                          ops: AssembledOperators) -> State:
    """Stationary HDG solves projecting the two initial data fields.

    Each field solves the mixed system driven by minus its Laplacian through
    the stationary elimination, built once and only when a Laplacian is
    given. Accelerations are left at zero; see compute_initial_acceleration.
    """
    lay = ops.layout
    static, levels = None, []
    for lap in (prob.lap_psi0, prob.lap_psi1):
        if lap is None:
            levels.append((np.zeros(lay.n_scalar), np.zeros(lay.n_facet)))
            continue
        if static is None:
            static = stationary_elimination(ops)
        source = assemble_load(lambda x, y, t: -lap(x, y), 0.0, ops.tables)
        levels.append(condensed_solve(static, source))
    (psi0, lam0), (psi1, lam1) = levels
    return State(
        t=0.0, psi=psi0, dpsi=psi1, ddpsi=np.zeros(lay.n_scalar),
        lam=lam0, dlam=lam1, ddlam=np.zeros(lay.n_facet),
    )


def compute_initial_acceleration(state: State, prob: ProblemDefinition,
                                 ops: AssembledOperators) -> State:
    """Fill consistent initial accelerations into the state (in place).

    Solves the nonlinear-mass system driven by the t=0 load minus the
    stiffness residual of the initial data (stiffness_load).
    """
    lay = ops.layout
    load = (np.zeros(lay.n_scalar) if prob.forcing is None
            else assemble_load(prob.forcing, state.t, ops.tables))
    rhs = stiffness_load(state.psi, state.dpsi, state.lam, state.dlam, load,
                         prob, ops)
    try:
        nmass = assemble_nonlinear_mass(state.dpsi, prob.k, ops.tables)
    except NondegeneracyError as err:
        raise NondegeneracyError(
            f"initial acceleration (t = {state.t:g}): {err}",
            elements=err.elements,
        ) from err
    state.ddpsi = np.linalg.solve(
        nmass, rhs.reshape(lay.n_elements, lay.dim_scalar, 1)).reshape(-1)
    state.ddlam = consistent_traces(ops, state.ddpsi)
    return state


def load_function(forcing: Callable | None,
                  tables: ElementTables) -> Callable[[float], np.ndarray]:
    """The load vector (f(., t), phi_i)_K as a function of t.

    A forcing with an attribute terms = ((g_i, f_i), ...), meaning
    f(x, y, t) = sum_i g_i(t) f_i(x, y), has the load L_i of every space
    factor assembled here, once; the load at t is then sum_i g_i(t) L_i.
    Any other callable is assembled at every t.
    """
    n = tables.layout.n_scalar
    if forcing is None:
        return lambda t: np.zeros(n)
    terms = getattr(forcing, "terms", None)
    if terms is None:
        return lambda t: assemble_load(forcing, t, tables)
    loads = [(g, assemble_load(lambda x, y, t, f=f: f(x, y), 0.0, tables))
             for g, f in terms]

    def load(t):
        total = np.zeros(n)
        for g, vec in loads:
            total += g(t) * vec
        return total

    return load


def stiffness_load(psi: np.ndarray, dpsi: np.ndarray, lam: np.ndarray,
                   dlam: np.ndarray, load: np.ndarray, prob: ProblemDefinition,
                   ops: AssembledOperators) -> np.ndarray:
    """load - c^2 (Ks tld(psi) + R tld(lam)), tld(x) = x + (delta/c^2) dx:
    the right side of the corrector at the predictions and of the initial
    acceleration at the initial state; the one place that forms tld."""
    w = prob.delta / (prob.c * prob.c)
    rhs = apply_blocks(ops.scalar_row, ops.tables.element_values(
        _axpy(w, dpsi, psi), _axpy(w, dlam, lam)))
    rhs *= -(prob.c * prob.c)
    rhs += load
    return rhs


def corrector_step(x: np.ndarray, dpsi_hat: np.ndarray, ln: np.ndarray,
                   cfg: NewmarkConfig, prob: ProblemDefinition,
                   ops: AssembledOperators, cond: Elimination):
    """One fixed-point pass of the implicit Newmark equations: the image g
    of the acceleration iterate x and the facet accelerations of the same
    solve.

    Lags the nonlinear mass at the velocity iterate
    theta = dpsi_hat + gamma dt x, applies its defect M - N(theta) to x
    without forming N, and solves the condensed linear system; ln is the
    prediction-adjusted load from stiffness_load. With k = 0 the defect is
    zero and ln is solved as it is.
    """
    if prob.k == 0.0:
        return condensed_solve(cond, ln)
    theta = _axpy(cfg.gamma * cfg.dt, x, dpsi_hat)
    rhs = nonlinear_defect(theta, x, prob.k, ops.tables)
    rhs += ln
    return condensed_solve(cond, rhs)


def _change_metric(cfg: NewmarkConfig, pred: Prediction, diff: np.ndarray,
                   ddpsi_new: np.ndarray) -> float:
    """Relative change of the monitored iterate (solution, velocity, or
    acceleration depending on which Newmark weights are active) for the
    acceleration change diff = ddpsi_new - ddpsi_old."""
    dt = cfg.dt
    if cfg.beta > 0.0:
        scale, base = cfg.beta * dt * dt, pred.psi_hat
    elif cfg.gamma > 0.0:
        scale, base = cfg.gamma * dt, pred.dpsi_hat
    else:
        scale, base = 1.0, None
    ref = scale * ddpsi_new
    if base is not None:
        ref += base
    num = scale * math.sqrt(diff @ diff)
    den = math.sqrt(ref @ ref)
    return num / den if den > 0.0 else num


def advance_step(state: State, cfg: NewmarkConfig, prob: ProblemDefinition,
                 ops: AssembledOperators, cond: Elimination,
                 load: Callable[[float], np.ndarray], step_index: int = 0,
                 start: np.ndarray | None = None) -> tuple[State, int]:
    """Advance one time step; returns the new state and the corrector count.

    load is the load_function of prob.forcing. The corrector starts from the
    acceleration start, by default state.ddpsi, mixes its passes from the
    second on (see the module docstring) and stops once the change falls
    below the tolerance, but never before its second pass; a step that
    stops there does no mixing arithmetic, and with k = 0 its second pass
    reuses the first pass's solve. It raises NonconvergenceError when the
    change is not finite, grows on two consecutive passes, or stays above
    the tolerance for cfg.max_iterations passes, and CondensationError when
    cond was built for another mu than prob and cfg give (build_condensed).
    """
    mu = step_mu(prob.c, prob.delta, cfg.dt, cfg.gamma, cfg.beta)
    if cond.mu != mu:
        raise CondensationError(f"condensed operators were built for mu = "
                                f"{cond.mu!r}, refusing use with mu = {mu!r}")
    pred = predictor(state, cfg)
    ln = stiffness_load(pred.psi_hat, pred.dpsi_hat, pred.lam_hat,
                        pred.dlam_hat, load(pred.t), prob, ops)
    ddpsi = state.ddpsi if start is None else start
    change = np.inf
    converged = False
    iterations = 0
    rising = 0  # consecutive passes with theta >= 1
    # the previous pass's image g and residual f = g - x
    g_old = f_old = None
    for s in range(1, cfg.max_iterations + 1):
        # with k = 0 the right side does not depend on the iterate, so every
        # later image is the first one
        if s == 1 or prob.k != 0.0:
            try:
                g, ddlam = corrector_step(ddpsi, pred.dpsi_hat, ln, cfg,
                                          prob, ops, cond)
            except NondegeneracyError as err:
                raise NondegeneracyError(
                    f"step {step_index}, corrector iteration {s}: {err}",
                    elements=err.elements,
                ) from err
        f = g - ddpsi
        last_change = change
        change = _change_metric(cfg, pred, f, g)
        if not math.isfinite(change):
            raise _nonfinite_error(change, g, ops, step_index, s)
        iterations = s
        if change < cfg.tol and s >= 2:
            converged = True
            ddpsi = g
            break
        if s >= 2 and last_change > 0.0:
            theta = change / last_change
            rising = rising + 1 if theta >= 1.0 else 0
            if rising == 2:
                raise NonconvergenceError(
                    f"corrector stops contracting at step {step_index}, "
                    f"corrector iteration {s} (theta = {theta:.3g}, last "
                    f"relative change {change:.3e})",
                    step=step_index, iterations=s, last_change=change,
                )
        else:
            rising = 0
        x_next = g
        if s >= 2:
            # depth-one Anderson mixing of the last two passes
            df = f - f_old
            dd = float(df @ df)
            mix = float(df @ f) / dd if dd > 0.0 else np.nan
            if math.isfinite(mix):
                x_next = g - g_old
                x_next *= mix
                np.subtract(g, x_next, out=x_next)
        g_old, f_old = g, f
        ddpsi = x_next
    if not converged:
        raise NonconvergenceError(
            f"corrector did not converge within {cfg.max_iterations} "
            f"iterations at step {step_index} (last relative change "
            f"{change:.3e})",
            step=step_index, iterations=iterations, last_change=change,
        )
    return corrected_state(pred, ddpsi, ddlam, cfg), iterations


def _nonfinite_error(change: float, g: np.ndarray, ops: AssembledOperators,
                     step_index: int, iteration: int) -> NonconvergenceError:
    """The report of a corrector change that is not finite: it names the
    elements of the image g with non-finite accelerations or, when g is
    finite and the change's norm overflowed, those holding its largest
    |acceleration|."""
    lay = ops.layout
    blocks = g.reshape(lay.n_elements, lay.dim_scalar)
    bad = np.flatnonzero(~np.isfinite(blocks).all(axis=1))
    where = f"non-finite accelerations on elements {bad[:8].tolist()}"
    if not bad.size:
        peak = np.abs(blocks).max(axis=1)
        bad = np.flatnonzero(peak == peak.max())
        where = (f"the change's norm overflowed; largest |acceleration| "
                 f"{peak.max():.3g} on elements {bad[:8].tolist()}")
    return NonconvergenceError(
        f"corrector change {change} is not finite at step {step_index}, "
        f"corrector iteration {iteration}; {where}",
        step=step_index, iterations=iteration, last_change=change,
        elements=bad,
    )


@dataclass
class RunResult:
    state: State
    ops: AssembledOperators
    cond: Elimination
    iterations: list[int] = field(default_factory=list)

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations)) if self.iterations else 0.0


def number_of_steps(final_time: float, dt: float) -> int:
    """The whole number, at most MAX_STEPS, of steps dt to final_time."""
    ratio = final_time / dt
    got = f"got final_time = {final_time}, dt = {dt}"
    if not np.isfinite(ratio):
        raise ValueError(f"final_time / dt overflows, {got}")
    if ratio > MAX_STEPS + 0.5:
        raise ValueError(f"final_time / dt must be <= {MAX_STEPS} steps, {got}")
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1.0e-9 * max(1.0, abs(ratio)):
        raise ValueError(
            f"final_time = {final_time} is not a whole number of steps of "
            f"dt = {dt} (final_time / dt = {ratio:.17g})")
    return n


class Discretization:
    """The part of a run that depends only on the mesh, the degree and the
    stabilization tau_bar, tau_mode: the topology, the layout, the
    AssembledOperators with the Gram factor of the condensation, and the last
    projected initial state. Every run on it builds only what depends on
    the problem's coefficients and the time step.

    Each part is built on first use inside run, through the names of this
    module, so the first run's setup includes it. The first build refuses,
    with AssemblyError, a degree or a level over the storage cap
    (parameters.check_level, at the structured level of as many
    triangles) before the topology is formed. The projected state is
    reused while the two Laplacians of the initial data are the same
    objects; every run gets its own copies of its arrays.
    """

    def __init__(self, mesh: Mesh, degree: int, tau_bar: float = 1.0,
                 tau_mode: str = "single_facet"):
        self.mesh, self.degree = mesh, degree
        self.tau_bar, self.tau_mode = tau_bar, tau_mode
        self._ops: AssembledOperators | None = None
        self._initial: tuple[tuple, State] | None = None  # (data, state)

    @property
    def ops(self) -> AssembledOperators:
        if self._ops is None:
            check_level(math.isqrt(self.mesh.n_triangles // 2), self.degree,
                        self.tau_mode, 0, AssemblyError)
            topo = compute_facet_topology(self.mesh)
            self._ops = assemble_operators(self.mesh, topo, self.degree,
                                           tau_bar=self.tau_bar,
                                           tau_mode=self.tau_mode)
        return self._ops

    def initial_state(self, prob: ProblemDefinition) -> State:
        """A copy of the projected initial data of prob
        (compute_initial_state), projected again only when one of the data
        callables is not the object it was at the last projection."""
        data = (prob.lap_psi0, prob.lap_psi1)
        if self._initial is None or any(
                a is not b for a, b in zip(data, self._initial[0])):
            self._initial = (data, compute_initial_state(prob, self.ops))
        return copy.deepcopy(self._initial[1])


# the orders of the corrector's starts, constant up to quintic, and the
# weight of an order's score on its previous value
START_ORDERS = 6
SCORE_DECAY = 0.99


class ExtrapolatedStart:
    """The corrector's starts: extrapolations of the accepted accelerations.

    The order-m start is a_n + nabla a_n + ... + nabla^m a_n, m = 0..5, from
    the backward differences of the accelerations accepted so far, a_0
    first. Accepting a_{n+1} differences it into the table in place; its
    new nabla^{m+1} a_{n+1} is the error of the order-m start, and each
    order's score is the exponential average, weight SCORE_DECAY on the old
    score, of the norms of its errors, from its first error on. The first
    three starts have the orders 0, 1 and 2 (a_0, the linear and the
    quadratic extrapolation); every later one the lowest-scored order.

    nabla^0..nabla^5 are the rows base, base + 1, ... (mod 7) of one
    (7, n) array, held as a list of row views. Accepting writes a_{n+1} to
    the row before base, makes it the new base and replaces each later row
    by its difference from the row before; the last becomes nabla^6, the
    quintic's error. No other row is copied.
    """

    def __init__(self, a0: np.ndarray):
        self._rows = list(np.zeros((START_ORDERS + 1, a0.size)))
        self._rows[0][:] = a0
        self._base = 0
        self.scores = [math.inf] * START_ORDERS  # inf: not scored yet
        self.accepted = 0  # accelerations accepted after a_0

    def _row(self, j: int) -> np.ndarray:
        """The row of nabla^j a_n, j = 0..6 (nabla^6 after an accept)."""
        return self._rows[(self._base + j) % len(self._rows)]

    def order(self) -> int:
        """The order of the next start."""
        if self.accepted < 3:
            return self.accepted
        return min(range(START_ORDERS), key=self.scores.__getitem__)

    def extrapolate(self, order: int) -> np.ndarray:
        """The start of the given order, its terms added from nabla^0 up."""
        start = self._row(0).copy()
        for j in range(1, order + 1):
            start += self._row(j)
        return start

    def accept(self, a: np.ndarray) -> None:
        """Difference the accepted acceleration a into the table and score
        every order whose error it determines; rows that a_0 and the
        accepted accelerations do not determine yet are left alone."""
        self.accepted += 1
        self._base = (self._base - 1) % len(self._rows)
        prev = self._row(0)
        prev[:] = a
        for j in range(1, min(self.accepted, START_ORDERS) + 1):
            # nabla^j a_{n+1} = nabla^{j-1} a_{n+1} - nabla^{j-1} a_n, the
            # error of the order j - 1 start
            row = self._row(j)
            np.subtract(prev, row, out=row)
            error, old = math.sqrt(row.dot(row)), self.scores[j - 1]
            self.scores[j - 1] = (
                error if old == math.inf
                else SCORE_DECAY * old + (1.0 - SCORE_DECAY) * error)
            prev = row


def run(prob: ProblemDefinition, disc: Discretization, cfg: NewmarkConfig,
        observe: Callable[[State], None] | None = None) -> RunResult:
    """Initialize and march the scheme to the final time on disc, building
    whatever part of disc is not built yet.

    observe, when given, is called with the state at t=0 and after every
    step; it must not modify the state.
    """
    ops = disc.ops
    # the stationary elimination of the projection is freed before this one
    state = disc.initial_state(prob)
    compute_initial_acceleration(state, prob, ops)
    cond = build_condensed(ops, prob.c, prob.delta, cfg.dt, cfg.gamma,
                           cfg.beta)
    load = load_function(prob.forcing, ops.tables)
    n_steps = number_of_steps(prob.final_time, cfg.dt)
    result = RunResult(state=state, ops=ops, cond=cond)
    if observe is not None:
        observe(state)
    # with k = 0 the corrector's image does not depend on its start
    starts = ExtrapolatedStart(state.ddpsi) if prob.k != 0.0 else None
    for step in range(n_steps):
        start = None if starts is None else starts.extrapolate(starts.order())
        state, iters = advance_step(state, cfg, prob, ops, cond, load,
                                    step_index=step, start=start)
        if starts is not None:
            starts.accept(state.ddpsi)
        result.iterations.append(iters)
        if observe is not None:
            observe(state)
    result.state = state
    return result
