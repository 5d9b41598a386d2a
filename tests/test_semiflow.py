"""IMEX stepping, Lyapunov dissipation, drift identity, tail-decay bound."""

import tracemalloc
import weakref

import numpy as np
import pytest

import resonance_lab as rl
from resonance_lab import semiflow, spectral
from resonance_lab.semiflow import StepRejected, TailDecayError, default_dt


def test_imex_contraction_zero_potential(rng):
    # f = 0, V = 0, lam = -1: backward Euler on a nonpositive generator
    g = rl.make_grid(1, 10.0, 501)
    op = rl.assemble_hamiltonian(rl.make_potential(g, "constant", c=0.0))
    spec = rl.zero_nonlinearity(g)
    u = rng.standard_normal(g.num_nodes)
    dt = 0.05
    nxt = rl.ImexStepper(op, -1.0, dt).step(u, rl.evaluate_f(spec, u))
    assert g.norm(nxt) <= g.norm(u) / (1.0 + dt) + 1e-12


def test_imex_eigenfield_diagonal_action(pt_grid, pt_data, pt_op):
    spec = rl.zero_nonlinearity(pt_grid)
    lam, dt = -2.0, 0.01
    stepper = rl.ImexStepper(pt_op, lam, dt)
    for i in range(2):
        phi = pt_data.eigenfields[:, i]
        nxt = stepper.step(phi, rl.evaluate_f(spec, phi))
        factor = 1.0 / (1.0 + dt * (pt_data.eigenvalues[i] - lam))
        assert np.allclose(nxt, factor * phi, atol=1e-10)


def test_imex_stationary_fixed_point(pt_grid, pt_proj, pt_op, arctan_spec):
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    res = rl.solve_near_resonance(
        lam, 3.0 * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    assert res.converged
    dt = 0.01
    nxt = rl.ImexStepper(pt_op, lam, dt).step(res.w, rl.evaluate_f(arctan_spec, res.w))
    assert pt_grid.norm(nxt - res.w) <= 2.0 * dt * max(res.pde_residual, 1e-12)


def test_imex_positivity_rejection(pt_op):
    # lam = -2 with dt = 1: 1 + dt (min V - lam) = 1 - 4 < 0
    assert semiflow.loses_positivity(pt_op, -2.0, 1.0)
    with pytest.raises(StepRejected):
        rl.ImexStepper(pt_op, -2.0, 1.0)


def test_imex_refuses_a_nonpositive_dt(pt_op):
    # a NaN dt is refused here, not by SuperLU as a singular matrix
    for dt in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="dt must be positive"):
            rl.ImexStepper(pt_op, -2.0, dt)


def test_odd_even_flow_equals_the_superlu_flow(flow, monkeypatch):
    # the 1-D IMEX matrix factored by odd-even reduction and by SuperLU, as
    # every shift was before: the same flow to rounding, on a horizon where
    # the unstable ground state has not yet amplified it (from the odd start
    # 2φ₁ it grows like e^{2.875 t})
    g = rl.make_grid(1, 20.0, 401)
    op = rl.assemble_hamiltonian(rl.make_potential(g, "poschl_teller", ell=2))
    spec = rl.saturating_arctan(g)
    proj = rl.build_projections(rl.eigenpairs_below(op), -1.0, 0.25)
    lam, u0 = proj.lambda0 - proj.delta / 2, 2.0 * proj.kernel_fields[:, 0]

    def rows():
        traj, states = flow(rl.SemiflowState(0.0, u0), lam, 2.0, op, spec,
                            stop="time-only")
        return traj.steps, [(s.t, s.J, s.norms.l2, s.norms.h1, s.u) for s in states]

    steps, odd_even = rows()

    def superlu(self, lam, dt=None):
        import scipy.sparse.linalg as spla

        return spla.splu(self.shifted(lam, dt))

    monkeypatch.setattr(spectral.HamiltonianOperator, "factor_shifted", superlu)
    superlu_steps, superlu_rows = rows()
    assert superlu_steps == steps == 200
    assert len(odd_even) == len(superlu_rows) == 21
    for (t, J, l2, h1, u), (t_ref, J_ref, l2_ref, h1_ref, u_ref) in zip(odd_even,
                                                                        superlu_rows):
        assert t == t_ref
        np.testing.assert_allclose([J, l2, h1], [J_ref, l2_ref, h1_ref], rtol=1e-10)
        assert g.norm(u - u_ref) <= 1e-10 * g.norm(u_ref)


def test_default_dt_resolves_fastest_mode(pt_op):
    dt = default_dt(pt_op, -1.0)
    assert dt == min(0.1 / (6.0 + 1.0 + 1.0), 1e-2)


def test_lyapunov_zero_field(pt_grid, pt_op, arctan_spec):
    assert rl.lyapunov_J(-1.0, np.zeros(pt_grid.num_nodes), pt_op, arctan_spec) == 0.0


def test_lyapunov_eigenfield_rayleigh(pt_grid, pt_data, pt_op):
    spec = rl.zero_nonlinearity(pt_grid)
    lam = -2.0
    for i in range(2):
        phi = pt_data.eigenfields[:, i]
        J = rl.lyapunov_J(lam, phi, pt_op, spec)
        assert abs(J - 0.5 * (pt_data.eigenvalues[i] - lam)) <= 1e-8


def test_lyapunov_quadrature_oracle(pt_grid, pt_op, arctan_spec, rng):
    # independent reassembly of the defining integral on the same grid
    u = rng.standard_normal(pt_grid.num_nodes)
    lam = -1.3
    h = pt_grid.spacing
    w = pt_grid.weights
    padded = np.concatenate(([0.0], u, [0.0]))
    grad2 = h * np.sum((np.diff(padded) / h) ** 2)
    x = pt_grid.axis
    v = -6.0 / np.cosh(x) ** 2
    m = np.exp(-x**2)
    fprim = m * (2 / np.pi) * (u * np.arctan(u) - 0.5 * np.log1p(u**2))
    oracle = 0.5 * (grad2 + np.sum(w * v * u * u) - lam * np.sum(w * u * u)) \
        - np.sum(w * fprim)
    value = rl.lyapunov_J(lam, u, pt_op, arctan_spec)
    assert abs(value - oracle) <= 1e-8 * max(1.0, abs(oracle))


@pytest.mark.parametrize("s", [0.5, 3.0, 40.0])
def test_lyapunov_scaled_eigenfield(pt_grid, pt_data, pt_op, arctan_spec, s):
    # J_λ(sφ) = ½ s²(μ - λ) - ∫F(x, sφ) for an eigenfield φ of eigenvalue μ,
    # with the arctan primitive written out independently of the package
    lam = -2.5
    m = np.exp(-pt_grid.axis**2)
    for phi, mu in zip(pt_data.eigenfields.T, pt_data.eigenvalues):
        u = s * phi
        prim = m * (2 / np.pi) * (u * np.arctan(u) - 0.5 * np.log1p(u**2))
        expected = 0.5 * s**2 * (mu - lam) - np.sum(pt_grid.weights * prim)
        J = rl.lyapunov_J(lam, u, pt_op, arctan_spec)
        assert abs(J - expected) <= 1e-8 * s**2


def test_evolve_equilibrium_flag_at_solution(pt_grid, pt_proj, pt_op, arctan_spec,
                                            flow):
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    res = rl.solve_near_resonance(
        lam, 3.0 * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    traj, _ = flow(
        rl.SemiflowState(0.0, res.w), lam, 1.0, pt_op, arctan_spec,
        stop="equilibrium",
    )
    assert traj.equilibrium
    assert traj.steps == 1  # flags on the first step


def test_evolve_decay_below_spectrum(pt_grid, pt_data, pt_op, flow):
    # lam = -5 below the ground state: all modes decay, J decreases to 0
    spec = rl.zero_nonlinearity(pt_grid)
    u0 = pt_data.eigenfields[:, 0] + 0.5 * pt_data.eigenfields[:, 1]
    _, states = flow(
        rl.SemiflowState(0.0, u0), -5.0, 8.0, pt_op, spec, stop="time-only"
    )
    norms = [rl.field_norms(pt_grid, s.u).l2 for s in states]
    assert norms[-1] < 1e-2 * norms[0]
    J = np.array([s.J for s in states])
    assert np.all(np.diff(J) <= 1e-12)
    assert J[-1] >= 0.0  # J = 1/2 <(A - lam)u, u> >= 0 here


def test_evolve_growth_between_eigenvalues(pt_grid, pt_data, pt_op, flow):
    # lam = -2 sits between -4 and -1: the ground component grows per step
    # by exactly 1/(1 + dt(lam_1 - lam))
    spec = rl.zero_nonlinearity(pt_grid)
    phi0 = pt_data.eigenfields[:, 0]
    dt = 0.01
    traj, states = flow(
        rl.SemiflowState(0.0, phi0), -2.0, 0.5, pt_op, spec,
        dt=dt, stop="equilibrium", save_every=1,
    )
    assert not traj.equilibrium
    factor = 1.0 / (1.0 + dt * (pt_data.eigenvalues[0] - (-2.0)))
    coeff = [pt_grid.inner(s.u, phi0) for s in states]
    ratios = np.array(coeff[1:]) / np.array(coeff[:-1])
    assert np.allclose(ratios, factor, rtol=1e-8)
    assert factor > 1.0


def test_evolve_dissipation_rate(pt_grid, pt_op, arctan_spec, rng, smooth_field):
    # discrete dJ/dt matches -||du/dt||^2 at dt = 1e-4 for H1-sensible data
    lam = -1.1
    u = 2.0 * np.exp(-pt_grid.axis**2) + smooth_field(pt_grid, rng, amplitude=0.5)
    dt = 1e-4
    nxt = rl.ImexStepper(pt_op, lam, dt).step(u, rl.evaluate_f(arctan_spec, u))
    dJ = (rl.lyapunov_J(lam, nxt, pt_op, arctan_spec)
          - rl.lyapunov_J(lam, u, pt_op, arctan_spec)) / dt
    udot2 = pt_grid.norm((nxt - u) / dt) ** 2
    assert abs(dJ + udot2) <= 0.05 * udot2


def test_kernel_drift_zero_cases(pt_grid, pt_proj, rng):
    spec = rl.zero_nonlinearity(pt_grid)
    u = rng.standard_normal(pt_grid.num_nodes)
    assert rl.kernel_drift_rate(pt_proj.lambda0, u, pt_proj, spec) == 0.0
    # arithmetic: ||Pu|| = 2, lam - lam0 = 0.1 -> drift 0.4
    u2 = 2.0 * pt_proj.kernel_fields[:, 0]
    drift = rl.kernel_drift_rate(pt_proj.lambda0 + 0.1, u2, pt_proj, spec)
    assert abs(drift - 0.4) <= 1e-10


def test_kernel_drift_matches_finite_difference(pt_grid, pt_proj, pt_op, arctan_spec):
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    u = 3.0 * pt_proj.kernel_fields[:, 0] + 0.5 * np.exp(-(pt_grid.axis - 1.0) ** 2)
    dt = 1e-4
    stepper = rl.ImexStepper(pt_op, lam, dt)
    for _ in range(3):
        nxt = stepper.step(u, rl.evaluate_f(arctan_spec, u))
        p1 = pt_grid.norm(pt_proj.project_kernel(u))
        p2 = pt_grid.norm(pt_proj.project_kernel(nxt))
        fd = (p2**2 - p1**2) / (2 * dt)
        drift = rl.kernel_drift_rate(lam, u, pt_proj, arctan_spec)
        assert abs(fd - drift) <= 1e-3 * abs(drift)
        u = nxt


def test_continuity_in_initial_data(pt_grid, ground_proj, pt_op, arctan_spec, rng,
                                    flow):
    # trajectories from eps-close starts stay within C(T) eps, checked at
    # three scales of eps in the stable ground window
    lam = ground_proj.lambda0 - 0.1
    base = 2.0 * ground_proj.kernel_fields[:, 0]
    direction = rng.standard_normal(pt_grid.num_nodes)
    direction /= rl.field_norms(pt_grid, direction).h1
    ratios = []
    for eps in (1e-3, 1e-2, 1e-1):
        _, s1 = flow(rl.SemiflowState(0.0, base), lam, 2.0, pt_op,
                     arctan_spec, stop="time-only", save_every=25)
        _, s2 = flow(rl.SemiflowState(0.0, base + eps * direction), lam, 2.0,
                     pt_op, arctan_spec, stop="time-only", save_every=25)
        dist = max(
            rl.field_norms(pt_grid, a.u - b.u).h1
            for a, b in zip(s1, s2)
        )
        ratios.append(dist / eps)
    assert max(ratios) <= 3.0 * min(ratios)
    assert max(ratios) < 10.0


def test_equilibria_coincide_with_stationary_points(pt_grid, ground_proj, pt_op,
                                                    arctan_spec, flow):
    # evolve-to-equilibrium lands on a point with small PDE residual; the
    # kernel mode relaxes at rate ~ |lam - lam0|, so stay away from lam0
    lam = ground_proj.lambda0 - 0.2
    u0 = 3.0 * ground_proj.kernel_fields[:, 0]
    traj, states = flow(rl.SemiflowState(0.0, u0), lam, 150.0, pt_op, arctan_spec,
                        stop="equilibrium")
    assert traj.equilibrium
    final = states[-1].u
    resid = rl.pde_residual(lam, final, pt_op, arctan_spec)
    assert resid <= 1e-4 * (1 + rl.field_norms(pt_grid, final).h1)


def test_tail_decay_zero_trajectory(pt_grid, pt_proj, pt_op, arctan_spec):
    tally = rl.TailTally(pt_proj, [4.0, 8.0])
    rl.evolve(
        rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)),
        pt_proj.lambda0 - 0.1, 0.5, pt_op, arctan_spec, tally.add, stop="time-only",
    )
    report = rl.tail_decay_report(tally, arctan_spec)
    assert report.all_passed
    assert all(r.measured <= 1e-20 for r in report.rows)


def test_tail_tally_refuses_radii_beyond_the_box(pt_proj):
    # half_width = 20; a negative or NaN radius is refused as well
    for radius in (20.5, -1.0, float("nan")):
        with pytest.raises(TailDecayError, match="between 0 and the box half-width"):
            rl.TailTally(pt_proj, [4.0, radius])


def test_tail_decay_report_refuses_an_alpha_that_is_not_positive(pt_grid, pt_proj,
                                                                   pt_op, arctan_spec):
    # a NaN alpha would give NaN bounds and a failed report, not an error
    tally = rl.TailTally(pt_proj, [4.0])
    rl.evolve(rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)),
              pt_proj.lambda0 - 0.1, 0.1, pt_op, arctan_spec, tally.add, stop="time-only")
    for alpha in (-1.0, 0.0, float("nan")):
        with pytest.raises(TailDecayError, match="alpha must be positive"):
            rl.tail_decay_report(tally, arctan_spec, alpha=alpha)


def test_tail_decay_monotone_for_decaying_flow(pt_grid, pt_proj, pt_op, flow):
    # f = 0, lam < lambda_min, compactly supported start: measured tails
    # decay monotonically in time
    # the probed radius sits inside the initial support (outside it the mass
    # first grows by diffusion before the global decay wins)
    spec = rl.zero_nonlinearity(pt_grid)
    u0 = np.where(np.abs(pt_grid.axis) <= 2.0, 1.0, 0.0)
    _, states = flow(rl.SemiflowState(0.0, u0), -5.0, 2.0, pt_op, spec,
                     stop="time-only", save_every=20)
    for radius in (0.5, 1.0):
        tails = [rl.tail_mass(pt_grid, pt_proj.project_complement(s.u), radius)
                 for s in states]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tails, tails[1:]))


def test_tail_decay_report_structure(pt_grid, pt_proj, pt_op, arctan_spec):
    u0 = 2.0 * pt_proj.kernel_fields[:, 0]
    tally = rl.TailTally(pt_proj, [4.0, 8.0, 16.0])
    rl.evolve(rl.SemiflowState(0.0, u0), pt_proj.lambda0 - 0.1, 2.0,
              pt_op, arctan_spec, tally.add, stop="time-only", save_every=50)
    report = rl.tail_decay_report(tally, arctan_spec)
    assert report.alpha > 0 and report.eta > 0
    assert report.n0 < 4.0  # guaranteed regime reaches the probed radii
    assert report.all_passed
    assert set(r.radius for r in report.rows) == {4.0, 8.0, 16.0}
    # alpha_n decreases with the radius (every tail term shrinks): at one t1
    # the bounds differ only by it
    a_n = [r.bound for r in report.rows[:3]]
    assert a_n[0] > a_n[1] > a_n[2]


def test_tail_decay_report_holds_one_complement_at_a_time(pt_grid, pt_proj, pt_op,
                                                         arctan_spec, flow):
    # feeding the tally and assembling the report read the saved states in
    # one pass: their memory does not grow with the number of states (one Qu
    # per state, kept, is 201 fields here)
    u0 = 2.0 * pt_proj.kernel_fields[:, 0]
    _, states = flow(rl.SemiflowState(0.0, u0), pt_proj.lambda0 - 0.1, 2.0,
                     pt_op, arctan_spec, dt=0.01, stop="time-only", save_every=1)
    assert len(states) >= 200
    tracemalloc.start()
    try:
        tally = rl.TailTally(pt_proj, [4.0, 8.0, 16.0])
        for s in states:
            tally.add(s)
        report = rl.tail_decay_report(tally, arctan_spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 3 * (len(states) - 1)
    assert peak < 16 * 8 * pt_grid.num_nodes


def _flow(pt_proj, pt_op, arctan_spec, horizon, save_every, on_save):
    return rl.evolve(rl.SemiflowState(0.0, 2.0 * pt_proj.kernel_fields[:, 0]),
                     pt_proj.lambda0 - 0.1, horizon, pt_op, arctan_spec, on_save,
                     dt=0.01, stop="time-only", save_every=save_every)


def test_evolve_streams_each_saved_state(pt_proj, pt_op, arctan_spec):
    # a horizon dt does not divide, so the last, shortened step is saved too
    handed = []
    traj = _flow(pt_proj, pt_op, arctan_spec, 0.505, 5, handed.append)
    assert (traj.steps, traj.stop_reason) == (51, "horizon")
    lam = pt_proj.lambda0 - 0.1
    full = rl.ImexStepper(pt_op, lam, 0.01)
    t, u, expected = 0.0, 2.0 * pt_proj.kernel_fields[:, 0], []
    for k in range(51):
        if k % 5 == 0:
            expected.append((t, u))
        dt = min(0.01, 0.505 - t)
        stepper = full if dt == 0.01 else rl.ImexStepper(pt_op, lam, dt)
        u = stepper.step(u, rl.evaluate_f(arctan_spec, u))
        t += dt
    expected.append((t, u))
    assert len(handed) == len(expected) == 12
    for h, (t, u) in zip(handed, expected):
        assert h.t == t
        assert np.array_equal(h.u, u)
        assert h.J == rl.lyapunov_J(lam, h.u, pt_op, arctan_spec)
    # each field is a copy: a hook that overwrites it changes nothing after
    spoiled = []

    def spoil(s):
        spoiled.append((s.t, s.J))
        s.u.fill(np.nan)

    _flow(pt_proj, pt_op, arctan_spec, 0.505, 5, spoil)
    assert spoiled == [(h.t, h.J) for h in handed]


@pytest.mark.parametrize("stop", semiflow.STOP_RULES)
def test_evolve_hands_on_the_stop_rule_norms_and_J(stop, pt_proj, pt_op, arctan_spec,
                                                   monkeypatch):
    # each handed state carries field_norms and J of its field, and each is
    # computed once per field: the norms by the equilibrium rule when it reads
    # them, else by the save, and J by the save
    real_norms, real_J = semiflow.field_norms, semiflow.lyapunov_J
    calls = {"field_norms": 0, "lyapunov_J": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(semiflow, "field_norms", counted("field_norms", real_norms))
    monkeypatch.setattr(semiflow, "lyapunov_J", counted("lyapunov_J", real_J))
    lam, handed = pt_proj.lambda0 - 0.1, []
    traj = rl.evolve(rl.SemiflowState(0.0, 2.0 * pt_proj.kernel_fields[:, 0]), lam,
                     0.505, pt_op, arctan_spec, handed.append, dt=0.01, stop=stop,
                     save_every=5)
    assert (traj.steps, traj.stop_reason, len(handed)) == (51, "horizon", 12)
    # one field_norms per saved field, but under "equilibrium", whose rule
    # reads the H1 norm of every step: 51 steps and the initial state
    norms_calls = 51 + 1 if stop == "equilibrium" else 12
    assert calls == {"field_norms": norms_calls, "lyapunov_J": 12}
    for s in handed:
        assert s.norms == real_norms(pt_op.grid, s.u)
        assert s.J == real_J(lam, s.u, pt_op, arctan_spec)


def test_streamed_tail_report_equals_the_stored_one(pt_proj, pt_op, arctan_spec):
    # a tally fed by the hook as the flow runs, and one fed afterwards with
    # the states the hook kept
    radii = [4.0, 8.0, 16.0]
    tally, states = rl.TailTally(pt_proj, radii), []

    def feed(s):
        tally.add(s)
        states.append(s)

    _flow(pt_proj, pt_op, arctan_spec, 1.0, 10, feed)
    kept = rl.TailTally(pt_proj, radii)
    for s in states:
        kept.add(s)
    streamed = rl.tail_decay_report(tally, arctan_spec)
    report = rl.tail_decay_report(kept, arctan_spec)
    assert len(report.rows) == 3 * 10
    assert streamed.rows == report.rows
    assert (streamed.alpha, streamed.eta, streamed.n0) == (report.alpha, report.eta,
                                                           report.n0)


def test_streamed_evolve_holds_no_saved_field(pt_grid, pt_proj, pt_op, arctan_spec):
    # 201 saved states: the flow's memory does not grow with them
    field = 8 * pt_grid.num_nodes
    times = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _flow(pt_proj, pt_op, arctan_spec, 2.0, 1, lambda state: times.append(state.t))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(times) == 201
    assert peak < 16 * field


def test_evolve_frees_the_old_stepper_first(pt_grid, pt_op, arctan_spec, flow,
                                            monkeypatch):
    # a horizon dt does not divide: the shortened last step is factored anew,
    # once the full step's factors are dead
    real_init = semiflow.ImexStepper.__init__
    made, alive = [], []

    def init(self, *args):
        alive.append([ref() is not None for ref in made])
        real_init(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(semiflow.ImexStepper, "__init__", init)
    flow(rl.SemiflowState(0.0, np.exp(-pt_grid.axis**2)), -1.2, 0.105, pt_op,
         arctan_spec, dt=0.01, stop="time-only")
    assert alive == [[], [False]]


def test_trajectory_save_schedule(pt_grid, pt_op, arctan_spec, flow):
    _, states = flow(
        rl.SemiflowState(0.0, np.exp(-pt_grid.axis**2)), -1.2, 0.2, pt_op,
        arctan_spec, dt=0.01, stop="time-only", save_every=5,
    )
    times = np.array([s.t for s in states])
    assert times[0] == 0.0
    assert np.all(np.diff(times) > 0)
    assert abs(times[-1] - 0.2) < 1e-12


def test_evolve_stop_rule_validation(pt_grid, pt_op, arctan_spec, flow):
    with pytest.raises(ValueError):
        flow(rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)), -1.0,
             1.0, pt_op, arctan_spec, stop="whenever")
    for horizon in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="horizon must be positive"):
            flow(rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)), -1.0,
                 horizon, pt_op, arctan_spec)
    for save_every in (0, -1):
        with pytest.raises(ValueError, match="save_every"):
            flow(rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)), -1.0,
                 1.0, pt_op, arctan_spec, save_every=save_every)


def test_evolve_builds_a_stepper_only_at_an_admitted_dt(pt_grid, pt_op, arctan_spec,
                                                      flow, monkeypatch):
    # dt = 1 is halved to 0.125 before any stepper is built: one factorization
    real_init = semiflow.ImexStepper.__init__
    made = []

    def init(self, op, lam, dt):
        made.append(dt)
        real_init(self, op, lam, dt)

    monkeypatch.setattr(semiflow.ImexStepper, "__init__", init)
    traj, _ = flow(rl.SemiflowState(0.0, np.exp(-pt_grid.axis**2)), -1.125, 2.0,
                   pt_op, arctan_spec, dt=1.0, stop="time-only")
    assert (traj.steps, made) == (16, [0.125])


def test_evolve_halves_a_dt_the_implicit_matrix_refuses(pt_grid, pt_op, arctan_spec,
                                                       flow):
    # min V = -6 at lam = -1.125: I + dt (A - lam) stays positive only for
    # dt < 1/4.875 = 0.205.  Over the horizon 2, dt = 1 is halved three times,
    # to 0.125: 16 steps.  Over the horizon 0.3 it is first cut to 0.3, then
    # halved once: 2 steps of 0.15, not the 0.125, 0.125, 0.05 that halving
    # dt = 1 would give.  Each step is the plain IMEX step at that dt
    lam = -1.125
    assert pt_op.spectrum_lower_bound() == -6.0
    u0 = np.exp(-pt_grid.axis**2)
    for horizon, dt, steps in ((2.0, 0.125, 16), (0.3, 0.15, 2)):
        traj, states = flow(rl.SemiflowState(0.0, u0), lam, horizon, pt_op,
                            arctan_spec, dt=1.0, stop="time-only", save_every=1)
        assert (traj.steps, traj.stop_reason) == (steps, "horizon")
        assert len(states) == steps + 1
        stepper, u = rl.ImexStepper(pt_op, lam, dt), u0
        for k, saved in enumerate(states[1:], 1):
            u = stepper.step(u, rl.evaluate_f(arctan_spec, u))
            assert saved.t == k * dt
            assert np.array_equal(saved.u, u)
        assert states[-1].t == horizon
