"""IMEX stepping, Lyapunov dissipation, drift identity, tail-decay bound."""

import numpy as np
import pytest

import resonance_lab as rl
from resonance_lab.semiflow import StepRejected, default_dt


def test_imex_contraction_zero_potential(rng):
    # f = 0, V = 0, lam = -1: backward Euler on a nonpositive generator
    g = rl.make_grid(1, 10.0, 501)
    op = rl.assemble_hamiltonian(g, rl.make_potential(g, "constant", c=0.0))
    spec = rl.zero_nonlinearity(g)
    u = rng.standard_normal(g.num_nodes)
    dt = 0.05
    nxt = rl.imex_step(rl.SemiflowState(0.0, u), -1.0, dt, op, spec)
    assert g.norm(nxt.u) <= g.norm(u) / (1.0 + dt) + 1e-12


def test_imex_eigenfield_diagonal_action(pt_grid, pt_data, pt_op):
    spec = rl.zero_nonlinearity(pt_grid)
    lam, dt = -2.0, 0.01
    for i in range(2):
        phi = pt_data.eigenfields[:, i]
        nxt = rl.imex_step(rl.SemiflowState(0.0, phi), lam, dt, pt_op, spec)
        factor = 1.0 / (1.0 + dt * (pt_data.eigenvalues[i] - lam))
        assert np.allclose(nxt.u, factor * phi, atol=1e-10)


def test_imex_stationary_fixed_point(pt_grid, pt_proj, pt_op, arctan_spec):
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    res = rl.solve_near_resonance(
        lam, 3.0 * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    assert res.converged
    dt = 0.01
    nxt = rl.imex_step(rl.SemiflowState(0.0, res.w), lam, dt, pt_op, arctan_spec)
    assert pt_grid.norm(nxt.u - res.w) <= 2.0 * dt * max(res.pde_residual, 1e-12)


def test_imex_positivity_rejection(pt_grid, pt_op, arctan_spec):
    # lam = -2 with dt = 1: 1 + dt (lam_min - lam) = 1 - 2 < 0
    with pytest.raises(StepRejected):
        rl.imex_step(
            rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)),
            -2.0, 1.0, pt_op, arctan_spec,
        )


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


def test_evolve_equilibrium_flag_at_solution(pt_grid, pt_proj, pt_op, arctan_spec):
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    res = rl.solve_near_resonance(
        lam, 3.0 * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    traj = rl.evolve(
        rl.SemiflowState(0.0, res.w), lam, 1.0, pt_op, arctan_spec,
        stop="equilibrium",
    )
    assert traj.equilibrium
    assert traj.steps == 1  # flags on the first step


def test_evolve_decay_below_spectrum(pt_grid, pt_data, pt_op):
    # lam = -5 below the ground state: all modes decay, J decreases to 0
    spec = rl.zero_nonlinearity(pt_grid)
    u0 = pt_data.eigenfields[:, 0] + 0.5 * pt_data.eigenfields[:, 1]
    traj = rl.evolve(
        rl.SemiflowState(0.0, u0), -5.0, 8.0, pt_op, spec, stop="time-only"
    )
    norms = [rl.field_norms(pt_grid, s.u).l2 for s in traj.states]
    assert norms[-1] < 1e-2 * norms[0]
    J = traj.J_values
    assert np.all(np.diff(J) <= 1e-12)
    assert J[-1] >= 0.0  # J = 1/2 <(A - lam)u, u> >= 0 here


def test_evolve_growth_between_eigenvalues(pt_grid, pt_data, pt_op):
    # lam = -2 sits between -4 and -1: the ground component grows per step
    # by exactly 1/(1 + dt(lam_1 - lam))
    spec = rl.zero_nonlinearity(pt_grid)
    phi0 = pt_data.eigenfields[:, 0]
    dt = 0.01
    traj = rl.evolve(
        rl.SemiflowState(0.0, phi0), -2.0, 0.5, pt_op, spec,
        dt=dt, stop="equilibrium", save_every=1,
    )
    assert not traj.equilibrium
    factor = 1.0 / (1.0 + dt * (pt_data.eigenvalues[0] - (-2.0)))
    coeff = [pt_grid.inner(s.u, phi0) for s in traj.states]
    ratios = np.array(coeff[1:]) / np.array(coeff[:-1])
    assert np.allclose(ratios, factor, rtol=1e-8)
    assert factor > 1.0


def test_evolve_dissipation_rate(pt_grid, pt_op, arctan_spec, rng, smooth_field):
    # discrete dJ/dt matches -||du/dt||^2 at dt = 1e-4 for H1-sensible data
    lam = -1.1
    u = 2.0 * np.exp(-pt_grid.axis**2) + smooth_field(pt_grid, rng, amplitude=0.5)
    dt = 1e-4
    state = rl.SemiflowState(0.0, u)
    nxt = rl.imex_step(state, lam, dt, pt_op, arctan_spec)
    dJ = (rl.lyapunov_J(lam, nxt.u, pt_op, arctan_spec)
          - rl.lyapunov_J(lam, u, pt_op, arctan_spec)) / dt
    udot2 = pt_grid.norm((nxt.u - u) / dt) ** 2
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
    state = rl.SemiflowState(0.0, u)
    for _ in range(3):
        nxt = rl.imex_step(state, lam, dt, pt_op, arctan_spec)
        p1 = pt_grid.norm(pt_proj.project_kernel(state.u))
        p2 = pt_grid.norm(pt_proj.project_kernel(nxt.u))
        fd = (p2**2 - p1**2) / (2 * dt)
        drift = rl.kernel_drift_rate(lam, state.u, pt_proj, arctan_spec)
        assert abs(fd - drift) <= 1e-3 * abs(drift)
        state = nxt


def test_continuity_in_initial_data(pt_grid, ground_proj, pt_op, arctan_spec, rng):
    # trajectories from eps-close starts stay within C(T) eps, checked at
    # three scales of eps in the stable ground window
    lam = ground_proj.lambda0 - 0.1
    base = 2.0 * ground_proj.kernel_fields[:, 0]
    direction = rng.standard_normal(pt_grid.num_nodes)
    direction /= rl.field_norms(pt_grid, direction).h1
    ratios = []
    for eps in (1e-3, 1e-2, 1e-1):
        t1 = rl.evolve(rl.SemiflowState(0.0, base), lam, 2.0, pt_op,
                       arctan_spec, stop="time-only", save_every=25)
        t2 = rl.evolve(rl.SemiflowState(0.0, base + eps * direction), lam, 2.0,
                       pt_op, arctan_spec, stop="time-only", save_every=25)
        dist = max(
            rl.field_norms(pt_grid, a.u - b.u).h1
            for a, b in zip(t1.states, t2.states)
        )
        ratios.append(dist / eps)
    assert max(ratios) <= 3.0 * min(ratios)
    assert max(ratios) < 10.0


def test_equilibria_coincide_with_stationary_points(pt_grid, ground_proj, pt_op,
                                                    arctan_spec):
    # evolve-to-equilibrium lands on a point with small PDE residual; the
    # kernel mode relaxes at rate ~ |lam - lam0|, so stay away from lam0
    lam = ground_proj.lambda0 - 0.2
    u0 = 3.0 * ground_proj.kernel_fields[:, 0]
    traj = rl.evolve(rl.SemiflowState(0.0, u0), lam, 150.0, pt_op, arctan_spec,
                     stop="equilibrium")
    assert traj.equilibrium
    final = traj.states[-1].u
    resid = rl.pde_residual(lam, final, pt_op, arctan_spec)
    assert resid <= 1e-4 * (1 + rl.field_norms(pt_grid, final).h1)


def test_tail_decay_zero_trajectory(pt_grid, pt_proj, pt_op, arctan_spec):
    traj = rl.evolve(
        rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)),
        pt_proj.lambda0 - 0.1, 0.5, pt_op, arctan_spec, stop="time-only",
    )
    report = rl.tail_decay_report(traj, pt_proj, arctan_spec, [4.0, 8.0])
    assert report.all_passed
    assert all(r.measured <= 1e-20 for r in report.rows)


def test_tail_decay_monotone_for_decaying_flow(pt_grid, pt_proj, pt_op):
    # f = 0, lam < lambda_min, compactly supported start: measured tails
    # decay monotonically in time
    # the probed radius sits inside the initial support (outside it the mass
    # first grows by diffusion before the global decay wins)
    spec = rl.zero_nonlinearity(pt_grid)
    u0 = np.where(np.abs(pt_grid.axis) <= 2.0, 1.0, 0.0)
    traj = rl.evolve(rl.SemiflowState(0.0, u0), -5.0, 2.0, pt_op, spec,
                     stop="time-only", save_every=20)
    for radius in (0.5, 1.0):
        tails = [rl.tail_mass(pt_grid, pt_proj.project_complement(s.u), radius)
                 for s in traj.states]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tails, tails[1:]))


def test_tail_decay_report_structure(pt_grid, pt_proj, pt_op, arctan_spec):
    u0 = 2.0 * pt_proj.kernel_fields[:, 0]
    traj = rl.evolve(rl.SemiflowState(0.0, u0), pt_proj.lambda0 - 0.1, 2.0,
                     pt_op, arctan_spec, stop="time-only", save_every=50)
    report = rl.tail_decay_report(traj, pt_proj, arctan_spec,
                                  [4.0, 8.0, 16.0])
    assert report.alpha > 0 and report.eta > 0
    assert report.n0 < 4.0  # guaranteed regime reaches the probed radii
    assert report.all_passed
    assert set(r.radius for r in report.rows) == {4.0, 8.0, 16.0}
    # alpha_n decreases with the radius (every tail term shrinks): at one t1
    # the bounds differ only by it
    a_n = [r.bound for r in report.rows[:3]]
    assert a_n[0] > a_n[1] > a_n[2]


def test_trajectory_save_schedule(pt_grid, pt_op, arctan_spec):
    traj = rl.evolve(
        rl.SemiflowState(0.0, np.exp(-pt_grid.axis**2)), -1.2, 0.2, pt_op,
        arctan_spec, dt=0.01, stop="time-only", save_every=5,
    )
    times = np.array([s.t for s in traj.states])
    assert times[0] == 0.0
    assert np.all(np.diff(times) > 0)
    assert abs(times[-1] - 0.2) < 1e-12


def test_evolve_j_plateau_stop(pt_grid, ground_proj, pt_op, arctan_spec):
    # at an equilibrium the J differences between saves vanish
    lam = ground_proj.lambda0 - 0.2
    res = rl.solve_near_resonance(
        lam, 3.0 * ground_proj.kernel_fields[:, 0], ground_proj,
        arctan_spec,
    )
    traj = rl.evolve(rl.SemiflowState(0.0, res.w), lam, 50.0, pt_op,
                     arctan_spec, stop="j-plateau", save_every=5,
                     j_plateau_tol=1e-10)
    assert traj.stop_reason == "j-plateau"
    assert traj.states[-1].t < 50.0


def test_evolve_stop_rule_validation(pt_grid, pt_op, arctan_spec):
    with pytest.raises(ValueError):
        rl.evolve(rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)), -1.0,
                  1.0, pt_op, arctan_spec, stop="whenever")
    with pytest.raises(ValueError):
        rl.evolve(rl.SemiflowState(0.0, np.zeros(pt_grid.num_nodes)), -1.0,
                  -1.0, pt_op, arctan_spec)
