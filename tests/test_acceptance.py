"""Acceptance criteria: one test per criterion, at the stated tolerances.

The terminal summary (conftest hook) prints one PASS/FAIL line per criterion.
Criteria 4, 8, 9 and 10 share the session-scoped 12-point branch toward
lambda0 = -1 of the Poschl-Teller(2) operator on [-20, 20], n = 4001, with
f(x, u) = e^{-x^2} (2/pi) arctan(u) and the geometric schedule
lambda_n = lambda0 - 2^{-n} delta.
"""

import numpy as np

import resonance_lab as rl
from resonance_lab.solver import reconstruct_iterate


def test_criterion_01_spectral_oracle():
    """Poschl-Teller eigenvalues {-4, -1} within 1e-3, second-order in h,
    asymptotic bottom in [-1e-3, 0]."""
    exact = np.array([-4.0, -1.0])
    errors = {}
    for n in (2001, 4001):
        g = rl.make_grid(1, 20.0, n)
        pot = rl.make_potential(g, "poschl_teller", ell=2)
        op = rl.assemble_hamiltonian(pot)
        data = rl.eigenpairs_below(op)
        assert len(data.eigenvalues) == 2
        errors[n] = np.abs(data.eigenvalues - exact)
        if n == 4001:
            assert np.all(errors[n] <= 1e-3)
            assert -1e-3 <= op.alpha_inf <= 0.0
    ratios = errors[2001] / errors[4001]
    assert np.all((ratios >= 3.5) & (ratios <= 4.5))


def test_criterion_02_projection_algebra(pt_grid, pt_proj):
    """P idempotent, resolution of identity, orthogonality: 1e-10 ||u|| on
    100 random fields."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = rng.standard_normal(pt_grid.num_nodes)
        nu = pt_grid.norm(u)
        p = pt_proj.project_kernel(u)
        qm = pt_proj.project_below(u)
        qp = pt_proj.project_above(u)
        assert pt_grid.norm(pt_proj.project_kernel(p) - p) <= 1e-10 * nu
        assert pt_grid.norm(p + qm + qp - u) <= 1e-10 * nu
        assert abs(pt_grid.inner(p, qm)) <= 1e-10 * nu


def test_criterion_03_resolvent_contract(pt_grid, pt_proj, pt_op):
    """||(A - lam) z - Qw|| <= 1e-8 ||Qw|| for 20 random w at 5 lambdas."""
    rng = np.random.default_rng(3)
    lam0, delta = pt_proj.lambda0, pt_proj.delta
    lams = [lam0 - delta, lam0 - delta / 2, lam0, lam0 + delta / 2, lam0 + delta]
    for lam in lams:
        for _ in range(20):
            w = rng.standard_normal(pt_grid.num_nodes)
            q = pt_proj.project_complement(w)
            z = rl.apply_resolvent_complement(pt_proj, lam, w)
            resid = pt_grid.norm(pt_op.apply(z) - lam * z - q)
            assert resid <= 1e-8 * pt_grid.norm(q)


def test_criterion_04_equivalence_of_formulations(
    acceptance_branch, pt_grid, pt_proj, arctan_spec
):
    """Fixed-point defect 1e-6 implies scaled PDE residual 1e-5, and the
    u -> w -> u' reconstruction round-trip is 1e-8-tight."""
    for p in acceptance_branch:
        assert p.converged
        lam, w = p.lam, p.u
        # defect of the reconstructed iterate
        u = reconstruct_iterate(lam, w, pt_proj)
        defect = pt_grid.norm(u - rl.k_map(lam, u, pt_proj, arctan_spec))
        assert defect <= 1e-6 * (1 + pt_grid.norm(u))
        assert p.residual <= 1e-5 * (1 + p.h1)
        # round trip u -> w -> u'
        w_back = pt_proj.project_kernel(u) + rl.apply_resolvent_complement(
            pt_proj, lam, u
        )
        u_back = reconstruct_iterate(lam, w_back, pt_proj)
        assert pt_grid.norm(u_back - u) <= 1e-8 * pt_grid.norm(u)


def test_criterion_05_lyapunov_dissipation(pt_grid, ground_proj, pt_op,
                                           arctan_spec, smooth_field, flow):
    """J nonincreasing between saves (1e-8 slack) on 10 random runs of
    horizon 10; discrete dJ/dt matches -||udot||^2 within 5% at dt = 1e-4."""
    rng = np.random.default_rng(5)
    lam0, delta = ground_proj.lambda0, ground_proj.delta
    probes = 0
    for run in range(10):
        lam = lam0 + delta * rng.uniform(-1.0, 1.0)
        u0 = smooth_field(pt_grid, rng, bumps=5, amplitude=2.0)
        _, states = flow(rl.SemiflowState(0.0, u0), lam, 10.0, pt_op,
                         arctan_spec, stop="time-only", save_every=20)
        J = np.array([s.J for s in states])
        assert np.all(np.diff(J) <= 1e-8)
        stepper = rl.ImexStepper(pt_op, lam, 1e-4)
        for state in states[:3]:
            nxt = stepper.step(state.u, rl.evaluate_f(arctan_spec, state.u))
            udot2 = pt_grid.norm((nxt - state.u) / 1e-4) ** 2
            if udot2 < 1e-6:
                continue
            dJ = (rl.lyapunov_J(lam, nxt, pt_op, arctan_spec)
                  - rl.lyapunov_J(lam, state.u, pt_op, arctan_spec)) / 1e-4
            assert abs(dJ + udot2) <= 0.05 * udot2
            probes += 1
    assert probes >= 10


def test_criterion_06_kernel_drift_identity(pt_grid, pt_proj, pt_op,
                                            arctan_spec, smooth_field):
    """Finite difference of ||Pu||^2/2 matches the drift formula to 1e-3
    relative at dt = 1e-4 along trajectories."""
    rng = np.random.default_rng(6)
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    dt = 1e-4
    u = 3.0 * pt_proj.kernel_fields[:, 0] + smooth_field(pt_grid, rng)
    stepper = rl.ImexStepper(pt_op, lam, dt)
    checked = 0
    for step in range(300):
        nxt = stepper.step(u, rl.evaluate_f(arctan_spec, u))
        if step % 60 == 0:
            p1 = pt_grid.norm(pt_proj.project_kernel(u))
            p2 = pt_grid.norm(pt_proj.project_kernel(nxt))
            fd = (p2**2 - p1**2) / (2 * dt)
            drift = rl.kernel_drift_rate(lam, u, pt_proj, arctan_spec)
            if abs(drift) > 1e-3:
                assert abs(fd - drift) <= 1e-3 * abs(drift)
                checked += 1
        u = nxt
    assert checked >= 3


def test_criterion_07_tail_decay_bound(pt_grid, pt_proj, pt_op, arctan_spec):
    """Assembled tail bound passes on the arctan run; inflating alpha x10
    is detected (the check is not vacuous)."""
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    radii = [4.0, 6.0, 8.0, 10.0, 14.0, 16.0]
    # equilibrium-style run from a kernel start
    tally = rl.TailTally(pt_proj, radii)
    rl.evolve(
        rl.SemiflowState(0.0, 2.0 * pt_proj.kernel_fields[:, 0]), lam, 5.0,
        pt_op, arctan_spec, tally.add, stop="time-only", save_every=100,
    )
    report = rl.tail_decay_report(tally, arctan_spec)
    assert report.n0 <= min(radii)
    assert report.all_passed
    # violation probe: wide bump near the box edge over a short horizon
    x = pt_grid.points[:, 0]
    bump = np.exp(-((x - 17.0) / 2.0) ** 2)
    probe = rl.TailTally(pt_proj, radii)
    rl.evolve(rl.SemiflowState(0.0, bump), lam, 1.0, pt_op,
              arctan_spec, probe.add, stop="time-only", save_every=50)
    honest = rl.tail_decay_report(probe, arctan_spec)
    assert honest.all_guaranteed_passed  # the theorem holds with honest alpha
    inflated = rl.tail_decay_report(probe, arctan_spec, alpha=10.0 * honest.alpha)
    assert not inflated.all_guaranteed_passed


def test_criterion_08_bifurcation_experiment(acceptance_branch, pt_proj):
    """All 12 solves converge; ||u_n||_H1 strictly increasing with total
    growth >= 50; fitted power in [-1.3, -0.7].  Runtime <= 5 min."""
    assert len(acceptance_branch) == 12
    assert all(p.converged for p in acceptance_branch)
    h1 = np.array([p.h1 for p in acceptance_branch])
    assert np.all(np.diff(h1) > 0)
    assert h1[-1] / h1[0] >= 50.0
    verdict = rl.detect_asymptotic_bifurcation(acceptance_branch, pt_proj.lambda0)
    assert verdict.detected
    assert -1.3 <= verdict.fitted_power <= -0.7


def test_criterion_09_necessary_conditions(acceptance_branch, pt_proj, arctan_spec):
    """Qu bound 2 delta^{-1} ||m||; flat grad-Qu trend; sandwich spread <= 10;
    Pu strictly increasing."""
    report = rl.necessary_condition_report(acceptance_branch, pt_proj, arctan_spec)
    assert not report.trivial_branch
    assert report.qu_max <= 2.0 / pt_proj.delta * arctan_spec.bound_norm
    assert report.qu_bound_passed
    assert abs(report.grad_qu_trend_slope) <= 1e-2
    assert report.sandwich_spread <= 10.0
    assert report.sandwich_c1 > 0
    assert report.kernel_increasing
    assert report.l2_increasing and report.grad_increasing


def test_criterion_10_energy_law(acceptance_branch, pt_grid, arctan_spec):
    """E decreasing with E_12 <= -10 |E_1| at lambda0 = -1 < 0; a shifted
    potential with lambda0 = +1 > 0 gives increasing energy."""
    E = np.array([p.energy for p in acceptance_branch])
    assert np.all(np.diff(E) < 0)
    assert E[-1] <= -10.0 * abs(E[0])
    # mirrored setup: V + 2 shifts the spectrum to {-2, +1}
    pot = rl.make_potential(pt_grid, "poschl_teller", ell=2, offset=2.0)
    op = rl.assemble_hamiltonian(pot)
    data = rl.eigenpairs_below(op)
    proj = rl.build_projections(data, 1.0, 0.25)
    assert proj.lambda0 > 0
    branch = rl.continue_branch(proj, arctan_spec, "minus", 12)
    assert all(p.converged for p in branch)
    E2 = np.array([p.energy for p in branch])
    assert np.all(np.diff(E2) > 0)
    assert E2[-1] > 0


def test_criterion_11_morse_count_jump(pt_data):
    """k(lambda0 + delta) - k(lambda0 - delta) = dim X0 for every computed
    multiplet: jumps of 1 in 1-D, a jump of 2 at the 2-D degenerate pair."""
    for center, idx in pt_data.multiplets:
        proj = rl.build_projections(pt_data, center)
        jump = (rl.morse_count(pt_data, center + proj.delta).k
                - rl.morse_count(pt_data, center - proj.delta).k)
        assert jump == len(idx) == 1
    g2 = rl.make_grid(2, 6.0, 121)
    pot2 = rl.make_potential(g2, "square_well", depth=-50.0, width=2.0)
    op2 = rl.assemble_hamiltonian(pot2)
    data2 = rl.eigenpairs_below(op2)
    mults = [len(idx) for _, idx in data2.multiplets]
    assert 2 in mults
    pair_center = data2.multiplets[mults.index(2)][0]
    proj2 = rl.build_projections(data2, pair_center)
    jump = (rl.morse_count(data2, pair_center + proj2.delta).k
            - rl.morse_count(data2, pair_center - proj2.delta).k)
    assert jump == 2


def test_criterion_12_resonance_checkers(pt_grid, pt_proj):
    """LL+ true for arctan and false for f = 0; SR+ true for the rational
    family; SR inapplicable for arctan; sign-violation injection caught."""
    basis = pt_proj.kernel_fields
    arctan = rl.saturating_arctan(pt_grid)
    ll = rl.check_landesman_lazer(arctan, basis)
    assert ll.plus.holds and not ll.minus.holds
    zero = rl.zero_nonlinearity(pt_grid)
    ll0 = rl.check_landesman_lazer(zero, basis)
    assert not ll0.plus.holds and not ll0.minus.holds
    rational = rl.saturating_rational(pt_grid)
    sr = rl.check_sign_condition(rational)
    assert sr.plus.holds
    sr_arctan = rl.check_sign_condition(arctan)
    assert not sr_arctan.plus.applicable
    assert "inapplicable" in sr_arctan.plus.note
    # flip f on a half-line
    env = np.exp(-pt_grid.axis**2)
    flip = np.where(pt_grid.axis > 0, -1.0, 1.0)
    flipped = rl.NonlinearitySpec(
        pt_grid, "flipped", lambda u: env * flip * u / (1 + u**2),
        primitive=lambda u: env * flip * 0.5 * np.log1p(u**2),
        bound_m=0.5 * env, limit_plus=np.zeros(pt_grid.num_nodes),
        limit_minus=np.zeros(pt_grid.num_nodes),
        k_plus=env * flip, k_minus=env * flip,
    )
    sr_flip = rl.check_sign_condition(flipped)
    assert not sr_flip.plus.holds
    assert "violation" in sr_flip.plus.note


def test_criterion_13_semiflow_solver_consistency(pt_grid, ground_proj, pt_op,
                                                  arctan_spec, flow):
    """Equilibrium reached from a 1%-perturbed solver solution returns to the
    solver solution within 1e-4 (1 + ||w||_H1) in H1 (stable ground window)."""
    lam = ground_proj.lambda0 - 0.05
    radius = arctan_spec.bound_norm / 0.05
    res = rl.solve_near_resonance(
        lam, radius * ground_proj.kernel_fields[:, 0], ground_proj,
        arctan_spec,
    )
    assert res.converged
    w = res.w
    w_h1 = rl.field_norms(pt_grid, w).h1
    rng = np.random.default_rng(13)
    pert = rng.standard_normal(pt_grid.num_nodes)
    pert /= pt_grid.norm(pert)
    u0 = w + 0.01 * pt_grid.norm(w) * pert
    _, states = flow(rl.SemiflowState(0.0, u0), lam, 80.0, pt_op, arctan_spec,
                     stop="equilibrium")
    final = states[-1].u
    dist = rl.field_norms(pt_grid, final - w).h1
    assert dist <= 1e-4 * (1 + w_h1)
