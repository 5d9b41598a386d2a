"""Branch continuation, blow-up detection, necessary conditions, energies."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import resonance_lab as rl
from resonance_lab.bifurcation import BranchError, BranchPoint, default_initial_radius


def _synthetic_branch(lam0, eps_list, h1_list):
    points = []
    for eps, h1 in zip(eps_list, h1_list):
        points.append(
            BranchPoint(
                lam=lam0 - eps, u=np.zeros(1), converged=True,
                l2=h1, grad_l2=h1, h1=h1, kernel_l2=h1, complement_l2=0.1,
                complement_grad_l2=0.1, residual=0.0, energy=math.nan,
            )
        )
    return points


def test_detect_on_synthetic_inverse_law():
    eps = [2.0**-k for k in range(1, 9)]
    h1 = [1.0 / e for e in eps]
    verdict = rl.detect_asymptotic_bifurcation(_synthetic_branch(-1.0, eps, h1), -1.0)
    assert verdict.detected
    assert abs(verdict.fitted_power + 1.0) < 1e-12


def test_detect_on_zero_branch():
    eps = [2.0**-k for k in range(1, 9)]
    branch = _synthetic_branch(-1.0, eps, [0.0] * len(eps))
    verdict = rl.detect_asymptotic_bifurcation(branch, -1.0)
    assert not verdict.detected


def test_detect_requires_window():
    eps = [0.5, 0.25]
    with pytest.raises(BranchError):
        rl.detect_asymptotic_bifurcation(_synthetic_branch(-1.0, eps, [1, 2]), -1.0)


def test_continue_branch_validation(pt_proj, arctan_spec):
    lam0, delta = pt_proj.lambda0, pt_proj.delta
    with pytest.raises(BranchError):
        rl.continue_branch([], pt_proj, arctan_spec)
    with pytest.raises(BranchError):  # two-sided
        rl.continue_branch([lam0 - 0.1, lam0 + 0.05], pt_proj, arctan_spec)
    with pytest.raises(BranchError):  # not approaching
        rl.continue_branch([lam0 - 0.05, lam0 - 0.1], pt_proj, arctan_spec)
    with pytest.raises(BranchError):  # contains lambda0
        rl.continue_branch([lam0 - 0.1, lam0], pt_proj, arctan_spec)
    with pytest.raises(BranchError):  # outside window
        rl.continue_branch([lam0 - 2 * delta], pt_proj, arctan_spec)


def test_continue_branch_zero_nonlinearity(pt_grid, pt_proj):
    spec = rl.zero_nonlinearity(pt_grid)
    schedule = [pt_proj.lambda0 - 2.0**-k for k in range(3, 7)]
    branch = rl.continue_branch(schedule, pt_proj, spec)
    assert all(p.converged for p in branch)
    assert all(p.l2 <= 1e-10 for p in branch)
    report = rl.necessary_condition_report(branch, pt_proj, spec)
    assert report.trivial_branch


def test_continue_branch_constant_forcing_oracle(pt_grid, ground_proj, pt_op):
    """u-independent forcing: each branch point must match the direct linear
    solve, Qu stays fixed and bounded while Pu diverges like eps/|lam-lam0|."""
    eps_f = 0.1
    m = eps_f * np.exp(-pt_grid.radii**2)
    spec = rl.NonlinearitySpec(
        pt_grid, "const_force", lambda u: m.copy(),
        primitive=lambda u: m * u, bound_m=np.abs(m), limit_plus=m,
        limit_minus=m, k_plus=None, k_minus=None,
    )
    lam0 = ground_proj.lambda0
    schedule = [lam0 - 2.0**-k for k in range(3, 9)]
    branch = rl.continue_branch(schedule, ground_proj, spec)
    assert all(p.converged for p in branch)
    sqrt_w = np.sqrt(pt_grid.weights)
    n = pt_grid.num_nodes
    overlap = abs(pt_grid.inner(m, ground_proj.kernel_fields[:, 0]))
    for p in branch:
        direct = spla.spsolve(
            (pt_op.sym_matrix - p.lam * sp.identity(n)).tocsc(), sqrt_w * m
        ) / sqrt_w
        assert pt_grid.norm(p.u - direct) <= 1e-7 * pt_grid.norm(direct)
        # kernel component carries the divergence: eps_n * ||Pu_n|| -> overlap
        assert abs(abs(p.lam - lam0) * p.kernel_l2 - overlap) <= 0.05 * overlap
    # Q part is bounded and settles (the resolvent varies with lam_n but
    # converges as lam_n -> lam0)
    qu = [p.complement_l2 for p in branch]
    assert max(qu) - min(qu) <= 0.05 * max(qu)
    steps = np.abs(np.diff(qu))
    assert all(b <= a for a, b in zip(steps, steps[1:]))
    pu = [p.kernel_l2 for p in branch]
    assert all(b > a for a, b in zip(pu, pu[1:]))


def test_default_initial_radius_falls_back_to_bound_norm(pt_grid, pt_proj):
    # every Landesman-Lazer integral of neg_arctan is -int m |phi| < 0, so the
    # seed is ||m||/eps along the first basis vector
    spec = rl.make_nonlinearity(pt_grid, "neg_arctan")
    basis = pt_proj.kernel_fields
    assert all(rl.landesman_lazer_integral(spec, s * basis[:, 0]) < 0
               for s in (1.0, -1.0))
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    radius, direction = default_initial_radius(lam, pt_proj, spec)
    assert radius == spec.bound_norm / abs(lam - pt_proj.lambda0)
    assert np.array_equal(direction, basis[:, 0])


def test_necessary_report_tail_too_short(pt_grid, pt_proj, arctan_spec):
    schedule = [pt_proj.lambda0 - pt_proj.delta * 2.0**-k for k in range(1, 4)]
    branch = rl.continue_branch(schedule, pt_proj, arctan_spec)
    with pytest.raises(BranchError):
        rl.necessary_condition_report(branch, pt_proj, arctan_spec)


def test_standing_wave_energy_zero_field(pt_grid, arctan_spec):
    assert rl.standing_wave_energy(
        -1.0, np.zeros(pt_grid.num_nodes), arctan_spec
    ) == 0.0


def test_standing_wave_energy_zero_interaction(pt_grid, rng):
    spec = rl.zero_nonlinearity(pt_grid)
    u = rng.standard_normal(pt_grid.num_nodes)
    E = rl.standing_wave_energy(-1.5, u, spec)
    assert np.isclose(E, 0.5 * -1.5 * pt_grid.inner(u, u), rtol=1e-13)


@pytest.mark.parametrize("family", ["zero", "arctan", "rational"])
def test_standing_wave_energy_of_negation(pt_grid, rng, family):
    # the interaction terms of f and -f cancel: E(f) + E(-f) = lam ||u||^2
    spec = rl.make_nonlinearity(pt_grid, family)
    u = 3.0 * rng.standard_normal(pt_grid.num_nodes)
    total = (rl.standing_wave_energy(-1.5, u, spec)
             + rl.standing_wave_energy(-1.5, u, rl.negate(spec)))
    assert total == pytest.approx(-1.5 * pt_grid.inner(u, u), rel=1e-14)


def test_energy_interaction_bound(acceptance_branch, pt_op, arctan_spec):
    # |E - lam ||u||^2 / 2| <= 2 ||m|| ||u|| (the proof's displayed bound)
    grid = pt_op.grid
    for p in acceptance_branch:
        slack = 2.0 * arctan_spec.bound_norm * p.l2 + 1e-12
        assert abs(p.energy - 0.5 * p.lam * p.l2**2) <= slack


def test_branch_point_drift_vanishes(acceptance_branch, pt_proj, arctan_spec):
    # stationarity: (lam - lam0)||Pw||^2 + <Pw, F(w)> = 0 at solutions
    for p in acceptance_branch:
        drift = rl.kernel_drift_rate(p.lam, p.u, pt_proj, arctan_spec)
        assert abs(drift) <= 1e-6 * max(1.0, p.kernel_l2)


def test_branch_points_respect_bound_field(acceptance_branch, pt_op, arctan_spec):
    grid = pt_op.grid
    for p in acceptance_branch:
        fu = rl.evaluate_f(arctan_spec, p.u)
        assert grid.norm(fu) <= arctan_spec.bound_norm + 1e-12
        assert p.residual <= 1e-6 * (1 + p.h1)
