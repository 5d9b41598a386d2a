"""Branch continuation, blow-up detection, necessary conditions, energies."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import resonance_lab as rl
from resonance_lab import bifurcation
from resonance_lab.bifurcation import BranchError, BranchPoint, default_initial_radius
from resonance_lab.solver import TOL_PDE


def _synthetic_branch(lam0, eps_list, h1_list):
    points = []
    for eps, h1 in zip(eps_list, h1_list):
        points.append(
            BranchPoint(
                lam=lam0 - eps, u=np.zeros(1), converged=True, trivial=h1 == 0.0,
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
    branch = _synthetic_branch(-1.0, eps, [1, 2])
    with pytest.raises(BranchError):
        rl.detect_asymptotic_bifurcation(branch, -1.0)
    # one point shows no growth: a window of 1 is refused, not a vacuous verdict
    for window in (1, 0):
        with pytest.raises(ValueError, match=f"window = {window}: must be at least 2"):
            rl.detect_asymptotic_bifurcation(branch, -1.0, growth_factor=0.5, window=window)
    assert rl.detect_asymptotic_bifurcation(branch, -1.0, window=2).growth_ratio == 2.0


@pytest.fixture(scope="module")
def coarse_pt_proj():
    """Poschl-Teller at 401 nodes on [-20, 20], with the window at -1."""
    grid = rl.make_grid(1, 20.0, 401)
    op = rl.assemble_hamiltonian(rl.make_potential(grid, "poschl_teller", ell=2))
    return rl.build_projections(rl.eigenpairs_below(op), -1.0, 0.25)


def _long_minus_branch(proj, family):
    """28 points halving the distance to lambda0 from below: the last ones
    lie beyond what the default u_cap lets a solve reach."""
    spec = rl.make_nonlinearity(proj.grid, family)
    return rl.continue_branch(proj, spec, "minus", 28)


def test_capped_points_are_not_blow_up_evidence(coarse_pt_proj):
    # neg_arctan blows up on the plus side only: on the minus side the
    # converged points are trivial and the rest stop at u_cap, unconverged
    branch = _long_minus_branch(coarse_pt_proj, "neg_arctan")
    assert not all(p.converged for p in branch)
    assert all(p.h1 <= 1e-6 for p in branch if p.converged)
    verdict = rl.detect_asymptotic_bifurcation(branch, coarse_pt_proj.lambda0)
    assert not verdict.detected
    assert verdict.reason == "no blow-up observed"


def test_trivial_points_are_one_rule(coarse_pt_proj, monkeypatch):
    # neg_arctan on the minus side of -1 with delta = 0.25: the first points
    # converge to noise of 1e-9 to 1e-8, and a warm start from it would
    # double it at every point.  No solve starts from a trivial point, and
    # neither the verdict nor the necessary conditions read one: the branch
    # is the zero solution, with no growth to measure
    spec = rl.make_nonlinearity(coarse_pt_proj.grid, "neg_arctan")
    starts = []

    def solve(lam, start, *args):
        starts.append((lam, start))
        return real(lam, start, *args)

    real = bifurcation.solve_near_resonance
    monkeypatch.setattr(bifurcation, "solve_near_resonance", solve)
    branch = rl.continue_branch(coarse_pt_proj, spec, "minus", 12)
    converged = [p for p in branch if p.converged]
    assert len(converged) >= 5
    assert all(p.trivial and p.kernel_l2 <= 1e-7 for p in converged)
    threshold = TOL_PDE * max(1.0, spec.bound_norm)
    assert [p.trivial for p in branch] == [p.kernel_l2 <= threshold for p in branch]
    for lam, start in starts:
        radius, direction = default_initial_radius(lam, coarse_pt_proj, spec)
        assert np.array_equal(start, radius * direction)
    report = bifurcation.summarize_branch(branch, coarse_pt_proj, spec)
    assert not report["verdict"]["detected"]
    assert math.isnan(report["verdict"]["growth_ratio"])
    assert report["necessary_conditions"]["trivial_branch"]
    # a window of nontrivial points is still needed once one has converged
    branch[0].trivial = False
    with pytest.raises(BranchError, match="5 converged nontrivial points, have 1"):
        rl.detect_asymptotic_bifurcation(branch, coarse_pt_proj.lambda0)


def test_capped_tail_leaves_the_growth_verdict(coarse_pt_proj):
    # arctan converges until the branch outgrows u_cap; the verdict is read
    # from the converged points alone, which grow by 16 over the window
    branch = _long_minus_branch(coarse_pt_proj, "arctan")
    converged = [p for p in branch if p.converged]
    assert 5 <= len(converged) < len(branch)
    verdict = rl.detect_asymptotic_bifurcation(branch, coarse_pt_proj.lambda0)
    assert verdict.detected
    assert verdict.reason == "strict growth over window"
    assert abs(verdict.growth_ratio - 16.0) <= 0.01
    assert abs(verdict.fitted_power + 1.0) <= 1e-3


def test_continue_branch_schedule(pt_grid, pt_proj, arctan_spec):
    lam0, delta = pt_proj.lambda0, pt_proj.delta
    with pytest.raises(BranchError, match="side = 'both'"):
        rl.continue_branch(pt_proj, arctan_spec, "both", 4)
    with pytest.raises(BranchError, match="num_points = 0"):
        rl.continue_branch(pt_proj, arctan_spec, "minus", 0)
    # delta 2^-60 is below the float resolution of lambda0 = -1
    with pytest.raises(BranchError, match=re.escape(
            f"num_points = 60 is finer than the float resolution of "
            f"lambda0 = {lam0!r}")):
        rl.continue_branch(pt_proj, arctan_spec, "minus", 60)
    # f = 0 converges at once from the zero field: the schedule is what runs
    branch = rl.continue_branch(pt_proj, rl.zero_nonlinearity(pt_grid), "plus", 5)
    assert [p.lam for p in branch] == [lam0 + delta * 2.0 ** (-k) for k in range(1, 6)]


def test_continue_branch_zero_nonlinearity(pt_grid, pt_proj):
    spec = rl.zero_nonlinearity(pt_grid)
    branch = rl.continue_branch(pt_proj, spec, "minus", 4)
    # delta = 0.25, so the schedule is lambda0 - 2^-k for k = 3 .. 6
    assert [p.lam for p in branch] == [pt_proj.lambda0 - 2.0**-k for k in range(3, 7)]
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
    branch = rl.continue_branch(ground_proj, spec, "minus", 6)
    # delta = 0.25, so the schedule is lambda0 - 2^-k for k = 3 .. 8
    assert [p.lam for p in branch] == [lam0 - 2.0**-k for k in range(3, 9)]
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
    branch = rl.continue_branch(pt_proj, arctan_spec, "minus", 3)
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


def test_branch_point_measures_once(pt_grid, pt_proj, arctan_spec, monkeypatch):
    # the norms of w come from the solve; w is projected once and only Qw is
    # measured, to the same bits as measuring w, Pw and Qw afresh
    lam = pt_proj.lambda0 - pt_proj.delta / 4
    res = rl.solve_near_resonance(
        lam, 2.9 * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    w = res.w
    pw, qw = pt_proj.project_kernel(w), pt_proj.project_complement(w)
    calls = []
    for owner, name in ((bifurcation, "field_norms"),
                        (rl.Projections, "project_kernel")):
        def counted(*args, _real=getattr(owner, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    p = bifurcation._branch_point(lam, res, pt_proj, arctan_spec)
    assert sorted(calls) == ["field_norms", "project_kernel"]
    monkeypatch.undo()
    norms, q_norms = rl.field_norms(pt_grid, w), rl.field_norms(pt_grid, qw)
    assert (p.l2, p.grad_l2, p.h1) == (norms.l2, norms.grad_l2, norms.h1)
    assert p.kernel_l2 == pt_grid.norm(pw)
    assert p.complement_l2 == pt_grid.norm(qw)
    assert p.complement_grad_l2 == q_norms.grad_l2


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
