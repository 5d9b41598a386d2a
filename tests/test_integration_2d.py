"""Two-dimensional integration: the degenerate-pair machinery end to end.

The symmetric square well has an exactly degenerate (1,2)/(2,1) level, so
dim X0 = 2 here: these tests exercise the two-column projections, the
64-direction kernel nets, the vector-valued reduced equation inside the
fixed-point solver, and continuation with a two-dimensional kernel.
"""

import numpy as np
import pytest

import resonance_lab as rl
from resonance_lab.bifurcation import default_initial_radius


@pytest.fixture(scope="module")
def well():
    g = rl.make_grid(2, 6.0, 81)
    pot = rl.make_potential(g, "square_well", depth=-50.0, width=2.0)
    op = rl.assemble_hamiltonian(g, pot)
    data = rl.eigenpairs_below(op)
    return g, op, data


@pytest.fixture(scope="module")
def pair_proj(well):
    _, _, data = well
    center = data.multiplets[1][0]
    return rl.build_projections(data, center, delta_request=0.5)


@pytest.fixture(scope="module")
def spec2(well):
    return rl.saturating_arctan(well[0])


def test_pair_projection_algebra(well, pair_proj):
    g, _, _ = well
    assert pair_proj.dim_kernel == 2
    rng = np.random.default_rng(21)
    for _ in range(10):
        u = rng.standard_normal(g.num_nodes)
        nu = g.norm(u)
        p = pair_proj.project_kernel(u)
        assert g.norm(pair_proj.project_kernel(p) - p) <= 1e-10 * nu
        total = p + pair_proj.project_below(u) + pair_proj.project_above(u)
        assert g.norm(total - u) <= 1e-10 * nu


def test_pair_resolvent(well, pair_proj):
    g, op, _ = well
    rng = np.random.default_rng(22)
    lam = pair_proj.lambda0 - pair_proj.delta / 2
    for _ in range(3):
        w = rng.standard_normal(g.num_nodes)
        q = pair_proj.project_complement(w)
        z = rl.apply_resolvent_complement(pair_proj, lam, w)
        assert g.norm(op.apply(z) - lam * z - q) <= 1e-8 * g.norm(q)


def test_pair_resolvent_block_elimination_agrees(well, pair_proj,
                                                 block_elimination_agrees):
    block_elimination_agrees(well[1], pair_proj, seed=23)


def test_pair_landesman_lazer_net(pair_proj, spec2):
    pair = rl.check_landesman_lazer(spec2, pair_proj.kernel_fields)
    assert pair.plus.holds
    assert len(pair.plus.witnesses) == 64  # full directional net in dim 2
    assert min(pair.plus.witnesses) > 0
    # one limit per end: both verdicts carry the same integrals
    assert pair.plus.witnesses == pair.minus.witnesses


def test_pair_default_initial_radius(pair_proj, spec2):
    # the seed is I/eps along the +-basis vector of largest integral I
    basis = pair_proj.kernel_fields
    candidates = [s * basis[:, j] for j in range(2) for s in (1.0, -1.0)]
    values = [rl.landesman_lazer_integral(spec2, phi) for phi in candidates]
    best = int(np.argmax(values))
    lam = pair_proj.lambda0 + pair_proj.delta / 2
    radius, direction = default_initial_radius(lam, pair_proj, spec2)
    assert radius * abs(lam - pair_proj.lambda0) == pytest.approx(values[best], rel=1e-14)
    assert np.array_equal(direction, candidates[best])


def test_pair_sphere_probe(pair_proj, spec2):
    basis = pair_proj.kernel_fields
    probe = rl.kernel_sphere_probe(spec2, basis, 50.0)
    assert probe.min_pairing > 0
    # the 64-direction net runs round the whole circle of the pair: its
    # minimum is no larger than the pairing along either basis field
    for j in range(2):
        v = 50.0 * basis[:, j]
        along = pair_proj.grid.inner(v, rl.evaluate_f(spec2, v))
        assert probe.min_pairing <= along * (1 + 1e-12)


def test_pair_branch_blows_up(well, pair_proj, spec2):
    _, op, _ = well
    schedule = [pair_proj.lambda0 - pair_proj.delta * 2.0 ** (-k)
                for k in range(1, 7)]
    branch = rl.continue_branch(schedule, pair_proj, spec2)
    assert all(p.converged for p in branch)
    h1 = np.array([p.h1 for p in branch])
    assert np.all(np.diff(h1) > 0)
    assert h1[-1] / h1[0] >= 20.0
    verdict = rl.detect_asymptotic_bifurcation(branch, pair_proj.lambda0, window=5)
    assert verdict.detected
    # residuals and the Qu bound hold along the two-dimensional branch too
    for p in branch:
        assert p.residual <= 1e-6 * (1 + p.h1)
        assert p.complement_l2 <= 2.0 / pair_proj.delta * spec2.bound_norm
    # stationarity of the kernel component at every solution
    for p in branch:
        drift = rl.kernel_drift_rate(p.lam, p.u, pair_proj, spec2)
        assert abs(drift) <= 1e-6 * max(1.0, p.kernel_l2)


def test_trivial_point_does_not_poison_warm_start(well, spec2):
    # with the auto window the earliest schedule points sit above the
    # branch-existence threshold and legitimately converge to zero; later
    # points must still escape to the nontrivial branch
    _, op, data = well
    center = data.multiplets[1][0]
    proj = rl.build_projections(data, center)  # auto delta, ~2.8 here
    schedule = [proj.lambda0 - proj.delta * 2.0 ** (-k) for k in range(1, 7)]
    branch = rl.continue_branch(schedule, proj, spec2)
    assert all(p.converged for p in branch)
    assert branch[0].h1 <= 1e-6          # trivial where no branch exists
    assert branch[-1].h1 > 1.0           # nontrivial once inside the region
    assert branch[-1].h1 > 1.5 * branch[-2].h1


def test_pair_kernel_drift_2d(well, pair_proj, spec2):
    g, op, _ = well
    lam = pair_proj.lambda0 - pair_proj.delta / 2
    u = 2.0 * pair_proj.kernel_fields[:, 0] + 1.0 * pair_proj.kernel_fields[:, 1]
    dt = 1e-4
    state = rl.SemiflowState(0.0, u)
    nxt = rl.imex_step(state, lam, dt, op, spec2)
    p1 = g.norm(pair_proj.project_kernel(state.u))
    p2 = g.norm(pair_proj.project_kernel(nxt.u))
    fd = (p2**2 - p1**2) / (2 * dt)
    drift = rl.kernel_drift_rate(lam, u, pair_proj, spec2)
    assert abs(fd - drift) <= 1e-3 * abs(drift)
