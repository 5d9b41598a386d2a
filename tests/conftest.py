"""Shared fixtures: the Poschl-Teller reference problem at production
resolution (session-scoped, reused by most modules) and a coarse variant for
cheap structural tests.  The terminal summary prints one PASS/FAIL line per
acceptance criterion."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import resonance_lab as rl

_ACCEPTANCE: dict = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    _ACCEPTANCE[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        tag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{name}: {tag}")


@pytest.fixture(scope="session")
def pt_grid():
    return rl.make_grid(1, 20.0, 4001)


@pytest.fixture(scope="session")
def pt_potential(pt_grid):
    return rl.make_potential(pt_grid, "poschl_teller", ell=2)


@pytest.fixture(scope="session")
def pt_op(pt_grid, pt_potential):
    return rl.assemble_hamiltonian(pt_potential)


@pytest.fixture(scope="session")
def pt_data(pt_op):
    return rl.eigenpairs_below(pt_op)


@pytest.fixture(scope="session")
def pt_proj(pt_data):
    # window at the excited state; delta_request keeps the whole geometric
    # schedule inside the branch-existence region of the arctan family
    return rl.build_projections(pt_data, -1.0, 0.25)


@pytest.fixture(scope="session")
def ground_proj(pt_data):
    return rl.build_projections(pt_data, -4.0, 0.25)


@pytest.fixture(scope="session")
def arctan_spec(pt_grid):
    return rl.saturating_arctan(pt_grid)


@pytest.fixture(scope="session")
def acceptance_branch(pt_proj, arctan_spec):
    """The 12-point geometric branch toward lambda0 = -1 used by criteria
    4, 8, 9 and 10."""
    return rl.continue_branch(pt_proj, arctan_spec, "minus", 12)


@pytest.fixture(scope="session")
def flow():
    """rl.evolve with a hook that collects the states it hands over: a call
    returns (trajectory, saved states)."""

    def run(*args, **kwargs):
        saved = []
        return rl.evolve(*args, on_save=saved.append, **kwargs), saved

    return run


@pytest.fixture(scope="session")
def coarse_grid():
    return rl.make_grid(1, 20.0, 1001)


@pytest.fixture(scope="session")
def coarse_pt(coarse_grid):
    pot = rl.make_potential(coarse_grid, "poschl_teller", ell=2)
    op = rl.assemble_hamiltonian(pot)
    data = rl.eigenpairs_below(op)
    return op, data


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The k of every eigsh call, through the real eigsh."""
    calls = []
    real_eigsh = spla.eigsh

    def eigsh(*args, **kwargs):
        calls.append(kwargs["k"])
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", eigsh)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def smooth_field():
    """Factory for random smooth (H1-sensible) fields: sums of Gaussians."""

    def make(grid, rng, bumps=4, amplitude=1.0):
        u = np.zeros(grid.num_nodes)
        L = grid.half_width
        for _ in range(bumps):
            center = rng.uniform(-L / 2, L / 2, size=grid.ndim)
            width = rng.uniform(0.5, 3.0)
            amp = amplitude * rng.standard_normal()
            d2 = np.sum((grid.points - center) ** 2, axis=1)
            u += amp * np.exp(-d2 / width**2)
        return u

    return make


@pytest.fixture(scope="session")
def block_elimination_agrees():
    """Check that the block-eliminated deflated resolvent matches a solve
    with the pivoted LU of the bordered matrix at λ0 - δ, λ0 - δ 2^-12, λ0
    and λ0 + δ, to 1e-10 relative."""
    from resonance_lab.spectral import _BorderedResolvent

    def check(op, proj, seed):
        grid = op.grid
        sqrt_w = np.sqrt(grid.weights)
        rng = np.random.default_rng(seed)
        lam0, delta = proj.lambda0, proj.delta
        for lam in (lam0 - delta, lam0 - delta * 2.0**-12, lam0, lam0 + delta):
            solver = _BorderedResolvent(proj, lam)
            for _ in range(3):
                r = sqrt_w * proj.project_complement(
                    rng.standard_normal(grid.num_nodes)
                )
                fast = solver.solve(r)
                reference = solver.solve_bordered(r)
                assert fast is not None
                err = np.linalg.norm(fast - reference)
                assert err <= 1e-10 * np.linalg.norm(reference), (lam, err)

    return check
