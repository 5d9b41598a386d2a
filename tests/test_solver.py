"""K-map structure, fixed-point solves, reconstruction equivalence."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import resonance_lab as rl
from resonance_lab import solver
from resonance_lab.solver import reconstruct_iterate, reconstruct_solution


def _constant_forcing(grid, eps):
    """f(x, u) = eps e^{-x^2}, independent of u."""
    m = eps * np.exp(-grid.radii**2)

    def f(u):
        return m.copy()

    return rl.NonlinearitySpec(
        grid, "constant_forcing", f, primitive=lambda u: m * u,
        bound_m=np.abs(m), limit_plus=m, limit_minus=m, k_plus=None, k_minus=None,
    )


def test_k_map_zero_nonlinearity(pt_grid, pt_proj, rng):
    spec = rl.zero_nonlinearity(pt_grid)
    lam = pt_proj.lambda0 - 0.1
    u = rng.standard_normal(pt_grid.num_nodes)
    out = rl.k_map(lam, u, pt_proj, spec)
    expected = (1 + lam - pt_proj.lambda0) * pt_proj.project_kernel(u)
    assert np.allclose(out, expected, atol=1e-12)


def test_k_map_at_zero_field(pt_grid, pt_proj, arctan_spec):
    lam = pt_proj.lambda0 - 0.1
    out = rl.k_map(lam, np.zeros(pt_grid.num_nodes), pt_proj, arctan_spec)
    # K(lam, 0) = F(0) = f(., 0) = 0 for the odd family
    assert pt_grid.norm(out) <= 1e-14


def test_k_map_kernel_defect_equals_pde_residual(pt_grid, pt_proj, pt_op, arctan_spec):
    # for u in X0 at lam = lam0: K(lam0, u) - u = F(u), and the PDE residual
    # of w = u is ||(A - lam0)u - F(u)|| = ||F(u)|| up to tol_eig
    lam0 = pt_proj.lambda0
    u = 3.0 * pt_proj.kernel_fields[:, 0]
    out = rl.k_map(lam0, u, pt_proj, arctan_spec)
    defect = pt_grid.norm(out - u)
    residual = rl.pde_residual(lam0, u, pt_op, arctan_spec)
    assert abs(defect - residual) <= 1e-7


def test_solve_zero_nonlinearity_contracts_to_zero(pt_grid, pt_proj, rng):
    spec = rl.zero_nonlinearity(pt_grid)
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    u0 = rng.standard_normal(pt_grid.num_nodes)
    res = rl.solve_near_resonance(lam, u0, pt_proj, spec)
    assert res.converged
    assert pt_grid.norm(res.w) <= 1e-8


def test_solve_constant_forcing_matches_direct_solve(pt_grid, ground_proj, pt_op):
    # u-independent forcing: the PDE is linear and the reconstruction must
    # match a direct full-system solve
    eps = 0.05
    spec = _constant_forcing(pt_grid, eps)
    lam = ground_proj.lambda0 - 0.01
    radius = spec.bound_norm / 0.01
    res = rl.solve_near_resonance(
        lam, radius * ground_proj.kernel_fields[:, 0], ground_proj, spec
    )
    assert res.converged
    rhs = eps * np.exp(-pt_grid.radii**2)
    sqrt_w = np.sqrt(pt_grid.weights)
    n = pt_grid.num_nodes
    direct = spla.spsolve(
        (pt_op.sym_matrix - lam * sp.identity(n)).tocsc(), sqrt_w * rhs
    ) / sqrt_w
    assert pt_grid.norm(res.w - direct) <= 1e-8 * pt_grid.norm(direct)


def test_solve_arctan_kernel_dominates(pt_grid, pt_proj, arctan_spec):
    lam = pt_proj.lambda0 - 1e-2
    radius = 0.72 / 1e-2
    res = rl.solve_near_resonance(
        lam, radius * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    assert res.converged
    assert res.norms == rl.field_norms(pt_grid, res.w)  # the convergence test's
    pw = pt_proj.project_kernel(res.w)
    assert pt_grid.norm(pw) > 10 * pt_grid.norm(res.w - pw)


def test_solve_requires_window(pt_grid, pt_proj, arctan_spec):
    # a NaN lambda is outside every window
    for lam in (pt_proj.lambda0 - 2 * pt_proj.delta, float("nan")):
        with pytest.raises(ValueError, match="outside window"):
            rl.solve_near_resonance(
                lam, np.zeros(pt_grid.num_nodes), pt_proj, arctan_spec,
            )


def test_solve_resonant_lambda_flag(pt_grid, pt_proj, arctan_spec):
    with pytest.raises(ValueError):
        rl.solve_near_resonance(
            pt_proj.lambda0, np.zeros(pt_grid.num_nodes), pt_proj,
            arctan_spec,
        )


def test_solve_max_iter_returns_best(monkeypatch, pt_grid, pt_proj,
                                    arctan_spec):
    # K is evaluated at every accepted iterate and at rejected Anderson
    # proposals, whose defect is no lower than the current iterate's: the
    # least defect over all evaluations is the least over accepted iterates
    defects = []
    k_map = solver.k_map

    def recording_k_map(lam, u, *args):
        g = k_map(lam, u, *args)
        defects.append(pt_grid.norm(u - g))
        return g

    monkeypatch.setattr(solver, "k_map", recording_k_map)
    lam = pt_proj.lambda0 - pt_proj.delta / 4
    for max_iter, radius in ((1, 3.0), (2, 100.0), (5, 3.0)):
        defects.clear()
        monkeypatch.setattr(solver, "MAX_ITER", max_iter)
        res = rl.solve_near_resonance(
            lam, radius * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
        )
        assert not res.converged
        assert res.iterations == max_iter
        assert "max_iter" in res.message
        assert res.defect == min(defects)
        g = k_map(lam, res.u, pt_proj, arctan_spec)
        assert pt_grid.norm(res.u - g) == res.defect


def test_solve_cap_aborts(pt_grid, pt_proj, arctan_spec):
    # a start above the cap U_CAP_FACTOR ||m|| stops at the first check
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    radius = 2.0 * solver.U_CAP_FACTOR * arctan_spec.bound_norm
    res = rl.solve_near_resonance(
        lam, radius * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    assert res.capped and not res.converged
    assert res.iterations == 0


def test_equivalence_roundtrip(pt_grid, pt_proj, arctan_spec):
    lam = pt_proj.lambda0 - pt_proj.delta / 8
    radius = 0.72 / (pt_proj.delta / 8)
    res = rl.solve_near_resonance(
        lam, radius * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    assert res.converged
    # u -> w -> u' round trip
    u_back = reconstruct_iterate(lam, res.w, pt_proj)
    assert pt_grid.norm(u_back - res.u) <= 1e-8 * pt_grid.norm(res.u)
    # applying K to the reconstructed iterate reproduces it
    ku = rl.k_map(lam, u_back, pt_proj, arctan_spec)
    assert pt_grid.norm(ku - u_back) <= 1e-6 * (1 + pt_grid.norm(u_back))


def test_complete_continuity_tail_proxy(pt_grid, pt_proj, arctan_spec, rng):
    # images G(lam, u) = F(Pu + resolvent(Qu)) have uniformly small tails:
    # tail_mass(G, R) <= int_{|x|>=R} m^2
    lam = pt_proj.lambda0 + pt_proj.delta / 3
    for radius in (5.0, 10.0):
        m_tail = rl.tail_mass(pt_grid, arctan_spec.bound_m, radius)
        for _ in range(5):
            u = rng.standard_normal(pt_grid.num_nodes) * rng.uniform(0.1, 100)
            z = rl.apply_resolvent_complement(pt_proj, lam, u)
            g_img = rl.evaluate_f(arctan_spec, pt_proj.project_kernel(u) + z)
            assert rl.tail_mass(pt_grid, g_img, radius) <= m_tail + 1e-12


def test_iterate_boundedness(pt_grid, pt_proj, arctan_spec, rng):
    # ||K(lam, u)|| <= (1 + delta) ||Pu|| + ||m||
    lam = pt_proj.lambda0 - pt_proj.delta
    for _ in range(5):
        u = rng.standard_normal(pt_grid.num_nodes) * 10
        ku = rl.k_map(lam, u, pt_proj, arctan_spec)
        bound = (1 + pt_proj.delta) * pt_grid.norm(pt_proj.project_kernel(u)) \
            + arctan_spec.bound_norm
        assert pt_grid.norm(ku) <= bound + 1e-10


def test_pde_residual_basics(pt_grid, pt_data, pt_op):
    spec = rl.zero_nonlinearity(pt_grid)
    assert rl.pde_residual(-1.0, np.zeros(pt_grid.num_nodes), pt_op, spec) == 0.0
    phi0 = pt_data.eigenfields[:, 0]
    r = rl.pde_residual(pt_data.eigenvalues[0], phi0, pt_op, spec)
    assert r <= 1e-8


def test_reconstruct_solution_matches_result(pt_grid, pt_proj, arctan_spec):
    lam = pt_proj.lambda0 - pt_proj.delta / 2
    res = rl.solve_near_resonance(
        lam, 3.0 * pt_proj.kernel_fields[:, 0], pt_proj, arctan_spec
    )
    w2 = reconstruct_solution(lam, res.u, pt_proj)
    assert np.allclose(w2, res.w, atol=1e-12)
