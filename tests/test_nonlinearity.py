"""Nonlinearity families, superposition bounds, resonance checkers, probe."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resonance_lab as rl
from resonance_lab.nonlinearity import NonlinearityError, _odd_family


@pytest.fixture(scope="module")
def grid():
    return rl.make_grid(1, 20.0, 2001)


@pytest.fixture(scope="module")
def arctan(grid):
    return rl.saturating_arctan(grid)


@pytest.fixture(scope="module")
def rational(grid):
    return rl.saturating_rational(grid)


def test_evaluate_zero(grid):
    spec = rl.zero_nonlinearity(grid)
    out = rl.evaluate_f(spec, np.ones(grid.num_nodes))
    assert np.all(out == 0.0)


def test_evaluate_arctan_saturation(grid, arctan):
    u = np.full(grid.num_nodes, 1e9)
    out = rl.evaluate_f(arctan, u)
    m = np.exp(-grid.axis**2)
    assert np.allclose(out, m, atol=1e-8)


def test_evaluate_rational_pointwise(grid, rational):
    u = np.ones(grid.num_nodes)
    out = rl.evaluate_f(rational, u)
    assert np.allclose(out, np.exp(-grid.axis**2) / 2.0, rtol=1e-13)


def test_bound_field_property(grid, arctan, rational, rng):
    for spec in (arctan, rational):
        for scale in (1.0, 1e3, 1e6):
            u = rng.standard_normal(grid.num_nodes) * scale
            out = rl.evaluate_f(spec, u)
            assert np.all(np.abs(out) <= spec.bound_m + 1e-14)
            assert grid.norm(out) <= spec.bound_norm + 1e-12


def test_pointwise_lipschitz(grid, arctan, rng):
    lip = arctan.lip_l0 + arctan.lip_linf
    for _ in range(5):
        u = rng.standard_normal(grid.num_nodes) * 10
        v = rng.standard_normal(grid.num_nodes) * 10
        df = np.abs(rl.evaluate_f(arctan, u) - rl.evaluate_f(arctan, v))
        assert np.all(df <= lip * np.abs(u - v) + 1e-14)


def test_assembled_lipschitz_constant(grid, arctan, rng):
    # ||F(u)-F(v)|| <= (||l0||_p C_embed + ||linf||_inf) ||u-v||_H1 with the
    # embedding constant measured on the grid (p = 2 -> q = inf here)
    probes = [np.exp(-((grid.axis - c) ** 2) / s) for c in (-3, 0, 2) for s in (0.5, 2)]
    c_embed = max(
        np.max(np.abs(p)) / rl.field_norms(grid, p).h1 for p in probes
    )
    L = grid.lp_norm(arctan.lip_l0, 2.0) * c_embed + np.max(arctan.lip_linf)
    for _ in range(5):
        u = rng.standard_normal(grid.num_nodes)
        v = u + rng.standard_normal(grid.num_nodes) * 0.1
        lhs = grid.norm(rl.evaluate_f(arctan, u) - rl.evaluate_f(arctan, v))
        assert lhs <= L * rl.field_norms(grid, u - v).h1 * (1 + 1e-9)


def test_arctan_odd_closed_form(grid, rng):
    spec = rl.saturating_arctan(grid)
    u = rng.standard_normal(grid.num_nodes) * 5
    assert np.array_equal(rl.evaluate_f(spec, -u), -rl.evaluate_f(spec, u))
    # matches the closed form m (2/pi) arctan(u)
    expected = np.exp(-grid.axis**2) * (2 / np.pi) * np.arctan(u)
    assert np.allclose(rl.evaluate_f(spec, u), expected, rtol=1e-13)


def test_odd_family_zero_profile(grid):
    zeros = np.zeros(grid.num_nodes)
    spec = _odd_family(
        grid, "zero_profile", h=lambda xi: np.zeros_like(xi),
        H=lambda xi: np.zeros_like(xi), bound=zeros, lip0=zeros, limit=zeros,
        k_limit=zeros,
    )
    u = np.linspace(-3.0, 3.0, grid.num_nodes)
    assert np.all(rl.evaluate_f(spec, u) == 0.0)
    assert np.all(rl.evaluate_primitive(spec, u) == 0.0)
    assert spec.has_limits() and not spec.k_unbounded


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    family=st.sampled_from(("zero", "arctan", "rational", "neg_arctan", "neg_rational")),
    ndim=st.sampled_from((1, 2)),
    amplitude=st.floats(0.1, 10.0),
    width=st.floats(0.2, 5.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_config_family_matches_its_declaration(family, ndim, amplitude, width, scale,
                                               seed):
    # each family declares f, F, m and the limits once; they must agree
    grid = rl.make_grid(ndim, 4.0, 21 if ndim == 1 else 9)
    params = {} if family == "zero" else {"amplitude": amplitude, "width": width}
    spec = rl.make_nonlinearity(grid, family, **params)
    u = scale * np.random.default_rng(seed).standard_normal(grid.num_nodes)
    fu = rl.evaluate_f(spec, u)
    assert np.array_equal(rl.evaluate_f(spec, -u), -fu)
    assert np.all(np.abs(fu) <= spec.bound_m * (1 + 4 * np.finfo(float).eps))
    tol = 1e-7 * max(1.0, np.max(spec.bound_m))
    step = 1e-5 * np.maximum(1.0, np.abs(u))
    slope = (rl.evaluate_primitive(spec, u + step)
             - rl.evaluate_primitive(spec, u - step)) / (2 * step)
    assert np.max(np.abs(slope - fu)) <= tol
    # the declared limits bracket f(x, +-s) at large s, and s f(x, s) -> k+-
    big = np.full(grid.num_nodes, 1e9)
    tol = 1e-6 * max(1.0, np.max(spec.bound_m))
    for s, check, hat, k in ((big, spec.fcheck_plus, spec.fhat_plus, spec.k_plus),
                             (-big, spec.fcheck_minus, spec.fhat_minus, spec.k_minus)):
        f_inf = rl.evaluate_f(spec, s)
        assert np.all(check - tol <= f_inf) and np.all(f_inf <= hat + tol)
        assert (k is None) == spec.k_unbounded
        if k is not None:
            np.testing.assert_allclose(s * f_inf, k, rtol=1e-9, atol=1e-12)


def test_make_nonlinearity_checks_its_parameters(grid):
    with pytest.raises(NonlinearityError, match="amplitude"):
        rl.make_nonlinearity(grid, "zero", amplitude=2.0)
    with pytest.raises(NonlinearityError, match="depth"):
        rl.make_nonlinearity(grid, "neg_rational", depth=2.0)
    with pytest.raises(NonlinearityError, match="unknown"):
        rl.make_nonlinearity(grid, "neg_zero")


def test_landesman_lazer_arctan(grid, arctan, pt_proj):
    # restrict kernel field to this module's grid resolution by rebuilding
    basis = np.sign(grid.axis) * np.exp(-np.abs(grid.axis))  # odd placeholder
    pair = rl.check_landesman_lazer(arctan, basis[:, None])
    assert pair.plus.holds
    assert not pair.minus.holds
    assert all(wi > 0 for wi in pair.plus.witnesses)
    assert pair.plus.mass_fraction > 0


def test_landesman_lazer_zero(grid):
    spec = rl.zero_nonlinearity(grid)
    basis = np.exp(-grid.axis**2)[:, None]
    pair = rl.check_landesman_lazer(spec, basis)
    assert not pair.plus.holds and not pair.minus.holds
    assert pair.plus.mass_fraction == 0.0


def test_landesman_lazer_negated(grid, arctan):
    basis = np.exp(-grid.axis**2)[:, None]
    pair = rl.check_landesman_lazer(rl.negate(arctan), basis)
    assert pair.minus.holds and not pair.plus.holds
    assert all(wi < 0 for wi in pair.minus.witnesses)


def test_landesman_lazer_requires_limits(grid):
    spec = rl.saturating_arctan(grid)
    spec.fcheck_plus = None
    with pytest.raises(NonlinearityError):
        rl.check_landesman_lazer(spec, np.ones((grid.num_nodes, 1)))


def test_sign_condition_rational(grid, rational):
    pair = rl.check_sign_condition(rational, sample_budget=512)
    assert pair.plus.holds and pair.plus.applicable
    assert not pair.minus.holds


def test_sign_condition_negated_rational(grid, rational):
    pair = rl.check_sign_condition(rl.negate(rational), sample_budget=512)
    assert pair.minus.holds and not pair.plus.holds


def test_sign_condition_arctan_inapplicable(grid, arctan):
    pair = rl.check_sign_condition(arctan, sample_budget=64)
    assert not pair.plus.applicable and not pair.minus.applicable
    assert "inapplicable" in pair.plus.note


def test_sign_condition_violation_injection(grid):
    # flip the sign of f on the half-line x > 0: the sampler must catch it
    env = np.exp(-grid.axis**2)
    flip = np.where(grid.axis > 0, -1.0, 1.0)

    def f(pts, u):
        return env * flip * u / (1.0 + u**2)

    spec = rl.NonlinearitySpec(
        grid, "flipped", f, bound_m=0.5 * env, lip_l0=env,
        lip_linf=np.zeros(grid.num_nodes),
        fhat_plus=np.zeros(grid.num_nodes), fcheck_plus=np.zeros(grid.num_nodes),
        fhat_minus=np.zeros(grid.num_nodes), fcheck_minus=np.zeros(grid.num_nodes),
        k_plus=env * flip, k_minus=env * flip,
        primitive=lambda pts, u: env * flip * 0.5 * np.log1p(u**2),
    )
    pair = rl.check_sign_condition(spec, sample_budget=512)
    assert not pair.plus.holds
    assert "violation" in pair.plus.note


def test_kernel_sphere_probe_zero(pt_grid, pt_proj):
    spec = rl.zero_nonlinearity(pt_grid)
    probe = rl.kernel_sphere_probe(spec, pt_proj.kernel_fields, 5.0)
    assert probe.min_pairing == 0.0


def test_kernel_sphere_probe_growth(pt_grid, pt_proj, arctan_spec):
    values = []
    for radius in (10.0, 100.0, 1000.0):
        probe = rl.kernel_sphere_probe(arctan_spec, pt_proj.kernel_fields, radius)
        # direct quadrature oracle for the worst direction
        phi = pt_proj.kernel_fields[:, 0]
        oracle = min(
            pt_grid.inner(s * radius * phi,
                          rl.evaluate_f(arctan_spec, s * radius * phi))
            for s in (1.0, -1.0)
        )
        assert np.isclose(probe.min_pairing, oracle, rtol=1e-12)
        assert probe.min_pairing > 0
        values.append(probe.min_pairing)
    assert values[0] < values[1] < values[2]


def test_kernel_sphere_probe_sign_symmetry(pt_grid, pt_proj, arctan_spec):
    # pairing is bilinear in (sign, f): flipping both leaves it unchanged
    basis = pt_proj.kernel_fields
    a = rl.kernel_sphere_probe(arctan_spec, basis, 50.0, sign=1)
    b = rl.kernel_sphere_probe(rl.negate(arctan_spec), basis, 50.0, sign=-1)
    assert np.isclose(a.min_pairing, b.min_pairing, rtol=1e-12)


def test_kernel_sphere_probe_validation(pt_proj, arctan_spec):
    with pytest.raises(NonlinearityError):
        rl.kernel_sphere_probe(arctan_spec, pt_proj.kernel_fields, -1.0)


def test_evaluate_primitive_missing(grid):
    spec = rl.saturating_arctan(grid)
    spec.primitive = None
    with pytest.raises(NonlinearityError):
        rl.evaluate_primitive(spec, np.zeros(grid.num_nodes))
