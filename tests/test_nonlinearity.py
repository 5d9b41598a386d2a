"""Nonlinearity families, superposition bounds, resonance checkers, probe."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resonance_lab as rl
from resonance_lab import nonlinearity
from resonance_lab.nonlinearity import (
    MARGIN_FACTOR,
    MASS_TOL_FACTOR,
    SAMPLE_BLOCK_VALUES,
    NonlinearityError,
    _odd_family,
)


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
    lip = (2.0 / np.pi) * arctan.bound_m  # sup |d/du m (2/pi) arctan(u)|
    for _ in range(5):
        u = rng.standard_normal(grid.num_nodes) * 10
        v = rng.standard_normal(grid.num_nodes) * 10
        df = np.abs(rl.evaluate_f(arctan, u) - rl.evaluate_f(arctan, v))
        assert np.all(df <= lip * np.abs(u - v) + 1e-14)


def test_assembled_lipschitz_constant(grid, arctan, rng):
    # ||F(u)-F(v)|| <= ||l0||_p C_embed ||u-v||_H1 with the pointwise
    # Lipschitz field l0 = (2/pi) m and the embedding constant measured on
    # the grid (p = 2 -> q = inf here)
    probes = [np.exp(-((grid.axis - c) ** 2) / s) for c in (-3, 0, 2) for s in (0.5, 2)]
    c_embed = max(
        np.max(np.abs(p)) / rl.field_norms(grid, p).h1 for p in probes
    )
    L = grid.lp_norm((2.0 / np.pi) * arctan.bound_m, 2.0) * c_embed
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
        H=lambda xi: np.zeros_like(xi), bound=zeros, limit=zeros, k_limit=zeros,
    )
    u = np.linspace(-3.0, 3.0, grid.num_nodes)
    assert np.all(rl.evaluate_f(spec, u) == 0.0)
    assert np.all(rl.evaluate_primitive(spec, u) == 0.0)
    for field in (spec.limit_plus, spec.limit_minus, spec.k_plus, spec.k_minus):
        assert np.all(field == 0.0)


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
    # f(x, +-s) tends to the declared limits at large s, and s f(x, s) -> k+-,
    # which only the arctan families leave unbounded
    big = np.full(grid.num_nodes, 1e9)
    tol = 1e-6 * max(1.0, np.max(spec.bound_m))
    for s, limit, k in ((big, spec.limit_plus, spec.k_plus),
                        (-big, spec.limit_minus, spec.k_minus)):
        f_inf = rl.evaluate_f(spec, s)
        assert np.all(np.abs(f_inf - limit) <= tol)
        assert (k is None) == family.endswith("arctan")
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


def test_landesman_lazer_net_of_a_three_dimensional_kernel():
    # three orthonormal kernel fields: the net is 64 fixed unit directions
    grid = rl.make_grid(1, 4.0, 41)
    spec = rl.saturating_arctan(grid)
    sqrt_w = np.sqrt(grid.weights)
    raw = np.column_stack([np.exp(-grid.axis**2), grid.axis * np.exp(-grid.axis**2),
                           np.cos(grid.axis)])
    basis = np.linalg.qr(sqrt_w[:, None] * raw)[0] / sqrt_w[:, None]
    coeffs = np.random.default_rng(0).standard_normal((64, 3))
    fields = basis @ (coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)).T
    assert np.allclose([grid.norm(phi) for phi in fields.T], 1.0, rtol=1e-12)
    expected = [rl.landesman_lazer_integral(spec, phi) for phi in fields.T]

    margin = MARGIN_FACTOR  # max m = 1
    for f, plus in ((spec, True), (rl.negate(spec), False)):
        pair = rl.check_landesman_lazer(f, basis)
        witnesses = pair.plus.witnesses
        assert len(witnesses) == 64 and pair.minus.witnesses is witnesses
        np.testing.assert_allclose(witnesses, [w if plus else -w for w in expected],
                                   rtol=1e-12)
        assert pair.plus.holds == (min(witnesses) > margin) == plus
        assert pair.minus.holds == (max(witnesses) < -margin) == (not plus)
        assert rl.check_landesman_lazer(f, basis) == pair

    probe = rl.kernel_sphere_probe(spec, basis, 10.0)
    assert rl.kernel_sphere_probe(spec, basis, 10.0) == probe
    pairings = [grid.inner(10.0 * phi, rl.evaluate_f(spec, 10.0 * phi))
                for phi in fields.T]
    np.testing.assert_allclose(probe.min_pairing, min(pairings), rtol=1e-12)


@pytest.mark.parametrize("family", ("arctan", "rational", "zero"))
def test_checkers_mirror_under_negation(coarse_grid, coarse_pt, family):
    # the minus verdict of f is the plus verdict of -f, and the plus verdict
    # of f the minus verdict of -f, with negated witnesses
    basis = rl.build_projections(coarse_pt[1], -1.0, 0.25).kernel_fields
    spec = rl.make_nonlinearity(coarse_grid, family)
    ll = [rl.check_landesman_lazer(f, basis) for f in (spec, rl.negate(spec))]
    sr = [rl.check_sign_condition(f, rng=np.random.default_rng(11))
          for f in (spec, rl.negate(spec))]
    for pair, negated in (ll, sr):
        for verdict, mirror in ((pair.minus, negated.plus), (pair.plus, negated.minus)):
            assert ((mirror.holds, mirror.mass_fraction, mirror.applicable)
                    == (verdict.holds, verdict.mass_fraction, verdict.applicable))
            assert mirror.witnesses == [-w for w in verdict.witnesses]


def test_sign_condition_rational(grid, rational, monkeypatch):
    monkeypatch.setattr(nonlinearity, "SAMPLE_BUDGET", 512)
    pair = rl.check_sign_condition(rational)
    assert pair.plus.holds and pair.plus.applicable
    assert not pair.minus.holds


def test_sign_condition_negated_rational(grid, rational, monkeypatch):
    monkeypatch.setattr(nonlinearity, "SAMPLE_BUDGET", 512)
    pair = rl.check_sign_condition(rl.negate(rational))
    assert pair.minus.holds and not pair.plus.holds


def test_sign_condition_arctan_inapplicable(grid, arctan):
    pair = rl.check_sign_condition(arctan)
    assert not pair.plus.applicable and not pair.minus.applicable
    assert "inapplicable" in pair.plus.note


def test_sign_condition_violation_injection(grid, monkeypatch):
    # flip the sign of f on the half-line x > 0: the sampler must catch it
    env = np.exp(-grid.axis**2)
    flip = np.where(grid.axis > 0, -1.0, 1.0)

    def f(u):
        return env * flip * u / (1.0 + u**2)

    zeros = np.zeros(grid.num_nodes)
    spec = rl.NonlinearitySpec(
        grid, "flipped", f,
        primitive=lambda u: env * flip * 0.5 * np.log1p(u**2),
        bound_m=0.5 * env, limit_plus=zeros, limit_minus=zeros,
        k_plus=env * flip, k_minus=env * flip,
    )
    monkeypatch.setattr(nonlinearity, "SAMPLE_BUDGET", 512)
    pair = rl.check_sign_condition(spec)
    assert not pair.plus.holds
    assert "violation" in pair.plus.note


def _test_spec(grid, name, f, k):
    """A spec written by hand, for the sampler: only f and k+- are read."""
    zeros = np.zeros(grid.num_nodes)
    return rl.NonlinearitySpec(
        grid, name, f, primitive=lambda u: np.zeros_like(u), bound_m=zeros,
        limit_plus=zeros, limit_minus=zeros, k_plus=k, k_minus=k,
    )


def _sampler_specs(grid):
    env = np.exp(-grid.radii**2)
    flip = np.where(grid.points[:, 0] > 0, -1.0, 1.0)
    rational = rl.saturating_rational(grid)
    return {
        "rational": rational,
        "neg_rational": rl.negate(rational),
        "flipped": _test_spec(grid, "flipped",
                              lambda u: env * flip * u / (1.0 + u**2), env * flip),
        "zero": rl.zero_nonlinearity(grid),
        # u-independent: s f = s m, negative for every s < 0
        "constant": _test_spec(grid, "constant", lambda u: env, env),
        # x-independent s f = -|s|: every node ties, and so do s and -s
        "sign": _test_spec(grid, "sign", lambda u: -np.sign(u), np.zeros(grid.num_nodes)),
    }


def _sign_condition_by_sample(spec, sample_budget, rng):
    """Reference: the sampler as a loop over the samples, f on one constant
    field per sample; the witness moves only on a strict improvement."""
    grid = spec.grid
    margin = MARGIN_FACTOR * max(1.0, float(np.max(spec.bound_m, initial=0.0)))
    box_mass = (2.0 * grid.half_width) ** grid.ndim
    n_struct = max(8, sample_budget // 4)
    mags = np.geomspace(1e-3, 1e6, n_struct // 2)
    s_struct = np.concatenate([mags, -mags])
    s_rand = rng.standard_cauchy(max(0, sample_budget - s_struct.size)) * 10.0
    worst, best = np.inf, -np.inf
    for s in np.concatenate([s_struct, s_rand]):
        vals = s * rl.evaluate_f(spec, np.full(grid.num_nodes, s))
        i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
        if vals[i_min] < worst:
            worst = float(vals[i_min])
            witness_min = (grid.points[i_min].tolist(), float(s), worst)
        if vals[i_max] > best:
            best = float(vals[i_max])
            witness_max = (grid.points[i_max].tolist(), float(s), best)
    w = grid.weights
    mass_pos = float(np.sum(w[(spec.k_plus > margin) & (spec.k_minus > margin)]))
    mass_neg = float(np.sum(w[(spec.k_plus < -margin) & (spec.k_minus < -margin)]))
    mass_tol = MASS_TOL_FACTOR * box_mass
    return (
        (worst >= -margin and mass_pos > mass_tol, [worst], mass_pos / box_mass,
         "" if worst >= -margin else f"sign violation at (x, s) = {witness_min}"),
        (best <= margin and mass_neg > mass_tol, [best], mass_neg / box_mass,
         "" if best <= margin else f"sign violation at (x, s) = {witness_max}"),
    )


@pytest.mark.parametrize("ndim", (1, 2))
def test_sign_condition_blocks_match_the_per_sample_loop(grid, ndim, monkeypatch):
    # grids of 2001 and 41^2 nodes give blocks of 16 and 19 samples, so most
    # budgets end on a short block
    grid = grid if ndim == 1 else rl.make_grid(2, 6.0, 41)
    for name, spec in _sampler_specs(grid).items():
        for budget in (1, 7, 9, 513, 4096):
            monkeypatch.setattr(nonlinearity, "SAMPLE_BUDGET", budget)
            pair = rl.check_sign_condition(spec, rng=np.random.default_rng(budget))
            ref = _sign_condition_by_sample(spec, budget, np.random.default_rng(budget))
            for verdict, (holds, witnesses, mass, note) in zip((pair.plus, pair.minus), ref):
                got = (verdict.holds, verdict.witnesses, verdict.mass_fraction, verdict.note)
                assert got == (holds, witnesses, mass, note), (name, budget, verdict.condition)


def test_sign_condition_witness_ties(grid, monkeypatch):
    # s f = -|s| at every node: the worst value -1e6 is met first by s = +1e6
    # at the first node; the best, -1e-3, by s = 1e-3 there
    spec = _sampler_specs(grid)["sign"]
    monkeypatch.setattr(nonlinearity, "SAMPLE_BUDGET", 64)
    pair = rl.check_sign_condition(spec)
    assert pair.plus.note == "sign violation at (x, s) = ([-20.0], 1000000.0, -1000000.0)"
    assert pair.minus.witnesses == [-1e-3] and pair.minus.note == ""


def test_sign_condition_calls_f_once_per_block(grid):
    calls = []
    rational = rl.saturating_rational(grid)

    def f(u):
        calls.append(u.shape)
        return rational.f(u)

    spec = _test_spec(grid, "counted", f, rational.k_plus)
    rl.check_sign_condition(spec)
    block = SAMPLE_BLOCK_VALUES // grid.num_nodes
    budget = nonlinearity.SAMPLE_BUDGET
    assert len(calls) == -(-budget // block)
    assert calls[0] == (block, 1) and calls[-1] == (budget % block or block, 1)


@pytest.mark.parametrize("ndim", (1, 2))
def test_evaluate_f_on_a_column_is_one_row_per_constant_field(grid, ndim):
    grid = grid if ndim == 1 else rl.make_grid(2, 6.0, 41)
    column = np.array([[0.0], [1e-3], [-2.5], [7.0], [-1e6]])
    specs = list(_sampler_specs(grid).values()) + [rl.saturating_arctan(grid)]
    for spec in specs:
        out = rl.evaluate_f(spec, column)
        assert out.shape == (column.shape[0], grid.num_nodes)
        for row, (s,) in zip(out, column):
            assert np.array_equal(row, rl.evaluate_f(spec, np.full(grid.num_nodes, s)))


def test_evaluate_f_column_validation(grid, rational):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonlinearityError, match="non-finite"):
            rl.evaluate_f(rational, np.array([[1.0], [bad]]))
    infinite = _test_spec(grid, "inf", lambda u: np.where(u > 0, np.inf, 0.0),
                          rational.k_plus)
    with pytest.raises(NonlinearityError, match="non-finite values"):
        rl.evaluate_f(infinite, np.array([[-1.0], [1.0]]))
    rl.evaluate_f(infinite, np.array([[-1.0], [0.0]]))  # finite rows pass
    for shape in ((2, 2), (3,), (grid.num_nodes + 1,), (3, grid.num_nodes)):
        wrong = _test_spec(grid, "wrong", lambda u, shape=shape: np.zeros(shape),
                           rational.k_plus)
        with pytest.raises(NonlinearityError, match="one value per sample and node"):
            rl.evaluate_f(wrong, np.array([[1.0], [2.0]]))


def test_saturating_family_refuses_a_bound_without_l2_norm(grid):
    for family in ("arctan", "neg_rational"):
        with pytest.raises(NonlinearityError, match="amplitude"):
            rl.make_nonlinearity(grid, family, amplitude=1e300)
    assert np.isfinite(rl.make_nonlinearity(grid, "rational", amplitude=1e150).bound_norm)


@pytest.mark.parametrize("params", [{"amplitude": -1.0}, {"amplitude": 0.0},
                                    {"amplitude": float("nan")}, {"width": -1.0},
                                    {"width": 0.0}, {"width": float("nan")}])
def test_saturating_family_refuses_a_bound_field_that_is_not_positive(grid, params):
    # m = amplitude exp(-(|x|/width)^2) must bound |f| (a negative amplitude
    # made LL+ fail for arctan), and width = -1 must not act as width = 1
    for family in ("arctan", "rational", "neg_arctan"):
        with pytest.raises(NonlinearityError, match="must both be positive"):
            rl.make_nonlinearity(grid, family, **params)


def test_tiny_width_gives_a_one_node_envelope(grid):
    # (|x|/width)^2 overflows off the origin: the envelope is 0 there, silently
    spec = rl.make_nonlinearity(grid, "arctan", amplitude=2.0, width=1e-300)
    assert np.array_equal(spec.bound_m, np.where(grid.radii == 0.0, 2.0, 0.0))


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


def test_kernel_sphere_probe_validation(pt_proj, arctan_spec):
    for radius in (-1.0, 0.0, float("nan")):
        with pytest.raises(NonlinearityError, match="radius must be positive"):
            rl.kernel_sphere_probe(arctan_spec, pt_proj.kernel_fields, radius)


def test_kernel_sphere_probe_skips_vanishing_directions():
    # with a zero first column the net direction at angle 0, c = (1, 0), has
    # the zero field; every other one normalizes to +-phi.  The probe skips
    # the zero field as the Landesman-Lazer check does
    grid = rl.make_grid(1, 4.0, 41)
    spec = rl.saturating_arctan(grid)
    phi = np.exp(-grid.axis**2)
    phi /= grid.norm(phi)
    basis = np.column_stack([np.zeros(grid.num_nodes), phi])
    probe = rl.kernel_sphere_probe(spec, basis, 10.0)
    np.testing.assert_allclose(
        probe.min_pairing, rl.kernel_sphere_probe(spec, phi[:, None], 10.0).min_pairing,
        rtol=1e-12)
    assert len(rl.check_landesman_lazer(spec, basis).plus.witnesses) == 63

    with pytest.raises(NonlinearityError, match="every kernel direction vanishes"):
        rl.kernel_sphere_probe(spec, np.zeros((grid.num_nodes, 2)), 10.0)
    with pytest.raises(NonlinearityError, match="one field per column"):
        rl.kernel_sphere_probe(spec, phi, 10.0)
