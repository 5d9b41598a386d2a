"""Grid construction, discrete calculus and their exact identities."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

import resonance_lab as rl
from resonance_lab.grid import GridError


def test_make_grid_1d_nodes_and_weights():
    g = rl.make_grid(1, 1.0, 3)
    assert np.array_equal(g.axis, [-1.0, 0.0, 1.0])
    assert g.spacing == 1.0
    assert np.array_equal(g.weights, [0.5, 1.0, 0.5])


def test_make_grid_fine_spacing():
    g = rl.make_grid(1, 20.0, 4001)
    assert g.spacing == 0.01
    assert g.num_nodes == 4001
    # stored representation closes the box exactly
    assert g.axis[0] == -20.0 and g.axis[-1] == 20.0
    assert g.spacing * (g.points_per_axis - 1) == 40.0


def test_make_grid_2d_weight_sum():
    g = rl.make_grid(2, 5.0, 101)
    assert g.num_nodes == 101**2
    assert np.isclose(g.weights.sum(), 100.0, rtol=1e-13)


@pytest.mark.parametrize(
    "args",
    [(1, 1.0, 4), (1, 1.0, 2), (3, 1.0, 5), (1, -1.0, 5), (1, 0.0, 5),
     # node radii or 1/h^2 not finite
     (1, 1e300, 5), (2, 1e300, 5), (1, float("inf"), 5), (1, 1e-300, 5),
     (2, 1e-160, 5)],
)
def test_make_grid_rejects_bad_arguments(args):
    with pytest.raises(GridError):
        rl.make_grid(*args)


def test_make_grid_node_cap():
    with pytest.raises(GridError):
        rl.make_grid(2, 1.0, 4001, max_nodes=1_000_000)


def test_laplacian_constant_field_boundary_only():
    g = rl.make_grid(1, 5.0, 201)
    c = 3.0
    lap = rl.apply_laplacian(g, np.full(g.num_nodes, c))
    h = g.spacing
    # Dirichlet halo: the outermost nodes see the ghost zeros, pure interior
    # nodes see a flat field
    assert np.isclose(lap[0], -2 * c / h**2)
    assert np.isclose(lap[-1], -2 * c / h**2)
    assert np.all(lap[1:-1] == 0.0)


def test_laplacian_stencil_eigenrelation():
    g = rl.make_grid(1, 20.0, 4001)
    k = np.pi / (2 * g.half_width)
    u = np.sin(k * g.axis)
    lam_h = -2.0 * (1.0 - np.cos(k * g.spacing)) / g.spacing**2
    lap = rl.apply_laplacian(g, u)
    interior = slice(1, -1)
    assert np.allclose(lap[interior], lam_h * u[interior], atol=1e-10)


@pytest.mark.parametrize("ndim, n", [(1, 41), (2, 9)])
def test_symmetrized_stiffness_is_the_similar_laplacian(ndim, n):
    # W^{1/2} (-Δ_h) W^{-1/2} (atol = 0: the same zeros) and symmetric; both
    # are built on request and the grid keeps neither
    g = rl.make_grid(ndim, 3.0, n)
    lap, S = g.neg_laplacian_matrix(), g.symmetrized_stiffness()
    sw = g.sqrt_weights
    similar = lap.toarray() * sw[:, None] / sw[None, :]
    np.testing.assert_allclose(S.toarray(), similar, rtol=1e-14, atol=0)
    assert abs(S - S.T).max() <= 1e-15 * abs(S).max()
    assert not any(sp.issparse(value) for value in vars(g).values())


def test_laplacian_zero_field():
    g = rl.make_grid(1, 2.0, 11)
    assert np.all(rl.apply_laplacian(g, np.zeros(g.num_nodes)) == 0.0)


def test_laplacian_grid_mismatch():
    g = rl.make_grid(1, 2.0, 11)
    with pytest.raises(GridError):
        rl.apply_laplacian(g, np.zeros(13))


def test_laplacian_reflection_symmetry(rng):
    g = rl.make_grid(1, 3.0, 101)
    u = rng.standard_normal(g.num_nodes)
    lap = rl.apply_laplacian(g, u)
    lap_reflected = rl.apply_laplacian(g, u[::-1])
    assert np.allclose(lap[::-1], lap_reflected, atol=1e-12)


def test_field_norms_zero_and_constant():
    g = rl.make_grid(1, 1.0, 3)
    z = rl.field_norms(g, np.zeros(3))
    assert (z.l2, z.grad_l2, z.h1) == (0.0, 0.0, 0.0)
    ones = rl.field_norms(g, np.ones(3))
    assert np.isclose(ones.l2, np.sqrt(2.0), rtol=1e-15)


def test_field_norms_dirichlet_sine_mode():
    # half-sine Dirichlet mode: l2^2 -> L and grad^2 -> L (pi/2L)^2, O(h^2)
    g = rl.make_grid(1, 20.0, 4001)
    L = g.half_width
    u = np.sin(np.pi * (g.axis + L) / (2 * L))
    norms = rl.field_norms(g, u)
    assert abs(norms.l2**2 - L) <= 1e-8 * L
    target = L * (np.pi / (2 * L)) ** 2
    assert abs(norms.grad_l2**2 - target) <= 1e-6 * target


def test_quadrature_exactness_invariant():
    for g in (rl.make_grid(1, 3.0, 301), rl.make_grid(2, 2.0, 41)):
        norms = rl.field_norms(g, np.ones(g.num_nodes))
        assert np.isclose(norms.l2**2, (2 * g.half_width) ** g.ndim, rtol=1e-13)


def test_integration_by_parts_exact(rng):
    # <-lap u, u>_w == grad_l2^2 for arbitrary fields, both dimensions
    for g in (rl.make_grid(1, 5.0, 401), rl.make_grid(2, 2.0, 41)):
        for _ in range(5):
            u = rng.standard_normal(g.num_nodes)
            lhs = g.inner(-rl.apply_laplacian(g, u), u)
            rhs = rl.field_norms(g, u).grad_l2 ** 2
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def _padded_grad_l2(g, u):
    """The 2-D gradient seminorm from np.pad'ed differences, summed as
    field_norms sums it."""
    n, h, wt = g.points_per_axis, g.spacing, g.axis_weights
    U = u.reshape(n, n)
    gradsq = 0.0
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (1, 1)
        D = np.diff(np.pad(U, pad), axis=axis) / h
        trans = wt[np.newaxis, :] if axis == 0 else wt[:, np.newaxis]
        gradsq += h * float(np.sum(D * D * trans))
    return np.sqrt(gradsq)


@pytest.mark.parametrize("n", [3, 41, 81])
def test_field_norms_2d_equals_padded_differences(rng, n):
    g = rl.make_grid(2, 6.0, n)
    for _ in range(10):
        u = rng.standard_normal(g.num_nodes) * 10.0 ** rng.uniform(-3, 3)
        assert rl.field_norms(g, u).grad_l2 == _padded_grad_l2(g, u)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(ndim=st.sampled_from([1, 2]), half_n=st.integers(1, 60),
       half_width=st.floats(0.5, 50.0), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-6, 1e6))
def test_integration_by_parts_on_random_grids(ndim, half_n, half_width, seed, scale):
    # <-Δ_h u, u>_w == grad_l2^2 on any grid, for any field
    g = rl.make_grid(ndim, half_width, 2 * half_n + 1)
    u = scale * np.random.default_rng(seed).standard_normal(g.num_nodes)
    lhs = g.inner(-rl.apply_laplacian(g, u), u)
    rhs = rl.field_norms(g, u).grad_l2 ** 2
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_tail_mass_compact_support():
    g = rl.make_grid(1, 5.0, 501)
    u = np.where(np.abs(g.axis) <= 1.0, 1.0, 0.0)
    assert rl.tail_mass(g, u, 2.0) == 0.0


def test_tail_mass_boundary_nodes():
    g = rl.make_grid(1, 1.0, 3)
    assert rl.tail_mass(g, np.ones(3), 1.0) == 1.0


def test_tail_mass_gaussian_oracle():
    g = rl.make_grid(1, 20.0, 4001)
    u = np.exp(-g.axis**2)
    # int_{|x|>=R} e^{-2x^2} dx = 2 sqrt(pi/8) erfc(sqrt(2) R); the sharp
    # annulus cut costs O(h * f(R)) where the integrand is not negligible
    for radius, tol in ((5.0, 1e-6), (1.0, 2.0 * 0.01 * np.exp(-2.0))):
        exact = 2.0 * np.sqrt(np.pi / 8.0) * erfc(np.sqrt(2.0) * radius)
        assert abs(rl.tail_mass(g, u, radius) - exact) <= tol


def test_tail_mass_full_domain_is_l2(rng):
    g = rl.make_grid(2, 2.0, 31)
    u = rng.standard_normal(g.num_nodes)
    assert np.isclose(rl.tail_mass(g, u, 0.0), rl.field_norms(g, u).l2 ** 2, rtol=1e-14)


def test_tail_mass_domain_exceeded():
    g = rl.make_grid(1, 2.0, 21)
    with pytest.raises(GridError):
        rl.tail_mass(g, np.zeros(21), 3.0)


def test_lp_norm_scales_without_overflow(rng):
    g = rl.make_grid(2, 3.0, 21)
    u = rng.standard_normal(g.num_nodes)
    assert np.isclose(g.lp_norm(u, 2.0), g.norm(u), rtol=1e-14)
    for p in (2.0, 4.0, 6.0):
        for scale in (1e200, 1e-200):
            assert np.isclose(g.lp_norm(scale * u, p), scale * g.lp_norm(u, p),
                              rtol=1e-12, atol=0.0)
    assert g.lp_norm(np.zeros(g.num_nodes), 4.0) == 0.0


def test_check_field_rejects_nonfinite():
    g = rl.make_grid(1, 1.0, 5)
    bad = np.zeros(5)
    bad[2] = np.nan
    with pytest.raises(GridError):
        g.check_field(bad)
