"""Potential families, the bounded/L^p split and the declared asymptotic bottom."""

import numpy as np
import pytest
from scipy.integrate import quad

import resonance_lab as rl
from resonance_lab.grid import GridError
from resonance_lab.potential import PotentialError


def test_constant_family():
    g = rl.make_grid(1, 5.0, 101)
    spec = rl.make_potential(g, "constant", c=3.5)
    assert np.all(spec.v_infty == 3.5)
    assert np.all(spec.v_zero == 0.0)


def test_poschl_teller_family_bounded_part():
    g = rl.make_grid(1, 10.0, 501)
    spec = rl.make_potential(g, "poschl_teller", ell=2)
    # ell(ell+1) = 6, assigned wholly to the bounded part
    assert np.isclose(spec.v_infty[g.num_nodes // 2], -6.0)
    assert np.all(spec.v_zero == 0.0)
    assert np.allclose(spec.v, -6.0 / np.cosh(g.axis) ** 2)


def test_potential_rounding_below_the_kinetic_scale():
    # max|V|·eps may not reach ndim·(π/(2L))^2, the lowest Dirichlet level
    # of -Δ on the box
    for ndim in (1, 2):
        g = rl.make_grid(ndim, 5.0, 21)
        limit = ndim * (np.pi / 10.0) ** 2 / np.finfo(float).eps
        rl.make_potential(g, "constant", c=-0.99 * limit)
        with pytest.raises(PotentialError, match="lowest Dirichlet level"):
            rl.make_potential(g, "constant", c=-limit)


def test_coulomb_family_split():
    g = rl.make_grid(1, 5.0, 2001)
    spec = rl.make_potential(g, "coulomb", c=-1.0, alpha=0.25)
    center = g.spacing / 2.0  # singular node policy: half-grid offset
    dist = np.abs(g.axis - center)
    assert np.all(spec.v_zero[dist > 1.0] == 0.0)
    assert np.max(np.abs(spec.v_infty)) <= 1.0 + 1e-12
    inside = dist <= 1.0
    assert np.allclose(spec.v_zero[inside], -dist[inside] ** -0.25)


def test_coulomb_cap_policy():
    g = rl.make_grid(1, 5.0, 101)
    spec = rl.make_potential(g, "coulomb", c=-1.0, alpha=0.25, policy="cap")
    cap = g.spacing ** (-0.25)
    assert np.max(np.abs(spec.v)) <= cap + 1e-12


def test_coulomb_alpha_validation():
    g1 = rl.make_grid(1, 5.0, 101)
    with pytest.raises(PotentialError):
        rl.make_potential(g1, "coulomb", c=-1.0, alpha=0.6)
    g2 = rl.make_grid(2, 5.0, 41)
    rl.make_potential(g2, "coulomb", c=-1.0, alpha=0.5, p=3.0)  # fine in 2-D
    with pytest.raises(PotentialError):
        rl.make_potential(g2, "coulomb", c=-1.0, alpha=1.0, p=3.0)


def test_poschl_teller_ell_validation():
    g = rl.make_grid(1, 5.0, 101)
    for ell in (-1.0, 0.0, float("nan")):  # a NaN ell gave a GridError on V
        with pytest.raises(PotentialError, match="ell must be positive"):
            rl.make_potential(g, "poschl_teller", ell=ell)


def test_square_well_width_validation():
    g = rl.make_grid(1, 5.0, 101)
    for width in (-1.0, float("nan")):  # a NaN width would give V = 0
        with pytest.raises(PotentialError, match="width must be positive"):
            rl.make_potential(g, "square_well", depth=-10.0, width=width)


def test_family_parameters_validation():
    g = rl.make_grid(1, 5.0, 101)
    with pytest.raises(PotentialError, match="needs alpha"):
        rl.make_potential(g, "coulomb", c=-1.0)
    with pytest.raises(PotentialError, match="needs evaluator"):
        rl.make_potential(g, "custom", cutoff_radius=2.0)
    with pytest.raises(PotentialError, match="does not take depth, ell"):
        rl.make_potential(g, "constant", c=1.0, ell=2.0, depth=-1.0, p=3.0)


def test_p_exponent_validation_2d():
    g = rl.make_grid(2, 3.0, 21)
    with pytest.raises(PotentialError, match="p must be > 2 in 2-D"):
        rl.make_potential(g, "constant", c=0.0, p=2.0)
    # a NaN p is refused in either dimension
    for ndim, rule in ((1, ">= 2 in 1-D"), (2, "> 2 in 2-D")):
        with pytest.raises(PotentialError, match=f"p must be {rule}"):
            rl.make_potential(rl.make_grid(ndim, 3.0, 21), "constant", c=0.0, p=float("nan"))


def test_split_kato_rellich_constant():
    g = rl.make_grid(1, 3.0, 301)
    v_inf, v0 = rl.split_kato_rellich(g, lambda pts: np.full(len(pts), 5.0), 1.0)
    dist = np.abs(g.axis)
    assert np.all(v0[dist <= 1.0] == 5.0)
    assert np.all(v0[dist > 1.0] == 0.0)
    assert np.all(v_inf[dist > 1.0] == 5.0)
    assert np.all(v_inf + v0 == 5.0)


def test_split_kato_rellich_decay_outside_ball():
    g = rl.make_grid(1, 10.0, 2001)

    def ev(pts):
        r = np.abs(pts[:, 0]) + 1e-300
        return r**-0.25

    v_inf, _ = rl.split_kato_rellich(g, ev, 1.0)
    assert np.max(v_inf) <= 1.0 + 1e-12


def test_split_kato_rellich_recomposition():
    g = rl.make_grid(1, 6.0, 1201)
    c = g.spacing / 2.0  # keep the singularity off the nodes

    def ev(pts):
        r = np.abs(pts[:, 0] - c)
        return np.exp(-r) / r**0.25

    v_inf, v0 = rl.split_kato_rellich(g, ev, 2.0, center=[c])
    assert np.allclose(v_inf + v0, ev(g.points), rtol=0, atol=0)
    dist = np.abs(g.axis - c)
    assert np.all(v0[dist > 2.0] == 0.0)
    assert np.all(v_inf[dist <= 2.0] == 0.0)


@pytest.mark.parametrize("cutoff", [-1.0, 0.0, float("nan")])
def test_split_kato_rellich_refuses_a_cutoff_that_is_not_positive(cutoff):
    # a NaN cutoff would put every sample into v_infty
    g = rl.make_grid(1, 5.0, 101)
    with pytest.raises(PotentialError, match="cutoff_radius must be positive"):
        rl.split_kato_rellich(g, lambda pts: np.ones(len(pts)), cutoff)
    with pytest.raises(PotentialError, match="cutoff_radius must be positive"):
        rl.make_potential(g, "coulomb", c=-1.0, alpha=0.25, cutoff_radius=cutoff)


def test_split_kato_rellich_rejects_unbounded_outside():
    g = rl.make_grid(1, 5.0, 101)
    with pytest.raises(PotentialError):
        rl.split_kato_rellich(
            g, lambda pts: np.where(np.abs(pts[:, 0]) > 1.0, np.inf, 0.0), 1.0
        )


ALPHA_INF = [  # (family, parameters, declared alpha_inf, |v_infty - alpha_inf| bound)
    ("constant", {"c": -2.0}, -2.0, None),
    ("poschl_teller", {"ell": 2}, 0.0, lambda r: 6.0 / np.cosh(r) ** 2),
    ("poschl_teller", {"ell": 2, "offset": 1.5}, 1.5, lambda r: 6.0 / np.cosh(r) ** 2),
    ("square_well", {"depth": -10.0, "width": 2.0}, 0.0, None),
    # the cap policy keeps the center on the origin node, so the edge is at r = L
    ("coulomb", {"c": -1.0, "alpha": 0.25, "policy": "cap"}, 0.0, lambda r: r**-0.25),
    ("coulomb", {"c": -1.0, "alpha": 0.0}, -1.0, None),
    ("custom", {"evaluator": lambda pts: np.where(np.abs(pts[:, 0]) < 1.0, -5.0, 0.5),
                "alpha_inf": 0.5, "cutoff_radius": 2.0}, 0.5, None),
]


@pytest.mark.parametrize("family, params, alpha_inf, tail", ALPHA_INF,
                         ids=["constant", "poschl_teller", "poschl_teller-offset",
                              "square_well", "coulomb", "coulomb-alpha0", "custom"])
def test_declared_alpha_inf(family, params, alpha_inf, tail):
    g = rl.make_grid(1, 8.0, 401)
    spec = rl.make_potential(g, family, **params)
    assert spec.alpha_inf == alpha_inf
    assert rl.assemble_hamiltonian(spec).alpha_inf == alpha_inf
    # at the box edge v_infty sits within the family's analytic tail of alpha_inf
    edge = g.radii == g.half_width
    assert np.count_nonzero(edge) == 2
    deviation = np.abs(spec.v_infty[edge] - alpha_inf)
    if tail is None:
        assert np.all(deviation == 0.0)
    else:
        assert np.all(deviation <= tail(g.radii[edge]) * (1.0 + 1e-9))


def test_custom_needs_a_finite_alpha_inf():
    g = rl.make_grid(1, 5.0, 101)
    zero = lambda pts: np.zeros(len(pts))  # noqa: E731
    with pytest.raises(PotentialError, match="needs alpha_inf"):
        rl.make_potential(g, "custom", evaluator=zero)
    with pytest.raises(PotentialError, match="alpha_inf must be finite"):
        rl.make_potential(g, "custom", evaluator=zero, alpha_inf=np.nan)


def test_tail_lp_norm_zero_part():
    g = rl.make_grid(1, 5.0, 101)
    spec = rl.make_potential(g, "constant", c=7.0)
    assert rl.tail_lp_norm(spec, 0.0) == 0.0
    assert rl.tail_lp_norm(spec, 3.0) == 0.0


def test_tail_lp_norm_disjoint_support():
    g = rl.make_grid(1, 5.0, 1001)
    spec = rl.make_potential(g, "square_well", depth=1.0, width=2.0, p=2.0)
    assert rl.tail_lp_norm(spec, 2.0) == 0.0
    assert rl.tail_lp_norm(spec, 0.0) > 0.0


def test_tail_lp_norm_coulomb_oracle():
    # int_{0.5<=|x|<=1} |x|^{-1/2} dx = 4 - 2 sqrt(2), cross-checked by quad
    g = rl.make_grid(1, 2.0, 80001)
    spec = rl.make_potential(g, "coulomb", c=-1.0, alpha=0.25, p=2.0)
    closed_form = 4.0 - 2.0 * np.sqrt(2.0)
    oracle = 2.0 * quad(lambda x: x**-0.5, 0.5, 1.0)[0]
    assert abs(oracle - closed_form) < 1e-12
    value = rl.tail_lp_norm(spec, 0.5)
    assert abs(value**2 - closed_form) <= 1e-4
    assert abs(value - np.sqrt(closed_form)) <= 1e-4


def test_tail_lp_norm_monotone_in_radius():
    g = rl.make_grid(1, 10.0, 2001)
    spec = rl.make_potential(g, "coulomb", c=-1.0, alpha=0.25)
    radii = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
    values = [rl.tail_lp_norm(spec, r) for r in radii]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_tail_lp_norm_continuous_in_p():
    g = rl.make_grid(1, 10.0, 2001)
    a, b = (rl.tail_lp_norm(rl.make_potential(g, "coulomb", c=-1.0, alpha=0.25, p=p), 0.5)
            for p in (2.0, 2.001))
    assert abs(a - b) < 1e-2


def test_tail_lp_norm_domain_exceeded():
    g = rl.make_grid(1, 5.0, 101)
    spec = rl.make_potential(g, "square_well", depth=1.0, width=2.0)
    for radius in (6.0, -1.0, float("nan")):
        with pytest.raises(GridError, match="between 0 and the box half-width"):
            rl.tail_lp_norm(spec, radius)


def test_recomposition_invariant():
    g = rl.make_grid(2, 4.0, 41)
    spec = rl.make_potential(g, "coulomb", c=-2.0, alpha=0.5, p=3.0)
    assert np.all(spec.v == spec.v_infty + spec.v_zero)
