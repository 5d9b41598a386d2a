"""Bounded Caratheodory nonlinearities, their limits at infinity, and the
resonance-condition checkers.

A NonlinearitySpec bundles the pointwise evaluator f(x, u) with what the
program reads of the theory, declared analytically: the primitive
F(x, s) = int_0^s f(x, t) dt for the Lyapunov functional and the branch
energies, the bound field m (|f| <= m), the limits of f as u -> +-inf, and
the strong-resonance limits k+- = lim s f(x, s) as s -> +-inf (None when
unbounded).  Every family has limits at both ends, so the limsup and liminf
fields of the theory coincide with them.  Limits are supplied by the family
constructors, never estimated from samples.

The saturating families are odd, f(x, u) = sign(u) h(x, |u|), and each is
declared once, by its profile h on [0, inf): `_odd_family` derives f, the
even primitive F(x, u) = H(x, |u|) and the limits at -inf from h's.  The
`neg_*` families are their negations.

Checkers return verdicts for both signs of a condition: Landesman-Lazer
integrals over an epsilon-net of the kernel sphere (one integral per
direction serves both signs), and sampled sign checks with quadrature-mass
positivity for the strong-resonance conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid

# "positive measure" proxy: quadrature mass above this fraction of the box
MASS_TOL_FACTOR = 1e-8
MARGIN_FACTOR = 1e-10
# points of the kernel-sphere net in 2-D and beyond (1-D uses the two poles)
NET_DIRECTIONS = 64


class NonlinearityError(ValueError):
    pass


@dataclass
class NonlinearitySpec:
    """f(x, u) and its primitive with the bound field and declared limits at
    +-inf: limit_+- = lim f(x, s) and k_+- = lim s f(x, s) (None: unbounded).

    f(u) and primitive(u) take a field, one value per node of the grid, and
    return f(x_i, u_i) and F(x_i, u_i) at every node i; each closes over its
    own x-dependence.
    """

    grid: Grid
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]
    bound_m: np.ndarray
    limit_plus: np.ndarray
    limit_minus: np.ndarray
    k_plus: np.ndarray | None
    k_minus: np.ndarray | None

    def __post_init__(self):
        self.bound_m = self.grid.check_field(self.bound_m)

    @property
    def bound_norm(self) -> float:
        """||m||_{L^2} on the grid."""
        return self.grid.norm(self.bound_m)


def evaluate_f(spec: NonlinearitySpec, u_field: np.ndarray) -> np.ndarray:
    """Superposition operator: nodewise f(x_i, u_i)."""
    u = spec.grid.check_field(u_field)
    out = np.asarray(spec.f(u), dtype=float).ravel()
    if out.shape != u.shape:
        raise NonlinearityError("evaluator did not return one value per node")
    if not np.all(np.isfinite(out)):
        raise NonlinearityError("nonlinearity returned non-finite values")
    return out


def evaluate_primitive(spec: NonlinearitySpec, u_field: np.ndarray) -> np.ndarray:
    """Nodewise primitive F(x_i, u_i)."""
    u = spec.grid.check_field(u_field)
    return np.asarray(spec.primitive(u), dtype=float).ravel()


# -- families ----------------------------------------------------------------


def _gaussian_envelope(grid: Grid, amplitude: float, width: float) -> np.ndarray:
    return amplitude * np.exp(-(grid.radii / width) ** 2)


def zero_nonlinearity(grid: Grid) -> NonlinearitySpec:
    zeros = np.zeros(grid.num_nodes)

    def zero(u):
        return np.zeros_like(u)

    return NonlinearitySpec(
        grid, "zero", f=zero, primitive=zero, bound_m=zeros, limit_plus=zeros,
        limit_minus=zeros, k_plus=zeros, k_minus=zeros,
    )


def _odd_family(grid: Grid, name: str, h: Callable[[np.ndarray], np.ndarray],
                H: Callable[[np.ndarray], np.ndarray], bound: np.ndarray,
                limit: np.ndarray, k_limit: np.ndarray | None) -> NonlinearitySpec:
    """The odd nonlinearity f(u) = sign(u) h(|u|) of a profile h >= 0.

    h and H take the field of magnitudes |u| (one value per node) and carry
    their x-dependence themselves; H(x, s) = int_0^s h(x, t) dt gives the
    even primitive F(u) = H(|u|).  limit is lim h(x, xi) as xi -> inf,
    so f tends to +-limit at +-inf; k_limit is lim xi h(x, xi), the
    strong-resonance limit at both ends, or None when it is unbounded.
    """

    def f(u):
        return np.sign(u) * h(np.abs(u))

    def prim(u):
        return H(np.abs(u))

    return NonlinearitySpec(
        grid, name, f=f, primitive=prim, bound_m=bound, limit_plus=limit,
        limit_minus=-limit, k_plus=k_limit, k_minus=k_limit,
    )


def saturating_arctan(grid: Grid, amplitude: float = 1.0, width: float = 1.0
                      ) -> NonlinearitySpec:
    """f(x, u) = m(x) (2/pi) arctan(u) with Gaussian envelope m.

    Satisfies (LL)+ (limits +-m); s f(x, s) -> +inf so the strong-resonance
    limits are unbounded.
    """
    env = _gaussian_envelope(grid, amplitude, width)
    return _odd_family(
        grid, "arctan",
        h=lambda xi: env * (2.0 / np.pi) * np.arctan(xi),
        H=lambda xi: env * (2.0 / np.pi) * (
            xi * np.arctan(xi) - 0.5 * np.log1p(xi**2)),
        bound=env, limit=env, k_limit=None,
    )


def saturating_rational(grid: Grid, amplitude: float = 1.0, width: float = 1.0
                        ) -> NonlinearitySpec:
    """f(x, u) = m(x) u / (1 + u^2): vanishing limits, k+- = m, satisfies (SR)+."""
    env = _gaussian_envelope(grid, amplitude, width)
    return _odd_family(
        grid, "rational",
        h=lambda xi: env * xi / (1.0 + xi**2),
        H=lambda xi: env * 0.5 * np.log1p(xi**2),
        bound=0.5 * env, limit=np.zeros(grid.num_nodes), k_limit=env,
    )


def negate(spec: NonlinearitySpec) -> NonlinearitySpec:
    """The nonlinearity -f: its primitive and every limit change sign."""

    def f(u):
        return -spec.f(u)

    def prim(u):
        return -spec.primitive(u)

    flip = lambda a: None if a is None else -a  # noqa: E731
    return NonlinearitySpec(
        spec.grid, f"neg_{spec.name}", f=f, primitive=prim, bound_m=spec.bound_m,
        limit_plus=-spec.limit_plus, limit_minus=-spec.limit_minus,
        k_plus=flip(spec.k_plus), k_minus=flip(spec.k_minus),
    )


def make_nonlinearity(grid: Grid, family: str, **params) -> NonlinearitySpec:
    """Named-family constructor used by config files: `zero`, which takes no
    parameter, or `arctan`, `rational` and their negations `neg_*`, which
    take `amplitude` and `width`."""
    saturating = {"arctan": saturating_arctan, "rational": saturating_rational}
    base = family.removeprefix("neg_")
    if family != "zero" and base not in saturating:
        raise NonlinearityError(f"unknown nonlinearity family {family!r}")
    extra = set(params) - ({"amplitude", "width"} if family != "zero" else set())
    if extra:
        raise NonlinearityError(
            f"nonlinearity family {family!r} does not take {', '.join(sorted(extra))}"
        )
    if family == "zero":
        return zero_nonlinearity(grid)
    spec = saturating[base](grid, **params)
    return spec if family == base else negate(spec)


# -- resonance checkers --------------------------------------------------------


@dataclass
class ResonanceVerdict:
    """Outcome of one resonance condition on the grid.

    witnesses holds one integral per probed kernel direction (LL) or the
    worst sampled s*f value (SR); mass_fraction is the quadrature-mass
    fraction where the relevant limit field has the required strict sign.
    """

    condition: str
    holds: bool
    witnesses: list
    mass_fraction: float
    applicable: bool = True
    note: str = ""


@dataclass
class ConditionPair:
    plus: ResonanceVerdict
    minus: ResonanceVerdict


def _kernel_net(basis: np.ndarray, rng) -> np.ndarray:
    """Columns: an epsilon-net of the unit kernel sphere (coefficient space)."""
    dim = basis.shape[1]
    if dim == 1:
        coeffs = np.array([[1.0], [-1.0]])
    elif dim == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, NET_DIRECTIONS, endpoint=False)
        coeffs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        raw = rng.standard_normal((NET_DIRECTIONS, dim))
        coeffs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return coeffs


def landesman_lazer_integral(spec: NonlinearitySpec, phi: np.ndarray) -> float:
    """I(phi) = int (limit_plus phi^+ - limit_minus phi^-) by quadrature.

    The (LL)+ and (LL)- integrands coincide because each end has one limit;
    phi is taken as given, not normalized.
    """
    pos, neg = np.maximum(phi, 0.0), np.maximum(-phi, 0.0)
    return float(
        np.sum(spec.grid.weights * (spec.limit_plus * pos - spec.limit_minus * neg))
    )


def check_landesman_lazer(
    spec: NonlinearitySpec,
    kernel_basis: np.ndarray,
    rng: np.random.Generator | None = None,
) -> ConditionPair:
    """Landesman-Lazer integrals over an epsilon-net of the kernel sphere.

    Both verdicts carry one witness list: I(phi) of landesman_lazer_integral
    for each unit kernel field phi of the net.  (LL)+ holds when
    min I > margin, with margin = MARGIN_FACTOR max(1, max m); (LL)- needs
    max I < -margin.  The pointwise positive-measure diagnostics are reported
    as quadrature-mass fractions.
    """
    grid = spec.grid
    basis = np.asarray(kernel_basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != grid.num_nodes:
        raise NonlinearityError("kernel_basis must hold one field per column")
    if basis.shape[1] == 0:
        raise NonlinearityError("kernel_basis is empty")
    rng = rng or np.random.default_rng(0)
    margin = MARGIN_FACTOR * max(1.0, float(np.max(spec.bound_m, initial=0.0)))
    box_mass = (2.0 * grid.half_width) ** grid.ndim

    witnesses = []
    for c in _kernel_net(basis, rng):
        phi = basis @ c
        nrm = grid.norm(phi)
        if nrm != 0:
            witnesses.append(landesman_lazer_integral(spec, phi / nrm))

    # pointwise layer of (LL)+-: a.e. sign conditions and positive measure
    # where neither limit field vanishes
    lp, lm, w = spec.limit_plus, spec.limit_minus, grid.weights
    fails = "pointwise a.e. sign condition fails"
    plus = ResonanceVerdict(
        condition="LL+",
        holds=bool(witnesses and min(witnesses) > margin),
        witnesses=witnesses,
        mass_fraction=float(np.sum(w[(lp > margin) & (lm < -margin)])) / box_mass,
        note="" if np.all(lp >= -margin) and np.all(lm <= margin) else fails,
    )
    minus = ResonanceVerdict(
        condition="LL-",
        holds=bool(witnesses and max(witnesses) < -margin),
        witnesses=witnesses,
        mass_fraction=float(np.sum(w[(lp < -margin) & (lm > margin)])) / box_mass,
        note="" if np.all(lp <= margin) and np.all(lm >= -margin) else fails,
    )
    return ConditionPair(plus=plus, minus=minus)


def check_sign_condition(
    spec: NonlinearitySpec,
    sample_budget: int = 4096,
    rng: np.random.Generator | None = None,
) -> ConditionPair:
    """Strong-resonance (sign) conditions by sampling s f(x, s) on the grid.

    Draws sample_budget values of s (log-spaced magnitudes both signs plus
    random draws), evaluates s f(x, s) at every node, and records the worst
    violation.  (SR)+ needs s f >= 0 everywhere sampled and positive
    quadrature mass where both k+ and k- are strictly positive; (SR)- is the
    mirror.  Families with an unbounded k limit are reported inapplicable.
    """
    grid = spec.grid
    rng = rng or np.random.default_rng(0)
    margin = MARGIN_FACTOR * max(1.0, float(np.max(spec.bound_m, initial=0.0)))
    box_mass = (2.0 * grid.half_width) ** grid.ndim
    mass_tol = MASS_TOL_FACTOR * box_mass

    if spec.k_plus is None or spec.k_minus is None:
        note = "k limits unbounded, SR inapplicable"
        return ConditionPair(
            plus=ResonanceVerdict("SR+", False, [], 0.0, applicable=False, note=note),
            minus=ResonanceVerdict("SR-", False, [], 0.0, applicable=False, note=note),
        )

    n_struct = max(8, sample_budget // 4)
    mags = np.geomspace(1e-3, 1e6, n_struct // 2)
    s_struct = np.concatenate([mags, -mags])
    s_rand = rng.standard_cauchy(max(0, sample_budget - s_struct.size)) * 10.0
    samples = np.concatenate([s_struct, s_rand])

    worst = np.inf      # min of s f over all samples and nodes
    best = -np.inf      # max of s f
    witness_min = witness_max = None
    for s in samples:
        vals = s * evaluate_f(spec, np.full(grid.num_nodes, s))
        i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))
        if vals[i_min] < worst:
            worst = float(vals[i_min])
            witness_min = (grid.points[i_min].tolist(), float(s), worst)
        if vals[i_max] > best:
            best = float(vals[i_max])
            witness_max = (grid.points[i_max].tolist(), float(s), best)

    mass_pos = float(np.sum(grid.weights[(spec.k_plus > margin) & (spec.k_minus > margin)]))
    mass_neg = float(np.sum(grid.weights[(spec.k_plus < -margin) & (spec.k_minus < -margin)]))

    plus_holds = worst >= -margin and mass_pos > mass_tol
    minus_holds = best <= margin and mass_neg > mass_tol
    plus = ResonanceVerdict(
        "SR+", bool(plus_holds), [worst], mass_pos / box_mass,
        note="" if worst >= -margin else f"sign violation at (x, s) = {witness_min}",
    )
    minus = ResonanceVerdict(
        "SR-", bool(minus_holds), [best], mass_neg / box_mass,
        note="" if best <= margin else f"sign violation at (x, s) = {witness_max}",
    )
    return ConditionPair(plus=plus, minus=minus)


@dataclass
class SphereProbe:
    """Empirical minimum of <v, F(v)> over a kernel sphere."""

    radius: float
    min_pairing: float


def kernel_sphere_probe(
    spec: NonlinearitySpec,
    kernel_basis: np.ndarray,
    radius: float,
    rng: np.random.Generator | None = None,
) -> SphereProbe:
    """Probe the outward pairing on the kernel sphere of a given radius.

    kernel_basis holds the kernel fields as columns; the probe reports the
    min over an epsilon-net of sphere directions v (||v|| = radius) of
    <v, F(v)>, the empirical counterpart of the geometric constant alpha.
    The inward pairing is the probe of negate(spec).
    """
    if radius <= 0:
        raise NonlinearityError(f"radius must be positive, got {radius}")
    grid = spec.grid
    rng = rng or np.random.default_rng(0)
    pairings = []
    for c in _kernel_net(kernel_basis, rng):
        v = kernel_basis @ c
        v = v / grid.norm(v) * radius
        pairings.append(grid.inner(v, evaluate_f(spec, v)))
    return SphereProbe(radius=float(radius), min_pairing=float(min(pairings)))
