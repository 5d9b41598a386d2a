"""Bounded Caratheodory nonlinearities, their limits at infinity, and the
resonance-condition checkers.

A NonlinearitySpec bundles the pointwise evaluator f(x, u) with everything
the theory needs declared analytically: the bound field m (|f| <= m), the
Lipschitz split l0 + linf, the limsup/liminf fields of f as u -> +-inf, the
strong-resonance limits k+- = lim s f(x, s) (or a flag that they are
unbounded), and the primitive F(x, s) = int_0^s f(x, t) dt for the Lyapunov
functional and the branch energies.  Limits are supplied by the family
constructors, never estimated from samples.

The saturating families are odd, f(x, u) = sign(u) h(x, |u|), and each is
declared once, by its profile h on [0, inf): `_odd_family` derives f, the
even primitive F(x, u) = H(x, |u|) and the limits at -inf from h's.  The
`neg_*` families are their negations.

Checkers return verdicts for both signs of a condition: Landesman-Lazer
integrals over an epsilon-net of the kernel sphere, and sampled sign checks
with quadrature-mass positivity for the strong-resonance conditions.
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
    """f(x, u) with bound/Lipschitz fields and declared limits at infinity."""

    grid: Grid
    name: str
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound_m: np.ndarray
    lip_l0: np.ndarray
    lip_linf: np.ndarray
    fhat_plus: np.ndarray | None = None
    fcheck_plus: np.ndarray | None = None
    fhat_minus: np.ndarray | None = None
    fcheck_minus: np.ndarray | None = None
    k_plus: np.ndarray | None = None
    k_minus: np.ndarray | None = None
    k_unbounded: bool = False
    primitive: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.bound_m = self.grid.check_field(self.bound_m)

    @property
    def bound_norm(self) -> float:
        """||m||_{L^2} on the grid."""
        return self.grid.norm(self.bound_m)

    def has_limits(self) -> bool:
        return all(
            v is not None
            for v in (self.fhat_plus, self.fcheck_plus, self.fhat_minus, self.fcheck_minus)
        )


def evaluate_f(spec: NonlinearitySpec, u_field: np.ndarray) -> np.ndarray:
    """Superposition operator: nodewise f(x_i, u_i)."""
    u = spec.grid.check_field(u_field)
    out = np.asarray(spec.f(spec.grid.points, u), dtype=float).ravel()
    if out.shape != u.shape:
        raise NonlinearityError("evaluator did not return one value per node")
    if not np.all(np.isfinite(out)):
        raise NonlinearityError("nonlinearity returned non-finite values")
    return out


def evaluate_primitive(spec: NonlinearitySpec, u_field: np.ndarray) -> np.ndarray:
    """Nodewise primitive F(x_i, u_i); raises if the family declared none."""
    if spec.primitive is None:
        raise NonlinearityError(f"family {spec.name!r} declares no primitive")
    u = spec.grid.check_field(u_field)
    return np.asarray(spec.primitive(spec.grid.points, u), dtype=float).ravel()


# -- families ----------------------------------------------------------------


def _gaussian_envelope(grid: Grid, amplitude: float, width: float) -> np.ndarray:
    return amplitude * np.exp(-(grid.radii / width) ** 2)


def zero_nonlinearity(grid: Grid) -> NonlinearitySpec:
    zeros = np.zeros(grid.num_nodes)

    def f(pts, u):
        return np.zeros_like(u)

    def prim(pts, u):
        return np.zeros_like(u)

    return NonlinearitySpec(
        grid, "zero", f, zeros, zeros.copy(), zeros.copy(),
        fhat_plus=zeros, fcheck_plus=zeros, fhat_minus=zeros, fcheck_minus=zeros,
        k_plus=zeros, k_minus=zeros, primitive=prim,
    )


def _odd_family(grid: Grid, name: str, h: Callable[[np.ndarray], np.ndarray],
                H: Callable[[np.ndarray], np.ndarray], bound: np.ndarray,
                lip0: np.ndarray, limit: np.ndarray, k_limit: np.ndarray | None
                ) -> NonlinearitySpec:
    """The odd nonlinearity f(x, u) = sign(u) h(x, |u|) of a profile h >= 0.

    h and H take the field of magnitudes |u| (one value per node) and carry
    their x-dependence themselves; H(x, s) = int_0^s h(x, t) dt gives the
    even primitive F(x, u) = H(x, |u|).  limit is lim h(x, xi) as xi -> inf,
    so f tends to +-limit at +-inf; k_limit is lim xi h(x, xi), the
    strong-resonance limit at both ends, or None when it is unbounded.
    """

    def f(pts, u):
        return np.sign(u) * h(np.abs(u))

    def prim(pts, u):
        return H(np.abs(u))

    return NonlinearitySpec(
        grid, name, f, bound_m=bound, lip_l0=lip0,
        lip_linf=np.zeros(grid.num_nodes),
        fhat_plus=limit, fcheck_plus=limit, fhat_minus=-limit, fcheck_minus=-limit,
        k_plus=k_limit, k_minus=k_limit, k_unbounded=k_limit is None,
        primitive=prim,
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
        bound=env, lip0=(2.0 / np.pi) * env, limit=env, k_limit=None,
    )


def saturating_rational(grid: Grid, amplitude: float = 1.0, width: float = 1.0
                        ) -> NonlinearitySpec:
    """f(x, u) = m(x) u / (1 + u^2): vanishing limits, k+- = m, satisfies (SR)+."""
    env = _gaussian_envelope(grid, amplitude, width)
    return _odd_family(
        grid, "rational",
        h=lambda xi: env * xi / (1.0 + xi**2),
        H=lambda xi: env * 0.5 * np.log1p(xi**2),
        bound=0.5 * env, lip0=env, limit=np.zeros(grid.num_nodes), k_limit=env,
    )


def negate(spec: NonlinearitySpec) -> NonlinearitySpec:
    """The nonlinearity -f with limits swapped accordingly."""

    def f(pts, u):
        return -spec.f(pts, u)

    prim = None
    if spec.primitive is not None:
        prim = lambda pts, u: -spec.primitive(pts, u)  # noqa: E731
    flip = lambda a: None if a is None else -a  # noqa: E731
    return NonlinearitySpec(
        spec.grid, f"neg_{spec.name}", f,
        bound_m=spec.bound_m, lip_l0=spec.lip_l0, lip_linf=spec.lip_linf,
        fhat_plus=flip(spec.fcheck_plus), fcheck_plus=flip(spec.fhat_plus),
        fhat_minus=flip(spec.fcheck_minus), fcheck_minus=flip(spec.fhat_minus),
        k_plus=flip(spec.k_plus), k_minus=flip(spec.k_minus),
        k_unbounded=spec.k_unbounded, primitive=prim,
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


def check_landesman_lazer(
    spec: NonlinearitySpec,
    kernel_basis: np.ndarray,
    rng: np.random.Generator | None = None,
) -> ConditionPair:
    """Landesman-Lazer integrals over an epsilon-net of the kernel sphere.

    For each unit kernel field phi the (LL)+ witness is
    I = int (fcheck_plus phi^+ - fhat_minus phi^-); the verdict holds when
    min I > margin, with margin = MARGIN_FACTOR max(1, max m).  (LL)- uses
    I = int (fhat_plus phi^+ - fcheck_minus phi^-) and needs max I < -margin.
    The pointwise positive-measure diagnostics are reported as quadrature-mass
    fractions.
    """
    grid = spec.grid
    if not spec.has_limits():
        raise NonlinearityError("limit fields are not declared for this family")
    basis = np.asarray(kernel_basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != grid.num_nodes:
        raise NonlinearityError("kernel_basis must hold one field per column")
    if basis.shape[1] == 0:
        raise NonlinearityError("kernel_basis is empty")
    rng = rng or np.random.default_rng(0)
    margin = MARGIN_FACTOR * max(1.0, float(np.max(spec.bound_m, initial=0.0)))
    box_mass = (2.0 * grid.half_width) ** grid.ndim

    coeffs = _kernel_net(basis, rng)
    w = grid.weights
    plus_int, minus_int = [], []
    for c in coeffs:
        phi = basis @ c
        nrm = grid.norm(phi)
        if nrm == 0:
            continue
        phi = phi / nrm
        pos, neg = np.maximum(phi, 0.0), np.maximum(-phi, 0.0)
        plus_int.append(float(np.sum(w * (spec.fcheck_plus * pos - spec.fhat_minus * neg))))
        minus_int.append(float(np.sum(w * (spec.fhat_plus * pos - spec.fcheck_minus * neg))))

    # pointwise layer of (LL)+-: a.e. sign conditions and positive measure
    # where neither limit field vanishes
    ae_plus = bool(
        np.all(spec.fcheck_plus >= -margin) and np.all(spec.fhat_minus <= margin)
    )
    mass_plus = float(
        np.sum(w[(spec.fcheck_plus > margin) & (spec.fhat_minus < -margin)])
    )
    ae_minus = bool(
        np.all(spec.fhat_plus <= margin) and np.all(spec.fcheck_minus >= -margin)
    )
    mass_minus = float(
        np.sum(w[(spec.fhat_plus < -margin) & (spec.fcheck_minus > margin)])
    )

    plus = ResonanceVerdict(
        condition="LL+",
        holds=bool(plus_int and min(plus_int) > margin),
        witnesses=plus_int,
        mass_fraction=mass_plus / box_mass,
        note="" if ae_plus else "pointwise a.e. sign condition fails",
    )
    minus = ResonanceVerdict(
        condition="LL-",
        holds=bool(minus_int and max(minus_int) < -margin),
        witnesses=minus_int,
        mass_fraction=mass_minus / box_mass,
        note="" if ae_minus else "pointwise a.e. sign condition fails",
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
    mirror.  Families with unbounded k limits are reported inapplicable.
    """
    grid = spec.grid
    rng = rng or np.random.default_rng(0)
    margin = MARGIN_FACTOR * max(1.0, float(np.max(spec.bound_m, initial=0.0)))
    box_mass = (2.0 * grid.half_width) ** grid.ndim
    mass_tol = MASS_TOL_FACTOR * box_mass

    if spec.k_unbounded:
        verdictp = ResonanceVerdict(
            "SR+", False, [], 0.0, applicable=False,
            note="k limits unbounded, SR inapplicable",
        )
        verdictm = ResonanceVerdict(
            "SR-", False, [], 0.0, applicable=False,
            note="k limits unbounded, SR inapplicable",
        )
        return ConditionPair(plus=verdictp, minus=verdictm)
    if spec.k_plus is None or spec.k_minus is None:
        raise NonlinearityError("k limit fields are not declared for this family")

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
    """Empirical minimum of sign * <v, F(v)> over a kernel sphere."""

    radius: float
    sign: int
    min_pairing: float


def kernel_sphere_probe(
    spec: NonlinearitySpec,
    kernel_basis: np.ndarray,
    radius: float,
    sign: int = 1,
    rng: np.random.Generator | None = None,
) -> SphereProbe:
    """Probe the inward/outward pairing on the kernel sphere of a given radius.

    kernel_basis holds the kernel fields as columns; the probe reports the
    min over an epsilon-net of sphere directions v (||v|| = radius) of
    sign * <v, F(v)>, the empirical counterpart of the geometric constant
    alpha.
    """
    if radius <= 0:
        raise NonlinearityError(f"radius must be positive, got {radius}")
    if sign not in (1, -1):
        raise NonlinearityError("sign must be +1 or -1")
    grid = spec.grid
    rng = rng or np.random.default_rng(0)
    pairings = []
    for c in _kernel_net(kernel_basis, rng):
        v = kernel_basis @ c
        v = v / grid.norm(v) * radius
        pairings.append(sign * grid.inner(v, evaluate_f(spec, v)))
    return SphereProbe(
        radius=float(radius), sign=sign, min_pairing=float(min(pairings)),
    )
