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

Checkers return verdicts for both signs of a condition, by one rule over
sigma = +-1: Landesman-Lazer integrals over a fixed epsilon-net of the
kernel sphere (one integral per direction serves both signs), and sampled
sign checks with quadrature-mass positivity for the strong-resonance
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .grid import Grid

# "positive measure" proxy: quadrature mass above this fraction of the box
MASS_TOL_FACTOR = 1e-8
MARGIN_FACTOR = 1e-10
# values of s the sign-condition sampler draws
SAMPLE_BUDGET = 4096
# values of s f(x, s) per block of the sign-condition sampler: about 256 KB of
# float64, so one block stays in L2 cache; a block holds
# max(1, SAMPLE_BLOCK_VALUES // num_nodes) samples
SAMPLE_BLOCK_VALUES = 2**15
# points of the kernel-sphere net in 2-D and beyond (1-D uses the two poles)
NET_DIRECTIONS = 64


class NonlinearityError(ValueError):
    pass


@dataclass
class NonlinearitySpec:
    """f(x, u) and its primitive with the bound field and declared limits at
    +-inf: limit_+- = lim f(x, s) and k_+- = lim s f(x, s) (None: unbounded).

    f(u) and primitive(u) are nodewise and broadcast.  Given a field, one
    value per node of the grid, they return f(x_i, u_i) and F(x_i, u_i) at
    every node i; given a column of k values s_r (shape (k, 1)), they return
    f(x_i, s_r) and F(x_i, s_r) at every (sample, node) pair, shape (k, N)
    or one that broadcasts to it.  Each closes over its own x-dependence as
    arrays of shape (N,), so numpy broadcasting gives both forms.
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


def evaluate_f(spec: NonlinearitySpec, u: np.ndarray) -> np.ndarray:
    """Superposition operator: nodewise f(x_i, u_i).

    u is a field (one value per node), or a column of k finite values s_r of
    shape (k, 1) standing for the k constant fields u = s_r; the result then
    has shape (k, N), row r holding f(x_i, s_r) (a read-only view when f's
    own result broadcasts to that shape).  Output that is not finite or
    that does not fit the input raises NonlinearityError.
    """
    if np.ndim(u) == 2 and np.shape(u)[1] == 1:
        column = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(column)):
            raise NonlinearityError("sample column contains non-finite values")
        out = np.asarray(spec.f(column), dtype=float)
        try:
            out = np.broadcast_to(out, (column.shape[0], spec.grid.num_nodes))
        except ValueError:
            raise NonlinearityError(
                "evaluator did not return one value per sample and node") from None
    else:
        u = spec.grid.check_field(u)
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
    """amplitude exp(-(|x|/width)^2), which bounds f up to a fixed factor: the
    theory needs the bound field m in L^2, so an amplitude whose envelope has
    no finite L^2 norm on the grid is refused, as are a non-positive amplitude and width."""
    if not (amplitude > 0 and width > 0):  # a NaN fails too
        raise NonlinearityError(f"amplitude = {amplitude!r} and width = {width!r} "
                                "must both be positive")
    # (|x|/width)^2 may overflow to inf for a tiny width: exp(-inf) = 0 is the
    # envelope's value there, as exp underflows to 0 for large finite ones
    with np.errstate(over="ignore"):
        env = amplitude * np.exp(-(grid.radii / width) ** 2)
        norm = grid.norm(env)
    if not np.isfinite(norm):
        raise NonlinearityError(
            f"amplitude = {amplitude!r} leaves the bound field m with no finite "
            "L2 norm on the grid"
        )
    return env


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


def _pair(verdict: Callable[[float, str], ResonanceVerdict]) -> ConditionPair:
    """Both verdicts of a condition by one rule, verdict(sigma, sign) at
    sigma = +1 ("+") and -1 ("-"); negation is exact in floating point."""
    return ConditionPair(plus=verdict(1.0, "+"), minus=verdict(-1.0, "-"))


def _margin_and_box_mass(spec: NonlinearitySpec) -> tuple[float, float]:
    """The checkers' sign margin MARGIN_FACTOR max(1, max m) and box mass."""
    grid = spec.grid
    margin = MARGIN_FACTOR * max(1.0, float(np.max(spec.bound_m, initial=0.0)))
    return margin, (2.0 * grid.half_width) ** grid.ndim


def _kernel_net(dim: int) -> np.ndarray:
    """Rows: the coefficients of an epsilon-net of the unit sphere of a
    dim-dimensional kernel, the same net on every call."""
    if dim == 1:
        coeffs = np.array([[1.0], [-1.0]])
    elif dim == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, NET_DIRECTIONS, endpoint=False)
        coeffs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        raw = np.random.default_rng(0).standard_normal((NET_DIRECTIONS, dim))
        coeffs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return coeffs


def _kernel_directions(spec: NonlinearitySpec, kernel_basis: np.ndarray
                       ) -> Iterator[np.ndarray]:
    """The unit kernel fields phi = B c / ||B c|| over the net's coefficients
    c, one at a time, skipping each c whose field B c vanishes.  Raises
    NonlinearityError, before the first field, unless kernel_basis B holds
    one field per column and has a column."""
    grid = spec.grid
    basis = np.asarray(kernel_basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != grid.num_nodes:
        raise NonlinearityError("kernel_basis must hold one field per column")
    if basis.shape[1] == 0:
        raise NonlinearityError("kernel_basis is empty")
    for c in _kernel_net(basis.shape[1]):
        phi = basis @ c
        nrm = grid.norm(phi)
        if nrm != 0:
            yield phi / nrm


def landesman_lazer_integral(spec: NonlinearitySpec, phi: np.ndarray) -> float:
    """I(phi) = int (limit_plus phi^+ - limit_minus phi^-) by quadrature.

    The (LL)+ and (LL)- integrands coincide because each end has one limit;
    phi is taken as given, not normalized.
    """
    pos, neg = np.maximum(phi, 0.0), np.maximum(-phi, 0.0)
    return float(
        np.sum(spec.grid.weights * (spec.limit_plus * pos - spec.limit_minus * neg))
    )


def check_landesman_lazer(spec: NonlinearitySpec, kernel_basis: np.ndarray
                          ) -> ConditionPair:
    """Landesman-Lazer integrals over an epsilon-net of the kernel sphere.

    Both verdicts carry one witness list: I(phi) of landesman_lazer_integral
    for each unit kernel field phi of the net.  (LL)sigma holds when
    min sigma I > margin, with margin = MARGIN_FACTOR max(1, max m), so
    (LL)+ needs min I > margin and (LL)- max I < -margin.  The pointwise
    positive-measure diagnostics are reported as quadrature-mass fractions.
    """
    grid = spec.grid
    witnesses = [landesman_lazer_integral(spec, phi)
                 for phi in _kernel_directions(spec, kernel_basis)]
    margin, box_mass = _margin_and_box_mass(spec)

    # pointwise layer of (LL)sigma: sigma limit_+ >= 0 >= sigma limit_- a.e.,
    # and positive measure where both are strict
    def verdict(sigma, sign):
        lp, lm = sigma * spec.limit_plus, sigma * spec.limit_minus
        mass = float(np.sum(grid.weights[(lp > margin) & (lm < -margin)]))
        return ResonanceVerdict(
            condition=f"LL{sign}",
            holds=bool(witnesses and min(sigma * v for v in witnesses) > margin),
            witnesses=witnesses,
            mass_fraction=mass / box_mass,
            note="" if np.all(lp >= -margin) and np.all(lm <= margin)
            else "pointwise a.e. sign condition fails",
        )

    return _pair(verdict)


def check_sign_condition(
    spec: NonlinearitySpec, rng: np.random.Generator | None = None
) -> ConditionPair:
    """Strong-resonance (sign) conditions by sampling s f(x, s) on the grid.

    Draws SAMPLE_BUDGET values of s (log-spaced magnitudes both signs plus
    random draws), evaluates s f(x, s) at every node, and records the worst
    violation.  f is called once per block of samples, on the column of their
    values (see evaluate_f); the witness (x, s, s f) of each sign's extremum
    is the first sample, then the first node, that attains it, as a loop
    over the samples in order would find it.  (SR)sigma needs
    sigma s f >= -margin everywhere sampled, and positive quadrature mass
    where sigma k+ and sigma k- both exceed the margin; its witness value is
    sigma min(sigma s f), the min of s f for (SR)+ and the max for (SR)-.
    Families with an unbounded k limit are reported inapplicable.
    """
    grid = spec.grid
    rng = rng or np.random.default_rng(0)
    margin, box_mass = _margin_and_box_mass(spec)
    mass_tol = MASS_TOL_FACTOR * box_mass

    if spec.k_plus is None or spec.k_minus is None:
        note = "k limits unbounded, SR inapplicable"
        return _pair(lambda sigma, sign: ResonanceVerdict(
            f"SR{sign}", False, [], 0.0, applicable=False, note=note))

    n_struct = max(8, SAMPLE_BUDGET // 4)
    mags = np.geomspace(1e-3, 1e6, n_struct // 2)
    s_struct = np.concatenate([mags, -mags])
    s_rand = rng.standard_cauchy(max(0, SAMPLE_BUDGET - s_struct.size)) * 10.0
    samples = np.concatenate([s_struct, s_rand])

    # sigma and the flat index of the first min of sigma s f in a block: for
    # sigma = -1 that is the first max of s f, found without negating it
    signs = ((1.0, np.argmin), (-1.0, np.argmax))
    low = {1.0: np.inf, -1.0: np.inf}  # min of sigma s f over samples and nodes
    witness = {}
    block = max(1, SAMPLE_BLOCK_VALUES // grid.num_nodes)
    for start in range(0, samples.size, block):
        s = samples[start:start + block, np.newaxis]
        vals = s * evaluate_f(spec, s)
        for sigma, first_low in signs:
            # the flat argmin (argmax) of a C-ordered block is the first row,
            # then the first node, that attains the extremum; a later block
            # replaces the witness only when it improves on it strictly
            r, i = divmod(int(first_low(vals)), grid.num_nodes)
            if sigma * vals[r, i] < low[sigma]:
                low[sigma] = float(sigma * vals[r, i])
                witness[sigma] = (grid.points[i].tolist(), float(s[r, 0]),
                                  sigma * low[sigma])

    def verdict(sigma, sign):
        signed = low[sigma] >= -margin
        mass = float(np.sum(grid.weights[(sigma * spec.k_plus > margin)
                                         & (sigma * spec.k_minus > margin)]))
        return ResonanceVerdict(
            f"SR{sign}", bool(signed and mass > mass_tol), [sigma * low[sigma]],
            mass / box_mass,
            note="" if signed else f"sign violation at (x, s) = {witness[sigma]}",
        )

    return _pair(verdict)


@dataclass
class SphereProbe:
    """Empirical minimum of <v, F(v)> over a kernel sphere."""

    radius: float
    min_pairing: float


def kernel_sphere_probe(spec: NonlinearitySpec, kernel_basis: np.ndarray, radius: float
                        ) -> SphereProbe:
    """Probe the outward pairing on the kernel sphere of a given radius.

    kernel_basis holds the kernel fields as columns; the probe reports the
    min over an epsilon-net of sphere directions v (||v|| = radius) of
    <v, F(v)>, the empirical counterpart of the geometric constant alpha.
    The inward pairing is the probe of negate(spec).  The basis is checked
    as check_landesman_lazer checks it, and a net direction whose field
    vanishes is skipped; NonlinearityError when every one vanishes.
    """
    if not radius > 0:  # NaN included
        raise NonlinearityError(f"radius must be positive, got {radius}")
    grid = spec.grid
    pairings = []
    for phi in _kernel_directions(spec, kernel_basis):
        v = phi * radius
        pairings.append(grid.inner(v, evaluate_f(spec, v)))
    if not pairings:
        raise NonlinearityError("every kernel direction vanishes")
    return SphereProbe(radius=float(radius), min_pairing=float(min(pairings)))
