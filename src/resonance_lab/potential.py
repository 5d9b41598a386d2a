"""Potential families with the bounded + L^p split and the asymptotic bottom.

Every potential is stored as two sampled fields on a grid: ``v_infty`` (the
essentially bounded part) and ``v_zero`` (the L^p part, typically compactly
supported or decaying).  The asymptotic bottom

    alpha_inf = lim_{R -> inf} essinf_{|x| >= R} v_infty(x)

is a limit no finite box can sample, so each family declares it in closed
form, and a custom potential takes it as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Grid


class PotentialError(ValueError):
    """Invalid potential construction or query."""


@dataclass
class PotentialSpec:
    """Sampled potential V = v_infty + v_zero with split metadata.

    p is the integrability exponent of the v_zero part (p >= 2 in 1-D,
    p > 2 in 2-D); alpha_inf is the asymptotic bottom the family declares.
    """

    grid: Grid
    family: str
    v_infty: np.ndarray
    v_zero: np.ndarray
    p: float
    alpha_inf: float

    def __post_init__(self):
        self.v_infty = self.grid.check_field(self.v_infty)
        self.v_zero = self.grid.check_field(self.v_zero)
        if not np.isfinite(self.alpha_inf):
            raise PotentialError(f"alpha_inf must be finite, got {self.alpha_inf}")
        one_d = self.grid.ndim == 1  # the theory's V_0 in L^p needs p >= 2 in 1-D, p > 2 in 2-D
        if not (self.p >= 2 if one_d else self.p > 2):  # a NaN fails too
            raise PotentialError(f"p must be {'>=' if one_d else '>'} 2 in "
                                 f"{self.grid.ndim}-D, got {self.p}")

    @property
    def v(self) -> np.ndarray:
        """Total sampled potential."""
        return self.v_infty + self.v_zero


def split_kato_rellich(
    grid: Grid,
    evaluator: Callable[[np.ndarray], np.ndarray],
    cutoff_radius: float,
    center: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a sampled potential into (v_infty, v_zero) by a ball cutoff.

    v_zero = V inside the ball of cutoff_radius around center (0 outside),
    v_infty = V outside (0 inside); their sum reproduces V at every node.
    Raises if the outside part is not finite (split invalid).
    """
    if not cutoff_radius > 0:  # NaN included
        raise PotentialError(f"cutoff_radius must be positive, got {cutoff_radius}")
    pts = grid.points
    if center is not None:
        pts = pts - np.asarray(center, dtype=float).reshape(1, -1)
    r = np.sqrt(np.sum(pts**2, axis=1))
    values = np.asarray(evaluator(grid.points), dtype=float)
    values = values.ravel()
    if values.shape != (grid.num_nodes,):
        raise PotentialError("evaluator did not return one value per node")
    inside = r <= cutoff_radius
    v_zero = np.where(inside, values, 0.0)
    v_infty = np.where(inside, 0.0, values)
    if not np.all(np.isfinite(v_infty)):
        raise PotentialError("v_infty is unbounded on the grid; split invalid")
    if not np.all(np.isfinite(v_zero)):
        raise PotentialError("v_zero has non-finite samples inside the cutoff ball")
    return v_infty, v_zero


def make_potential(grid: Grid, family: str, **params) -> PotentialSpec:
    """Construct a PotentialSpec from a named family.

    Families, each with its asymptotic bottom alpha_inf:
        constant(c):            V = c, assigned wholly to v_infty;
                                alpha_inf = c.
        poschl_teller(ell, offset=0): V = -ell(ell+1)/cosh^2 |x| + offset
                                (bounded, wholly v_infty); alpha_inf = offset.
        square_well(depth, width): V = depth inside the centered box of the
                                given side length, 0 outside; the well is the
                                compactly supported v_zero part; alpha_inf = 0.
        coulomb(c, alpha, center=0, cutoff_radius=1, policy="offset"):
                                V = c / |x - center|^alpha with the unit-ball
                                split v_zero = chi V, v_infty = (1 - chi) V;
                                alpha_inf = 0 for alpha > 0, and c for
                                alpha = 0, where V = c.
        custom(evaluator, alpha_inf, cutoff_radius, center=None): arbitrary
                                evaluator split by a ball cutoff, with the
                                caller's alpha_inf, since the limit of an
                                arbitrary evaluator cannot be sampled.

    The Coulomb singularity policy is either "offset" (move the center by
    half a grid spacing along the first axis, the default) or "cap" (clip
    |V| at spacing**(-alpha)).  Every family also takes p; a missing
    parameter, or one the family does not take, is a PotentialError.  So is
    a potential whose rounding error max|V|·eps reaches the lowest Dirichlet
    level of -Δ on the box, ndim·(π/(2L))^2: there the kinetic term of
    -Δ + V is lost in V's rounding.
    """
    spec = _family_potential(grid, family, params)
    if params:
        raise PotentialError(
            f"potential family {family!r} does not take {', '.join(sorted(params))}"
        )
    v_max = float(np.max(np.abs(spec.v)))
    rounding = v_max * np.finfo(float).eps
    kinetic = grid.ndim * (np.pi / (2.0 * grid.half_width)) ** 2
    if rounding >= kinetic:
        raise PotentialError(
            f"max |V| = {v_max:.3g} is too large for the box: its rounding "
            f"{rounding:.3g} reaches the lowest Dirichlet level {kinetic:.3g} "
            "of -Laplacian"
        )
    return spec


def _required(params: dict, family: str, key: str):
    if key not in params:
        raise PotentialError(f"potential family {family!r} needs {key}")
    return params.pop(key)


def _family_potential(grid: Grid, family: str, params: dict) -> PotentialSpec:
    """The PotentialSpec of make_potential; pops each parameter it reads."""
    p_default = 2.0 if grid.ndim == 1 else 4.0  # admitted by each dimension's p rule
    p = float(params.pop("p", p_default))

    if family == "constant":
        c = float(params.pop("c", 0.0))
        v_inf = np.full(grid.num_nodes, c)
        v0 = np.zeros(grid.num_nodes)
        return PotentialSpec(grid, family, v_inf, v0, p, c)

    if family == "poschl_teller":
        ell = float(_required(params, family, "ell"))
        offset = float(params.pop("offset", 0.0))
        if not ell > 0:  # NaN included
            raise PotentialError(f"ell must be positive, got {ell}")
        r = grid.radii
        v_inf = -ell * (ell + 1.0) / np.cosh(r) ** 2 + offset
        v0 = np.zeros(grid.num_nodes)
        return PotentialSpec(grid, family, v_inf, v0, p, offset)

    if family == "square_well":
        depth = float(_required(params, family, "depth"))
        width = float(_required(params, family, "width"))
        if not width > 0:  # NaN included
            raise PotentialError(f"well width must be positive, got {width}")
        half = width / 2.0
        inside = np.all(np.abs(grid.points) <= half, axis=1)
        v0 = np.where(inside, depth, 0.0)
        v_inf = np.zeros(grid.num_nodes)
        return PotentialSpec(grid, family, v_inf, v0, p, 0.0)

    if family == "coulomb":
        c = float(_required(params, family, "c"))
        alpha = float(_required(params, family, "alpha"))
        center = np.asarray(params.pop("center", np.zeros(grid.ndim)), dtype=float)
        cutoff = float(params.pop("cutoff_radius", 1.0))
        policy = params.pop("policy", "offset")
        # p*alpha < ndim keeps |x|^-alpha locally L^p at the least p each ndim admits
        amax = 0.5 if grid.ndim == 1 else 1.0
        if not 0 <= alpha < amax:
            raise PotentialError(
                f"coulomb exponent alpha must lie in [0, {amax}) for "
                f"ndim={grid.ndim}, got {alpha}"
            )
        if p * alpha >= grid.ndim:
            raise PotentialError(
                f"p*alpha = {p * alpha} >= ndim; v_zero would not be L^p"
            )
        center = center.reshape(-1)
        if center.size != grid.ndim:
            raise PotentialError("center has wrong dimension")
        h = grid.spacing
        node_dist = np.sqrt(np.sum((grid.points - center) ** 2, axis=1))
        eff_center = center.copy()
        if policy == "offset":
            if np.min(node_dist) < h * 1e-9:
                eff_center[0] += h / 2.0
        elif policy != "cap":
            raise PotentialError(f"unknown singular-node policy {policy!r}")

        def evaluator(pts):
            d = np.sqrt(np.sum((pts - eff_center) ** 2, axis=1))
            if alpha == 0 or c == 0:  # c = 0 is V = 0, not 0/0 at a node on the center
                return np.full(d.shape, c)
            with np.errstate(divide="ignore"):
                vals = c / d**alpha
            if policy == "cap":
                cap = h ** (-alpha) * abs(c)
                vals = np.clip(vals, -cap, cap)
            return vals

        v_inf, v0 = split_kato_rellich(grid, evaluator, cutoff, eff_center)
        return PotentialSpec(grid, family, v_inf, v0, p, 0.0 if alpha > 0 else c)

    if family == "custom":
        evaluator = _required(params, family, "evaluator")
        alpha_inf = float(_required(params, family, "alpha_inf"))
        cutoff = float(params.pop("cutoff_radius", 1.0))
        center = params.pop("center", None)
        v_inf, v0 = split_kato_rellich(grid, evaluator, cutoff, center)
        return PotentialSpec(grid, family, v_inf, v0, p, alpha_inf)

    raise PotentialError(f"unknown potential family {family!r}")


def tail_lp_norm(spec: PotentialSpec, radius: float) -> float:
    """(sum_{|x| >= radius} w |v_zero|^p)^(1/p) with p = spec.p; GridError
    for a radius outside [0, half-width], NaN included."""
    grid, p = spec.grid, spec.p
    grid.check_radius(radius)
    mask = grid.radii >= radius
    return float(
        np.sum(grid.weights[mask] * np.abs(spec.v_zero[mask]) ** p) ** (1.0 / p)
    )
