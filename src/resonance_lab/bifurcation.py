"""Continuation sweeps toward an eigenvalue and blow-up diagnostics.

A branch is a sequence of stationary solves at parameters marching toward
λ0 from one side.  Each solve is warm-started from the previous kernel
component scaled by the parameter ratio (the branch radius grows like
1/|λ - λ0|); the first point seeds its radius from the Landesman-Lazer
witness integral, which is the asymptotic slope of the branch.  Detection of
asymptotic bifurcation is operationalized as strict growth of ||u||_H1 over
a trailing window plus a minimum growth factor; a power of ||u|| versus
|λ - λ0| is fitted for reporting, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .grid import field_norms
from .nonlinearity import (
    NonlinearitySpec,
    evaluate_f,
    evaluate_primitive,
    landesman_lazer_integral,
)
from .solver import SolveResult, SolverConfig, solve_near_resonance
from .spectral import Projections

TAIL_LENGTH = 6  # branch points the necessary-condition diagnostics look at


class BranchError(ValueError):
    pass


@dataclass
class BranchPoint:
    lam: float
    u: np.ndarray
    converged: bool
    l2: float
    grad_l2: float
    h1: float
    kernel_l2: float
    complement_l2: float
    complement_grad_l2: float
    residual: float
    energy: float          # standing-wave energy
    capped: bool = False


@dataclass
class BifurcationVerdict:
    detected: bool
    fitted_power: float
    growth_ratio: float
    window: int
    reason: str = ""


@dataclass
class NecessaryConditionReport:
    trivial_branch: bool
    qu_bound: float                 # 2 c^{-1} ||m||
    qu_max: float
    qu_bound_passed: bool
    grad_qu_max: float
    grad_qu_trend_slope: float
    kernel_increasing: bool
    l2_increasing: bool
    grad_increasing: bool
    sandwich_c1: float
    sandwich_c2: float
    sandwich_spread: float


def summarize_branch(
    branch: list,
    projections: Projections,
    spec: NonlinearitySpec,
    growth_factor: float = 4.0,
    window: int = 5,
) -> dict:
    """Verdict, necessary-condition diagnostics and energies of a branch, as
    the dict `bifurcation.json` holds; a verdict or diagnostics block that
    the branch is too short for is None."""
    verdict = None
    necessary = None
    try:
        verdict = asdict(detect_asymptotic_bifurcation(
            branch, projections.lambda0, growth_factor, window
        ))
    except BranchError:
        pass
    try:
        necessary = asdict(necessary_condition_report(branch, projections, spec))
    except BranchError:
        pass
    return {
        "lambda0": projections.lambda0,
        "delta": projections.delta,
        "bound_norm": spec.bound_norm,
        "num_converged": sum(p.converged for p in branch),
        "verdict": verdict,
        "necessary_conditions": necessary,
        "energy_trend": [p.energy for p in branch if p.converged],
    }


def default_initial_radius(
    lam: float,
    projections: Projections,
    spec: NonlinearitySpec,
) -> tuple[float, np.ndarray]:
    """Seed radius and kernel direction for the first branch point.

    The asymptotic branch radius at parameter distance ε is I(φ)/ε with
    I(φ) the Landesman-Lazer integral; the ±basis vector of largest I is
    chosen.  Falls back to ||m||/ε along the first basis vector when no I is
    positive.  A zero seed (f ≡ 0) maps to the zero field.
    """
    eps = abs(lam - projections.lambda0)
    if eps == 0:
        raise BranchError("schedule must not contain lambda0 itself")
    basis = projections.kernel_fields
    candidates = [s * basis[:, j] for j in range(basis.shape[1]) for s in (1.0, -1.0)]
    values = [landesman_lazer_integral(spec, phi) for phi in candidates]
    best = int(np.argmax(values))
    if values[best] > 0:
        return values[best] / eps, candidates[best]
    return spec.bound_norm / eps, basis[:, 0]


def standing_wave_energy(lam: float, u: np.ndarray, spec: NonlinearitySpec) -> float:
    """E(ψ) = 1/2 (λ ||u||^2 + ∫ (u f(x, u) - 2 F(x, u)) dx)."""
    grid = spec.grid
    u = grid.check_field(u)
    interaction = u * evaluate_f(spec, u) - 2.0 * evaluate_primitive(spec, u)
    return 0.5 * (lam * grid.inner(u, u) + float(np.sum(grid.weights * interaction)))


def _branch_point(
    lam: float, result: SolveResult, projections: Projections, spec: NonlinearitySpec
) -> BranchPoint:
    grid = projections.grid
    w = result.w
    norms = field_norms(grid, w)
    q = projections.project_complement(w)
    q_norms = field_norms(grid, q)
    return BranchPoint(
        lam=lam,
        u=w,
        converged=result.converged,
        l2=norms.l2,
        grad_l2=norms.grad_l2,
        h1=norms.h1,
        kernel_l2=result.kernel_norm,
        complement_l2=result.complement_norm,
        complement_grad_l2=q_norms.grad_l2,
        residual=result.pde_residual,
        energy=standing_wave_energy(lam, w, spec),
        capped=result.capped,
    )


def continue_branch(
    schedule,
    projections: Projections,
    spec: NonlinearitySpec,
    solver_config: SolverConfig | None = None,
) -> list[BranchPoint]:
    """Warm-started solves along a one-sided schedule approaching λ0.

    The schedule must be strictly monotone, stay inside the δ-window, avoid
    λ0 itself and approach it from a single side.  Diverged points are
    recorded with converged=False; the warm start always uses the latest
    converged kernel component.
    """
    lam0, delta = projections.lambda0, projections.delta
    schedule = [float(l) for l in schedule]
    if not schedule:
        raise BranchError("empty schedule")
    sides = {np.sign(l - lam0) for l in schedule}
    if 0.0 in sides or len(sides) != 1:
        raise BranchError("schedule must stay strictly on one side of lambda0")
    gaps = [abs(l - lam0) for l in schedule]
    if any(b >= a for a, b in zip(gaps, gaps[1:])):
        raise BranchError("schedule must approach lambda0 monotonically")
    if gaps[0] > delta * (1 + 1e-12):
        raise BranchError("schedule starts outside the delta window")

    cfg = solver_config or SolverConfig()
    if cfg.u_cap is None:
        cfg = SolverConfig(**{**cfg.__dict__, "u_cap": 1e6 * max(spec.bound_norm, 1e-300)})

    points: list[BranchPoint] = []
    prev: SolveResult | None = None
    prev_lam: float | None = None
    trivial_scale = 1e-8 * max(1.0, spec.bound_norm)
    for lam in schedule:
        warm = None
        if prev is not None and prev.converged:
            pk = projections.project_kernel(prev.u)
            # a trivial previous point must not poison the warm start: the
            # zero solution exists at every lambda and scaling it stays zero
            if projections.grid.norm(pk) > trivial_scale:
                warm = (abs(prev_lam - lam0) / abs(lam - lam0)) * pk
        if warm is not None:
            start = warm
        else:
            radius, direction = default_initial_radius(lam, projections, spec)
            start = radius * direction
        result = solve_near_resonance(lam, start, projections, spec, cfg)
        points.append(_branch_point(lam, result, projections, spec))
        prev, prev_lam = result, lam
    return points


def detect_asymptotic_bifurcation(
    branch: list,
    lambda0: float,
    growth_factor: float = 4.0,
    window: int = 5,
) -> BifurcationVerdict:
    """Blow-up verdict over the trailing window of converged points.

    True iff the last `window` converged points have strictly increasing
    ||u||_H1 and the growth across the window is at least growth_factor.
    The fitted power of ||u||_H1 against |λ - λ0| is reported alongside.
    """
    conv = [p for p in branch if p.converged]
    if len(conv) < window:
        raise BranchError(
            f"need at least {window} converged points, have {len(conv)}"
        )
    tail = conv[-window:]
    h1 = np.array([p.h1 for p in tail])
    eps = np.array([abs(p.lam - lambda0) for p in tail])
    increasing = bool(np.all(np.diff(h1) > 0))
    ratio = float(h1[-1] / h1[0]) if h1[0] > 0 else math.inf
    capped_evidence = any(p.capped for p in branch)
    detected = (increasing and ratio >= growth_factor) or capped_evidence
    if np.all(h1 > 0) and np.all(eps > 0):
        power = float(np.polyfit(np.log(eps), np.log(h1), 1)[0])
    else:
        power = math.nan
    reason = (
        "norm cap hit (treated as divergence evidence)"
        if capped_evidence
        else ("strict growth over window" if detected else "no blow-up observed")
    )
    return BifurcationVerdict(
        detected=bool(detected), fitted_power=power,
        growth_ratio=ratio, window=window, reason=reason,
    )


def _slope(values: np.ndarray) -> float:
    idx = np.arange(len(values), dtype=float)
    return float(np.polyfit(idx, values, 1)[0])


def necessary_condition_report(
    branch: list,
    projections: Projections,
    spec: NonlinearitySpec,
) -> NecessaryConditionReport:
    """Diagnostics mirroring the necessary conditions along the last
    TAIL_LENGTH converged nontrivial branch points.

    (a) max ||Qu|| against the bound 2 c^{-1} ||m||, with c = δ the gap
        constant of the projections;
    (b) boundedness proxy for ||∇Qu|| (max and trailing trend slope);
    (c) divergence proxies: ||Pu||, ||u||, ||∇u|| strictly increasing on the
        tail;
    (d) growth-rate sandwich constants C1 = min, C2 = max of ||∇u||/||u||
        over the tail.
    """
    conv = [p for p in branch if p.converged]
    nontrivial = [p for p in conv if p.l2 > 0]
    if not nontrivial:
        return NecessaryConditionReport(
            trivial_branch=True, qu_bound=0.0, qu_max=0.0, qu_bound_passed=True,
            grad_qu_max=0.0, grad_qu_trend_slope=0.0, kernel_increasing=False,
            l2_increasing=False, grad_increasing=False,
            sandwich_c1=math.nan, sandwich_c2=math.nan, sandwich_spread=math.nan,
        )
    if len(nontrivial) < TAIL_LENGTH:
        raise BranchError(
            f"branch tail too short: {len(nontrivial)} converged nontrivial "
            f"points, need {TAIL_LENGTH}"
        )
    tail = nontrivial[-TAIL_LENGTH:]
    qu_bound = 2.0 * spec.bound_norm / projections.gap_constant
    qu_max = max(p.complement_l2 for p in nontrivial)
    grad_qu = np.array([p.complement_grad_l2 for p in tail])
    kernel_norms = np.array([p.kernel_l2 for p in tail])
    l2s = np.array([p.l2 for p in tail])
    grads = np.array([p.grad_l2 for p in tail])
    ratios = grads / l2s
    return NecessaryConditionReport(
        trivial_branch=False,
        qu_bound=qu_bound,
        qu_max=qu_max,
        qu_bound_passed=bool(qu_max <= qu_bound),
        grad_qu_max=float(np.max(grad_qu)),
        grad_qu_trend_slope=_slope(grad_qu),
        kernel_increasing=bool(np.all(np.diff(kernel_norms) > 0)),
        l2_increasing=bool(np.all(np.diff(l2s) > 0)),
        grad_increasing=bool(np.all(np.diff(grads) > 0)),
        sandwich_c1=float(np.min(ratios)),
        sandwich_c2=float(np.max(ratios)),
        sandwich_spread=float(np.max(ratios) / np.min(ratios)),
    )
