"""Lyapunov-Schmidt fixed-point machinery near an isolated eigenvalue.

A field w solves the stationary problem (A - λ)w = F(w) inside the window
|λ - λ0| <= δ exactly when u = Pw + (A - λ)Qw is a fixed point of

    K(λ, u) = (1 + λ - λ0) P u + F(P u + [(A - λ)|_X]^{-1} Q u).

The solver runs a damped fixed-point iteration on K with safeguarded
Anderson acceleration: an accelerated iterate is accepted only if its
measured defect strictly decreases.  The safeguard matters because u = 0 is
always a fixed point (f(x, 0) = 0) and unguarded extrapolation can slide
into its basin; the damped map alone cannot be used either, since its
contraction rate on the kernel mode degrades like 1 - |λ - λ0|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldNorms, field_norms
from .nonlinearity import NonlinearitySpec, evaluate_f
from .spectral import HamiltonianOperator, Projections, apply_resolvent_complement

ANDERSON_DEPTH = 8             # iterates kept in the Anderson history
DAMPING_FLOOR = 1.0 / 64.0     # smallest relaxation of the plain fixed-point step
TOL_FP = 1e-8                  # fixed-point defect tolerance (L2)
TOL_PDE = 1e-6                 # PDE residual tolerance, scaled by (1 + ||w||_H1)
MAX_ITER = 200                 # fixed-point iterations before a solve gives up
U_CAP_FACTOR = 1e6             # a solve aborts once ||u||_H1 > U_CAP_FACTOR ||m||


@dataclass
class SolveResult:
    converged: bool
    u: np.ndarray                  # fixed-point iterate
    w: np.ndarray                  # reconstructed PDE solution candidate
    iterations: int
    defect: float                  # ||u - K(λ, u)||_L2
    pde_residual: float            # ||(A - λ)w - F(w)||_L2
    norms: FieldNorms              # field_norms(grid, w)
    capped: bool = False
    message: str = ""


def k_map(
    lam: float, u: np.ndarray, projections: Projections, spec: NonlinearitySpec
) -> np.ndarray:
    """One application of K(λ, u)."""
    pu = projections.project_kernel(u)
    z = apply_resolvent_complement(projections, lam, u)
    return (1.0 + lam - projections.lambda0) * pu + evaluate_f(spec, pu + z)


def reconstruct_solution(
    lam: float, u: np.ndarray, projections: Projections
) -> np.ndarray:
    """w = P u + [(A - λ)|_X]^{-1} Q u."""
    z = apply_resolvent_complement(projections, lam, u)
    return projections.project_kernel(u) + z


def reconstruct_iterate(
    lam: float, w: np.ndarray, projections: Projections
) -> np.ndarray:
    """Inverse reconstruction u = P w + (A - λ) Q w (the equivalence map)."""
    qw = projections.project_complement(w)
    return projections.project_kernel(w) + projections.operator.apply(qw) - lam * qw


def pde_residual(
    lam: float, w: np.ndarray, op: HamiltonianOperator, spec: NonlinearitySpec
) -> float:
    """||A w - λ w - F(w)||_L2."""
    w = op.grid.check_field(w)
    return op.grid.norm(op.apply(w) - lam * w - evaluate_f(spec, w))


def _anderson_proposal(us: list, gs: list) -> np.ndarray:
    """Type-II Anderson mixing over the stored history (beta = 1)."""
    R = np.stack([g - u for u, g in zip(us, gs)], axis=1)
    dR = R[:, 1:] - R[:, :-1]
    gamma, *_ = np.linalg.lstsq(dR, R[:, -1], rcond=None)
    G = np.stack(gs, axis=1)
    return gs[-1] - (G[:, 1:] - G[:, :-1]) @ gamma


def solve_near_resonance(
    lam: float,
    u_init: np.ndarray,
    projections: Projections,
    spec: NonlinearitySpec,
) -> SolveResult:
    """Drive u -> K(λ, u) to a fixed point and reconstruct the PDE solution.

    Returns a SolveResult whose `converged` requires both the fixed-point
    defect and the reconstructed PDE residual to be below tolerance; after
    MAX_ITER iterations the iterate of least defect, the last one included,
    is returned with converged = False.  An iterate with ||u||_H1 above
    u_cap = U_CAP_FACTOR ||m|| (no cap when m = 0) aborts the solve with
    capped = True.  λ = λ0 is refused.
    """
    grid = projections.grid
    lam0 = projections.lambda0
    if lam == lam0:
        raise ValueError("lambda equals lambda0 exactly")
    if not abs(lam - lam0) <= projections.delta * (1 + 1e-12):
        raise ValueError(
            f"lambda = {lam} outside window |lambda - lambda0| <= {projections.delta}"
        )

    u_cap = U_CAP_FACTOR * spec.bound_norm or np.inf
    u = grid.check_field(u_init).copy()
    theta = 1.0
    us: list[np.ndarray] = []
    gs: list[np.ndarray] = []
    best_u, best_defect = u, np.inf
    capped = False
    message = ""

    g = k_map(lam, u, projections, spec)
    defect = grid.norm(u - g)
    it = 0
    while it < MAX_ITER:
        if defect <= TOL_FP:
            break
        if defect < best_defect:
            best_u, best_defect = u, defect
        if field_norms(grid, u).h1 > u_cap:
            capped = True
            message = f"iterate exceeded u_cap = {u_cap}"
            break
        us.append(u)
        gs.append(g)
        if len(us) > ANDERSON_DEPTH:
            us.pop(0)
            gs.pop(0)

        stepped = False
        if len(us) >= 2:
            u_acc = _anderson_proposal(us, gs)
            g_acc = k_map(lam, u_acc, projections, spec)
            d_acc = grid.norm(u_acc - g_acc)
            if d_acc < defect:
                u, g, defect = u_acc, g_acc, d_acc
                theta = min(1.0, 2.0 * theta)
                stepped = True
        if not stepped:
            u_plain = (1.0 - theta) * u + theta * g
            g_plain = k_map(lam, u_plain, projections, spec)
            d_plain = grid.norm(u_plain - g_plain)
            if d_plain >= defect:
                theta = max(theta / 2.0, DAMPING_FLOOR)
            u, g, defect = u_plain, g_plain, d_plain
        it += 1
    else:
        message = f"max_iter = {MAX_ITER} reached"

    if best_defect < defect:
        u, defect = best_u, best_defect
    w = reconstruct_solution(lam, u, projections)
    residual = pde_residual(lam, w, projections.operator, spec)
    norms = field_norms(grid, w)
    converged = (
        not capped
        and defect <= TOL_FP
        and residual <= TOL_PDE * (1.0 + norms.h1)
    )
    return SolveResult(
        converged=bool(converged),
        u=u,
        w=w,
        iterations=it,
        defect=float(defect),
        pde_residual=float(residual),
        norms=norms,
        capped=capped,
        message=message,
    )
