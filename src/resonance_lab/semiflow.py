"""Parabolic semiflow u_t = Δu - Vu + λu + f(x, u): time stepping and
diagnostics.

One step is implicit-explicit Euler: the stiff linear part (A - λ) is
treated implicitly, the globally bounded nonlinearity explicitly,

    (I + dt (A - λ)) u_next = u + dt F(u),

which is unconditionally stable in the linear part as long as the implicit
matrix stays positive definite: 1 + dt (min V - λ) > 0, which evolve secures
by halving dt before its first step.  The energy

    J_λ(u) = 1/2 (||∇u||^2 + <Vu, u> - λ ||u||^2) - ∫ F_prim(x, u)

decreases along steps up to O(dt^2), mirroring dJ/dt = -||u̇||^2.

The tail-decay report assembles the admissibility bound

    ∫_{|x| >= n} |Qu(t1)|^2 <= e^{-2α(t1-t0)} ||u(t0)||^2 + α_n

with α_n built from the cutoff constant, the potential and bound-field
tails over |x| >= n/√2, and the exact finite-dimensional kernel tail
maximum, and checks it against measured tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import FieldNorms, field_norms, tail_mass
from .nonlinearity import NonlinearitySpec, evaluate_f, evaluate_primitive
from .potential import tail_lp_norm
from .spectral import HamiltonianOperator, Projections

CUTOFF_LIPSCHITZ = 2.0  # sup |phi'| of the radial cutoff ramp on [1/2, 1]
DT_FLOOR = 1e-12
STOP_RULES = ("time-only", "equilibrium")


class StepRejected(RuntimeError):
    """ImexStepper was asked for a dt at which the implicit matrix may lose
    positivity."""


class StepCascadeError(RuntimeError):
    """dt fell below DT_FLOOR, or a step overflowed."""


class TailDecayError(ValueError):
    """The tail-decay bound cannot be assembled from these inputs."""


@dataclass
class SemiflowState:
    t: float
    u: np.ndarray
    # J_λ(u) and field_norms(grid, u), set on every state evolve saves
    J: float | None = None
    norms: FieldNorms | None = None


@dataclass
class Trajectory:
    """How a flow ended; its saved states went to evolve's on_save hook."""

    steps: int = 0
    stop_reason: str = "horizon"  # or "equilibrium"

    @property
    def equilibrium(self) -> bool:
        return self.stop_reason == "equilibrium"


def loses_positivity(op: HamiltonianOperator, lam: float, dt: float) -> bool:
    """Whether min V, the lower bound on the spectrum of A, no longer proves
    I + dt (A - λ) positive definite: 1 + dt (min V - λ) <= 0."""
    return 1.0 + dt * (op.spectrum_lower_bound() - lam) <= 0.0


class ImexStepper:
    """Cached factorization of (I + dt (A - λ)) in the symmetrized frame, made
    by the operator's factor_shifted(λ, dt)."""

    def __init__(self, op: HamiltonianOperator, lam: float, dt: float):
        if not dt > 0:  # a NaN fails too
            raise ValueError(f"dt must be positive, got {dt}")
        if loses_positivity(op, lam, dt):
            bound = 1.0 / max(lam - op.spectrum_lower_bound(), 1e-300)
            raise StepRejected(
                f"dt = {dt} too large: I + dt(A - λ) loses positivity for "
                f"λ = {lam} (need dt < {bound:.3e})"
            )
        self._lu = op.factor_shifted(lam, dt)
        self._sqrt_w = op.grid.sqrt_weights
        self.dt = dt

    def step(self, u: np.ndarray, fu: np.ndarray) -> np.ndarray:
        rhs = self._sqrt_w * (u + self.dt * fu)
        return self._lu.solve(rhs) / self._sqrt_w


def default_dt(op: HamiltonianOperator, lam: float) -> float:
    """Resolve the fastest retained linear mode: min(0.1/(|λ_min|+|λ|+1), 1e-2)."""
    lam_min = op.spectrum_lower_bound()
    return min(0.1 / (abs(lam_min) + abs(lam) + 1.0), 1e-2)


def lyapunov_J(
    lam: float, u: np.ndarray, op: HamiltonianOperator, spec: NonlinearitySpec,
    norms: FieldNorms | None = None,
) -> float:
    """J_λ(u); requires the family's primitive.  norms, when given, must be
    field_norms(grid, u)."""
    grid = op.grid
    u = grid.check_field(u)
    if norms is None:
        norms = field_norms(grid, u)
    quad = norms.grad_l2**2 + grid.inner(op.v_samples * u, u) - lam * norms.l2**2
    prim = evaluate_primitive(spec, u)
    return 0.5 * quad - float(np.sum(grid.weights * prim))


def evolve(
    state0: SemiflowState,
    lam: float,
    horizon: float,
    op: HamiltonianOperator,
    spec: NonlinearitySpec,
    on_save: Callable[[SemiflowState], None],
    dt: float | None = None,
    stop: str = "equilibrium",
    save_every: int = 10,
) -> Trajectory:
    """Advance the semiflow to the horizon with the chosen stopping rule.

    stop is one of STOP_RULES: "time-only", or "equilibrium", which ends the
    flow once ||u_next - u||/dt is at most 1e-6 (1 + ||u_next||_H1).  An
    initial dt (given or default) below DT_FLOOR raises StepCascadeError.
    Before the first step dt is cut to the horizon and halved until
    I + dt (A - λ) keeps its positivity (loses_positivity); a dt halved below
    DT_FLOOR raises StepCascadeError, and so does a step whose rate or, under
    "equilibrium", H1 norm is not finite, or a saved state whose J is not.

    The initial state, every save_every-th step, the last step and an
    equilibrium are saved: each is handed to on_save(SemiflowState(t, u, J,
    norms)) as it is saved, with u a copy of the field, J = J_λ(u) and
    norms = field_norms(grid, u); the norms the equilibrium rule read are
    handed on, not computed again.  The flow keeps none of the states, so it
    holds no saved field however long the horizon, unless on_save keeps
    them; the returned Trajectory says how it ended.
    """
    if not horizon > 0:  # a NaN fails too
        raise ValueError(f"horizon must be positive, got {horizon}")
    if stop not in STOP_RULES:
        raise ValueError(f"unknown stop rule {stop!r}")
    if save_every < 1:
        raise ValueError(f"save_every must be at least 1, got {save_every}")
    grid = op.grid
    if dt is None:
        dt = default_dt(op, lam)
    if not dt >= DT_FLOOR:
        # at |lam| ~ 1e300 the default dt is ~1e-301: a horizon would take
        # ~1e300 steps, and no stop rule need ever end them
        raise StepCascadeError(f"initial dt = {dt:.3g} is below the floor {DT_FLOOR:g}")
    t_end = state0.t + horizon
    # later steps are only shorter, so the dt admitted here admits them all
    dt = min(dt, t_end - state0.t)
    while loses_positivity(op, lam, dt):
        dt /= 2.0
        if dt < DT_FLOOR:
            raise StepCascadeError(
                "dt underflowed while seeking a positive implicit matrix"
            )
    traj = Trajectory()

    def check(t: float, read: dict) -> None:
        overflow = ", ".join(f"{k} = {v}" for k, v in read.items() if not np.isfinite(v))
        if overflow:
            raise StepCascadeError(f"semiflow overflow at t = {t:.6g}: {overflow}")

    def save(s: SemiflowState, norms: FieldNorms | None = None) -> None:
        u = s.u.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # check raises
            if norms is None:
                norms = field_norms(grid, u)
            J = lyapunov_J(lam, u, op, spec, norms)
        check(s.t, {"J": J})
        on_save(SemiflowState(s.t, u, J, norms))

    state = SemiflowState(t=state0.t, u=grid.check_field(state0.u).copy())
    save(state)
    stepper = None
    while state.t < t_end - 1e-12:
        dt_step = min(dt, t_end - state.t)
        if stepper is None or stepper.dt != dt_step:
            stepper = None  # free the old factors before the next are made
            stepper = ImexStepper(op, lam, dt_step)
        # the step and what the stop rule reads: an overflow must not pass it
        # as inf <= inf.  They run without numpy's warnings, since check raises
        with np.errstate(over="ignore", invalid="ignore"):
            u_next = stepper.step(state.u, evaluate_f(spec, state.u))
            rate = grid.norm(u_next - state.u) / dt_step
            read = {"step rate": rate}
            norms = None  # handed on to save
            if stop == "equilibrium":
                norms = field_norms(grid, u_next)
                read["H1 norm"] = norms.h1
        traj.steps += 1
        state = SemiflowState(t=state.t + dt_step, u=u_next)
        check(state.t, read)
        if stop == "equilibrium" and rate <= 1e-6 * (1.0 + norms.h1):
            traj.stop_reason = "equilibrium"
        if (traj.equilibrium or traj.steps % save_every == 0
                or state.t >= t_end - 1e-12):
            save(state, norms)
        if traj.equilibrium:
            break
    return traj


def kernel_drift_rate(
    lam: float,
    u: np.ndarray,
    projections: Projections,
    spec: NonlinearitySpec,
) -> float:
    """(λ - λ0) ||Pu||^2 + <Pu, F(u)>: the exact rate of 1/2 d/dt ||Pu||^2."""
    grid = projections.grid
    pu = projections.project_kernel(u)
    return (lam - projections.lambda0) * grid.inner(pu, pu) + grid.inner(
        pu, evaluate_f(spec, u)
    )


@dataclass
class TailDecayRow:
    radius: float
    t1: float
    measured: float
    bound: float
    passed: bool
    guaranteed: bool  # radius >= n0, where the lemma's hypothesis holds


@dataclass
class TailDecayReport:
    alpha: float
    eta: float
    n0: float
    rows: list
    all_passed: bool
    all_guaranteed_passed: bool


class TailTally:
    """What the tail-decay report reads of the saved states, one state at a
    time: Qu is formed once per state and only its floats are kept, its H1
    norm, its squared L^{2p/(p-1)} norm and, after the first state (t0), its
    tail mass at each radius.  `add` takes the states in order, as evolve's
    on_save hook hands them over.  A radius outside [0, half-width] (NaN
    included) raises TailDecayError."""

    def __init__(self, projections: Projections, radii: Sequence[float]):
        self.projections = projections
        self.radii = [float(r) for r in radii]
        half_width = projections.grid.half_width
        if not all(0 <= r <= half_width for r in self.radii):
            raise TailDecayError(
                f"radii {self.radii} must lie between 0 and the box half-width "
                f"{half_width}"
            )
        p = projections.operator.potential.p
        self._r_exp = 2.0 * p / (p - 1.0)
        self.t0 = self.u0_sq = None
        self.h1_norms, self.lr_norms_sq = [], []
        self.times, self.measured = [], []  # of the states after t0

    def add(self, state: SemiflowState) -> None:
        grid = self.projections.grid
        q = self.projections.project_complement(state.u)
        self.h1_norms.append(field_norms(grid, q).h1)
        self.lr_norms_sq.append(grid.lp_norm(q, self._r_exp) ** 2)
        if self.t0 is None:
            self.t0, self.u0_sq = state.t, grid.norm(state.u) ** 2
        else:
            self.times.append(state.t)
            self.measured.append([tail_mass(grid, q, r) for r in self.radii])


def tail_decay_report(
    tally: TailTally,
    spec: NonlinearitySpec,
    alpha: float | None = None,
) -> TailDecayReport:
    """Check measured complement tails against the assembled decay bound.

    For each saved time t1 > t0 and each radius n the measured
    tail_mass(Qu(t1), n) is compared with e^{-2α(t1-t0)} ||u(t0)||^2 + α_n.
    α defaults to α_inf - λ0 - δ - η with η = (α_inf - λ0 - δ)/4; α_n is
    assembled from 2 R^2 L_φ / n, the potential and bound-field tails over
    |x| >= n/√2 and the kernel-ball tail maximum κ_n, all divided by α.  n0
    is the smallest radius with v_infty > α_inf - η on |x| >= n/√2; only
    radii >= n0 are guaranteed by the theory, the rest are reported but not
    required to pass.

    The projections, the radii and every measured float come from `tally`,
    which evolve's on_save hook fed with the states as they were saved, so
    the flow need keep no field.
    """
    projections, radii = tally.projections, tally.radii
    grid, op = projections.grid, projections.operator
    lam0, delta = projections.lambda0, projections.delta
    alpha_inf = op.alpha_inf
    gap = alpha_inf - lam0 - delta
    if gap <= 0:
        raise TailDecayError(
            "alpha_inf - lambda0 - delta <= 0: the decay bound needs "
            "lambda0 + delta below the asymptotic bottom"
        )
    eta = 0.25 * gap
    if alpha is None:
        alpha = gap - eta
    if not alpha > 0:  # NaN included
        raise TailDecayError(f"alpha must be positive, got {alpha}")
    if not tally.times:
        raise TailDecayError("trajectory has fewer than two saved states")

    # hypothesis constant: sup_t ||Qu(t)||_H1 over the saved states
    R_bound = max(tally.h1_norms)

    # Hoelder factor: sup_t ||Qu(t)||_{L^{2p/(p-1)}}^2 (empirical embedding)
    hoelder = max(tally.lr_norms_sq)

    # kernel-ball tail maximum, exact in the finite-dimensional kernel
    m_norm = spec.bound_norm
    kernel = projections.kernel_fields

    def kappa(r_inner: float) -> float:
        mask = grid.radii >= r_inner
        if not np.any(mask):
            return 0.0
        blk = kernel[mask, :] * grid.sqrt_weights[mask][:, None]
        gram = blk.T @ blk
        lam_max = float(np.max(np.linalg.eigvalsh(gram))) if gram.size else 0.0
        return m_norm * np.sqrt(max(lam_max, 0.0))

    # smallest radius where v_infty > alpha_inf - eta holds on |x| >= n/sqrt(2)
    viol = op.potential.v_infty <= alpha_inf - eta
    if np.any(viol):
        n0 = float(np.max(grid.radii[viol])) * np.sqrt(2.0)
    else:
        n0 = 0.0

    alpha_n = {}
    for r in radii:
        inner = r / np.sqrt(2.0)
        m_tail = np.sqrt(tail_mass(grid, spec.bound_m, inner))
        tilde = (
            2.0 * R_bound**2 * CUTOFF_LIPSCHITZ / r
            + hoelder * tail_lp_norm(op.potential, inner)
            + R_bound * m_tail
            + R_bound * kappa(inner)
        )
        alpha_n[r] = tilde / alpha

    rows = []
    for t1, masses in zip(tally.times, tally.measured):
        decay = np.exp(-2.0 * alpha * (t1 - tally.t0)) * tally.u0_sq
        for r, mass in zip(radii, masses):
            bound = decay + alpha_n[r]
            rows.append(
                TailDecayRow(
                    radius=r, t1=t1, measured=mass, bound=bound,
                    passed=bool(mass <= bound), guaranteed=bool(r >= n0),
                )
            )
    return TailDecayReport(
        alpha=float(alpha), eta=float(eta), n0=n0, rows=rows,
        all_passed=all(r.passed for r in rows),
        all_guaranteed_passed=all(r.passed for r in rows if r.guaranteed),
    )
