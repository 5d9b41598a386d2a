"""The parabolic semiflow u_t = Δu - Vu + λu + f(x, u) as a gradient flow.

Integrates with the implicit-explicit Euler stepper, watches the Lyapunov
functional J decrease, verifies the kernel-drift identity along the way,
and checks the admissibility tail bound for the complement component.
"""

import numpy as np

import resonance_lab as rl

grid = rl.make_grid(1, 20.0, 4001)
potential = rl.make_potential(grid, "poschl_teller", ell=2)
op = rl.assemble_hamiltonian(potential)
data = rl.eigenpairs_below(op)
proj = rl.build_projections(data, -4.0, delta_request=0.25)  # stable ground window
spec = rl.saturating_arctan(grid)

lam = proj.lambda0 - 0.2
u0 = 3.0 * proj.kernel_fields[:, 0] + 0.5 * np.exp(-(grid.axis - 2.0) ** 2)

# evolve hands each saved state to its hook and keeps none: the hook keeps
# t, J, |Pu| and |Qu| of every state and the field of the last one
rows = []
final = None


def record(state):
    global final
    rows.append((state.t, state.J, grid.norm(proj.project_kernel(state.u)),
                 grid.norm(proj.project_complement(state.u))))
    final = state.u


traj = rl.evolve(rl.SemiflowState(0.0, u0), lam, 60.0, op, spec, record,
                 stop="equilibrium", save_every=100)

print(f"lambda = {lam:.4f}; stopped by: {traj.stop_reason}"
      f" after {traj.steps} steps")
print(f"\n{'t':>8} {'J':>14} {'|Pu|':>10} {'|Qu|':>10}")
for t, J, pu, qu in rows[:: max(1, len(rows) // 10)]:
    print(f"{t:8.2f} {J:14.8f} {pu:10.4f} {qu:10.4f}")
J = np.array([row[1] for row in rows])
print(f"\nJ monotone nonincreasing: {bool(np.all(np.diff(J) <= 1e-10))}")

# the equilibrium is a stationary solution of the elliptic problem
print(f"PDE residual at the equilibrium: "
      f"{rl.pde_residual(lam, final, op, spec):.2e}")

# -- kernel drift identity -------------------------------------------------------

dt = 1e-4
nxt = rl.ImexStepper(op, lam, dt).step(u0, rl.evaluate_f(spec, u0))
p1 = grid.norm(proj.project_kernel(u0))
p2 = grid.norm(proj.project_kernel(nxt))
fd = (p2**2 - p1**2) / (2 * dt)
formula = rl.kernel_drift_rate(lam, u0, proj, spec)
print(f"\nkernel drift: finite difference {fd:+.6f} vs formula {formula:+.6f}"
      f"  (rel err {abs(fd - formula) / abs(formula):.1e})")

# -- admissibility tail bound ------------------------------------------------------

excited = rl.build_projections(data, -1.0, delta_request=0.25)
tally = rl.TailTally(excited, [4.0, 8.0, 12.0, 16.0])  # fed as the flow runs
rl.evolve(rl.SemiflowState(0.0, 2.0 * excited.kernel_fields[:, 0]),
          excited.lambda0 - 0.125, 5.0, op, spec, tally.add,
          stop="time-only", save_every=100)
report = rl.tail_decay_report(tally, spec)
print(f"\ntail-decay bound (alpha = {report.alpha:.4f}, guaranteed radii >="
      f" {report.n0:.2f}):")
for row in report.rows[:4]:
    print(f"    radius {row.radius:5.1f}  t1 = {row.t1:4.1f}"
          f"  measured {row.measured:.3e}  bound {row.bound:.3e}"
          f"  pass = {row.passed}")
print(f"all (radius, time) pairs pass: {report.all_passed}")
