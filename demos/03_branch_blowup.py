"""Bifurcation from infinity: a continuation sweep toward an eigenvalue.

Solves the stationary problem at the parameters lambda0 - delta 2^-k,
k = 1 .. 12, which halve the distance to lambda0 = -1 from below.  The solution norms blow up like
1/|lambda - lambda0| while the complement component stays bounded by
2 delta^{-1} ||m|| -- the hallmark of asymptotic bifurcation at resonance.
"""

import numpy as np

import resonance_lab as rl

grid = rl.make_grid(1, 20.0, 4001)
potential = rl.make_potential(grid, "poschl_teller", ell=2)
op = rl.assemble_hamiltonian(potential)
data = rl.eigenpairs_below(op)
proj = rl.build_projections(data, -1.0, delta_request=0.25)
spec = rl.saturating_arctan(grid)

print(f"lambda0 = {proj.lambda0:.6f}, window half-width delta = {proj.delta}")

branch = rl.continue_branch(proj, spec, "minus", 12)

print(f"\n{'lambda':>12} {'|u|_H1':>12} {'|Pu|':>12} {'|Qu|':>8} {'residual':>10} {'E':>14}")
for p in branch:
    print(f"{p.lam:12.8f} {p.h1:12.2f} {p.kernel_l2:12.2f} {p.complement_l2:8.4f}"
          f" {p.residual:10.2e} {p.energy:14.2f}")

verdict = rl.detect_asymptotic_bifurcation(branch, proj.lambda0)
print(f"\nasymptotic bifurcation detected: {verdict.detected}")
print(f"growth over the trailing window:  x{verdict.growth_ratio:.0f}")
print(f"fitted power of |u| vs |lambda - lambda0|: {verdict.fitted_power:+.3f}"
      " (reported, never asserted)")

report = rl.necessary_condition_report(branch, proj, spec)
print("\nnecessary-condition diagnostics:")
print(f"    max |Qu| = {report.qu_max:.4f}  <=  2/c ||m|| = {report.qu_bound:.4f}"
      f"  -> {report.qu_bound_passed}")
print(f"    grad-Qu trend slope over the tail: {report.grad_qu_trend_slope:+.2e}")
print(f"    growth-rate sandwich: C1 = {report.sandwich_c1:.4f},"
      f" C2 = {report.sandwich_c2:.4f}, spread {report.sandwich_spread:.4f}")
print(f"    |Pu| strictly increasing: {report.kernel_increasing}")

E = np.array([p.energy for p in branch])
print(f"\nstanding-wave energies run from {E[0]:.2f} to {E[-1]:.2e};")
print("lambda0 < 0 drives E(psi_n) -> -infinity along the branch.")
