"""Bifurcation at a degenerate eigenvalue in two dimensions.

The symmetric square well on [-6, 6]^2 has an exactly degenerate second
level (the (1,2)/(2,1) pair), so the kernel of A - lambda0 is
two-dimensional.  Resonance conditions are then checked over a directional
net of the kernel sphere, the Morse count jumps by two across lambda0, and
the continuation sweep still blows up as lambda -> lambda0.
"""

import numpy as np

import resonance_lab as rl

grid = rl.make_grid(ndim=2, half_width=6.0, points_per_axis=81)
potential = rl.make_potential(grid, "square_well", depth=-50.0, width=2.0)
op = rl.assemble_hamiltonian(grid, potential)
data = rl.eigenpairs_below(op)

print("multiplets (lambda, multiplicity):")
for center, idx in data.multiplets[:5]:
    print(f"    {center:10.4f}   x{len(idx)}")

pair_center = data.multiplets[1][0]
proj = rl.build_projections(data, pair_center, delta_request=0.5)
print(f"\nselected lambda0 = {proj.lambda0:.4f} with dim X0 = {proj.dim_kernel}")

jump = (rl.morse_count(data, proj.lambda0 + proj.delta).k
        - rl.morse_count(data, proj.lambda0 - proj.delta).k)
print(f"Morse-count jump across lambda0: {jump} (equals dim X0)")

spec = rl.saturating_arctan(grid)
ll = rl.check_landesman_lazer(spec, proj.kernel_fields)
print(f"\nLL+ over a 64-direction kernel net: holds = {ll.plus.holds},"
      f" min witness integral = {min(ll.plus.witnesses):.4f}")

schedule = [proj.lambda0 - proj.delta * 2.0 ** (-k) for k in range(1, 7)]
branch = rl.continue_branch(schedule, proj, spec)
print(f"\n{'lambda':>12} {'|u|_H1':>10} {'|Pu|':>10} {'|Qu|':>8} {'residual':>10}")
for p in branch:
    print(f"{p.lam:12.6f} {p.h1:10.3f} {p.kernel_l2:10.3f}"
          f" {p.complement_l2:8.4f} {p.residual:10.2e}")

verdict = rl.detect_asymptotic_bifurcation(branch, proj.lambda0, window=5)
print(f"\nasymptotic bifurcation detected: {verdict.detected}"
      f" (fitted power {verdict.fitted_power:+.3f})")
