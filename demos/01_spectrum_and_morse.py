"""Spectrum of a Schrodinger operator on a truncated box.

Discretizes A = -d^2/dx^2 - 6/cosh^2(x) on [-20, 20], computes the bound
states below the asymptotic bottom of the potential, and walks the Morse
count k(lambda) across the spectrum.  The exact bound-state energies of the
Poschl-Teller well with ell = 2 are -4 and -1, so everything here can be
checked by eye.
"""

import numpy as np

import resonance_lab as rl

# -- discretize and assemble ---------------------------------------------------

grid = rl.make_grid(ndim=1, half_width=20.0, points_per_axis=4001)
potential = rl.make_potential(grid, "poschl_teller", ell=2)
op = rl.assemble_hamiltonian(potential)

print("grid:", grid)
print(f"asymptotic bottom alpha_inf = {op.alpha_inf} (declared by the family)")

# -- eigenvalues below the continuum -------------------------------------------

data = rl.eigenpairs_below(op)
print("\neigenvalues below alpha_inf (exact: -4, -1):")
for (center, idx), resid in zip(data.multiplets, data.residuals):
    print(f"    lambda = {center:+.6f}   multiplicity {len(idx)}   residual {resid:.2e}")

# halving h confirms second-order convergence
coarse = rl.make_grid(1, 20.0, 2001)
coarse_data = rl.eigenpairs_below(
    rl.assemble_hamiltonian(rl.make_potential(coarse, "poschl_teller", ell=2))
)
exact = np.array([-4.0, -1.0])
e_coarse = np.abs(coarse_data.eigenvalues - exact)
e_fine = np.abs(data.eigenvalues - exact)
print("\nconvergence under h -> h/2 (ratios should be ~4):")
for i in range(2):
    print(f"    level {i}: err(h) = {e_coarse[i]:.2e}  err(h/2) = {e_fine[i]:.2e}"
          f"  ratio = {e_coarse[i] / e_fine[i]:.2f}")

# -- Morse counts ---------------------------------------------------------------

print("\nMorse count k(lambda) and its Conley label:")
for lam in (-5.0, -2.0, -0.5):
    mc = rl.morse_count(data, lam)
    print(f"    lambda = {lam:+.1f}   k = {mc.k}   index {mc.conley_label}")

# the jump across each eigenvalue equals the kernel dimension
for center, idx in data.multiplets:
    proj = rl.build_projections(data, center)
    jump = (rl.morse_count(data, center + proj.delta).k
            - rl.morse_count(data, center - proj.delta).k)
    print(f"    jump across lambda0 = {center:+.4f}: {jump} (dim X0 = {len(idx)})")
