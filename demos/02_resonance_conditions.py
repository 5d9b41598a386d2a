"""Resonance conditions for bounded nonlinearities.

Checks the Landesman-Lazer and strong-resonance (sign) conditions for three
families, against the kernel of A - lambda0 at the excited state of the
Poschl-Teller well, and probes the geometric pairing <v, F(v + w)> on
kernel spheres of growing radius.
"""

import numpy as np

import resonance_lab as rl

grid = rl.make_grid(1, 20.0, 4001)
potential = rl.make_potential(grid, "poschl_teller", ell=2)
op = rl.assemble_hamiltonian(potential)
data = rl.eigenpairs_below(op)
proj = rl.build_projections(data, -1.0)


def show(name, pair):
    for v in (pair.plus, pair.minus):
        extra = "" if v.applicable else f"  [{v.note}]"
        wit = f"{min(v.witnesses):+.4f}" if v.witnesses else "n/a"
        print(f"    {v.condition:3s} holds={str(v.holds):5s}  worst witness {wit}"
              f"  positive-measure mass fraction {v.mass_fraction:.3e}{extra}")


# saturating arctan: limits +-m(x), so (LL)+ holds with strictly positive
# integrals, and s f(x,s) -> infinity makes SR inapplicable
arctan = rl.saturating_arctan(grid)
print("f = e^(-x^2) (2/pi) arctan(u):")
show("arctan", rl.check_landesman_lazer(arctan, proj.kernel_fields))
show("arctan", rl.check_sign_condition(arctan))

# rational family: vanishing limits, k+- = m > 0, so (SR)+ holds
rational = rl.saturating_rational(grid)
print("\nf = e^(-x^2) u/(1+u^2):")
show("rational", rl.check_landesman_lazer(rational, proj.kernel_fields))
show("rational", rl.check_sign_condition(rational))

# negation swaps the + and - conditions
print("\nf -> -f swaps the signed conditions:")
show("neg", rl.check_landesman_lazer(rl.negate(arctan), proj.kernel_fields))

# -- kernel-sphere pairing -------------------------------------------------------

print("\nmin <v, F(v)> over the kernel sphere ||v|| = R (arctan family):")
for radius in (1.0, 10.0, 100.0, 1000.0):
    probe = rl.kernel_sphere_probe(arctan, proj.kernel_fields, radius)
    print(f"    R = {radius:7.1f}   min pairing = {probe.min_pairing:.6f}")
print("positive and growing with R: the nonlinearity pushes kernel-sphere")
print("states outward, which is what forces the branch of solutions to blow up.")
