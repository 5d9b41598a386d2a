"""Numerical laboratory for asymptotic bifurcation in semilinear Schrodinger
problems -Δu + V(x)u = λu + f(x, u) on truncated boxes.

The pipeline: discretize (grid), split the potential and declare its
asymptotic bottom (potential), assemble the Hamiltonian and its spectral
projections (spectral), declare a bounded nonlinearity with its limits at
infinity (nonlinearity), solve the Lyapunov-Schmidt fixed-point problem near
an eigenvalue (solver), integrate the parabolic semiflow (semiflow), and run
continuation sweeps that detect norm blow-up as λ approaches the eigenvalue
(bifurcation).  The cli module binds everything into reproducible
experiments.
"""

from .bifurcation import (
    BifurcationVerdict,
    BranchPoint,
    NecessaryConditionReport,
    continue_branch,
    detect_asymptotic_bifurcation,
    necessary_condition_report,
    standing_wave_energy,
)
from .grid import FieldNorms, Grid, GridError, apply_laplacian, field_norms, make_grid, tail_mass
from .nonlinearity import (
    ConditionPair,
    NonlinearitySpec,
    ResonanceVerdict,
    SphereProbe,
    check_landesman_lazer,
    check_sign_condition,
    evaluate_f,
    evaluate_primitive,
    kernel_sphere_probe,
    landesman_lazer_integral,
    make_nonlinearity,
    negate,
    saturating_arctan,
    saturating_rational,
    zero_nonlinearity,
)
from .potential import (
    PotentialSpec,
    make_potential,
    split_kato_rellich,
    tail_lp_norm,
)
from .semiflow import (
    ImexStepper,
    SemiflowState,
    Trajectory,
    evolve,
    imex_step,
    kernel_drift_rate,
    lyapunov_J,
    tail_decay_report,
)
from .solver import (
    SolveResult,
    SolverConfig,
    k_map,
    pde_residual,
    reconstruct_iterate,
    reconstruct_solution,
    solve_near_resonance,
)
from .spectral import (
    HamiltonianOperator,
    MorseCount,
    Projections,
    SpectralData,
    apply_resolvent_complement,
    assemble_hamiltonian,
    build_projections,
    eigenpairs_below,
    morse_count,
)

__version__ = "0.1.0"
