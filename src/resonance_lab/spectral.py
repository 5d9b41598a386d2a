"""Hamiltonian assembly, low spectrum, Morse counts and spectral projections.

The operator A = -Δ_h + V is self-adjoint in the trapezoid inner product but
not a symmetric matrix (the divergence-form stencil carries 1/w factors at
boundary nodes).  All eigensolves and linear solves therefore run on the
similarity transform S = W^{1/2} A W^{-1/2}, which is genuinely symmetric;
eigenvectors map back through W^{-1/2} and come out quadrature-orthonormal.
The operator owns every shift of S: the shift-invert S - σI of the
eigensolve, the resolvent S - λI and the semiflow's I + dt (S - λI) are all
built and factored by HamiltonianOperator.factor_shifted, and no caller
keeps a shifted copy.

Eigenvalues are only meaningful below the asymptotic bottom of the potential:
the truncated box discretizes the continuum into a cloud of closely spaced
spurious eigenvalues above it, so the solver works under a ceiling (default
alpha_inf, the bottom the potential family declares).  Every grid takes one
eigensolve path: a Sylvester-inertia count of the eigenvalues below the
ceiling, then one shift-invert Lanczos call sized to it.  The count sweeps
a block LDLᵀ over the grid lines (a scalar recurrence in 1-D), so it holds
a few n×n line blocks, not a sparse factorization.  Eigenpairs stored
from such a solve are taken back by reuse_eigenpairs only after the same
count and residual checks, plus a check of their orthonormality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .grid import Grid, GridError
from .potential import PotentialSpec

# a requested ceiling may exceed alpha_inf by this fraction of the spectral scale
CEILING_MARGIN = 1e-6
# relative residual a deflated resolvent solve must reach
TOL_LIN = 1e-8
# largest max |ΨᵀΨ - I| of stored eigenfields that reuse_eigenpairs accepts;
# a fresh solve measures a few 1e-15
ORTHONORMAL_TOL = 1e-10


class SpectralError(RuntimeError):
    """Eigensolver or projection construction failure."""


class ResonantLambdaError(ValueError):
    """A query landed within clustering tolerance of an eigenvalue."""


class HamiltonianOperator:
    """Sparse discretization of A = -Δ + V on a grid.

    Exposes both the field-space action (`apply`) and the symmetrized matrix
    S used by eigensolvers and implicit steps, and is the one place that
    builds and factors a shifted S (`shifted`, `factor_shifted`).  alpha_inf
    is the asymptotic bottom the potential declares.
    """

    def __init__(self, grid: Grid, potential: PotentialSpec):
        if potential.grid is not grid:
            raise GridError("potential was sampled on a different grid")
        self.grid = grid
        self.potential = potential
        v = potential.v
        self.v_samples = v
        self.matrix = (grid.neg_laplacian_matrix() + sp.diags(v)).tocsr()
        # S_ii + V_i set in place: the whole diagonal stays stored, so a
        # shift of it inserts no entry
        self.sym_matrix = grid.symmetrized_stiffness().tocsc()
        self.sym_matrix.setdiag(self.sym_matrix.diagonal() + v)
        self.alpha_inf = potential.alpha_inf

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u as a flat field."""
        u = self.grid.check_field(u)
        return self.matrix @ u

    def spectrum_lower_bound(self) -> float:
        """min V, a lower bound on the spectrum since -Δ_h is positive
        semidefinite."""
        return float(np.min(self.v_samples))

    def shifted(self, lam: float, dt: float | None = None) -> sp.csc_matrix:
        """S - λI, or I + dt (S - λI) when dt is given, as a new CSC matrix
        in the pattern of S: the shifted diagonal is set into a copy of S (or
        of dt S), and no sparse sum is formed."""
        S = self.sym_matrix
        if dt is None:
            mat = S.copy()
            mat.setdiag(S.diagonal() - lam)
        else:
            mat = dt * S
            mat.setdiag(1.0 + dt * (S.diagonal() - lam))
        return mat

    def factor_shifted(self, lam: float, dt: float | None = None) -> spla.SuperLU:
        """SuperLU factors of `shifted(lam, dt)`; RuntimeError when exactly
        singular.

        Every factorization of a shifted S takes this path: the
        shift-invert S - σI of the eigensolve, the resolvent S - λI and the
        IMEX matrix I + dt (S - λI).  On a 2-D grid the minimum-degree
        ordering of the symmetric pattern (MMD_AT_PLUS_A) leaves about 40%
        fewer nonzeros in L + U than SuperLU's default COLAMD ordering, and
        solves about 40% faster.  A 1-D matrix is tridiagonal and fills
        under no ordering; it keeps the default, since another ordering
        would only move the last bits of its solves, which the 1-D semiflow
        amplifies.
        """
        ordering = {"permc_spec": "MMD_AT_PLUS_A"} if self.grid.ndim == 2 else {}
        return spla.splu(self.shifted(lam, dt), **ordering)


def assemble_hamiltonian(grid: Grid, potential: PotentialSpec) -> HamiltonianOperator:
    """Assemble A = -Δ_h + diag(V), carrying the potential's alpha_inf."""
    return HamiltonianOperator(grid, potential)


@dataclass
class SpectralData:
    """Eigenpairs of A below a ceiling, clustered into multiplets.

    eigenvalues are sorted ascending; eigenfields are quadrature-orthonormal
    columns (field frame).  multiplets is a list of (center, [indices]) with
    indices into the eigenvalue array.
    """

    operator: HamiltonianOperator
    ceiling: float
    eigenvalues: np.ndarray
    eigenfields: np.ndarray
    residuals: np.ndarray
    multiplets: list
    cluster_tol: float

    @property
    def alpha_inf(self) -> float:
        return self.operator.alpha_inf

    def multiplet_of(self, lam0: float) -> tuple[float, list]:
        """The multiplet nearest lam0, within a safe snapping radius.

        The radius is the larger of cluster_tol and a quarter of the
        distance to the rest of the spectrum (or to the ceiling when the
        multiplet is alone), so discretization shifts of the eigenvalue are
        absorbed while genuinely off-spectrum values are rejected.
        """
        if not self.multiplets:
            raise SpectralError("no eigenvalues were computed below the ceiling")
        centers = np.array([c for c, _ in self.multiplets])
        j = int(np.argmin(np.abs(centers - lam0)))
        center, idx = self.multiplets[j]
        others = np.abs(centers - center)
        others = others[others > 0]
        room = float(np.min(others)) if others.size else abs(self.ceiling - center)
        guard = max(self.cluster_tol, 0.25 * room)
        if abs(center - lam0) > guard:
            raise SpectralError(
                f"lambda0 = {lam0} is not in the computed spectrum "
                f"{centers.tolist()}"
            )
        return center, idx

    def select_lambda0(self, selector) -> float:
        """Resolve a λ0 selector: ('index', k) picks the k-th multiplet
        (0-based, ascending), ('value', v) the multiplet nearest v."""
        kind, arg = selector
        if kind == "index":
            k = int(arg)
            if not 0 <= k < len(self.multiplets):
                raise SpectralError(
                    f"multiplet index {k} out of range ({len(self.multiplets)} found)"
                )
            return self.multiplets[k][0]
        if kind == "value":
            return self.multiplet_of(float(arg))[0]
        raise SpectralError(f"unknown lambda0 selector kind {kind!r}")


def _cluster(eigenvalues: np.ndarray, tol: float) -> list:
    clusters = []
    start = 0
    for i in range(1, len(eigenvalues) + 1):
        if i == len(eigenvalues) or eigenvalues[i] - eigenvalues[i - 1] > tol:
            idx = list(range(start, i))
            clusters.append((float(np.mean(eigenvalues[start:i])), idx))
            start = i
    return clusters


def _spectral_scale(op: HamiltonianOperator, mu: float) -> float:
    """Magnitude of the spectrum up to mu, for relative tolerances."""
    return max(1.0, abs(op.alpha_inf), abs(mu), abs(op.spectrum_lower_bound()))


def _count_below(op: HamiltonianOperator, mu: float) -> int:
    """Number of eigenvalues of A below mu, by Sylvester inertia.

    In the C-ordered numbering S - mu I is block tridiagonal over the grid
    lines: line blocks T_k (tridiagonal; the diagonals 0 and 1 of S) coupled
    by diagonal blocks C_k (the diagonal n of S, n points per axis).  Its
    inertia is the sum of those of the Schur complements D_1 = T_1,
    D_{k+1} = T_{k+1} - C_k D_k^{-1} C_k (Haynsworth, Linear Algebra Appl.
    1, 1968), each factored as L D Lᵀ with Bunch-Kaufman pivoting (LAPACK
    dsytrf): a negative 1×1 pivot adds one, and so does every 2×2 pivot,
    which has one eigenvalue of each sign.  In 1-D a line is one node and
    the sweep is the scalar Sturm recurrence.  It holds O(n²) numbers,
    one line block at a time.  A sweep is trusted only if no block is
    singular and no pivot lies within 1e-12 of the spectral scale of zero;
    otherwise mu is nudged by a few 1e-9 of the spectral scale and swept
    again (spectrum slicing, Parlett, The Symmetric Eigenvalue Problem,
    ch. 3).  Raises SpectralError if it breaks down at every nudge.
    """
    S = op.sym_matrix
    n = op.grid.points_per_axis if op.grid.ndim == 2 else 1
    scale = _spectral_scale(op, mu)
    diag, off, coupling = S.diagonal(0), S.diagonal(1), S.diagonal(n)
    tiny = 1e-12 * scale
    for nudge in (0.0, 1e-9, -1e-9, 3e-9):
        shifted = diag - (mu + nudge * scale)
        count = (_sturm_count(shifted, off, tiny) if n == 1
                 else _line_block_count(shifted, off, coupling, n, tiny))
        if count is not None:
            return count
    raise SpectralError(f"LDLᵀ inertia count broke down at every shift near {mu}")


def _sturm_count(shifted, off, tiny) -> int | None:
    """Negative pivots of d_1 = a_1, d_{i+1} = a_{i+1} - b_i² / d_i over the
    diagonal a and the off-diagonal b of a tridiagonal S - mu I; None at a
    pivot of magnitude at most tiny."""
    count, d = 0, math.inf  # a_1 - 0 / inf = a_1
    # memoryviews hand out one float at a time, where lists would hold them all
    b2s = np.concatenate(([0.0], off * off))
    for a, b2 in zip(memoryview(shifted), memoryview(b2s)):
        d = a - b2 / d
        if not abs(d) > tiny:  # a NaN fails too
            return None
        count += d < 0
    return count


def _line_block_count(shifted, off, coupling, n, tiny) -> int | None:
    """Negative eigenvalues of the Schur complements D_k of S - mu I over the
    grid lines of n nodes (see _count_below); None when a D_k is singular or
    one of its pivots has a magnitude at most tiny.  dsytrf and dsytri read
    and write the lower triangle only, so one Fortran-ordered n×n array
    holds D_k, its factor, its inverse and the next D_{k+1} in turn."""
    count, i = 0, np.arange(n)
    lwork = int(lapack.dsytrf_lwork(n, lower=1)[0])  # room for the blocked algorithm
    block = np.zeros((n, n), order="F")  # -C_{k-1} D_{k-1}^{-1} C_{k-1}, 0 for k = 1
    lines = len(shifted) // n
    for k in range(lines):
        lo, hi = k * n, (k + 1) * n
        block[i, i] += shifted[lo:hi]
        block[i[1:], i[:-1]] += off[lo : hi - 1]
        ldu, ipiv, info = lapack.dsytrf(block, lower=1, lwork=lwork, overwrite_a=1)
        if info != 0:  # an exactly zero pivot
            return None
        d = ldu.diagonal()
        one = ipiv > 0
        two = np.flatnonzero(~one)[::2]  # the first rows of the 2×2 pivots
        a, b, c = d[two], ldu[two + 1, two], d[two + 1]
        # the smaller eigenvalue magnitude of [[a, b], [b, c]]: |det| / the larger
        larger = np.abs(0.5 * (a + c)) + np.hypot(0.5 * (a - c), b)
        small = np.abs(a * c - b * b) / larger
        pivots = np.concatenate([np.abs(d[one]), small])
        if not np.min(pivots, initial=math.inf) > tiny:  # a NaN fails too
            return None
        count += int(np.count_nonzero(d[one] < 0)) + len(two)
        if k == lines - 1:
            break
        block, info = lapack.dsytri(ldu, ipiv, lower=1, overwrite_a=1)
        if info != 0:
            return None
        ck = coupling[lo:hi]
        block *= -ck[:, None]
        block *= ck[None, :]
    return count


def _window(op: HamiltonianOperator, ceiling: float | None, tol_eig: float,
            cluster_tol: float | None) -> tuple[float, float, float]:
    """The ceiling and cluster_tol of an eigensolve with their defaults filled
    in, and the spectral scale; SpectralError for a ceiling above alpha_inf
    or a non-positive tol_eig."""
    if ceiling is None:
        ceiling = op.alpha_inf
    scale = _spectral_scale(op, ceiling)
    if ceiling > op.alpha_inf + CEILING_MARGIN * scale:
        raise SpectralError(
            f"ceiling {ceiling} exceeds alpha_inf {op.alpha_inf}; "
            "eigenvalues up there are discretization artifacts"
        )
    if tol_eig <= 0:
        raise SpectralError("tol_eig must be positive")
    if cluster_tol is None:
        cluster_tol = 1e-6 * scale
    return float(ceiling), float(cluster_tol), scale


def _count_in_range(op: HamiltonianOperator, ceiling: float, max_count: int) -> int:
    """The Sylvester count below the ceiling; SpectralError if it reaches
    max_count or leaves fewer than two of the grid's eigenvalues above."""
    M = op.grid.num_nodes
    count = _count_below(op, ceiling)
    if count >= max_count:
        raise SpectralError(
            f"{count} eigenvalues below the ceiling, max_count = {max_count}; "
            "suspected spurious continuum states"
        )
    if count > M - 2:
        raise SpectralError(
            f"{count} of the grid's {M} eigenvalues lie below the ceiling; the "
            "shift-invert eigensolve needs at least two above it"
        )
    return count


def _checked_data(op: HamiltonianOperator, ceiling: float, cluster_tol: float,
                  tol_eig: float, count: int, vals: np.ndarray, fields: np.ndarray,
                  multiplets: list) -> SpectralData:
    """SpectralData of eigenpairs below the ceiling, after the checks every
    eigenpair passes, solved or stored: there are exactly `count` of them
    (the Sylvester inertia count) and each residual is at most tol_eig."""
    below = int(np.count_nonzero(vals < ceiling))
    if below != count or len(vals) != count:
        raise SpectralError(
            f"{below} of {len(vals)} eigenpairs lie below the ceiling, "
            f"Sylvester inertia counts {count}"
        )
    grid = op.grid
    residuals = np.empty(len(vals))
    for i in range(len(vals)):
        phi = fields[:, i]
        residuals[i] = grid.norm(op.apply(phi) - vals[i] * phi)
        if not residuals[i] <= tol_eig:  # a NaN fails too
            raise SpectralError(
                f"eigenpair {i} residual {residuals[i]:.3e} exceeds tol_eig {tol_eig}"
            )
    return SpectralData(
        operator=op,
        ceiling=ceiling,
        eigenvalues=vals,
        eigenfields=fields,
        residuals=residuals,
        multiplets=multiplets,
        cluster_tol=cluster_tol,
    )


def eigenpairs_below(
    op: HamiltonianOperator,
    ceiling: float | None = None,
    tol_eig: float = 1e-8,
    cluster_tol: float | None = None,
    max_count: int = 64,
) -> SpectralData:
    """All discrete eigenvalues of A below the ceiling, with eigenfields.

    The ceiling defaults to the potential's declared alpha_inf and may not
    exceed it by more than CEILING_MARGIN (above it the box fills with
    spurious continuum states).  The eigenvalues below the ceiling are
    counted first, by Sylvester inertia; one shift-invert Lanczos call sized
    to that count plus one then finds them, on every grid.  Its operator is
    the operator's factor_shifted(σ), an LU of S - σI.  Raises SpectralError
    before any eigensolve if max_count eigenvalues lie below the ceiling or
    fewer than two of the grid's eigenvalues lie above it; and after, if the
    shift-invert factorization or the eigensolver fails, if the eigensolver
    does not find exactly the counted number, or if a residual exceeds
    tol_eig.
    """
    grid = op.grid
    ceiling, cluster_tol, scale = _window(op, ceiling, tol_eig, cluster_tol)
    count = _count_in_range(op, ceiling, max_count)
    M = grid.num_nodes
    S = op.sym_matrix
    sigma = op.spectrum_lower_bound() - 0.1 * scale
    # fixed Lanczos start vector: ARPACK's default draws from the global
    # RNG and would break byte-identical reruns
    v0 = np.random.default_rng(0x5EED).standard_normal(M)
    # one pair past the count shows the first unwanted value at or above
    # the ceiling.  ARPACK builds at least 20 Lanczos vectors for any
    # k < 10, so the floor of 8 costs nothing, and it keeps small counts
    # (the 1-D problems) on the call their reference reports came from
    k = min(max(8, count + 1), M - 2)
    try:
        lu = op.factor_shifted(sigma)
        opinv = spla.LinearOperator((M, M), matvec=lu.solve, dtype=S.dtype)
        vals, vecs = spla.eigsh(S, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=opinv)
    except Exception as exc:  # noqa: BLE001
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    keep = vals < ceiling
    vals, vecs = vals[keep], vecs[:, keep]

    # back to the field frame; columns are W-orthonormal by construction
    inv_sqrt_w = 1.0 / grid.sqrt_weights
    fields = vecs * inv_sqrt_w[:, None]
    multiplets = _cluster(vals, cluster_tol)

    # re-orthonormalize inside each multiplet (discretization splits exact
    # degeneracies; cross-cluster orthogonality is automatic)
    for _, idx in multiplets:
        if len(idx) > 1:
            block = vecs[:, idx]
            qblock, _ = np.linalg.qr(block)
            vecs[:, idx] = qblock
            fields[:, idx] = qblock * inv_sqrt_w[:, None]

    return _checked_data(op, ceiling, cluster_tol, tol_eig, count, vals, fields,
                         multiplets)


def reuse_eigenpairs(
    op: HamiltonianOperator,
    eigenvalues: np.ndarray,
    eigenfields: np.ndarray,
    ceiling: float | None = None,
    tol_eig: float = 1e-8,
    cluster_tol: float | None = None,
    max_count: int = 64,
) -> SpectralData:
    """The SpectralData of eigenpairs stored from an earlier eigenpairs_below
    call with the same arguments, checked again instead of solved again.

    The stored pairs must be float64 arrays that fit the grid, with
    ascending eigenvalues and W-orthonormal eigenfields (max |ΨᵀΨ - I| at
    most ORTHONORMAL_TOL); they then pass the checks of a fresh solve: the
    Sylvester count below the ceiling equals the number of pairs, and every
    residual is at most tol_eig.  The multiplets are clustered again, but not
    re-orthonormalized, so pairs that a solve wrote come back bit for bit.
    Raises SpectralError when any check fails.
    """
    ceiling, cluster_tol, _ = _window(op, ceiling, tol_eig, cluster_tol)
    vals, fields = np.asarray(eigenvalues), np.asarray(eigenfields)
    grid = op.grid
    if not (vals.dtype == fields.dtype == np.float64 and vals.ndim == 1
            and fields.shape == (grid.num_nodes, len(vals))):
        raise SpectralError(
            f"stored eigenpairs of shapes {vals.shape} and {fields.shape} do not "
            f"fit a grid of {grid.num_nodes} nodes"
        )
    if not np.all(np.diff(vals) >= 0):
        raise SpectralError("stored eigenvalues are not ascending")
    psi = fields * grid.sqrt_weights[:, None]
    drift = float(np.max(np.abs(psi.T @ psi - np.eye(len(vals))), initial=0.0))
    if not drift <= ORTHONORMAL_TOL:
        raise SpectralError(
            f"stored eigenfields are not orthonormal: max |ΨᵀΨ - I| = {drift:.3e}"
        )
    count = _count_in_range(op, ceiling, max_count)
    return _checked_data(op, ceiling, cluster_tol, tol_eig, count, vals, fields,
                         _cluster(vals, cluster_tol))


@dataclass
class MorseCount:
    """Total multiplicity below λ and its pointed-sphere label."""

    k: int
    conley_label: str


def morse_count(data: SpectralData, lam: float) -> MorseCount:
    """k(λ) = total multiplicity of computed eigenvalues strictly below λ.

    λ must sit below the ceiling and at distance > cluster_tol from every
    computed eigenvalue (the index is undefined on the spectrum).  The count
    is checked against the Sylvester inertia of S - λI, which does not depend
    on the eigensolver; SpectralError is raised if the two disagree.
    """
    if lam >= data.ceiling:
        raise ResonantLambdaError(
            f"lambda = {lam} is not below the ceiling {data.ceiling}"
        )
    if len(data.eigenvalues) and np.min(np.abs(data.eigenvalues - lam)) <= data.cluster_tol:
        raise ResonantLambdaError(
            f"resonant lambda: {lam} is within cluster_tol of the spectrum"
        )
    k = int(np.count_nonzero(data.eigenvalues < lam))
    inertia = _count_below(data.operator, lam)
    if inertia != k:
        raise SpectralError(
            f"Morse count at lambda = {lam}: {k} computed eigenvalues below it, "
            f"Sylvester inertia counts {inertia}"
        )
    return MorseCount(k=k, conley_label=f"Sigma^{k}")


class Projections:
    """Kernel / below / above spectral projections at a selected eigenvalue.

    P projects onto X0 = Ker(A - λ0), Q_minus onto the span of eigenfields
    strictly below λ0, Q_plus is the remainder I - P - Q_minus (so the
    resolution of identity is exact as actions).  All three are orthogonal
    in the quadrature inner product.  The window half-width delta doubles as
    the spectral gap constant c.  `operator` is the A they were built from,
    the one every function taking the projections works with.
    """

    def __init__(self, data: SpectralData, lambda0: float, delta: float,
                 kernel_idx: list, below_idx: list):
        op = data.operator
        self.grid = op.grid
        self.operator = op
        self.lambda0 = float(lambda0)
        self.delta = float(delta)
        self.kernel_fields = data.eigenfields[:, kernel_idx]
        self.below_fields = (
            data.eigenfields[:, below_idx]
            if below_idx
            else np.zeros((self.grid.num_nodes, 0))
        )
        sqrt_w = self.grid.sqrt_weights
        self._psi_kernel = self.kernel_fields * sqrt_w[:, None]
        self._psi_below = self.below_fields * sqrt_w[:, None]
        # the deflated-resolvent factors of the most recent λ only: a branch
        # sweep never returns to an earlier λ
        self._resolvent: _BorderedResolvent | None = None

    @property
    def dim_kernel(self) -> int:
        return self.kernel_fields.shape[1]

    @property
    def dim_below(self) -> int:
        return self.below_fields.shape[1]

    @property
    def gap_constant(self) -> float:
        """Lower bound c on |λ_i - λ| over the complement for |λ-λ0| <= δ."""
        return self.delta

    def project_kernel(self, u: np.ndarray) -> np.ndarray:
        """P u."""
        u = self.grid.check_field(u)
        coeff = self._psi_kernel.T @ (self.grid.sqrt_weights * u)
        return self.kernel_fields @ coeff

    def project_below(self, u: np.ndarray) -> np.ndarray:
        """Q_minus u."""
        u = self.grid.check_field(u)
        if self.dim_below == 0:
            return np.zeros_like(u)
        coeff = self._psi_below.T @ (self.grid.sqrt_weights * u)
        return self.below_fields @ coeff

    def project_above(self, u: np.ndarray) -> np.ndarray:
        """Q_plus u = u - P u - Q_minus u."""
        return self.grid.check_field(u) - self.project_kernel(u) - self.project_below(u)

    def project_complement(self, u: np.ndarray) -> np.ndarray:
        """Q u = (I - P) u."""
        return self.grid.check_field(u) - self.project_kernel(u)


def build_projections(
    data: SpectralData, lambda0: float, delta_request: float | None = None
) -> Projections:
    """Build P, Q_minus, Q_plus at λ0 with an admissible gap δ.

    δ = min(delta_request, half the distance to the rest of the computed
    spectrum, half of alpha_inf - λ0 when λ0 sits below alpha_inf).  Raises
    if λ0 is not a computed eigenvalue or the gap collapses.
    """
    center, kernel_idx = data.multiplet_of(lambda0)
    below_idx = [
        i for c, idx in data.multiplets if c < center - data.cluster_tol for i in idx
    ]
    candidates = []
    others = [abs(c - center) for c, _ in data.multiplets if c != center]
    if others:
        candidates.append(0.5 * min(others))
    if center < data.alpha_inf:
        candidates.append(0.5 * (data.alpha_inf - center))
    if delta_request is not None:
        if delta_request <= 0:
            raise SpectralError(f"delta_request must be positive, got {delta_request}")
        candidates.append(float(delta_request))
    if not candidates:
        raise SpectralError(
            "cannot choose delta: no other spectrum computed, lambda0 is not "
            "below alpha_inf, and no delta_request was given"
        )
    delta = min(candidates)
    if delta <= 0:
        raise SpectralError(
            f"spectral gap collapsed at lambda0 = {center} (delta = {delta}); "
            "the grid is too coarse to separate the multiplet"
        )
    return Projections(data, center, delta, kernel_idx, below_idx)


class _BorderedResolvent:
    """Kernel-deflated (A - λ) solve at one λ, by block elimination.

    The deflated solve is the bordered system [[S - λI, ψ], [ψᵀ, 0]] with ψ
    the kernel eigenvectors in the symmetric frame.  Its dense ψ row and
    column make a direct LU fill in, so the fast path factors S - λI alone
    and eliminates the border through the k×k Schur complement
    G = ψᵀ (S - λI)^{-1} ψ:  x = (S - λI)^{-1} r,  z = x - Y G^{-1} ψᵀ x
    with Y = (S - λI)^{-1} ψ.  Near λ0, Y and the rounding error of x grow
    like 1/|λ - λ0| along the kernel; the correction removes exactly that
    component, so z stays bounded through λ = λ0.  The pivoted LU of the
    bordered matrix itself is the fallback, built only for the λ where the
    fast path is unavailable (S - λI exactly singular) or fails its checks.
    S - λI is factored by the operator's factor_shifted and not kept: the
    fallback builds it again, in SuperLU's default ordering, since the
    border's zero block needs pivoting.
    """

    def __init__(self, proj: Projections, lam: float):
        self.op = proj.operator
        self.lam = float(lam)
        self.n = self.op.grid.num_nodes
        self.psi = proj._psi_kernel
        self.k = self.psi.shape[1]
        self._bordered_lu = None
        try:
            self.lu = self.op.factor_shifted(lam)
        except RuntimeError:  # exactly singular S - λI
            self.lu = None
            return
        self.Y = self.lu.solve(self.psi)
        self.G = self.psi.T @ self.Y

    def solve(self, r: np.ndarray) -> np.ndarray | None:
        """Fast path: the deflated solve by block elimination, or None when
        S - λI could not be factored or G is singular."""
        if self.lu is None:
            return None
        x = self.lu.solve(r)
        try:
            return x - self.Y @ np.linalg.solve(self.G, self.psi.T @ x)
        except np.linalg.LinAlgError:
            return None

    def solve_bordered(self, r: np.ndarray) -> np.ndarray:
        """Fallback: a pivoted LU of the bordered matrix, factored once."""
        if self._bordered_lu is None:
            block = sp.bmat(
                [[self.op.shifted(self.lam), sp.csc_matrix(self.psi)],
                 [sp.csc_matrix(self.psi.T), None]],
                format="csc",
            )
            try:
                self._bordered_lu = spla.splu(block)
            except RuntimeError as exc:
                raise SpectralError(
                    f"bordered resolvent factorization failed: {exc}"
                ) from exc
        sol = self._bordered_lu.solve(np.concatenate([r, np.zeros(self.k)]))
        return sol[: self.n]


def apply_resolvent_complement(
    proj: Projections, lam: float, w_field: np.ndarray
) -> np.ndarray:
    """z = [(A - λ)|_X]^{-1} Q w, with A the projections' operator, solved
    with kernel deflation.

    w is pre-projected onto the complement X; the deflated solve pins the
    kernel coefficients to zero, so it stays well-conditioned through
    λ = λ0.  It runs by block elimination on a factorization of S - λI
    alone, kept for the most recent λ only: the previous λ's factors are
    freed before the next are made.  Every result is checked: the
    residual ||(A-λ)z - Qw|| must come out below TOL_LIN * ||Qw|| and
    ||z|| <= ||Qw|| / c.  A result that fails either check is recomputed
    with a pivoted LU of the kernel-bordered system and checked again;
    SpectralError is raised only when that fails too.
    """
    grid, op = proj.grid, proj.operator
    if abs(lam - proj.lambda0) > proj.delta * (1 + 1e-12):
        raise SpectralError(
            f"lambda = {lam} outside the window |lambda - lambda0| <= {proj.delta}"
        )
    w_in = grid.check_field(w_field)
    q = proj.project_complement(w_in)
    qnorm = grid.norm(q)
    if qnorm == 0.0:
        return np.zeros(grid.num_nodes)
    # absolute slack at the scale of the unprojected input: a numerically
    # pure-kernel w leaves only rounding in q and a relative test is moot
    floor = 1e-13 * grid.norm(w_in)

    def failure(z: np.ndarray) -> str | None:
        # negated comparisons so that a NaN fails the check
        residual = grid.norm(op.apply(z) - lam * z - q)
        if not residual <= TOL_LIN * qnorm + floor:
            return (
                f"resolvent solve residual {residual:.3e} exceeds "
                f"{TOL_LIN:.1e} * ||Qw|| = {TOL_LIN * qnorm:.3e}"
            )
        if not grid.norm(z) <= (qnorm + floor) / proj.gap_constant * (1 + 1e-9):
            return "resolvent output violates the spectral bound ||z|| <= ||Qw||/c"
        return None

    if proj._resolvent is None or proj._resolvent.lam != float(lam):
        # drop the only reference to the previous λ's factors, so they are
        # freed before S - λI is factored: one factorization alive at a time
        proj._resolvent = None
        proj._resolvent = _BorderedResolvent(proj, lam)
    solver = proj._resolvent
    sqrt_w = grid.sqrt_weights
    rhs = sqrt_w * q
    fast = solver.solve(rhs)
    if fast is not None:
        z = fast / sqrt_w
        if failure(z) is None:
            return z
    z = solver.solve_bordered(rhs) / sqrt_w
    reason = failure(z)
    if reason is not None:
        raise SpectralError(reason)
    return z
