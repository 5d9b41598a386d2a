"""Uniform tensor-product grids on a truncated box [-L, L]^N with discrete calculus.

The discretization is chosen so that three identities hold exactly (up to
rounding) for *every* sampled field, not just decaying ones:

* quadrature weights are the tensor trapezoid rule, summing to (2L)^N;
* the discrete Laplacian is the divergence-form central stencil with a
  Dirichlet halo (values outside the box are zero): at interior nodes this is
  the standard 3-point (1-D) / 5-point (2-D) stencil, at boundary nodes the
  flux difference is divided by the trapezoid weight;
* the gradient seminorm sums forward differences over all edges including
  the two ghost edges per grid line, so that

      <-Δ_h u, u>_w  ==  grad_l2(u)^2

  holds to machine precision.  This pairing also makes -Δ_h self-adjoint in
  the trapezoid inner product, which the spectral machinery relies on.

Fields are flat, C-ordered ``numpy`` arrays with one real sample per node;
all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Guard against accidentally gigantic grids (n is per axis).
MAX_NODES_DEFAULT = 8_000_000


class GridError(ValueError):
    """Invalid grid construction or a field/grid mismatch."""


@dataclass
class FieldNorms:
    """Discrete L2 norm, gradient seminorm and H1 norm of a field."""

    l2: float
    grad_l2: float
    h1: float


class Grid:
    """Uniform grid on [-L, L]^ndim, ndim in {1, 2}, with n (odd) nodes per axis.

    Attributes:
        ndim: spatial dimension, 1 or 2.
        half_width: L, the box half-width.
        points_per_axis: n, odd so that 0 is a node.
        spacing: h = 2L/(n-1).
        axis: the 1-D node coordinates, shape (n,).
        shape: field shape, (n,) or (n, n).
        num_nodes: n**ndim.
        weights: flat trapezoid quadrature weights, shape (num_nodes,).
        sqrt_weights: their square roots, the diagonal of W^{1/2}.
        points: flat node coordinates, shape (num_nodes, ndim).

    Its sparse matrices are built on each call and not kept: the
    Hamiltonian holds the ones the solvers use.
    """

    def __init__(self, ndim: int, half_width: float, points_per_axis: int):
        self.ndim = int(ndim)
        self.half_width = float(half_width)
        self.points_per_axis = int(points_per_axis)
        n, L = self.points_per_axis, self.half_width
        self.spacing = 2.0 * L / (n - 1)
        self.axis = np.linspace(-L, L, n)
        axis_w = np.full(n, self.spacing)
        axis_w[0] = axis_w[-1] = self.spacing / 2.0
        self.axis_weights = axis_w
        if self.ndim == 1:
            self.shape = (n,)
            self.weights = axis_w.copy()
            self.points = self.axis.reshape(-1, 1)
        else:
            self.shape = (n, n)
            self.weights = np.outer(axis_w, axis_w).ravel()
            X, Y = np.meshgrid(self.axis, self.axis, indexing="ij")
            self.points = np.column_stack([X.ravel(), Y.ravel()])
        self.num_nodes = self.weights.size
        self.sqrt_weights = np.sqrt(self.weights)
        self.radii = np.sqrt(np.sum(self.points**2, axis=1))

    # -- basic structure ---------------------------------------------------

    def check_field(self, u: np.ndarray) -> np.ndarray:
        """Validate a field against this grid and return it as a flat array."""
        u = np.asarray(u, dtype=float)
        if u.shape == self.shape:
            u = u.ravel()
        if u.shape != (self.num_nodes,):
            raise GridError(
                f"field has {u.size} samples, grid has {self.num_nodes} nodes"
            )
        if not np.all(np.isfinite(u)):
            raise GridError("field contains non-finite samples")
        return u

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Quadrature (discrete L2) inner product."""
        return float(np.dot(self.weights * np.asarray(u), np.asarray(v)))

    def norm(self, u: np.ndarray) -> float:
        """Quadrature L2 norm."""
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def lp_norm(self, u: np.ndarray, p: float) -> float:
        """Quadrature L^p norm, p < infinity.

        Computed as M (sum w |u/M|^p)^(1/p) with M = max|u|, so |u|^p neither
        overflows nor underflows where the norm itself is a finite float.
        """
        mag = np.abs(u)
        scale = float(np.max(mag))
        if scale == 0.0:
            return 0.0
        return scale * float(np.sum(self.weights * (mag / scale) ** p) ** (1.0 / p))

    # -- discrete operators -------------------------------------------------

    def _stiffness_1d(self) -> sp.csr_matrix:
        # K = (1/h) tridiag(-1, 2, -1) including the two Dirichlet ghost edges;
        # <-lap u, v>_w = u^T K v in 1-D.
        n, h = self.points_per_axis, self.spacing
        main = np.full(n, 2.0)
        off = np.full(n - 1, -1.0)
        return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h

    def _on_every_axis(self, m1: sp.spmatrix) -> sp.csr_matrix:
        # a 1-D operator acting along every axis: m1 itself in 1-D, the
        # Kronecker sum m1 ⊗ I + I ⊗ m1 in 2-D
        return (m1 if self.ndim == 1 else sp.kronsum(m1, m1)).tocsr()

    def neg_laplacian_matrix(self) -> sp.csr_matrix:
        """Sparse matrix of -Δ_h acting on flat fields (divergence form)."""
        return self._on_every_axis(sp.diags(1.0 / self.axis_weights) @ self._stiffness_1d())

    def symmetrized_stiffness(self) -> sp.csr_matrix:
        """W^{1/2} (-Δ_h) W^{-1/2}, a symmetric sparse matrix.

        Eigenproblems and linear solves are run in this frame; a flat field u
        corresponds to W^{1/2} u there.
        """
        d = sp.diags(1.0 / np.sqrt(self.axis_weights))
        return self._on_every_axis(d @ self._stiffness_1d() @ d)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Grid(ndim={self.ndim}, half_width={self.half_width}, "
            f"points_per_axis={self.points_per_axis})"
        )


def make_grid(
    ndim: int, half_width: float, points_per_axis: int, max_nodes: int = MAX_NODES_DEFAULT
) -> Grid:
    """Build a uniform grid on [-L, L]^ndim.

    points_per_axis must be odd (keeps x = 0 a node so even/odd symmetry is
    exact) and at least 3; the total node count is capped by max_nodes.
    half_width must leave the node radii and the Laplacian's 1/h^2 finite.
    """
    if ndim not in (1, 2):
        raise GridError(f"ndim must be 1 or 2, got {ndim}")
    if not half_width > 0:
        raise GridError(f"half_width must be positive, got {half_width}")
    n = int(points_per_axis)
    if n < 3:
        raise GridError(f"points_per_axis must be >= 3, got {n}")
    if n % 2 == 0:
        raise GridError(f"points_per_axis must be odd, got {n}")
    if n**ndim > max_nodes:
        raise GridError(
            f"grid would have {n**ndim} nodes, exceeding the cap {max_nodes}"
        )
    # Python floats overflow to inf and underflow to 0 here without a warning
    h = 2.0 * half_width / (n - 1)
    if not (math.isfinite(ndim * half_width * half_width) and h * h > 0
            and math.isfinite(1.0 / (h * h))):
        raise GridError(
            f"half_width = {half_width!r} with {n} points per axis leaves the "
            "node radii or 1/h^2 not finite"
        )
    return Grid(ndim, half_width, n)


def apply_laplacian(grid: Grid, field: np.ndarray) -> np.ndarray:
    """Apply the discrete Laplacian Δ_h with Dirichlet halo to a field."""
    u = grid.check_field(field)
    return -(grid.neg_laplacian_matrix() @ u)


def field_norms(grid: Grid, field: np.ndarray) -> FieldNorms:
    """L2, gradient and H1 norms of a field.

    The gradient seminorm uses forward differences with the Dirichlet closure
    (one ghost zero on each side of every grid line), weighted so that
    grad_l2^2 equals the quadrature pairing <-Δ_h u, u> exactly.
    """
    u = grid.check_field(field)
    l2sq = grid.inner(u, u)
    h = grid.spacing
    if grid.ndim == 1:
        padded = np.concatenate(([0.0], u, [0.0]))
        diffs = np.diff(padded) / h
        gradsq = h * float(np.sum(diffs * diffs))
    else:
        n = grid.points_per_axis
        U = u.reshape(n, n)
        wt = grid.axis_weights
        gradsq = 0.0
        for axis in (0, 1):
            # D[0] = U[0], D[1:n] = U[1:] - U[:-1], D[n] = -U[-1] along the
            # axis: the differences of U padded with one zero at each end,
            # without building the padded copy
            D = np.empty((n + 1, n) if axis == 0 else (n, n + 1))
            Dv, Uv = (D, U) if axis == 0 else (D.T, U.T)
            Dv[0] = Uv[0]
            np.subtract(Uv[1:], Uv[:-1], out=Dv[1:n])
            Dv[n] = -Uv[-1]
            D /= h
            # edge weight h along the differenced axis, trapezoid across it
            trans = wt[np.newaxis, :] if axis == 0 else wt[:, np.newaxis]
            gradsq += h * float(np.sum(D * D * trans))
    l2 = np.sqrt(max(l2sq, 0.0))
    grad = np.sqrt(max(gradsq, 0.0))
    return FieldNorms(l2=l2, grad_l2=grad, h1=float(np.hypot(l2, grad)))


def tail_mass(grid: Grid, field: np.ndarray, radius: float) -> float:
    """Quadrature mass of u^2 over the annulus |x| >= radius."""
    u = grid.check_field(field)
    if radius < 0:
        raise GridError(f"radius must be nonnegative, got {radius}")
    if radius > grid.half_width:
        raise GridError(
            f"radius {radius} exceeds the box half-width {grid.half_width}"
        )
    mask = grid.radii >= radius
    return float(np.sum(grid.weights[mask] * u[mask] ** 2))
