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

Both -Δ_h = W^{-1} K and its symmetrization W^{1/2} (-Δ_h) W^{-1/2} = d K d
(K the stiffness on every axis, W the quadrature weights, d = W^{-1/2}) come
from one builder in one stencil format, (diag, upper, lower): the diagonal
over the flat field, and along every axis the entry in row k, column k + 1
and the one in row k + 1, column k.  apply_stencil applies either.

Both are Kronecker sums of one 1-D stencil, so the weights, the points, the
stencils, their product and the norms all loop over one per-axis table of
index tuples that the grid builds once, Grid.axes, as does the assembly of
the sparse S: 1-D is the one-axis case of the 2-D code.  Fields are flat,
C-ordered ``numpy`` arrays with one real sample per node; all operations are
pure.  The module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the most nodes a grid may have: guards against accidentally gigantic grids
MAX_NODES_DEFAULT = 8_000_000


class GridError(ValueError):
    """Invalid grid construction or a field/grid mismatch."""


@dataclass
class FieldNorms:
    """Discrete L2 norm, gradient seminorm and H1 norm of a field."""

    l2: float
    grad_l2: float
    h1: float


class _Axis(NamedTuple):
    """One axis a of the node array, as index tuples built once."""

    plus: tuple  # selects node k + 1 of every neighbour pair (k, k + 1) along a
    minus: tuple  # selects node k of every such pair
    along: tuple  # indexes a per-axis array of length n or n - 1 to broadcast along a
    edges: tuple  # the node array's shape with n + 1 (edges, ghosts included) at a
    across: np.ndarray | float  # trapezoid weights across a; 1.0 in 1-D


class Grid:
    """Uniform grid on [-L, L]^ndim, ndim in {1, 2}, with n (odd) nodes per axis.

    Attributes:
        ndim: spatial dimension, 1 or 2.
        half_width: L, the box half-width.
        points_per_axis: n, odd so that 0 is a node.
        spacing: h = 2L/(n-1).
        axis: the 1-D node coordinates, shape (n,).
        shape: the node array's shape, (n,) * ndim; a field is flat.
        axes: the per-axis table, one _Axis per axis; 1-D is its one-axis case.
        num_nodes: n**ndim.
        weights: flat trapezoid quadrature weights, shape (num_nodes,).
        sqrt_weights: their square roots, the diagonal of W^{1/2}.
        points: flat node coordinates, shape (num_nodes, ndim).

    Its two stencils (neg_laplacian_stencil, symmetrized_stencil) are built
    on each call and not kept: the Hamiltonian holds both, applies A with one,
    counts with and assembles S from the other.
    """

    def __init__(self, ndim: int, half_width: float, points_per_axis: int):
        """GridError for arguments make_grid does not admit: every grid,
        however built, passes its checks."""
        if ndim not in (1, 2):  # 3-D needs Krylov solves: SuperLU fill and the count blow up
            raise GridError(f"ndim must be 1 or 2, got {ndim}")
        if not half_width > 0:
            raise GridError(f"half_width must be positive, got {half_width}")
        # 401.7 must not truncate to 401; NaN and inf fail too
        if not (points_per_axis % 2 == 1 and points_per_axis >= 3):
            raise GridError(f"points_per_axis must be an odd integer >= 3, got {points_per_axis}")
        n = int(points_per_axis)
        if n**ndim > MAX_NODES_DEFAULT:
            raise GridError(f"grid would have {n**ndim} nodes, exceeding the cap {MAX_NODES_DEFAULT}")
        # Python floats overflow to inf and underflow to 0 here without a warning
        h = 2.0 * half_width / (n - 1)
        if not (math.isfinite(ndim * half_width * half_width) and h * h > 0
                and math.isfinite(1.0 / (h * h))):
            raise GridError(
                f"half_width = {half_width!r} with {n} points per axis leaves the "
                "node radii or 1/h^2 not finite"
            )
        self.ndim = int(ndim)
        self.half_width = float(half_width)
        self.points_per_axis = n
        L = self.half_width
        self.spacing = 2.0 * L / (n - 1)
        self.axis = np.linspace(-L, L, n)
        self.axis_weights = axis_w = np.full(n, self.spacing)
        axis_w[0] = axis_w[-1] = self.spacing / 2.0
        self.shape = (n,) * self.ndim
        dims = range(self.ndim)
        alongs = [(...,) + (None,) * (self.ndim - 1 - a) for a in dims]
        w_along = [axis_w[along] for along in alongs]
        self.axes = tuple(_Axis(
            plus=(slice(None),) * a + (slice(1, None),),
            minus=(slice(None),) * a + (slice(None, -1),),
            along=alongs[a],
            edges=tuple(n + (b == a) for b in dims),
            across=math.prod(w_along[:a] + w_along[a + 1:], start=1.0),
        ) for a in dims)
        self.weights = math.prod(w_along[1:], start=w_along[0]).ravel()  # 1-D: no copy
        self.points = np.column_stack(
            [np.broadcast_to(self.axis[along], self.shape).ravel() for along in alongs])
        self.num_nodes = self.weights.size
        self.sqrt_weights = np.sqrt(self.weights)
        self.radii = np.sqrt(np.sum(self.points**2, axis=1))

    # -- basic structure ---------------------------------------------------

    def check_field(self, u: np.ndarray) -> np.ndarray:
        """Validate a field, a flat array of one value per node, and return
        it as a float array."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.num_nodes,):
            raise GridError(f"field of shape {u.shape} is not a flat array of the "
                            f"grid's {self.num_nodes} nodes")
        if not np.all(np.isfinite(u)):
            raise GridError("field contains non-finite samples")
        return u

    def check_radius(self, radius: float) -> None:
        """GridError unless 0 <= radius <= half_width (a NaN fails)."""
        if not 0 <= radius <= self.half_width:
            raise GridError(f"radius {radius} must lie between 0 and the box "
                            f"half-width {self.half_width}")

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

    def _stencil(self, left: np.ndarray,
                 right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # m = diag(left) K diag(right) on every axis (the Kronecker sum
        # m ⊗ I + I ⊗ m in 2-D), with K = (1/h) tridiag(-1, 2, -1) the 1-D
        # stiffness with its two Dirichlet ghost edges, so that
        # <-Δ_h u, v>_w = uᵀ K v in 1-D; each entry rounded as
        # (left_i·K_ij)·right_j
        inv_h = 1.0 / self.spacing
        k_diag, k_off = 2.0 * inv_h, -1.0 * inv_h
        diag = (left * k_diag) * right
        diag = sum(diag[ax.along] for ax in self.axes)  # m_ii + m_jj at (i, j)
        return diag.ravel(), (left[:-1] * k_off) * right[1:], (left[1:] * k_off) * right[:-1]

    def neg_laplacian_stencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """-Δ_h, W^{-1} K on every axis, as the stencil (diag, upper, lower)
        of apply_stencil."""
        inv_w = 1.0 / self.axis_weights
        return self._stencil(inv_w, np.ones_like(inv_w))

    def symmetrized_stencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """W^{1/2} (-Δ_h) W^{-1/2}, d K d on every axis with d = W^{-1/2}
        along an axis, as the stencil (diag, upper, lower) of apply_stencil.
        upper[k] = (d_k·K)·d_{k+1} and lower[k] = (d_{k+1}·K)·d_k differ in
        the last bits next to the edges of the box, where d does."""
        d = 1.0 / np.sqrt(self.axis_weights)
        return self._stencil(d, d)

    def apply_stencil(self, diag: np.ndarray, upper: np.ndarray,
                      lower: np.ndarray, u: np.ndarray) -> np.ndarray:
        """M u for the matrix M of a stencil: diagonal `diag` over the flat
        field, and along every axis the entry upper[k] in row k, column
        k + 1 and lower[k] in row k + 1, column k (k, k + 1 the indices of
        two neighbours along that axis).  Row r is summed from zero in
        column order, r - n, r - 1, r, r + 1, r + n, as a CSR product with
        sorted columns sums it, so the result has that product's bits."""
        U = u.reshape(self.shape)
        y = np.zeros(self.shape)
        for ax in self.axes:  # every line along an axis has the same entries
            y[ax.plus] += lower[ax.along] * U[ax.minus]
        y += diag.reshape(self.shape) * U
        for ax in self.axes[::-1]:
            y[ax.minus] += upper[ax.along] * U[ax.plus]
        return y.ravel()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Grid(ndim={self.ndim}, half_width={self.half_width}, "
                f"points_per_axis={self.points_per_axis})")


def make_grid(ndim: int, half_width: float, points_per_axis: int) -> Grid:
    """Build a uniform grid on [-L, L]^ndim.

    points_per_axis must be odd (keeps x = 0 a node so even/odd symmetry is
    exact) and at least 3; the total node count is capped by
    MAX_NODES_DEFAULT.  half_width must leave the node radii and the Laplacian's 1/h^2 finite.
    Other arguments raise GridError; Grid itself checks them, so a grid
    built directly passes the same checks.
    """
    return Grid(ndim, half_width, points_per_axis)


def field_norms(grid: Grid, field: np.ndarray) -> FieldNorms:
    """L2, gradient and H1 norms of a field.

    The gradient seminorm uses forward differences with the Dirichlet closure
    (one ghost zero on each side of every grid line), weighted so that
    grad_l2^2 equals the quadrature pairing <-Δ_h u, u> exactly.
    """
    u = grid.check_field(field)
    l2sq = grid.inner(u, u)
    h, n = grid.spacing, grid.points_per_axis
    U = u.reshape(grid.shape)
    gradsq = 0.0
    for a, ax in enumerate(grid.axes):
        # D[0] = U[0], D[1:n] = U[1:] - U[:-1], D[n] = -U[-1] along axis a:
        # the differences of U padded with one zero at each end, without
        # building the padded copy
        D = np.empty(ax.edges)
        Dv, Uv = D.swapaxes(0, a), U.swapaxes(0, a)
        Dv[0] = Uv[0]
        np.subtract(Uv[1:], Uv[:-1], out=Dv[1:n])
        Dv[n] = -Uv[-1]
        D /= h
        # edge weight h along the differenced axis, trapezoid across it
        gradsq += h * float(np.sum(D * D * ax.across))
    l2 = np.sqrt(max(l2sq, 0.0))
    grad = np.sqrt(max(gradsq, 0.0))
    return FieldNorms(l2=l2, grad_l2=grad, h1=float(np.hypot(l2, grad)))


def tail_mass(grid: Grid, field: np.ndarray, radius: float) -> float:
    """Quadrature mass of u^2 over the annulus |x| >= radius; GridError for
    a radius outside [0, half-width], NaN included."""
    u = grid.check_field(field)
    grid.check_radius(radius)
    mask = grid.radii >= radius
    return float(np.sum(grid.weights[mask] * u[mask] ** 2))
