"""Hamiltonian assembly, eigensolves, Morse counts, projections, resolvent."""

import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import resonance_lab as rl
from resonance_lab import semiflow, spectral
from resonance_lab.bifurcation import summarize_branch
from resonance_lab.cli import EXIT_NUMERICAL, main
from resonance_lab.grid import GridError
from resonance_lab.reporting import read_eigenpairs, write_eigenpairs
from resonance_lab.spectral import ResonantLambdaError, SpectralError


def _tridiagonal_oracle(half_width, n, v_of_x, ceiling):
    """Independent dense 1-D eigenvalue oracle built from first principles."""
    x = np.linspace(-half_width, half_width, n)
    h = 2 * half_width / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    diag = 2.0 / (h * w) + v_of_x(x)
    off = -1.0 / (h * np.sqrt(w[:-1] * w[1:]))
    vals = sla.eigh_tridiagonal(diag, off, select="v",
                                select_range=(np.min(v_of_x(x)) - 1.0, ceiling),
                                eigvals_only=True)
    return vals


def test_assemble_zero_potential_constant_interior():
    g = rl.make_grid(1, 5.0, 201)
    pot = rl.make_potential(g, "constant", c=0.0)
    op = rl.assemble_hamiltonian(g, pot)
    out = op.apply(np.full(g.num_nodes, 2.0))
    assert np.all(out[1:-1] == 0.0)


def test_assemble_diagonal_shift(rng):
    g = rl.make_grid(1, 5.0, 201)
    op0 = rl.assemble_hamiltonian(g, rl.make_potential(g, "constant", c=0.0))
    op3 = rl.assemble_hamiltonian(g, rl.make_potential(g, "constant", c=3.0))
    u = rng.standard_normal(g.num_nodes)
    assert np.allclose(op3.apply(u), op0.apply(u) + 3.0 * u, rtol=1e-14)


def test_assemble_grid_mismatch():
    g1 = rl.make_grid(1, 5.0, 201)
    g2 = rl.make_grid(1, 5.0, 101)
    pot = rl.make_potential(g2, "constant", c=0.0)
    with pytest.raises(GridError):
        rl.assemble_hamiltonian(g1, pot)


def test_operator_self_adjoint_and_quadratic_form(rng, pt_grid, pt_op):
    for _ in range(10):
        u = rng.standard_normal(pt_grid.num_nodes)
        v = rng.standard_normal(pt_grid.num_nodes)
        auv = pt_grid.inner(pt_op.apply(u), v)
        uav = pt_grid.inner(u, pt_op.apply(v))
        assert abs(auv - uav) <= 1e-12 * max(abs(auv), 1.0)
        # <Au, u> = grad^2 + <Vu, u>, exact by construction
        qf = pt_grid.inner(pt_op.apply(u), u)
        expect = rl.field_norms(pt_grid, u).grad_l2 ** 2 + pt_grid.inner(
            pt_op.v_samples * u, u
        )
        assert abs(qf - expect) <= 1e-10 * max(abs(expect), 1.0)


def test_poschl_teller_ground_rayleigh(pt_grid, pt_op):
    guess = 1.0 / np.cosh(pt_grid.axis) ** 2
    rayleigh = pt_grid.inner(pt_op.apply(guess), guess) / pt_grid.inner(guess, guess)
    assert rayleigh < -3.9


def test_eigenpairs_empty_for_positive_operator():
    g = rl.make_grid(1, 20.0, 1001)
    op = rl.assemble_hamiltonian(g, rl.make_potential(g, "constant", c=0.0))
    data = rl.eigenpairs_below(op, ceiling=-0.1)
    assert len(data.eigenvalues) == 0
    assert data.multiplets == []


def test_eigenpairs_poschl_teller_oracle(pt_data):
    # closed form -(ell - j)^2 -> {-4, -1}; cross-checked against an
    # independently assembled dense tridiagonal solve
    assert len(pt_data.eigenvalues) == 2
    assert np.allclose(pt_data.eigenvalues, [-4.0, -1.0], atol=1e-3)
    oracle = _tridiagonal_oracle(20.0, 4001, lambda x: -6.0 / np.cosh(x) ** 2, -0.1)
    assert np.allclose(pt_data.eigenvalues, oracle, atol=1e-9)
    assert np.all(pt_data.residuals <= 1e-8)


def test_eigenfields_orthonormal(pt_grid, pt_data):
    k = pt_data.eigenfields.shape[1]
    for i in range(k):
        for j in range(k):
            ip = pt_grid.inner(pt_data.eigenfields[:, i], pt_data.eigenfields[:, j])
            assert abs(ip - (1.0 if i == j else 0.0)) <= 1e-10


def test_eigenpairs_2d_separable_sum_oracle():
    # V(x, y) = -6/cosh^2 x - 6/cosh^2 y is separable, so the 2-D discrete
    # eigenvalues are exactly pairwise sums of the 1-D discrete ones.  The
    # potential does not decay along the axes (alpha_inf = -6), so only the
    # ground level sits below the ceiling.
    g = rl.make_grid(2, 12.0, 241)

    def ev(pts):
        return -6.0 / np.cosh(pts[:, 0]) ** 2 - 6.0 / np.cosh(pts[:, 1]) ** 2

    pot = rl.make_potential(g, "custom", evaluator=ev, alpha_inf=-6.0,
                            cutoff_radius=1.0, p=3.0)
    op = rl.assemble_hamiltonian(g, pot)
    assert op.alpha_inf == -6.0
    data = rl.eigenpairs_below(op, ceiling=-6.5)
    one_d = _tridiagonal_oracle(12.0, 241, lambda x: -6.0 / np.cosh(x) ** 2, -0.1)
    sums = sorted(a + b for a in one_d for b in one_d if a + b < -6.5)
    assert np.allclose(data.eigenvalues, sums, atol=1e-8)


def test_eigenpairs_2d_square_well_degenerate_pair():
    # symmetric square well: the (1,2)/(2,1) level is exactly degenerate on
    # the symmetric grid and clusters into one multiplet of multiplicity 2
    g = rl.make_grid(2, 6.0, 121)
    pot = rl.make_potential(g, "square_well", depth=-50.0, width=2.0)
    op = rl.assemble_hamiltonian(g, pot)
    data = rl.eigenpairs_below(op)
    assert abs(op.alpha_inf) < 1e-12
    mults = [len(idx) for _, idx in data.multiplets]
    assert len(mults) >= 2
    assert mults[0] == 1 and mults[1] == 2
    pair = data.multiplets[1][1]
    raw = data.eigenvalues[pair]
    assert abs(raw[0] - raw[1]) < 1e-9


def test_eigenpairs_max_count_guard(pt_op):
    with pytest.raises(SpectralError):
        rl.eigenpairs_below(pt_op, max_count=1)


@pytest.mark.parametrize("n", [401, 4001])
def test_eigenpairs_max_count_guard_at_the_count(n):
    # two eigenvalues (-4, -1) below the ceiling reach max_count = 2 on a
    # coarse grid as on a fine one
    g = rl.make_grid(1, 10.0, n)
    op = rl.assemble_hamiltonian(g, rl.make_potential(g, "poschl_teller", ell=2))
    assert spectral._count_below(op, op.alpha_inf) == 2
    with pytest.raises(SpectralError, match="max_count = 2"):
        rl.eigenpairs_below(op, max_count=2)


def test_eigenpairs_refuse_grid_without_states_above_ceiling(eigsh_calls):
    # V = -1000 on the whole box, which the cutoff ball covers: alpha_inf = 0
    # and all 11 eigenvalues lie below it
    g = rl.make_grid(1, 5.0, 11)
    pot = rl.make_potential(g, "custom", evaluator=lambda pts: np.full(len(pts), -1000.0),
                            alpha_inf=0.0, cutoff_radius=10.0)
    op = rl.assemble_hamiltonian(g, pot)
    assert op.alpha_inf == 0.0
    assert np.all(np.linalg.eigvalsh(op.sym_matrix.toarray()) < 0.0)
    with pytest.raises(SpectralError, match="11 of the grid's 11 eigenvalues"):
        rl.eigenpairs_below(op)
    assert eigsh_calls == []


def test_eigenpairs_ceiling_guard(pt_op):
    with pytest.raises(SpectralError):
        rl.eigenpairs_below(pt_op, ceiling=2.0)


@pytest.fixture(scope="module")
def well_op():
    # 2209 nodes with 19 eigenvalues below the ceiling: more than the floor
    # of 8 on the eigsh block
    g = rl.make_grid(2, 6.0, 47)
    return rl.assemble_hamiltonian(
        g, rl.make_potential(g, "square_well", depth=-50.0, width=2.0)
    )


def test_eigenpairs_sized_by_inertia(well_op, eigsh_calls):
    count = spectral._count_below(well_op, well_op.alpha_inf)
    assert count > 8
    data = rl.eigenpairs_below(well_op)
    assert eigsh_calls == [count + 1]
    ref = np.linalg.eigvalsh(well_op.sym_matrix.toarray())
    ref = ref[ref < well_op.alpha_inf]
    assert len(ref) == count
    np.testing.assert_allclose(data.eigenvalues, ref, rtol=1e-10, atol=0)


def test_eigenpairs_max_count_guard_precedes_eigsh(well_op, eigsh_calls):
    count = spectral._count_below(well_op, well_op.alpha_inf)
    with pytest.raises(SpectralError, match="max_count"):
        rl.eigenpairs_below(well_op, max_count=count)
    assert eigsh_calls == []


def _broken_block(ldu, ipiv, info, fault):
    """A dsytrf result that fails one of the sweep's checks: a singular block
    (info > 0, an exactly zero pivot), a 1×1 pivot of 1e-300, or a 2×2 pivot
    [[0, 1e-150], [1e-150, 0]] (eigenvalues ±1e-150)."""
    mid = len(ipiv) // 2
    ldu, ipiv = ldu.copy(), ipiv.copy()
    if fault == "singular":
        return ldu, ipiv, mid + 1
    if fault == "tiny pivot":
        ipiv[mid] = mid + 1
        ldu[mid, mid] = 1e-300
    else:  # "tiny 2x2 pivot", rows mid and mid + 1, interchanged with nothing
        ipiv[mid] = ipiv[mid + 1] = -(mid + 1)
        ldu[mid, mid] = ldu[mid + 1, mid + 1] = 0.0
        ldu[mid + 1, mid] = 1e-150
    return ldu, ipiv, info


@pytest.mark.parametrize("fault", ["singular", "tiny pivot", "tiny 2x2 pivot"])
def test_inertia_count_nudges_past_breakdown(fault, well_op, eigsh_calls,
                                             monkeypatch):
    count = spectral._count_below(well_op, well_op.alpha_inf)
    n = well_op.grid.points_per_axis
    # the first line block of S - alpha_inf I, the one the fault is put in
    first = well_op.sym_matrix.diagonal()[:n] - well_op.alpha_inf
    real_dsytrf = spectral.lapack.dsytrf
    blocks = []

    def dsytrf(a, *args, **kwargs):
        at_ceiling = np.array_equal(np.diag(a), first)
        blocks.append(at_ceiling)
        factor = real_dsytrf(a, *args, **kwargs)
        return _broken_block(*factor, fault) if at_ceiling else factor

    monkeypatch.setattr(spectral.lapack, "dsytrf", dsytrf)
    data = rl.eigenpairs_below(well_op)
    # the sweep at the ceiling stops at its first block; the nudged one
    # factors every line
    assert blocks == [True] + [False] * n
    assert len(data.eigenvalues) == count
    assert eigsh_calls == [count + 1]


def test_sturm_count_nudges_past_a_zero_pivot():
    # mu = S_11 makes the first pivot of the 1-D recurrence exactly zero
    g = rl.make_grid(1, 10.0, 401)
    op = rl.assemble_hamiltonian(g, rl.make_potential(g, "poschl_teller", ell=2))
    mu = float(op.sym_matrix[0, 0])
    ref = np.linalg.eigvalsh(op.sym_matrix.toarray())
    assert np.min(np.abs(ref - mu)) > 1e-8 * spectral._spectral_scale(op, mu)
    assert spectral._count_below(op, mu) == np.count_nonzero(ref < mu)


def test_inertia_count_makes_no_splu_call(well_op, pt_op, monkeypatch):
    calls = []

    def splu(A, *args, **kwargs):
        calls.append(A.shape)
        raise AssertionError("splu called")

    monkeypatch.setattr(spectral.spla, "splu", splu)
    monkeypatch.setattr(sys.modules[spectral.spla.eigsh.__module__], "splu", splu)
    # 19 eigenvalues below the well's ceiling, and -4, -1 below Pöschl-Teller's
    assert spectral._count_below(well_op, well_op.alpha_inf) == 19
    assert spectral._count_below(pt_op, pt_op.alpha_inf) == 2
    assert calls == []


def test_inertia_count_breakdown_at_every_nudge_raises(well_op, eigsh_calls,
                                                       monkeypatch):
    real_dsytrf = spectral.lapack.dsytrf

    def dsytrf(a, *args, **kwargs):
        return _broken_block(*real_dsytrf(a, *args, **kwargs), "singular")

    monkeypatch.setattr(spectral.lapack, "dsytrf", dsytrf)
    with pytest.raises(SpectralError, match="broke down"):
        rl.eigenpairs_below(well_op)
    assert eigsh_calls == []


def test_eigenpairs_raise_when_eigsh_misses_a_pair(well_op, monkeypatch):
    real_eigsh = spectral.spla.eigsh

    def eigsh(*args, **kwargs):
        vals, vecs = real_eigsh(*args, **kwargs)
        return vals[1:], vecs[:, 1:]

    monkeypatch.setattr(spectral.spla, "eigsh", eigsh)
    with pytest.raises(SpectralError, match="inertia"):
        rl.eigenpairs_below(well_op)


def test_stored_eigenpairs_come_back_bit_for_bit(well_op, eigsh_calls, tmp_path):
    # the degenerate pair is re-orthonormalized by the solve and not again
    data = rl.eigenpairs_below(well_op)
    assert any(len(idx) > 1 for _, idx in data.multiplets)
    path = tmp_path / "pairs.npz"
    write_eigenpairs(path, "k", data.eigenvalues, data.eigenfields)
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.npz"]
    assert read_eigenpairs(path, "other") is None
    again = rl.reuse_eigenpairs(well_op, *read_eigenpairs(path, "k"))
    assert eigsh_calls == [len(data.eigenvalues) + 1]
    for name in ("eigenvalues", "eigenfields", "residuals"):
        assert np.array_equal(getattr(again, name), getattr(data, name))
    assert again.multiplets == data.multiplets
    assert (again.ceiling, again.cluster_tol) == (data.ceiling, data.cluster_tol)


def test_reuse_keeps_the_checks_of_a_solve(well_op):
    data = rl.eigenpairs_below(well_op)
    vals, fields = data.eigenvalues, data.eigenfields
    with pytest.raises(SpectralError, match="max_count"):
        rl.reuse_eigenpairs(well_op, vals, fields, max_count=len(vals))
    with pytest.raises(SpectralError, match="ascending"):
        rl.reuse_eigenpairs(well_op, vals[::-1], fields[:, ::-1])
    with pytest.raises(SpectralError, match="fit a grid"):
        rl.reuse_eigenpairs(well_op, vals, fields.astype(np.float32))
    with pytest.raises(SpectralError, match="residual"):
        rl.reuse_eigenpairs(well_op, vals, fields, tol_eig=1e-16)
    nan_field = fields.copy()
    nan_field[0, 0] = np.nan
    with pytest.raises(SpectralError, match="orthonormal"):
        rl.reuse_eigenpairs(well_op, vals, nan_field)


@st.composite
def _small_problems(draw):
    """A small 1-D or 2-D grid with a Pöschl-Teller or square-well potential."""
    ndim = draw(st.sampled_from([1, 2]))
    n = 2 * draw(st.integers(1, 40 if ndim == 1 else 12)) + 1
    g = rl.make_grid(ndim, draw(st.floats(2.0, 12.0)), n)
    if draw(st.booleans()):
        pot = rl.make_potential(g, "poschl_teller", ell=draw(st.floats(0.5, 4.0)))
    else:
        pot = rl.make_potential(g, "square_well", depth=draw(st.floats(-60.0, -1.0)),
                                width=draw(st.floats(0.5, 4.0)))
    return rl.assemble_hamiltonian(g, pot)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(op=_small_problems())
def test_small_grid_spectrum_matches_dense_oracle(op):
    ceiling = op.alpha_inf
    ref = np.linalg.eigvalsh(op.sym_matrix.toarray())
    assert op.spectrum_lower_bound() <= ref[0]
    scale = spectral._spectral_scale(op, ceiling)
    assume(np.min(np.abs(ref - ceiling)) > 1e-8 * scale)
    ref = ref[ref < ceiling]
    assert spectral._count_below(op, ceiling) == len(ref)
    assume(len(ref) <= op.grid.num_nodes - 2)  # refused, tested above
    data = rl.eigenpairs_below(op, max_count=op.grid.num_nodes)
    np.testing.assert_allclose(data.eigenvalues, ref, rtol=0, atol=1e-9 * scale)


@st.composite
def _coulomb_problems(draw):
    """A small 1-D or 2-D grid with an attractive Coulomb potential, capped or
    with its center moved off the nodes."""
    ndim = draw(st.sampled_from([1, 2]))
    n = 2 * draw(st.integers(1, 40 if ndim == 1 else 12)) + 1
    g = rl.make_grid(ndim, draw(st.floats(2.0, 12.0)), n)
    pot = rl.make_potential(g, "coulomb", c=draw(st.floats(-20.0, -0.5)),
                            alpha=draw(st.floats(0.05, 0.45)),
                            policy=draw(st.sampled_from(["cap", "offset"])))
    return rl.assemble_hamiltonian(g, pot)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(op=st.one_of(_small_problems(), _coulomb_problems()),
       where=st.floats(-0.1, 1.1))
def test_inertia_count_matches_dense_oracle(op, where):
    # anywhere from below the spectrum to above it, continuum included
    ref = np.linalg.eigvalsh(op.sym_matrix.toarray())
    mu = float(ref[0] + where * (ref[-1] - ref[0]))
    assume(np.min(np.abs(ref - mu)) >= 1e-8 * spectral._spectral_scale(op, mu))
    assert spectral._count_below(op, mu) == np.count_nonzero(ref < mu)


def _splu_count(op, mu):
    """An independent Sylvester count: SuperLU in symmetric mode (minimum-degree
    ordering of S + Sᵀ, no pivoting), trusted only when it kept the symmetric
    permutation and no pivot is tiny."""
    S = op.sym_matrix
    lu = spla.splu((S - mu * sp.identity(S.shape[0], format="csc")).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    d = lu.U.diagonal()
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert np.min(np.abs(d)) > 1e-12 * spectral._spectral_scale(op, mu)
    return int(np.count_nonzero(d < 0))


def test_inertia_count_equals_superlu_on_the_81_well():
    # the 2-D benchmark problem: at the ceiling and between every two
    # neighbouring multiplets
    g = rl.make_grid(2, 6.0, 81)
    op = rl.assemble_hamiltonian(
        g, rl.make_potential(g, "square_well", depth=-50.0, width=2.0)
    )
    data = rl.eigenpairs_below(op)
    centers = [c for c, _ in data.multiplets]
    assert len(centers) > 5
    below = np.cumsum([len(idx) for _, idx in data.multiplets])
    for mu, expected in [(op.alpha_inf, below[-1]),
                         *zip(0.5 * np.add(centers[:-1], centers[1:]), below[:-1])]:
        count = spectral._count_below(op, float(mu))
        assert count == _splu_count(op, float(mu)) == expected, mu


def test_inertia_count_holds_a_few_line_blocks():
    # at 161², a few n×n blocks and diagonals of n² entries, where the
    # SuperLU factor of S - mu I fills to some 40 n²
    n = 161
    g = rl.make_grid(2, 6.0, n)
    op = rl.assemble_hamiltonian(
        g, rl.make_potential(g, "square_well", depth=-50.0, width=2.0)
    )
    tracemalloc.start()
    try:
        count = spectral._count_below(op, op.alpha_inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 19
    assert peak < 16 * n**2 * 8, peak / (8 * n**2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(op=_small_problems(), level=st.integers(0, 7), where=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_projections_and_resolvent_bound_on_random_grids(op, level, where, seed):
    # P + Q_- + Q_+ = I as actions, and z = [(A - λ)|_X]^{-1} Q w obeys
    # ||z|| <= ||Qw|| / δ anywhere in the window, at any computed level
    try:
        data = rl.eigenpairs_below(op, max_count=op.grid.num_nodes)
        assume(data.multiplets)
        proj = rl.build_projections(data, data.multiplets[level % len(data.multiplets)][0])
    except SpectralError:  # refused grids, tested above
        assume(False)
    g = op.grid
    w = np.random.default_rng(seed).standard_normal(g.num_nodes)
    parts = proj.project_kernel(w) + proj.project_below(w) + proj.project_above(w)
    assert g.norm(parts - w) <= 1e-10 * g.norm(w)
    z = rl.apply_resolvent_complement(proj, proj.lambda0 + where * proj.delta, w)
    assert g.norm(z) <= g.norm(proj.project_complement(w)) / proj.delta * (1 + 1e-9)


@pytest.fixture
def splu_spy(monkeypatch):
    """A list that records (matrix, kwargs, factor) of every splu call, and
    the unpatched splu.  ARPACK's module is patched too, so a factorization
    it made itself would show."""
    calls = []
    real_splu = spectral.spla.splu

    def splu(A, *args, **kwargs):
        lu = real_splu(A, *args, **kwargs)
        calls.append((A, kwargs, lu))
        return lu

    monkeypatch.setattr(spectral.spla, "splu", splu)
    monkeypatch.setattr(sys.modules[spectral.spla.eigsh.__module__], "splu", splu)
    return calls, real_splu


def _factorizations_by_site(op, calls, shifts=None):
    """The splu calls of each factorization site on op's grid: the
    shift-invert factor of the eigensolve (its inertia count makes none), the
    deflated resolvent at λ0 - δ/2 of the second multiplet, and the IMEX
    matrix at that λ.  A shifts dict is filled with each site's (λ, dt)."""
    calls.clear()
    data = rl.eigenpairs_below(op)
    sites = {"sigma": list(calls)}
    proj = rl.build_projections(data, data.multiplets[1][0], 0.25)
    lam = proj.lambda0 - proj.delta / 2
    calls.clear()
    spectral._BorderedResolvent(proj, lam)
    sites["resolvent"] = list(calls)
    calls.clear()
    dt = semiflow.default_dt(op, lam)
    rl.ImexStepper(op, lam, dt)
    sites["imex"] = list(calls)
    if shifts is not None:
        # the eigensolve's σ sits a tenth of the spectral scale below min V
        sigma = (op.spectrum_lower_bound()
                 - 0.1 * spectral._spectral_scale(op, op.alpha_inf))
        shifts.update(sigma=(sigma, None), resolvent=(lam, None), imex=(lam, dt))
    return sites


def test_splu_ordering_by_grid_dimension(well_op, splu_spy):
    splu_calls, real_splu = splu_spy
    # 2-D: the symmetric minimum-degree ordering at all three sites
    for site, calls in _factorizations_by_site(well_op, splu_calls).items():
        assert len(calls) == 1, site
        A, _, lu = calls[0]
        default = real_splu(A)
        nnz, default_nnz = lu.L.nnz + lu.U.nnz, default.L.nnz + default.U.nnz
        assert nnz <= 0.65 * default_nnz, (site, nnz, default_nnz)
    # 1-D: tridiagonal, no fill to save; every site keeps SuperLU's default
    g = rl.make_grid(1, 20.0, 2401)
    op = rl.assemble_hamiltonian(g, rl.make_potential(g, "poschl_teller", ell=2))
    for site, calls in _factorizations_by_site(op, splu_calls).items():
        assert len(calls) == 1, site
        assert calls[0][1].get("permc_spec", "COLAMD") == "COLAMD", site


@pytest.mark.parametrize("problem", ["pt1d", "well2d"])
def test_every_site_factors_the_sparse_sum(problem, pt_op, well_op, splu_spy):
    # the one construction of the operator, entry by entry the sparse sum
    # S - λI (I + dt (S - λI) for the IMEX matrix), in S's own CSC pattern:
    # a shift inserts no entry, which would move the SuperLU ordering
    op = pt_op if problem == "pt1d" else well_op
    splu_calls, _ = splu_spy
    shifts = {}
    sites = _factorizations_by_site(op, splu_calls, shifts)
    S = op.sym_matrix
    eye = sp.identity(S.shape[0], format="csc")
    for site, calls in sites.items():
        assert len(calls) == 1, site
        lam, dt = shifts[site]
        expected = (S - lam * eye).tocsc()
        if dt is not None:
            expected = (eye + dt * expected).tocsc()
        A = calls[0][0]
        assert A.format == "csc", site
        assert np.array_equal(A.indptr, S.indptr) and np.array_equal(A.indices, S.indices)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, part), getattr(expected, part)), (site, part)


def test_shift_invert_factor_failure_is_spectral_error(well_op, tmp_path,
                                                       monkeypatch):
    real_splu = spectral.spla.splu
    diag, lower = well_op.sym_matrix.diagonal(), well_op.spectrum_lower_bound()

    def splu(A, *args, **kwargs):
        if np.median(diag - A.diagonal()) < lower:  # σ sits below the spectrum
            raise RuntimeError("Factor is exactly singular")
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", splu)
    with pytest.raises(SpectralError, match="eigensolver failed"):
        rl.eigenpairs_below(well_op)
    config = tmp_path / "well.ini"
    config.write_text(
        "[grid]\nndim = 2\nhalf_width = 6.0\npoints_per_axis = 47\n"
        "[potential]\nfamily = square_well\ndepth = -50.0\nwidth = 2.0\n"
    )
    code = main(["spectrum", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL


def test_splu_ordering_changes_no_result(well_op, flow, monkeypatch):
    """The ordering is performance-only: the same branch and semiflow under
    SuperLU's default ordering and under minimum degree."""
    spec = rl.saturating_arctan(well_op.grid)

    def run():
        data = rl.eigenpairs_below(well_op)
        proj = rl.build_projections(data, data.multiplets[1][0], 0.5)
        schedule = [proj.lambda0 - proj.delta * 2.0 ** (-k) for k in range(1, 7)]
        branch = rl.continue_branch(schedule, proj, spec)
        report = summarize_branch(branch, proj, spec)
        lam = proj.lambda0 - proj.delta / 2
        u0 = 2.0 * proj.kernel_fields[:, 0]
        _, states = flow(rl.SemiflowState(0.0, u0), lam, 0.2, well_op, spec,
                         stop="time-only")
        return data, branch, report, [s.J for s in states]

    data_mmd, branch_mmd, report_mmd, J_mmd = run()
    # the operator's factor_shifted is the one site that passes an ordering
    real_splu, dropped = spectral.spla.splu, []

    def default_ordering(A, permc_spec=None, **kwargs):
        dropped.append(permc_spec)
        return real_splu(A, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", default_ordering)
    data, branch, report, J = run()
    assert "MMD_AT_PLUS_A" in dropped

    assert [len(i) for _, i in data_mmd.multiplets] == [len(i) for _, i in data.multiplets]
    np.testing.assert_allclose(data_mmd.eigenvalues, data.eigenvalues, rtol=1e-9)
    assert [p.converged for p in branch_mmd] == [p.converged for p in branch]
    assert report_mmd["verdict"]["detected"] == report["verdict"]["detected"]
    for key in ("l2", "h1", "kernel_l2", "energy"):
        np.testing.assert_allclose([getattr(p, key) for p in branch_mmd],
                                   [getattr(p, key) for p in branch], rtol=1e-9)
    assert len(J_mmd) == len(J)
    np.testing.assert_allclose(J_mmd, J, rtol=1e-9)


def test_morse_count_steps(pt_data):
    assert rl.morse_count(pt_data, -5.0).k == 0
    assert rl.morse_count(pt_data, -2.0).k == 1
    assert rl.morse_count(pt_data, -0.5).k == 2
    assert rl.morse_count(pt_data, -0.5).conley_label == "Sigma^2"


def test_morse_count_monotone_sweep(pt_data):
    lams = np.linspace(-5.0, -0.2, 97)
    ks = []
    for lam in lams:
        try:
            ks.append(rl.morse_count(pt_data, lam).k)
        except ResonantLambdaError:
            ks.append(None)
    seen = [k for k in ks if k is not None]
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert seen[0] == 0 and seen[-1] == 2


def test_morse_count_resonant_lambda(pt_data):
    with pytest.raises(ResonantLambdaError):
        rl.morse_count(pt_data, pt_data.eigenvalues[0])


def test_morse_count_checked_by_inertia(pt_data):
    # an eigenvalue the eigensolver missed shows as an inertia mismatch
    missing = dataclasses.replace(pt_data, eigenvalues=pt_data.eigenvalues[1:])
    with pytest.raises(SpectralError, match="inertia"):
        rl.morse_count(missing, -0.5)
    assert rl.morse_count(missing, -5.0).k == 0


def test_build_projections_ground(pt_data):
    proj = rl.build_projections(pt_data, -4.0)
    assert proj.dim_kernel == 1 and proj.dim_below == 0
    u = pt_data.eigenfields[:, 1]
    assert np.allclose(proj.project_below(u), 0.0)


def test_build_projections_excited_gap(pt_data):
    proj = rl.build_projections(pt_data, -1.0)
    assert proj.dim_kernel == 1 and proj.dim_below == 1
    # delta = min(half-gap to -4, half of alpha_inf - lambda0) = 0.5 - O(h^2)
    assert proj.delta <= 0.5 + 1e-4
    assert proj.delta > 0.49
    gap = abs(pt_data.eigenvalues[1] - pt_data.eigenvalues[0])
    assert proj.delta < min(gap, pt_data.alpha_inf - proj.lambda0)


def test_build_projections_unknown_lambda(pt_data):
    with pytest.raises(SpectralError):
        rl.build_projections(pt_data, -2.5)


def test_projection_algebra(rng, pt_grid, pt_proj):
    for _ in range(20):
        u = rng.standard_normal(pt_grid.num_nodes)
        nu = pt_grid.norm(u)
        p = pt_proj.project_kernel(u)
        qm = pt_proj.project_below(u)
        qp = pt_proj.project_above(u)
        assert pt_grid.norm(pt_proj.project_kernel(p) - p) <= 1e-10 * nu
        assert pt_grid.norm(pt_proj.project_below(qm) - qm) <= 1e-10 * nu
        assert pt_grid.norm(p + qm + qp - u) <= 1e-12 * nu
        assert abs(pt_grid.inner(p, qm)) <= 1e-10 * nu**2


def test_projections_self_adjoint(rng, pt_grid, pt_proj):
    u = rng.standard_normal(pt_grid.num_nodes)
    v = rng.standard_normal(pt_grid.num_nodes)
    for proj_fn in (pt_proj.project_kernel, pt_proj.project_below,
                    pt_proj.project_above):
        a = pt_grid.inner(proj_fn(u), v)
        b = pt_grid.inner(u, proj_fn(v))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_resolvent_on_eigenfields(pt_grid, pt_data, pt_proj):
    lam = pt_proj.lambda0 - 0.1
    phi_below = pt_data.eigenfields[:, 0]
    z = rl.apply_resolvent_complement(pt_proj, lam, phi_below)
    expected = phi_below / (pt_data.eigenvalues[0] - lam)
    assert np.allclose(z, expected, atol=1e-9)
    # kernel input is annihilated by the pre-projection
    phi0 = pt_proj.kernel_fields[:, 0]
    z0 = rl.apply_resolvent_complement(pt_proj, lam, phi0)
    assert pt_grid.norm(z0) <= 1e-10


def test_resolvent_residual_and_bound(rng, pt_grid, pt_proj, pt_op, pt_data):
    lam0, delta = pt_proj.lambda0, pt_proj.delta
    others = pt_data.eigenvalues[np.abs(pt_data.eigenvalues - lam0) > 1e-3]
    for lam in (lam0 - delta, lam0 - delta / 3, lam0, lam0 + delta / 3, lam0 + delta):
        for _ in range(4):
            wf = rng.standard_normal(pt_grid.num_nodes)
            q = pt_proj.project_complement(wf)
            z = rl.apply_resolvent_complement(pt_proj, lam, wf)
            resid = pt_grid.norm(pt_op.apply(z) - lam * z - q)
            assert resid <= 1e-8 * pt_grid.norm(q)
            dist = min(
                np.min(np.abs(others - lam)),
                abs(pt_data.alpha_inf - lam),
            )
            assert pt_grid.norm(z) <= pt_grid.norm(q) / dist + 1e-8


def test_resolvent_block_elimination_agrees(pt_op, pt_proj,
                                            block_elimination_agrees):
    block_elimination_agrees(pt_op, pt_proj, seed=11)


def test_resolvent_fill_free_and_bounded(rng, pt_grid, pt_data):
    # the factor of S - λI keeps the tridiagonal's sparsity at every point of
    # the branch schedule (a dense kernel border would fill it to ~300 n),
    # the checked fast path serves every solve, and only the most recent λ's
    # factors are kept, with no copy of S - λI beside them
    proj = rl.build_projections(pt_data, -1.0, 0.25)
    n = pt_grid.num_nodes
    w = rng.standard_normal(n)
    for k in range(1, 13):
        lam = proj.lambda0 - proj.delta * 2.0**-k
        rl.apply_resolvent_complement(proj, lam, w)
        solver = proj._resolvent
        assert solver.lam == lam
        assert solver.lu.L.nnz + solver.lu.U.nnz <= 10 * n
        assert not any(sp.issparse(value) for value in vars(solver).values())
        rl.apply_resolvent_complement(proj, lam, 2 * w)
        assert proj._resolvent is solver
        assert solver._bordered_lu is None


def test_resolvent_frees_the_previous_factors_first(pt_data, arctan_spec,
                                                  monkeypatch):
    # two points of a branch: the first λ's resolvent (SuperLU factors and Y)
    # is dead when the second λ's factorization starts
    proj = rl.build_projections(pt_data, -1.0, 0.25)
    real_init = spectral._BorderedResolvent.__init__
    made, alive = [], []

    def init(self, *args):
        alive.append([ref() is not None for ref in made])
        real_init(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(spectral._BorderedResolvent, "__init__", init)
    schedule = [proj.lambda0 - proj.delta / 2, proj.lambda0 - proj.delta / 4]
    rl.continue_branch(schedule, proj, arctan_spec)
    assert alive == [[], [False]]
    assert made[1]() is proj._resolvent


def _check_resolvent(grid, proj, lam, w, z):
    q = proj.project_complement(w)
    resid = grid.norm(proj.operator.apply(z) - lam * z - q)
    assert resid <= 1e-8 * grid.norm(q)
    assert grid.norm(z) <= grid.norm(q) / proj.gap_constant


def test_resolvent_falls_back_when_fast_path_fails_check(rng, pt_grid,
                                                         pt_data, pt_op):
    # a factorization of S - λ'I at a stale λ' fails the residual check
    proj = rl.build_projections(pt_data, -1.0, 0.25)
    lam = proj.lambda0 - proj.delta / 4
    stale = spectral._BorderedResolvent(proj, lam + 0.1)
    solver = proj._resolvent = spectral._BorderedResolvent(proj, lam)
    solver.lu, solver.Y, solver.G = stale.lu, stale.Y, stale.G
    w = rng.standard_normal(pt_grid.num_nodes)
    q = proj.project_complement(w)
    wrong = solver.solve(np.sqrt(pt_grid.weights) * q) / np.sqrt(pt_grid.weights)
    assert pt_grid.norm(pt_op.apply(wrong) - lam * wrong - q) > 1e-3 * pt_grid.norm(q)
    z = rl.apply_resolvent_complement(proj, lam, w)
    assert proj._resolvent is solver and solver._bordered_lu is not None
    _check_resolvent(pt_grid, proj, lam, w, z)


def test_resolvent_falls_back_when_shifted_matrix_singular(
    rng, monkeypatch, pt_grid, pt_data
):
    proj = rl.build_projections(pt_data, -1.0, 0.25)
    n = pt_grid.num_nodes
    real_splu = spectral.spla.splu

    def splu(A, *args, **kwargs):
        if A.shape == (n, n):
            raise RuntimeError("Factor is exactly singular")
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", splu)
    w = rng.standard_normal(n)
    for lam in (proj.lambda0, proj.lambda0 - proj.delta / 4):
        z = rl.apply_resolvent_complement(proj, lam, w)
        assert proj._resolvent.lu is None
        assert proj._resolvent._bordered_lu is not None
        _check_resolvent(pt_grid, proj, lam, w, z)


@pytest.mark.parametrize("bordered_fault", ["singular", "stale"])
def test_resolvent_raises_when_both_paths_fail(
    bordered_fault, rng, monkeypatch, pt_grid, pt_data
):
    proj = rl.build_projections(pt_data, -1.0, 0.25)
    n = pt_grid.num_nodes
    lam = proj.lambda0 - proj.delta / 4
    real_splu = spectral.spla.splu

    def splu(A, *args, **kwargs):
        if A.shape == (n, n) or bordered_fault == "singular":
            raise RuntimeError("Factor is exactly singular")
        # a factorization of the bordered matrix shifted by 0.1 I: its
        # solution fails the residual check
        return real_splu((A + 0.1 * sp.eye(A.shape[0], format="csc")).tocsc())

    monkeypatch.setattr(spectral.spla, "splu", splu)
    with pytest.raises(SpectralError):
        rl.apply_resolvent_complement(
            proj, lam, rng.standard_normal(n)
        )


def test_resolvent_window_enforced(pt_proj, pt_op):
    with pytest.raises(SpectralError):
        rl.apply_resolvent_complement(
            pt_proj, pt_proj.lambda0 + 2 * pt_proj.delta,
            np.ones(pt_op.grid.num_nodes),
        )


def test_morse_jump_equals_kernel_dimension(pt_data):
    # k(lambda0 + delta) - k(lambda0 - delta) = dim X0 at each multiplet
    for center, idx in pt_data.multiplets:
        proj = rl.build_projections(pt_data, center)
        up = rl.morse_count(pt_data, center + proj.delta).k
        down = rl.morse_count(pt_data, center - proj.delta).k
        assert up - down == len(idx)


def test_select_lambda0(pt_data):
    assert pt_data.select_lambda0(("index", 1)) == pt_data.eigenvalues[1]
    assert pt_data.select_lambda0(("value", -1.0)) == pt_data.eigenvalues[1]
    with pytest.raises(SpectralError):
        pt_data.select_lambda0(("index", 7))
    with pytest.raises(SpectralError):
        pt_data.select_lambda0(("value", -2.5))
