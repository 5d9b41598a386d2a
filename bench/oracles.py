"""Output checks for the benchmark, computed apart from resonance_lab.

Every check reads the CLI's report files and compares them with facts the
benchmark derives itself with numpy/scipy: exact Poschl-Teller eigenvalues,
Sylvester-inertia counts of a separately assembled 2-D operator, the
Landesman-Lazer limit of the arctan branch, the sqrt(pi) limit of the
rational branch, and properties the method must have (J nonincreasing,
nonnegative sphere pairings, verdicts implied by the declared limits).
Nothing here imports resonance_lab.

Each failure message starts with a [tag] naming the check, so `selftest`
can show that every check rejects a deliberately wrong input.

    python3 bench/oracles.py <config.ini> <out_dir> [<out_dir> ...]

prints one JSON object: {out_dir: {subcommand: [failure, ...]}, "selftest":
[problem, ...]}.  The self-test runs on the first output directory.
"""

from __future__ import annotations

import configparser
import copy
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.integrate as si
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SUBCOMMANDS = ("spectrum", "resonance", "branch", "semiflow")
EIG_TOL = 1e-3          # absolute eigenvalue tolerance, 1-D exact and 2-D brackets
ARCTAN_LIMIT_TOL = 1e-3  # relative, ||Pu|| eps against the LL witness integral
RATIONAL_LIMIT_TOL = 0.02  # relative, ||Pu||^2 eps against sqrt(pi)
POWER_RANGE = (-0.6, -0.4)  # fitted blow-up power of the rational branch
NET_ANGLES = 720         # directions on the 2-D kernel circle


# -- the problem, read from the benchmark's own config -----------------------


class Problem:
    """The parts of an INI config the oracles need, with the CLI's defaults."""

    def __init__(self, path):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if not cp.read(path):
            raise FileNotFoundError(path)
        g, p = cp["grid"], cp["potential"]
        nl = cp["nonlinearity"] if "nonlinearity" in cp else {}
        spc = cp["spectral"] if "spectral" in cp else {}
        exp = cp["experiment"] if "experiment" in cp else {}
        self.ndim = int(g.get("ndim", "1"))
        self.half_width = float(g["half_width"])
        self.n = int(g["points_per_axis"])
        self.potential = p["family"]
        self.ell = float(p.get("ell", "0"))
        self.depth = float(p.get("depth", "0"))
        self.well_width = float(p.get("width", "0"))
        self.family = nl.get("family", "zero")
        self.amplitude = float(nl.get("amplitude", "1"))
        self.env_width = float(nl.get("width", "1"))
        self.morse_lambdas = [float(t) for t in spc.get("morse_lambdas", "").split()]
        self.num_points = int(exp.get("num_points", "12"))
        self.window = int(exp.get("window", "5"))
        self.tol_pde = float(exp.get("tol_pde", "1e-6"))
        self.horizon = float(exp.get("horizon", "10"))
        init = exp.get("initial", "kernel 1.0").split()
        self.initial_radius = float(init[1]) if init[0] == "kernel" and len(init) > 1 else None
        self.probe_radii = [float(t) for t in exp.get("probe_radii", "1 10 100").split()]
        self.tail_radii = [float(t) for t in exp.get("tail_radii", "").split()]
        self._cache = {}

    # -- 2-D square well, assembled here from the discretization's definition --

    def stiffness_and_mass(self):
        """(K + W V, W, points): the symmetric weak form of -Lap + V on the grid.

        K is the divergence-form 5-point stencil with a Dirichlet halo,
        written as the edge sum  sum_edges h * (du/h)^2 * (trapezoid weight
        across the edge); W is the tensor trapezoid mass; V is the well depth
        on the centered square of the given side.  S - mu I of the
        symmetrized frame is congruent to K + W V - mu W (by W^{-1/2}), so
        both have the same inertia.
        """
        if "KW" not in self._cache:
            n = self.n
            h = 2.0 * self.half_width / (n - 1)
            w1 = np.full(n, h)
            w1[0] = w1[-1] = h / 2.0
            k1 = sp.diags(
                [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                [-1, 0, 1],
            ) / h
            W1 = sp.diags(w1)
            K = sp.kron(k1, W1) + sp.kron(W1, k1)
            w = np.outer(w1, w1).ravel()
            axis = np.linspace(-self.half_width, self.half_width, n)
            X, Y = np.meshgrid(axis, axis, indexing="ij")
            x = np.column_stack([X.ravel(), Y.ravel()])
            inside = np.all(np.abs(x) <= self.well_width / 2.0, axis=1)
            V = np.where(inside, self.depth, 0.0)
            self._cache["KW"] = (sp.csc_matrix(K + sp.diags(w * V)), w, x)
        return self._cache["KW"]

    def count_below(self, mu):
        """Number of discrete eigenvalues below mu, by Sylvester inertia.

        K + W V - mu W is factored as L D L^T (SuperLU, symmetric mode, no
        pivoting); the count is the number of negative pivots.  A tiny or
        displaced pivot means the unpivoted factorization is not to be
        trusted at this shift; mu is then nudged by a few 1e-9 of the
        spectral scale, which cannot cross an eigenvalue that the callers'
        1e-3 brackets keep away.
        """
        key = float(mu)
        if key not in self._cache:
            H, w, _ = self.stiffness_and_mass()
            scale = max(1.0, abs(self.depth), abs(mu))
            for nudge in (0.0, 1e-9, -1e-9, 3e-9):
                shifted = sp.csc_matrix(H - sp.diags((mu + nudge * scale) * w))
                lu = spla.splu(
                    shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
                d = lu.U.diagonal()
                if np.array_equal(lu.perm_r, lu.perm_c) and np.min(np.abs(d)) > 1e-12 * scale:
                    self._cache[key] = int(np.count_nonzero(d < 0))
                    break
            else:
                raise ArithmeticError(f"LDL^T broke down at every shift near {mu}")
        return self._cache[key]

    def kernel_net_bound(self, lam0):
        """max over unit fields phi of the lam0-eigenspace of int m |phi|.

        The eigenspace comes from this module's own operator (shift-invert
        Lanczos on the generalized pencil), not from the program.  Returns
        (bound, own eigenvalues of the space).
        """
        key = ("net", float(lam0))
        if key not in self._cache:
            H, w, x = self.stiffness_and_mass()
            v0 = np.random.default_rng(7).standard_normal(H.shape[0])
            vals, vecs = spla.eigsh(
                H, k=2, M=sp.diags(w).tocsc(), sigma=lam0 - 1e-2, which="LM", v0=v0
            )
            m = self.amplitude * np.exp(-np.sum(x**2, axis=1) / self.env_width**2)
            theta = np.linspace(0.0, np.pi, NET_ANGLES, endpoint=False)
            coeff = np.vstack([np.cos(theta), np.sin(theta)])
            # eigsh returns M-orthonormal vectors, so every phi below has unit norm
            integrals = (w * m) @ np.abs(vecs @ coeff)
            self._cache[key] = (float(np.max(integrals)), np.sort(vals))
        return self._cache[key]


def arctan_witness_integral(problem):
    """I = int m(x) |phi_1(x)| dx with phi_1 = sqrt(3/2) sinh x / cosh^2 x, the
    normalized ell = 2 Poschl-Teller state at -1, on the whole line."""
    def integrand(x):
        return problem.amplitude * math.exp(-(x / problem.env_width) ** 2) * abs(
            math.sqrt(1.5) * math.sinh(x) / math.cosh(x) ** 2
        )
    # the Gaussian envelope is below 1e-300 beyond 27 widths
    val, _ = si.quad(integrand, 0.0, 27.0 * problem.env_width, epsabs=1e-14,
                     epsrel=1e-12, limit=200)
    return 2.0 * val


# -- reading the outputs -------------------------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_outputs(out_dir, subcommand):
    d = Path(out_dir)
    if subcommand == "spectrum":
        return {"report": read_json(d / "spectrum.json")}
    if subcommand == "resonance":
        return {"report": read_json(d / "resonance.json")}
    if subcommand == "branch":
        return {"report": read_json(d / "bifurcation.json"), "rows": read_csv(d / "branch.csv")}
    if subcommand == "semiflow":
        return {"report": read_json(d / "semiflow.json"), "rows": read_csv(d / "trajectory.csv")}
    raise ValueError(subcommand)


# -- checks: each returns a list of failure messages --------------------------


def check_spectrum(problem, out):
    rep = out["report"]
    fails = []
    alpha = rep["alpha_inf"]
    if not -1e-3 <= alpha <= 0.0:
        fails.append(f"[alpha-inf] alpha_inf = {alpha} outside [-1e-3, 0]")
    vals = [float(v) for v in rep["eigenvalues"]]
    mults = [(float(m["lambda"]), int(m["multiplicity"])) for m in rep["multiplets"]]
    if sum(k for _, k in mults) != len(vals):
        fails.append("[multiplets] multiplicities do not add up to the eigenvalue count")
    if problem.ndim == 1 and problem.potential == "poschl_teller":
        ell = int(round(problem.ell))
        exact = sorted(-float(ell - j) ** 2 for j in range(ell))
        if len(vals) != len(exact) or len(mults) != len(exact):
            fails.append(f"[pt-exact] {len(vals)} eigenvalues / {len(mults)} multiplets, "
                         f"exact spectrum has {len(exact)}")
        else:
            for got, want in zip(vals, exact):
                if abs(got - want) > EIG_TOL:
                    fails.append(f"[pt-exact] eigenvalue {got} is not {want} within {EIG_TOL}")
        for lam in problem.morse_lambdas:
            want_k = sum(e < lam for e in exact)
            got = rep["morse_counts"].get(repr(lam))
            if got is None or got["k"] != want_k or got["conley_label"] != f"Sigma^{want_k}":
                fails.append(f"[morse] k({lam}) reported {got}, exact count {want_k}")
    elif problem.ndim == 2 and problem.potential == "square_well":
        if vals and not problem.depth <= vals[0] <= problem.depth + math.pi**2 / 2.0:
            fails.append(f"[ground] ground level {vals[0]} outside "
                         f"[{problem.depth}, {problem.depth} + pi^2/2]")
        # brackets c -+ EIG_TOL around every multiplet; the count is monotone
        # in mu, so equal counts at c_i + tol and c_(i+1) - tol also fix the
        # count at every point between them, the midpoints included
        cum = 0
        for c, k in mults:
            below, above = problem.count_below(c - EIG_TOL), problem.count_below(c + EIG_TOL)
            if (below, above) != (cum, cum + k):
                fails.append(f"[inertia] multiplet {c} x{k}: inertia counts "
                             f"({below}, {above}) around it, expected ({cum}, {cum + k})")
                break
            cum += k
        got = problem.count_below(rep["ceiling"])
        if not fails and got != cum:
            fails.append(f"[inertia] {got} eigenvalues below the ceiling {rep['ceiling']}, "
                         f"reported {cum}")
    else:
        fails.append(f"[oracle] no spectral oracle for {problem.potential} in {problem.ndim}-D")
    return fails


def check_branch(problem, out):
    rep, rows = out["report"], out["rows"]
    fails = []
    if len(rows) != problem.num_points:
        fails.append(f"[branch-shape] {len(rows)} points, schedule has {problem.num_points}")
        return fails
    for r in rows:
        h1, res = float(r["h1"]), float(r["residual"])
        if r["converged"] != "true" or not res <= problem.tol_pde * (1.0 + h1):
            fails.append(f"[branch-converged] point {r['lambda']}: converged={r['converged']}, "
                         f"residual {res}")
    lam0, delta = float(rep["lambda0"]), float(rep["delta"])
    eps = np.array([abs(float(r["lambda"]) - lam0) for r in rows])
    pu = np.array([float(r["Pu_l2"]) for r in rows])
    h1 = np.array([float(r["h1"]) for r in rows])
    want = delta * 2.0 ** -np.arange(1, problem.num_points + 1)
    if not np.allclose(eps, want, rtol=1e-9, atol=0.0):
        fails.append("[schedule] lambda_k is not lambda0 - delta 2^-k")
    if not np.all(np.diff(h1) > 0):
        fails.append("[blow-up] ||u||_H1 does not grow strictly along the branch")

    if problem.ndim == 1 and problem.family == "arctan":
        target = arctan_witness_integral(problem)
        err = np.abs(pu * eps / target - 1.0)
        if not err[-1] <= ARCTAN_LIMIT_TOL:
            fails.append(f"[arctan-limit] ||Pu|| eps = {pu[-1] * eps[-1]} at the last point, "
                         f"limit I = {target} (relative error {err[-1]:.3e})")
        if not np.all(np.diff(err) < 0):
            fails.append("[arctan-limit] the error against I does not shrink along the branch")
    elif problem.ndim == 1 and problem.family == "rational":
        ratio = pu**2 * eps / math.sqrt(math.pi)
        if not np.all(np.diff(ratio) > 0):
            fails.append("[rational-limit] ||Pu||^2 eps does not rise along the branch")
        if not abs(ratio[-1] - 1.0) <= RATIONAL_LIMIT_TOL:
            fails.append(f"[rational-limit] ||Pu||^2 eps / sqrt(pi) = {ratio[-1]} at the last point")
        tail = slice(-problem.window, None)
        power = float(np.polyfit(np.log(eps[tail]), np.log(h1[tail]), 1)[0])
        if not POWER_RANGE[0] <= power <= POWER_RANGE[1]:
            fails.append(f"[rational-power] fitted power {power} outside {POWER_RANGE}")
    elif problem.ndim == 2 and problem.family == "arctan":
        scaled = pu * eps
        inc = np.diff(scaled)
        if not (np.all(inc > 0) and np.all(np.diff(inc) < 0)):
            fails.append("[2d-increments] increments of ||Pu|| eps are not positive and shrinking")
        bound, own = problem.kernel_net_bound(lam0)
        if np.max(np.abs(own - lam0)) > 1e-6 * max(1.0, abs(lam0)):
            fails.append(f"[2d-kernel] own eigenvalues {own.tolist()} do not match lambda0 = {lam0}")
        if np.max(scaled) > bound * (1.0 + ARCTAN_LIMIT_TOL):
            fails.append(f"[2d-bound] ||Pu|| eps = {np.max(scaled)} exceeds the kernel-sphere "
                         f"bound max int m|phi| = {bound}")
    else:
        fails.append(f"[oracle] no branch oracle for {problem.family} in {problem.ndim}-D")

    verdict = rep.get("verdict") or {}
    if verdict.get("detected") is not True:
        fails.append(f"[verdict] blow-up not detected: {verdict}")
    return fails


# limits at infinity declared by each family, as the theory reads them:
# arctan -> +-m with s f unbounded (LL+ only, SR inapplicable);
# rational -> 0 with s f -> m > 0 (no LL, SR+ only)
EXPECTED_VERDICTS = {
    "arctan": {"LL+": (True, True), "LL-": (True, False),
               "SR+": (False, False), "SR-": (False, False)},
    "rational": {"LL+": (True, False), "LL-": (True, False),
                 "SR+": (True, True), "SR-": (True, False)},
}


def check_resonance(problem, out):
    rep = out["report"]
    fails = []
    expected = EXPECTED_VERDICTS.get(problem.family)
    if expected is None:
        return [f"[oracle] no verdict oracle for {problem.family}"]
    for cond, (applicable, holds) in expected.items():
        v = rep["verdicts"].get(cond)
        if v is None or v["applicable"] is not applicable or v["holds"] is not holds:
            fails.append(f"[verdicts] {cond}: reported {v and (v['applicable'], v['holds'])}, "
                         f"declared limits imply (applicable, holds) = {(applicable, holds)}")
    if problem.ndim == 1 and problem.family == "arctan":
        target = arctan_witness_integral(problem)
        for wv in rep["verdicts"]["LL+"]["witnesses"]:
            if abs(wv / target - 1.0) > ARCTAN_LIMIT_TOL:
                fails.append(f"[ll-witness] LL+ witness {wv} is not I = {target}")
    probes = rep["kernel_sphere_probe"]
    if [float(p["radius"]) for p in probes] != problem.probe_radii:
        fails.append("[probe] probe radii differ from the config")
    for p in probes:
        if not p["min_pairing"] >= 0.0:
            fails.append(f"[probe] min_pairing {p['min_pairing']} < 0 at radius {p['radius']}, "
                         "but s f(x, s) >= 0")
    return fails


def check_semiflow(problem, out):
    rep, rows = out["report"], out["rows"]
    fails = []
    t = np.array([float(r["t"]) for r in rows])
    J = np.array([float(r["J"]) for r in rows])
    if not np.all(np.diff(J) <= 0.0):
        i = int(np.argmax(np.diff(J)))
        fails.append(f"[J-monotone] J increases between t = {t[i]} and t = {t[i + 1]}")
    if not rep["equilibrium"] and abs(t[-1] - problem.horizon) > 1e-9 * max(1.0, problem.horizon):
        fails.append(f"[horizon] trajectory ends at t = {t[-1]}, horizon {problem.horizon}")
    if problem.initial_radius is not None:
        pu0, qu0 = float(rows[0]["Pu_l2"]), float(rows[0]["Qu_l2"])
        if abs(pu0 - problem.initial_radius) > 1e-9 * problem.initial_radius or qu0 > 1e-9:
            fails.append(f"[initial] u(0) has ||Pu|| = {pu0}, ||Qu|| = {qu0}; "
                         f"expected a kernel field of norm {problem.initial_radius}")
    if problem.tail_radii:
        tail = rep.get("tail_decay")
        if not tail:
            return fails + ["[tail] no tail-decay report"]
        rows_t = tail["rows"]
        if len(rows_t) != (len(rows) - 1) * len(problem.tail_radii):
            fails.append(f"[tail] {len(rows_t)} tail rows for {len(rows) - 1} saved states")
        guaranteed = [r for r in rows_t if r["guaranteed"]]
        if not guaranteed:
            fails.append("[tail] no guaranteed tail-decay rows")
        for r in guaranteed:
            if not r["measured"] <= r["bound"]:
                fails.append(f"[tail] guaranteed row at radius {r['radius']}, t = {r['t1']}: "
                             f"measured {r['measured']} > bound {r['bound']}")
                break
    return fails


CHECKS = {
    "spectrum": check_spectrum,
    "resonance": check_resonance,
    "branch": check_branch,
    "semiflow": check_semiflow,
}


def check_dir(problem, out_dir):
    """{subcommand: failures} for the outputs in out_dir."""
    result = {}
    for sub in SUBCOMMANDS:
        try:
            result[sub] = CHECKS[sub](problem, load_outputs(out_dir, sub))
        except (OSError, KeyError, ValueError, TypeError, IndexError, ArithmeticError) as exc:
            result[sub] = [f"[unreadable] {type(exc).__name__}: {exc}"]
    return result


# -- self-test: every check must reject a wrong input ---------------------------


def _shift_eigenvalues(out, by):
    out["report"]["eigenvalues"] = [v + by for v in out["report"]["eigenvalues"]]
    for m in out["report"]["multiplets"]:
        m["lambda"] += by


def _drop_multiplet(out):
    rep = out["report"]
    m = rep["multiplets"].pop(len(rep["multiplets"]) // 2)
    vals = rep["eigenvalues"]
    i = min(range(len(vals)), key=lambda j: abs(vals[j] - m["lambda"]))
    del vals[i:i + m["multiplicity"]]


def _double_eps(out):
    lam0 = float(out["report"]["lambda0"])
    for r in out["rows"]:
        r["lambda"] = repr(lam0 + 2.0 * (float(r["lambda"]) - lam0))


def _raise_one_J(out):
    r = out["rows"][len(out["rows"]) // 2]
    r["J"] = repr(float(out["rows"][0]["J"]) + 1.0)


def _flip_first_verdict(out):
    v = out["report"]["verdicts"]["LL+"]
    v["holds"] = not v["holds"]


def _negative_pairing(out):
    out["report"]["kernel_sphere_probe"][0]["min_pairing"] = -1e-3


def _break_tail_row(out):
    for r in out["report"]["tail_decay"]["rows"]:
        if r["guaranteed"]:
            r["measured"] = 2.0 * r["bound"] + 1.0
            break


def _mutations(problem):
    """(subcommand, description, mutate, tag the check must raise)."""
    muts = [
        ("spectrum", "eigenvalues shifted by 1e-2", lambda o: _shift_eigenvalues(o, 1e-2),
         "[pt-exact]" if problem.ndim == 1 else "[inertia]"),
        ("spectrum", "a dropped multiplet", _drop_multiplet,
         "[pt-exact]" if problem.ndim == 1 else "[inertia]"),
        ("resonance", "LL+ verdict flipped", _flip_first_verdict, "[verdicts]"),
        ("resonance", "a negative sphere pairing", _negative_pairing, "[probe]"),
        ("semiflow", "a J sequence with one increase", _raise_one_J, "[J-monotone]"),
    ]
    if problem.tail_radii:
        muts.append(("semiflow", "a guaranteed tail row above its bound", _break_tail_row, "[tail]"))
    limit_tag = {
        (1, "arctan"): "[arctan-limit]",
        (1, "rational"): "[rational-limit]",
        (2, "arctan"): "[2d-bound]",
    }.get((problem.ndim, problem.family))
    if limit_tag:
        muts.append(("branch", "a branch whose eps values are doubled", _double_eps, limit_tag))
    return muts


def selftest(problem, out_dir):
    """Checks that accepted a deliberately wrong output.  Subcommands whose
    real output already fails are skipped: those failures are counted as
    failed operations, and a mutation of a failing output proves nothing."""
    problems = []
    passing = [sub for sub, fails in check_dir(problem, out_dir).items() if not fails]
    originals = {sub: load_outputs(out_dir, sub) for sub in passing}
    for sub, what, mutate, tag in _mutations(problem):
        if sub not in originals:
            continue
        out = copy.deepcopy(originals[sub])
        mutate(out)
        fails = CHECKS[sub](problem, out)
        if not any(f.startswith(tag) for f in fails):
            problems.append(f"{sub}: {tag} accepted {what}")
    return problems


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    problem = Problem(argv[0])
    result = {d: check_dir(problem, d) for d in argv[1:]}
    result["selftest"] = selftest(problem, argv[1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
