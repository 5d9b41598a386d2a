"""Experiment runner: INI config in, deterministic CSV/JSON reports out.

    resonance-lab <subcommand> --config <path> [--seed N] [--out <dir>]

Subcommands: spectrum, resonance, branch, semiflow, report.  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 verdict negative (only
when the experiment declares expect_positive).  Identical config and seed
produce byte-identical outputs; the effective config and seed are embedded
in every JSON report.  `spectrum` also stores its eigenpairs in the output
directory, and the later subcommands reuse them when they pass every check
of a fresh solve.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import bifurcation as bif
from . import semiflow as sf
from .grid import Grid, GridError, field_norms, make_grid
from .nonlinearity import (
    NonlinearityError,
    NonlinearitySpec,
    check_landesman_lazer,
    check_sign_condition,
    kernel_sphere_probe,
    make_nonlinearity,
)
from .potential import PotentialError, make_potential
from .reporting import (
    read_eigenpairs,
    write_csv,
    write_eigenpairs,
    write_json,
    write_snapshots,
)
from .solver import SolverConfig
from .spectral import (
    HamiltonianOperator,
    Projections,
    ResonantLambdaError,
    SpectralData,
    SpectralError,
    assemble_hamiltonian,
    build_projections,
    eigenpairs_below,
    morse_count,
    reuse_eigenpairs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERDICT = 4

SUBCOMMANDS = ("spectrum", "resonance", "branch", "semiflow", "report")
EIGENPAIRS_FILE = "eigenpairs.npz"
# names the layout of the stored eigenpairs in their key; a new layout gets a
# new tag, so files of the old one are solved again instead of misread
EIGENPAIRS_FORMAT = "resonance-lab eigenpairs 1"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment configuration."""

    grid: dict
    potential: dict
    nonlinearity: dict
    spectral: dict
    experiment: dict
    output_dir: str
    seed: int

    def effective(self) -> dict:
        return {
            "grid": self.grid,
            "potential": self.potential,
            "nonlinearity": self.nonlinearity,
            "spectral": self.spectral,
            "experiment": self.experiment,
            "run": {"seed": self.seed},
        }


# -- config schema -------------------------------------------------------------

REQUIRED = object()  # default of a key the config must give
OMIT = object()  # default of a key left out of the parsed section when absent


def _checked(cast, ok, what):
    """`cast`, then a ValueError saying `what` unless `ok` holds for the value."""
    def read(raw: str):
        value = cast(raw)
        if not ok(value):
            raise ValueError(what)
        return value
    return read


def _one_of(*words):
    return _checked(str, lambda v: v in words, f"must be one of {', '.join(words)}")


FINITE = _checked(float, math.isfinite, "must be finite")


def _floats(raw: str) -> list[float]:
    return [FINITE(tok) for tok in raw.split()]


_boolean = _checked(
    lambda raw: configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower()),
    lambda v: v is not None, "must be one of 1/true/yes/on or 0/false/no/off",
)
POSITIVE = _checked(FINITE, lambda v: v > 0, "must be positive")
NON_NEGATIVE = _checked(FINITE, lambda v: v >= 0, "must be non-negative")
POSITIVES = _checked(_floats, lambda vs: all(v > 0 for v in vs), "must be positive")
AT_LEAST_1 = _checked(int, lambda v: v >= 1, "must be at least 1")

# section -> key -> (cast, default).  A default is the text an absent key
# reads as (and goes through the cast like any value), None, REQUIRED or OMIT.
# A key the table does not list in its section is refused; a section it does
# not list is ignored.
SCHEMA = {
    "grid": {"ndim": (int, "1"), "half_width": (POSITIVE, REQUIRED),
             "points_per_axis": (int, REQUIRED)},
    "potential": {
        "family": (str, REQUIRED),
        **dict.fromkeys(("c", "ell", "offset", "depth", "width", "alpha",
                         "cutoff_radius", "p"), (FINITE, OMIT)),
        "center": (_floats, OMIT),
        "policy": (str, OMIT),
    },
    "nonlinearity": {"family": (str, "zero"), "amplitude": (POSITIVE, OMIT),
                     "width": (POSITIVE, OMIT)},
    "spectral": {
        "ceiling": (FINITE, None),
        "tol_eig": (POSITIVE, "1e-8"),
        "cluster_tol": (NON_NEGATIVE, None),
        "max_count": (AT_LEAST_1, "64"),
        "lambda0_index": (int, None),
        "lambda0_value": (FINITE, None),
        "delta_request": (POSITIVE, None),
        "morse_lambdas": (_floats, ""),
    },
    "experiment": {
        "side": (_one_of("minus", "plus"), "minus"),
        "num_points": (AT_LEAST_1, "12"),
        "growth_factor": (POSITIVE, "4.0"),
        "window": (AT_LEAST_1, "5"),
        "tol_fp": (POSITIVE, "1e-8"),
        "tol_pde": (POSITIVE, "1e-6"),
        "max_iter": (AT_LEAST_1, "200"),
        "horizon": (POSITIVE, "10.0"),
        "dt": (POSITIVE, None),
        "stop": (_one_of(*sf.STOP_RULES), "equilibrium"),
        "save_every": (AT_LEAST_1, "10"),
        "lam": (FINITE, None),
        "initial": (str, "kernel 1.0"),
        "snapshots": (_boolean, "false"),
        "tail_radii": (POSITIVES, ""),
        "probe_radii": (POSITIVES, "1 10 100"),
        "sample_budget": (AT_LEAST_1, "4096"),
        "expect_positive": (_boolean, "false"),
    },
    "output": {"dir": (str, "out")},
    "run": {"seed": (int, "0")},
}


def parse_config(path: str) -> ExperimentConfig:
    # no interpolation: a '%' is a plain character, checked like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    values = {}
    for name, keys in SCHEMA.items():
        section = parser[name] if parser.has_section(name) else {}
        unknown = [key for key in section if key not in keys]
        if unknown:
            raise ConfigError(f"[{name}] unknown key {', '.join(unknown)}")
        values[name] = {}
        for key, (cast, default) in keys.items():
            raw = section.get(key, default)
            if raw is REQUIRED:
                raise ConfigError(f"[{name}] {key} is required")
            if raw is not OMIT:
                try:
                    values[name][key] = None if raw is None else cast(raw)
                except ValueError as exc:
                    raise ConfigError(f"[{name}] {key} = {raw!r}: {exc}") from exc
    half_width = values["grid"]["half_width"]
    if any(r > half_width for r in values["experiment"]["tail_radii"]):
        raise ConfigError(
            f"[experiment] tail_radii exceed the [grid] half_width {half_width}"
        )
    _initial_spec(values["experiment"]["initial"], values["grid"]["ndim"])
    out, run = values.pop("output"), values.pop("run")
    return ExperimentConfig(**values, output_dir=out["dir"], seed=run["seed"])


# -- pipeline -------------------------------------------------------------------


class Problem:
    """The set-up of one experiment, in the order of the paper's argument.

    Each stage is built on first use and kept: the grid, the Hamiltonian of
    the split potential (`op`), its low spectrum (`data`), the nonlinearity
    (`spec`) and the projections at the selected eigenvalue λ0 (`proj`).  A
    subcommand reads only the stages it needs, so `spectrum` never builds the
    nonlinearity and `semiflow` without a λ0 selection never runs the
    eigensolver.

    `spectrum` always solves (`solve`) and stores the eigenpairs in
    `<out>/eigenpairs.npz` under `eigenpairs_key`.  `data` reuses that file
    when it holds this key and its pairs pass every check of a fresh solve
    (spectral.reuse_eigenpairs); otherwise, or when the file is missing or
    unreadable, it solves.  Either way the later reports are the same, bit
    for bit.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.eigenpairs_path = Path(cfg.output_dir) / EIGENPAIRS_FILE
        # the config sections the eigenpairs depend on, as canonical JSON
        self.eigenpairs_key = json.dumps(
            {"format": EIGENPAIRS_FORMAT, "grid": cfg.grid,
             "potential": cfg.potential, "spectral": cfg.spectral},
            sort_keys=True, separators=(",", ":"),
        )

    @cached_property
    def grid(self) -> Grid:
        return make_grid(**self.cfg.grid)

    @cached_property
    def op(self) -> HamiltonianOperator:
        return assemble_hamiltonian(
            self.grid, make_potential(self.grid, **self.cfg.potential)
        )

    @cached_property
    def data(self) -> SpectralData:
        stored = read_eigenpairs(self.eigenpairs_path, self.eigenpairs_key)
        if stored is not None:
            try:
                return reuse_eigenpairs(self.op, *stored, **self._eigensolve_args())
            except SpectralError:
                pass  # a stored pair failed a check: solve again
        return self.solve()

    def solve(self) -> SpectralData:
        """A fresh eigensolve of the low spectrum."""
        return eigenpairs_below(self.op, **self._eigensolve_args())

    def _eigensolve_args(self) -> dict:
        s = self.cfg.spectral
        return {"ceiling": s["ceiling"], "tol_eig": s["tol_eig"],
                "cluster_tol": s["cluster_tol"], "max_count": s["max_count"]}

    @cached_property
    def spec(self) -> NonlinearitySpec:
        return make_nonlinearity(self.grid, **self.cfg.nonlinearity)

    @cached_property
    def proj(self) -> Projections:
        s = self.cfg.spectral
        data = self.data  # eigensolver failures stay numerical failures
        try:
            if s["lambda0_index"] is not None:
                lam0 = data.select_lambda0(("index", s["lambda0_index"]))
            elif s["lambda0_value"] is not None:
                lam0 = data.select_lambda0(("value", s["lambda0_value"]))
            else:
                raise ConfigError(
                    "[spectral] needs lambda0_index or lambda0_value to select lambda0"
                )
        except SpectralError as exc:
            raise ConfigError(f"unresolvable lambda0: {exc}") from exc
        return build_projections(data, lam0, s["delta_request"])


def _initial_spec(text: str, ndim: int) -> tuple[str, list[float]]:
    """Parse `[experiment] initial`: `zero`, `kernel [R]` or
    `gaussian [amp [c_1 .. c_ndim [width]]]`."""
    kind, *tokens = text.split() or [""]
    counts = {"zero": (0,), "kernel": (0, 1), "gaussian": (0, 1, 1 + ndim, 2 + ndim)}
    if kind not in counts:
        raise ConfigError(f"[experiment] initial: unknown kind in {text!r}")
    if len(tokens) not in counts[kind]:
        raise ConfigError(
            f"[experiment] initial: {kind} takes {' or '.join(map(str, counts[kind]))} "
            f"numbers here, got {text!r}"
        )
    try:
        return kind, [FINITE(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"[experiment] initial: {exc} in {text!r}") from exc


def _initial_field(cfg: ExperimentConfig, grid: Grid,
                   proj: Projections | None) -> np.ndarray:
    kind, values = _initial_spec(cfg.experiment["initial"], grid.ndim)
    if kind == "zero":
        return np.zeros(grid.num_nodes)
    if kind == "kernel":
        if proj is None:
            raise ConfigError("initial = kernel requires a lambda0 selection")
        radius = values[0] if values else 1.0
        return radius * proj.kernel_fields[:, 0]
    amp = values[0] if values else 1.0
    center = np.zeros(grid.ndim)
    if len(values) > grid.ndim:
        center = np.array(values[1 : 1 + grid.ndim])
    width = values[1 + grid.ndim] if len(values) > 1 + grid.ndim else 1.0
    d2 = np.sum((grid.points - center) ** 2, axis=1)
    return amp * np.exp(-d2 / width**2)


# -- subcommands ---------------------------------------------------------------


def _cmd_spectrum(cfg: ExperimentConfig, out_dir: Path, rng) -> int:
    problem = Problem(cfg)
    op, data = problem.op, problem.solve()
    rows = [
        (center, len(idx), float(np.max(data.residuals[idx])))
        for center, idx in data.multiplets
    ]
    write_csv(out_dir / "spectrum.csv", ["lambda", "multiplicity", "residual"], rows)
    morse = {}
    for lam in cfg.spectral["morse_lambdas"]:
        mc = morse_count(data, lam)
        morse[repr(lam)] = {"k": mc.k, "conley_label": mc.conley_label}
    report = {
        "alpha_inf": op.alpha_inf,
        "ceiling": data.ceiling,
        "eigenvalues": data.eigenvalues,
        "multiplets": [
            {"lambda": c, "multiplicity": len(idx)} for c, idx in data.multiplets
        ],
        "morse_counts": morse,
        "config": cfg.effective(),
    }
    write_json(out_dir / "spectrum.json", report)
    write_eigenpairs(problem.eigenpairs_path, problem.eigenpairs_key,
                     data.eigenvalues, data.eigenfields)
    return EXIT_OK


def _cmd_resonance(cfg: ExperimentConfig, out_dir: Path, rng) -> int:
    problem = Problem(cfg)
    proj = problem.proj
    spec = problem.spec

    ll = check_landesman_lazer(spec, proj.kernel_fields, rng=rng)
    sr = check_sign_condition(
        spec, sample_budget=cfg.experiment["sample_budget"], rng=rng
    )
    report = {
        "lambda0": proj.lambda0,
        "delta": proj.delta,
        "verdicts": {"LL+": asdict(ll.plus), "LL-": asdict(ll.minus),
                     "SR+": asdict(sr.plus), "SR-": asdict(sr.minus)},
        # each probe has its own seed, so its result does not depend on the others
        "kernel_sphere_probe": [
            asdict(kernel_sphere_probe(spec, proj.kernel_fields, radius,
                                       rng=np.random.default_rng([cfg.seed, i])))
            for i, radius in enumerate(cfg.experiment["probe_radii"])
        ],
        "config": cfg.effective(),
    }
    write_json(out_dir / "resonance.json", report)

    if cfg.experiment["expect_positive"]:
        positives = [v["holds"] for v in report["verdicts"].values()]
        if not any(positives):
            return EXIT_VERDICT
    return EXIT_OK


def _cmd_branch(cfg: ExperimentConfig, out_dir: Path, rng) -> int:
    problem = Problem(cfg)
    proj = problem.proj
    op, spec = problem.op, problem.spec
    e = cfg.experiment
    sign = -1.0 if e["side"] == "minus" else 1.0
    schedule = [
        proj.lambda0 + sign * proj.delta * 2.0 ** (-k)
        for k in range(1, e["num_points"] + 1)
    ]
    solver_cfg = SolverConfig(
        tol_fp=e["tol_fp"], tol_pde=e["tol_pde"], max_iter=e["max_iter"]
    )
    branch = bif.continue_branch(schedule, proj, op, spec, solver_cfg)
    rows = [
        (
            p.lam, p.l2, p.grad_l2, p.h1, p.kernel_l2, p.complement_l2,
            p.residual, p.energy, p.converged,
        )
        for p in branch
    ]
    write_csv(
        out_dir / "branch.csv",
        ["lambda", "l2", "grad_l2", "h1", "Pu_l2", "Qu_l2", "residual", "E",
         "converged"],
        rows,
    )
    summary = bif.summarize_branch(
        branch, proj, spec, e["growth_factor"], e["window"]
    )
    ll = check_landesman_lazer(spec, proj.kernel_fields, rng=rng)
    summary.resonance = {"LL+": asdict(ll.plus), "LL-": asdict(ll.minus)}
    report = summary.to_dict()
    report["config"] = cfg.effective()
    write_json(out_dir / "bifurcation.json", report)
    if cfg.experiment["expect_positive"] and (
        summary.verdict is None or not summary.verdict.detected
    ):
        return EXIT_VERDICT
    return EXIT_OK


def _cmd_semiflow(cfg: ExperimentConfig, out_dir: Path, rng) -> int:
    problem = Problem(cfg)
    grid, op, spec = problem.grid, problem.op, problem.spec
    e = cfg.experiment
    s = cfg.spectral
    proj = None
    if s["lambda0_index"] is not None or s["lambda0_value"] is not None:
        proj = problem.proj
    if e["lam"] is not None:
        lam = e["lam"]
    elif proj is not None:
        lam = proj.lambda0 - proj.delta / 2.0
    else:
        raise ConfigError("[experiment] lam is required without a lambda0 selection")
    u0 = _initial_field(cfg, grid, proj)
    traj = sf.evolve(
        sf.SemiflowState(0.0, u0), lam, e["horizon"], op, spec,
        dt=e["dt"], stop=e["stop"], save_every=e["save_every"],
        projections=proj,
    )
    rows = []
    for st in traj.states:
        norms = field_norms(grid, st.u)
        rows.append(
            (
                st.t, norms.l2, norms.grad_l2, norms.h1, st.J,
                st.kernel_norm if st.kernel_norm is not None else math.nan,
                st.complement_norm if st.complement_norm is not None else math.nan,
            )
        )
    write_csv(
        out_dir / "trajectory.csv",
        ["t", "l2", "grad_l2", "h1", "J", "Pu_l2", "Qu_l2"],
        rows,
    )
    if e["snapshots"]:
        write_snapshots(out_dir / "snapshots.bin", grid, [s.u for s in traj.states])
    report = {
        "lam": lam,
        "equilibrium": traj.equilibrium,
        "stop_reason": traj.stop_reason,
        "steps": len(traj.dt_history),
        "J_initial": traj.states[0].J,
        "J_final": traj.states[-1].J,
        "config": cfg.effective(),
    }
    if proj is not None and e["tail_radii"]:
        tail = sf.tail_decay_report(traj, proj, op, spec, e["tail_radii"])
        report["tail_decay"] = {
            "alpha": tail.alpha,
            "eta": tail.eta,
            "n0": tail.n0,
            "all_passed": tail.all_passed,
            "all_guaranteed_passed": tail.all_guaranteed_passed,
            "rows": [asdict(r) for r in tail.rows],
        }
    write_json(out_dir / "semiflow.json", report)
    return EXIT_OK


def _cmd_report(cfg: ExperimentConfig, out_dir: Path, rng) -> int:
    merged = {"config": cfg.effective()}
    for name in ("spectrum", "resonance", "bifurcation", "semiflow"):
        path = out_dir / f"{name}.json"
        if path.exists():
            merged[name] = json.loads(path.read_text(encoding="utf-8"))
    write_json(out_dir / "report.json", merged)
    return EXIT_OK


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "resonance": _cmd_resonance,
    "branch": _cmd_branch,
    "semiflow": _cmd_semiflow,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resonance-lab",
        description="Bifurcation-from-infinity experiments for semilinear "
        "Schrodinger problems on truncated boxes.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--out", default=None, help="override [output] dir")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(cfg.seed)
    except (ConfigError, GridError, PotentialError, NonlinearityError) as exc:
        print(f"config error ({args.config}): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _DISPATCH[args.subcommand](cfg, out_dir, rng)
    except (ConfigError, GridError, PotentialError, NonlinearityError) as exc:
        print(f"config error ({args.config}): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpectralError, ResonantLambdaError, sf.StepRejected,
            sf.StepCascadeError, bif.BranchError, ValueError) as exc:
        print(f"numerical failure ({args.config}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
