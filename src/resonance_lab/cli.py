"""Experiment runner: INI config in, deterministic CSV/JSON reports out.

    resonance-lab <subcommand> --config <path> [--seed N] [--out <dir>]

Subcommands: spectrum, resonance, branch, semiflow, report.  Each maps the
experiment's `Problem` to its reports, which `main` writes.  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 verdict negative (only
when the experiment declares expect_positive).  Identical config and seed
produce byte-identical outputs; the effective config and seed are embedded
in every JSON report.  The solver and eigensolve tolerances are library
keyword arguments (`eigenpairs_below`, `SolverConfig`,
`check_sign_condition`), which the CLI uses at their defaults.  `spectrum`
also stores its eigenpairs in the output directory, and the later
subcommands reuse them when they pass every check of a fresh solve.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict
from functools import cached_property
from pathlib import Path

import numpy as np

from . import bifurcation as bif
from . import semiflow as sf
# field_norms is not called here; it stays a name of this module because the
# benchmark's tracer (bench/tracer.py) wraps cli.field_norms
from .grid import Grid, GridError, field_norms, make_grid  # noqa: F401
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

EIGENPAIRS_FILE = "eigenpairs.npz"
# names the layout of the stored eigenpairs in their key; a new layout gets a
# new tag, so files of the old one are solved again instead of misread
EIGENPAIRS_FORMAT = "resonance-lab eigenpairs 1"


class ConfigError(ValueError):
    pass


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
        "horizon": (POSITIVE, "10.0"),
        "dt": (POSITIVE, None),
        "stop": (_one_of(*sf.STOP_RULES), "equilibrium"),
        "save_every": (AT_LEAST_1, "10"),
        "lam": (FINITE, None),
        "initial": (str, "kernel 1.0"),
        "snapshots": (_boolean, "false"),
        "tail_radii": (POSITIVES, ""),
        "probe_radii": (POSITIVES, "1 10 100"),
        "expect_positive": (_boolean, "false"),
    },
    "output": {"dir": (str, "out")},
    "run": {"seed": (int, "0")},
}


def parse_config(path: str) -> dict:
    """The checked config at path: {section: {key: value}}, shaped like SCHEMA."""
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
    return values


# -- pipeline -------------------------------------------------------------------


class Problem:
    """The set-up of one experiment, in the order of the paper's argument.

    Each stage is built on first use and kept: the grid, the Hamiltonian of
    the split potential (`op`), the nonlinearity (`spec`) and the
    projections at the selected eigenvalue λ0 (`proj`).  The low spectrum
    (`data()`) is not a stage: `proj` builds it, copies the eigenfields it
    needs and lets the rest go, so the eigenfields do not stay resident
    through a branch or a flow.  A subcommand reads only the stages it
    needs, so `spectrum` never builds the nonlinearity and `semiflow` without
    a λ0 selection never runs the eigensolver.

    `spectrum` always solves (`solve`) and stores the eigenpairs in
    `<out>/eigenpairs.npz` under `eigenpairs_key`.  `data()` reuses that
    file when it holds this key and its pairs pass every check of a fresh
    solve (spectral.reuse_eigenpairs); otherwise, or when the file is
    missing or unreadable, it solves.  Either way the later reports are the
    same, bit for bit.
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.out_dir = Path(cfg["output"]["dir"])
        # the config the eigensolve reads, as canonical JSON: the λ0
        # selection, delta_request and morse_lambdas leave the pairs as they are
        self.eigenpairs_key = json.dumps(
            {"format": EIGENPAIRS_FORMAT, "grid": cfg["grid"],
             "potential": cfg["potential"], "ceiling": cfg["spectral"]["ceiling"]},
            sort_keys=True, separators=(",", ":"),
        )

    @cached_property
    def grid(self) -> Grid:
        return make_grid(**self.cfg["grid"])

    @cached_property
    def op(self) -> HamiltonianOperator:
        return assemble_hamiltonian(
            self.grid, make_potential(self.grid, **self.cfg["potential"])
        )

    def data(self) -> SpectralData:
        """The low spectrum, from the stored eigenpairs or a fresh solve."""
        stored = read_eigenpairs(self.out_dir / EIGENPAIRS_FILE, self.eigenpairs_key)
        if stored is not None:
            try:
                return reuse_eigenpairs(self.op, *stored,
                                        ceiling=self.cfg["spectral"]["ceiling"])
            except SpectralError:
                pass  # a stored pair failed a check: solve again
        return self.solve()

    def solve(self) -> SpectralData:
        """A fresh eigensolve of the low spectrum."""
        return eigenpairs_below(self.op, ceiling=self.cfg["spectral"]["ceiling"])

    @cached_property
    def spec(self) -> NonlinearitySpec:
        return make_nonlinearity(self.grid, **self.cfg["nonlinearity"])

    @cached_property
    def proj(self) -> Projections:
        s = self.cfg["spectral"]
        data = self.data()  # eigensolver failures stay numerical failures
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


def _initial_field(text: str, grid: Grid, proj: Projections | None) -> np.ndarray:
    kind, values = _initial_spec(text, grid.ndim)
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
#
# Each maps the Problem to its reports, {file name: content} in write order
# (see _write), and its verdict: None when it has none.


def _cmd_spectrum(problem: Problem) -> tuple[dict, bool | None]:
    op, data = problem.op, problem.solve()
    morse = {}
    for lam in problem.cfg["spectral"]["morse_lambdas"]:
        try:
            mc = morse_count(data, lam)
        except ResonantLambdaError as exc:
            raise ConfigError(f"[spectral] morse_lambdas = {lam!r}: {exc}") from exc
        morse[repr(lam)] = {"k": mc.k, "conley_label": mc.conley_label}
    rows = [
        (center, len(idx), float(np.max(data.residuals[idx])))
        for center, idx in data.multiplets
    ]
    report = {
        "alpha_inf": op.alpha_inf,
        "ceiling": data.ceiling,
        "eigenvalues": data.eigenvalues,
        "multiplets": [
            {"lambda": c, "multiplicity": len(idx)} for c, idx in data.multiplets
        ],
        "morse_counts": morse,
    }
    return {
        "spectrum.csv": (["lambda", "multiplicity", "residual"], rows),
        "spectrum.json": report,
        EIGENPAIRS_FILE: (problem.eigenpairs_key, data.eigenvalues, data.eigenfields),
    }, None


def _cmd_resonance(problem: Problem) -> tuple[dict, bool | None]:
    proj, spec = problem.proj, problem.spec
    seed = problem.cfg["run"]["seed"]
    rng = np.random.default_rng(seed)
    ll = check_landesman_lazer(spec, proj.kernel_fields, rng=rng)
    sr = check_sign_condition(spec, rng=rng)
    verdicts = {"LL+": asdict(ll.plus), "LL-": asdict(ll.minus),
                "SR+": asdict(sr.plus), "SR-": asdict(sr.minus)}
    report = {
        "lambda0": proj.lambda0,
        "delta": proj.delta,
        "verdicts": verdicts,
        # each probe has its own seed, so its result does not depend on the others
        "kernel_sphere_probe": [
            asdict(kernel_sphere_probe(spec, proj.kernel_fields, radius,
                                       rng=np.random.default_rng([seed, i])))
            for i, radius in enumerate(problem.cfg["experiment"]["probe_radii"])
        ],
    }
    return {"resonance.json": report}, any(v["holds"] for v in verdicts.values())


def _cmd_branch(problem: Problem) -> tuple[dict, bool | None]:
    proj, spec = problem.proj, problem.spec
    e = problem.cfg["experiment"]
    sign = -1.0 if e["side"] == "minus" else 1.0
    schedule = [
        proj.lambda0 + sign * proj.delta * 2.0 ** (-k)
        for k in range(1, e["num_points"] + 1)
    ]
    branch = bif.continue_branch(schedule, proj, spec)
    rows = [
        (
            p.lam, p.l2, p.grad_l2, p.h1, p.kernel_l2, p.complement_l2,
            p.residual, p.energy, p.converged,
        )
        for p in branch
    ]
    header = ["lambda", "l2", "grad_l2", "h1", "Pu_l2", "Qu_l2", "residual", "E",
              "converged"]
    report = bif.summarize_branch(
        branch, proj, spec, e["growth_factor"], e["window"]
    )
    ll = check_landesman_lazer(spec, proj.kernel_fields,
                               rng=np.random.default_rng(problem.cfg["run"]["seed"]))
    report["resonance"] = {"LL+": asdict(ll.plus), "LL-": asdict(ll.minus)}
    verdict = report["verdict"]
    return ({"branch.csv": (header, rows), "bifurcation.json": report},
            verdict is not None and verdict["detected"])


def _cmd_semiflow(problem: Problem) -> tuple[dict, bool | None]:
    grid, op, spec = problem.grid, problem.op, problem.spec
    e = problem.cfg["experiment"]
    s = problem.cfg["spectral"]
    proj = None
    if s["lambda0_index"] is not None or s["lambda0_value"] is not None:
        proj = problem.proj
    if e["lam"] is not None:
        lam = e["lam"]
    elif proj is not None:
        lam = proj.lambda0 - proj.delta / 2.0
    else:
        raise ConfigError("[experiment] lam is required without a lambda0 selection")
    u0 = _initial_field(e["initial"], grid, proj)
    tally = None
    if e["tail_radii"]:
        if proj is None:
            raise ConfigError("[experiment] tail_radii requires a lambda0 selection")
        tally = sf.TailTally(proj, e["tail_radii"])
    # each saved state is read as it is saved, and its field kept only for
    # the snapshots: the flow holds no saved field otherwise
    rows, fields = [], []

    def on_save(st: sf.SemiflowState) -> None:
        norms = st.norms
        pu = qu = math.nan
        if proj is not None:
            kernel_part = proj.project_kernel(st.u)  # Qu = u - Pu
            pu, qu = grid.norm(kernel_part), grid.norm(st.u - kernel_part)
        rows.append((st.t, norms.l2, norms.grad_l2, norms.h1, st.J, pu, qu))
        if e["snapshots"]:
            fields.append(st.u)
        if tally is not None:
            tally.add(st)

    traj = sf.evolve(
        sf.SemiflowState(0.0, u0), lam, e["horizon"], op, spec, on_save,
        dt=e["dt"], stop=e["stop"], save_every=e["save_every"],
    )
    files = {"trajectory.csv": (["t", "l2", "grad_l2", "h1", "J", "Pu_l2", "Qu_l2"],
                                rows)}
    if e["snapshots"]:
        files["snapshots.bin"] = (grid, fields)
    report = {
        "lam": lam,
        "equilibrium": traj.equilibrium,
        "stop_reason": traj.stop_reason,
        "steps": traj.steps,
        "J_initial": rows[0][4],
        "J_final": rows[-1][4],
    }
    if tally is not None:
        report["tail_decay"] = asdict(sf.tail_decay_report(tally, spec))
    files["semiflow.json"] = report
    return files, None


def _cmd_report(problem: Problem) -> tuple[dict, bool | None]:
    merged = {}
    for name in ("spectrum", "resonance", "bifurcation", "semiflow"):
        path = problem.out_dir / f"{name}.json"
        if path.exists():
            try:
                merged[name] = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise OSError(f"{path} is not a readable JSON report: {exc}") from exc
    return {"report.json": merged}, None


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "resonance": _cmd_resonance,
    "branch": _cmd_branch,
    "semiflow": _cmd_semiflow,
    "report": _cmd_report,
}


def _write(out_dir: Path, files: dict, config: dict) -> None:
    """Write each report in order: a JSON report is a dict, to which the
    effective config is added; a CSV one (header, rows); the snapshots
    (grid, fields); the eigenpairs (key, eigenvalues, eigenfields)."""
    for name, content in files.items():
        path = out_dir / name
        if name.endswith(".json"):
            write_json(path, {**content, "config": config})
        elif name.endswith(".csv"):
            write_csv(path, *content)
        elif name == EIGENPAIRS_FILE:
            write_eigenpairs(path, *content)
        else:
            write_snapshots(path, *content)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resonance-lab",
        description="Bifurcation-from-infinity experiments for semilinear "
        "Schrodinger problems on truncated boxes.",
    )
    parser.add_argument("subcommand", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--out", default=None, help="override [output] dir")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.out is not None:
            cfg["output"]["dir"] = args.out
        problem = Problem(cfg)
        try:
            problem.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"[output] dir: {exc}") from exc
        files, verdict = _DISPATCH[args.subcommand](problem)
        _write(problem.out_dir, files,
               {name: table for name, table in cfg.items() if name != "output"})
    except (ConfigError, GridError, PotentialError, NonlinearityError) as exc:
        print(f"config error ({args.config}): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SpectralError, sf.StepRejected, sf.StepCascadeError,
            sf.TailDecayError, bif.BranchError) as exc:
        print(f"numerical failure ({args.config}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if cfg["experiment"]["expect_positive"] and verdict is not None and not verdict:
        return EXIT_VERDICT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
