"""CLI subcommands: reports, determinism, exit codes."""

import configparser
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import resonance_lab
from resonance_lab import cli
from resonance_lab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VERDICT, main
from resonance_lab.reporting import read_snapshots, write_eigenpairs
from resonance_lab.spectral import SpectralError

PT_BASE = """
[grid]
ndim = 1
half_width = 20.0
points_per_axis = {n}

[potential]
family = poschl_teller
ell = 2

[nonlinearity]
family = arctan

[spectral]
lambda0_value = -1.0
delta_request = 0.25
morse_lambdas = -0.5 -2.0

[run]
seed = 7
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(tmp_path, sub, cfg_text, extra=()):
    cfg = _write(tmp_path, cfg_text)
    out = tmp_path / "out"
    code = main([sub, "--config", cfg, "--out", str(out), *extra])
    return code, out


def test_spectrum_poschl_teller(tmp_path):
    code, out = _run(tmp_path, "spectrum", PT_BASE.format(n=4001))
    assert code == EXIT_OK
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "lambda,multiplicity,residual"
    table = [line.split(",") for line in lines[1:]]
    assert len(table) == 2
    assert abs(float(table[0][0]) + 4.0) <= 1e-3
    assert abs(float(table[1][0]) + 1.0) <= 1e-3
    report = json.loads((out / "spectrum.json").read_text())
    assert report["morse_counts"]["-0.5"]["k"] == 2
    assert report["morse_counts"]["-2.0"]["k"] == 1
    assert report["alpha_inf"] == 0.0  # declared by the family, not sampled
    assert set(report) == {"alpha_inf", "ceiling", "eigenvalues", "multiplets",
                           "morse_counts", "config"}
    assert report["config"]["run"]["seed"] == 7


def test_spectrum_empty_for_free_operator(tmp_path):
    cfg = """
[grid]
ndim = 1
half_width = 20.0
points_per_axis = 1001

[potential]
family = constant
c = 0.0

[spectral]
ceiling = -0.1
"""
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == EXIT_OK
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines == ["lambda,multiplicity,residual"]
    report = json.loads((out / "spectrum.json").read_text())
    assert report["alpha_inf"] == 0.0
    assert report["eigenvalues"] == []


def test_branch_zero_nonlinearity_verdict_negative(tmp_path):
    cfg = PT_BASE.format(n=1001).replace("family = arctan", "family = zero")
    cfg += "\n[experiment]\nnum_points = 6\nexpect_positive = true\n"
    code, out = _run(tmp_path, "branch", cfg)
    assert code == EXIT_VERDICT
    report = json.loads((out / "bifurcation.json").read_text())
    assert report["verdict"]["detected"] is False
    assert report["necessary_conditions"]["trivial_branch"] is True


def test_branch_arctan_detects(tmp_path):
    cfg = PT_BASE.format(n=1001) + "\n[experiment]\nnum_points = 8\nexpect_positive = true\n"
    code, out = _run(tmp_path, "branch", cfg)
    assert code == EXIT_OK
    report = json.loads((out / "bifurcation.json").read_text())
    assert report["verdict"]["detected"] is True
    assert -1.3 <= report["verdict"]["fitted_power"] <= -0.7
    lines = (out / "branch.csv").read_text().strip().split("\n")
    assert lines[0] == "lambda,l2,grad_l2,h1,Pu_l2,Qu_l2,residual,E,converged"
    assert len(lines) == 9
    assert all(line.endswith("true") for line in lines[1:])


def test_branch_determinism(tmp_path):
    # identical config + seed must produce byte-identical reports; the
    # eigensolver must use a fixed Lanczos start vector
    cfg_text = PT_BASE.format(n=2001) + "\n[experiment]\nnum_points = 6\n"
    cfg = _write(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert main(["branch", "--config", cfg, "--out", str(out)]) == EXIT_OK
    first = {f: (out / f).read_bytes() for f in ("branch.csv", "bifurcation.json")}
    assert main(["branch", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for fname, payload in first.items():
        assert (out / fname).read_bytes() == payload


def test_report_independent_of_output_dir(tmp_path):
    cfg = _write(tmp_path, PT_BASE.format(n=401))
    payloads = []
    for out in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payloads.append((out / "spectrum.json").read_bytes())
    assert payloads[0] == payloads[1]


def test_resonance_report(tmp_path):
    code, out = _run(tmp_path, "resonance", PT_BASE.format(n=1001))
    assert code == EXIT_OK
    report = json.loads((out / "resonance.json").read_text())
    assert report["verdicts"]["LL+"]["holds"] is True
    assert report["verdicts"]["LL-"]["holds"] is False
    assert report["verdicts"]["SR+"]["applicable"] is False
    probes = report["kernel_sphere_probe"]
    assert [p["radius"] for p in probes] == [1.0, 10.0, 100.0]
    assert all(set(p) == {"radius", "min_pairing"} for p in probes)
    assert all(p["min_pairing"] > 0 for p in probes)


def test_resonance_report_independent_of_core_count(tmp_path, monkeypatch):
    # reports must be byte-identical across machines, not only across reruns
    cfg = _write(tmp_path, PT_BASE.format(n=1001))
    out = tmp_path / "out"
    reports = []
    for cores in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert main(["resonance", "--config", cfg, "--out", str(out)]) == EXIT_OK
        reports.append((out / "resonance.json").read_bytes())
    assert reports[0] == reports[1]
    assert "workers" not in json.loads(reports[0])["config"]["run"]


def test_semiflow_trajectory_and_snapshots(tmp_path, flow):
    cfg = PT_BASE.format(n=1001) + (
        "\n[experiment]\nhorizon = 0.5\nstop = time-only\nsave_every = 10\n"
        "initial = kernel 2.0\nsnapshots = true\ntail_radii = 4 8\n"
    )
    code, out = _run(tmp_path, "semiflow", cfg)
    assert code == EXIT_OK
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,l2,grad_l2,h1,J,Pu_l2,Qu_l2"
    assert len(lines) > 3
    js = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(b <= a + 1e-8 for a, b in zip(js, js[1:]))
    ndim, n, L, fields = read_snapshots(out / "snapshots.bin")
    assert (ndim, n, L) == (1, 1001, 20.0)
    assert fields.shape[0] == len(lines) - 1
    report = json.loads((out / "semiflow.json").read_text())
    assert report["tail_decay"]["all_guaranteed_passed"] is True
    assert report["J_initial"] == js[0] and report["J_final"] == js[-1]
    # the snapshots are the saved fields of the same flow run by the library
    grid = resonance_lab.make_grid(1, 20.0, 1001)
    op = resonance_lab.assemble_hamiltonian(
        resonance_lab.make_potential(grid, "poschl_teller", ell=2))
    proj = resonance_lab.build_projections(resonance_lab.eigenpairs_below(op), -1.0, 0.25)
    _, states = flow(
        resonance_lab.SemiflowState(0.0, 2.0 * proj.kernel_fields[:, 0]),
        proj.lambda0 - proj.delta / 2.0, 0.5, op, resonance_lab.saturating_arctan(grid),
        stop="time-only", save_every=10,
    )
    assert np.array_equal(fields, np.array([s.u for s in states]))
    # the Pu_l2 and Qu_l2 columns are the norms of the projected snapshots
    for line, u in zip(lines[1:], fields):
        pu, qu = line.split(",")[5:]
        assert pu == repr(grid.norm(proj.project_kernel(u)))
        assert qu == repr(grid.norm(proj.project_complement(u)))


def test_report_merges(tmp_path):
    cfg_text = PT_BASE.format(n=1001)
    cfg = _write(tmp_path, cfg_text)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["resonance", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
    merged = json.loads((out / "report.json").read_text())
    assert "spectrum" in merged and "resonance" in merged
    assert merged["spectrum"]["morse_counts"]["-0.5"]["k"] == 2


def test_exit_code_missing_config(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_exit_code_bad_section(tmp_path):
    cfg = _write(tmp_path, "[grid]\nndim = 1\n")  # missing required keys
    assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG


def test_exit_code_undecodable_config(tmp_path):
    (tmp_path / "exp.ini").write_bytes(b"[grid]\nndim = \xff\n")
    assert main(["spectrum", "--config", str(tmp_path / "exp.ini")]) == EXIT_CONFIG


def test_exit_code_unresolvable_lambda0(tmp_path, capsys):
    # off the computed spectrum (-4, -1), and past its two multiplets
    for select, message in [
        ("lambda0_value = -2.5", "unresolvable lambda0: lambda0 = -2.5 is not in "
                                 "the computed spectrum"),
        ("lambda0_index = 7", "unresolvable lambda0: multiplet index 7 out of "
                              "range (2 found)"),
    ]:
        cfg_text = PT_BASE.format(n=1001).replace("lambda0_value = -1.0", select)
        code, _ = _run(tmp_path, "resonance", cfg_text)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_exit_code_numerical_failure(tmp_path):
    # a ceiling above alpha_inf is rejected by the eigensolver contract
    cfg_text = PT_BASE.format(n=1001) + "\n[spectral]\nceiling = 2.0\n"
    cfg_text = cfg_text.replace("[spectral]\nlambda0_value", "[old]\nlambda0_value")
    code, _ = _run(tmp_path, "spectrum", cfg_text)
    assert code == EXIT_NUMERICAL


@pytest.mark.parametrize("stop", ["equilibrium", "time-only"])
def test_semiflow_overflow_is_a_numerical_failure(tmp_path, stop):
    # at lam = 1e10 the default dt is ~1e-11, above the floor, and every mode
    # grows by ~1/0.9 a step, so the flow overflows within a few thousand
    # steps: no stop rule may report the overflowed state, let alone call it
    # an equilibrium
    _write(tmp_path, PT_BASE.format(n=401)
           + f"\n[experiment]\nlam = 1e10\nstop = {stop}\nhorizon = 0.2\n")
    done = _run_cli([sys.executable, "-m", "resonance_lab.cli"], tmp_path,
                    ["semiflow", "--config", "exp.ini", "--out", "out"])
    assert done.returncode == EXIT_NUMERICAL, done.stderr
    assert re.search(r"semiflow overflow at t = \S+: (step rate|H1 norm) = ",
                     done.stderr)
    # the rows built so far are not written: a failing flow writes no file
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("experiment", [
    "lam = -1e300\nstop = time-only",  # ~1e300 steps of dt ~1e-301, no stop rule
    "lam = 1e300\nstop = equilibrium",
    "dt = 1e-13\nstop = time-only",
], ids=["lam-neg-1e300", "lam-1e300", "dt-1e-13"])
def test_semiflow_dt_below_floor_is_a_numerical_failure(tmp_path, experiment):
    # refused before the first step: without the check the first case runs
    # until killed, so the child gets a timeout
    _write(tmp_path, PT_BASE.format(n=401)
           + f"\n[experiment]\n{experiment}\nhorizon = 0.2\n")
    done = _run_cli([sys.executable, "-m", "resonance_lab.cli"], tmp_path,
                    ["semiflow", "--config", "exp.ini", "--out", "out"], timeout=60)
    assert done.returncode == EXIT_NUMERICAL, done.stderr
    assert re.search(r"initial dt = \S+ is below the floor 1e-12", done.stderr)
    assert not (tmp_path / "out" / "semiflow.json").exists()


def test_unknown_subcommand_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x"])
    assert exc.value.code == 2


def _run_cli(command, cwd, args, timeout=300):
    """Run the CLI as its own process, importing the package under test."""
    src = str(Path(resonance_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([*command, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_console_script_installed(tmp_path):
    # The declared console script is bound to the CLI's main ...
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "resonance-lab" in scripts
    entry = EntryPoint("resonance-lab", scripts["resonance-lab"], "console_scripts")
    assert entry.load() is main

    # ... and runs as a process the way the generated script does:
    # sys.exit(main()) carries the return code to the exit status.
    module = [sys.executable, "-m", "resonance_lab.cli"]
    _write(tmp_path, PT_BASE.format(n=1001))
    _write(tmp_path, "[grid]\nndim = 1\n", name="bad.ini")
    spectrum = ["spectrum", "--config", "exp.ini", "--out", "out"]
    done = _run_cli(module, tmp_path, spectrum)
    assert done.returncode == EXIT_OK, done.stderr
    reports = {name: (tmp_path / "out" / name).read_bytes()
               for name in ("spectrum.csv", "spectrum.json")}
    done = _run_cli(module, tmp_path, ["spectrum", "--config", "bad.ini"])
    assert done.returncode == EXIT_CONFIG
    assert "config error" in done.stderr
    done = _run_cli(module, tmp_path, ["--help"])
    assert done.returncode == EXIT_OK
    assert done.stdout.startswith("usage: resonance-lab")

    # Where an installer has put the script on PATH, it gives the same reports.
    script = shutil.which("resonance-lab")
    if script is not None:
        for name in reports:
            (tmp_path / "out" / name).unlink()
        done = _run_cli([script], tmp_path, spectrum)
        assert done.returncode == EXIT_OK, done.stderr
        for name, data in reports.items():
            assert (tmp_path / "out" / name).read_bytes() == data


def test_seed_override_changes_embedded_config(tmp_path):
    cfg = _write(tmp_path, PT_BASE.format(n=1001))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out), "--seed", "99"]) == EXIT_OK
    report = json.loads((out / "spectrum.json").read_text())
    assert report["config"]["run"]["seed"] == 99


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    # default_rng takes no negative seed: every subcommand refuses it up front
    cfg = _write(tmp_path, PT_BASE.format(n=1001))
    for sub in cli._DISPATCH:
        out = tmp_path / sub
        assert main([sub, "--config", cfg, "--out", str(out), "--seed", "-1"]) \
            == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


def test_control_characters_in_the_config_make_strict_json(tmp_path):
    # a tab inside `initial` is embedded in the report's config, escaped, so
    # `report` reads the package's own semiflow.json back
    cfg = PT_BASE.format(n=1001) + (
        "\n[experiment]\nhorizon = 0.05\ninitial = kernel\t2.0\n")
    code, out = _run(tmp_path, "semiflow", cfg)
    assert code == EXIT_OK
    code, out = _run(tmp_path, "report", cfg)
    assert code == EXIT_OK
    merged = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert merged["semiflow"]["config"]["experiment"]["initial"] == "kernel\t2.0"


@pytest.mark.parametrize("value", ["0", "3", "1e300", None],
                         ids=["ceiling", "above", "huge", "on-the-spectrum"])
def test_morse_lambda_without_a_count_is_config_error(tmp_path, capsys, value):
    # k(λ) is defined below the ceiling (0 here) and off the spectrum; only
    # the eigensolve can tell.  None asks for an eigenvalue itself, the last
    # one a first run writes to spectrum.csv
    if value is None:
        code, out = _run(tmp_path, "spectrum", PT_BASE.format(n=1001))
        assert code == EXIT_OK
        value = (out / "spectrum.csv").read_text().splitlines()[-1].split(",")[0]
        shutil.rmtree(out)
    cfg = PT_BASE.format(n=1001).replace("morse_lambdas = -0.5 -2.0",
                                         f"morse_lambdas = -0.5 {value}")
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == EXIT_CONFIG
    assert "[spectral] morse_lambdas" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_schedule_finer_than_lambda0_resolution_is_config_error(tmp_path, capsys):
    # lambda0 - delta 2^-k with delta = 0.25 rounds to lambda0 from k = 51 on,
    # below half a float spacing of lambda0: such points cannot be told apart
    cfg = PT_BASE.format(n=401) + "\n[experiment]\nnum_points = 60\n"
    code, out = _run(tmp_path, "branch", cfg)
    assert code == EXIT_CONFIG
    assert "[experiment] num_points = 60" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_semiflow_without_a_step_has_no_tail_report(tmp_path, capsys):
    # a horizon within the step loop's 1e-12 slack takes no step, which
    # leaves the tail-decay bound one saved state
    cfg = PT_BASE.format(n=401) + "\n[experiment]\nhorizon = 1e-13\ntail_radii = 5\n"
    code, _ = _run(tmp_path, "semiflow", cfg)
    assert code == EXIT_NUMERICAL
    assert "fewer than two saved states" in capsys.readouterr().err


MALFORMED = [  # (subcommand, section, key, value)
    ("semiflow", "experiment", "save_every", "0"),
    ("semiflow", "experiment", "stop", "equlibrium"),
    ("semiflow", "experiment", "stop", "j-plateau"),  # not one of STOP_RULES
    ("semiflow", "experiment", "snapshots", "ture"),
    ("branch", "experiment", "side", "minsu"),
    ("branch", "experiment", "num_points", "0"),
    ("branch", "experiment", "window", "0"),
    ("branch", "experiment", "window", "1"),
    ("semiflow", "experiment", "initial", "gaussian abc"),
    ("semiflow", "experiment", "initial", "kernel 2.0 1.0"),
    ("semiflow", "experiment", "initial", "gaussian 1.0 0.0 0.0"),  # width 0
    ("semiflow", "experiment", "initial", "gaussian 1.0 0.0 1e-170"),  # width^2 = 0
    ("semiflow", "experiment", "dt", "0"),
    ("semiflow", "experiment", "horizon", "0.2%"),
    ("semiflow", "experiment", "tail_radii", "5 x"),
    ("resonance", "experiment", "probe_radii", "1 x"),  # a removed key: unknown
    ("branch", "experiment", "probe_radii", "0"),  # branch refuses it too
    ("spectrum", "potential", "center", "0 q"),
    ("spectrum", "spectral", "morse_lambdas", "-4.5 abc"),
    ("resonance", "spectral", "delta_request", "-0.25"),
    ("resonance", "spectral", "lambda0_index", "0"),  # PT_BASE sets lambda0_value
    ("spectrum", "grid", "ndim", "1\nndim = 2"),  # a duplicated key
    ("spectrum", None, "ndim", "1"),  # a key above the first section header
    ("semiflow", "experiment", "horizn", "0.2"),  # a key the section does not list
    ("resonance", "nonlinearity", "amplitude", "-1"),
    ("branch", "nonlinearity", "width", "0"),
    ("semiflow", "experiment", "lam", "nan"),
    ("semiflow", "experiment", "lam", "inf"),
    ("spectrum", "spectral", "lambda0_value", "nan"),
    ("spectrum", "spectral", "ceiling", "nan"),
    ("semiflow", "experiment", "tail_radii", "0"),
    ("semiflow", "experiment", "tail_radii", "nan"),
    ("semiflow", "experiment", "tail_radii", "5 50"),  # beyond half_width = 20
    ("semiflow", "grid", "half_width", "-5"),  # refused before the grid is built
    # refused when the grid or the nonlinearity is built, not by parse_config
    ("spectrum", "grid", "half_width", "1e300"),  # node radii overflow
    ("spectrum", "grid", "half_width", "1e-300"),  # 1/h^2 overflows
    ("branch", "nonlinearity", "amplitude", "1e300"),  # m has no finite L2 norm
]
REFUSED_AT_SETUP = {("grid", "half_width", "1e300"), ("grid", "half_width", "1e-300"),
                    ("nonlinearity", "amplitude", "1e300")}


def _reads_float(cast) -> bool:
    try:
        value = cast("1.5")
    except ValueError:
        return False
    return value == 1.5 or value == [1.5]


# every key whose value is read as a float refuses nan, keys added later too;
# each is run by a subcommand that reads its section
READER = {"nonlinearity": "resonance", "experiment": "semiflow"}
MALFORMED += [
    (READER.get(section, "spectrum"), section, key, "nan")
    for section, table in cli.SCHEMA.items()
    for key, (cast, _) in table.items()
    if _reads_float(cast) and not any(m[1:] == (section, key, "nan") for m in MALFORMED)
]


@pytest.mark.parametrize("sub, section, key, value", MALFORMED,
                         ids=[f"{sub}-{key}-{value}" for sub, _, key, value in MALFORMED])
def test_malformed_experiment_value_is_config_error(tmp_path, capsys, sub, section,
                                                    key, value):
    # `key = value` replaces the key's line in PT_BASE, or else opens [section]
    cfg, line = PT_BASE.format(n=1001), f"{key} = {value}\n"
    if section is None:
        cfg = line + cfg
    elif f"\n{key} = " in cfg:
        cfg = re.sub(rf"\n{key} = .*\n", lambda _: "\n" + line, cfg, count=1)
    elif f"[{section}]\n" in cfg:
        cfg = cfg.replace(f"[{section}]\n", f"[{section}]\n" + line)
    else:
        cfg += f"\n[{section}]\n" + line
    if (section, key, value) in REFUSED_AT_SETUP:
        cli.parse_config(_write(tmp_path, cfg))
    else:
        with pytest.raises(cli.ConfigError, match=key):  # before any set-up runs
            cli.parse_config(_write(tmp_path, cfg))
    code, out = _run(tmp_path, sub, cfg)
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


WARMUP = Path(__file__).resolve().parents[1] / "bench" / "configs" / "warmup.ini"


def _warmup_with(path, section, key, value) -> str:
    """Write warmup.ini with `key = value` in [section] to path."""
    config = configparser.ConfigParser(interpolation=None)
    config.read(WARMUP)
    if not config.has_section(section):  # warmup.ini has no [run]
        config.add_section(section)
    config[section][key] = value
    with open(path, "w") as fh:
        config.write(fh)
    return str(path)

# the solver and eigensolve limits and the probe radii are constants of the
# library, no longer config keys: a config that still sets one is refused
# like a typo
REMOVED_KEYS = [("spectral", "tol_eig", "1e-8"), ("spectral", "cluster_tol", "1e-6"),
                ("spectral", "max_count", "64"), ("experiment", "tol_fp", "1e-8"),
                ("experiment", "tol_pde", "1e-6"), ("experiment", "max_iter", "200"),
                ("experiment", "sample_budget", "4096"),
                ("experiment", "probe_radii", "1 10 100")]


@pytest.mark.parametrize("section, key, value", REMOVED_KEYS,
                         ids=[key for _, key, _ in REMOVED_KEYS])
def test_removed_key_is_an_unknown_key(tmp_path, capsys, section, key, value):
    path = _warmup_with(tmp_path / "old.ini", section, key, value)
    for sub in cli._DISPATCH:
        out = tmp_path / sub
        assert main([sub, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert f"[{section}] unknown key {key}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "abc", "", "-0.5", "3")
FUZZ_KEYS = [(section, key) for section, table in cli.SCHEMA.items()
             if section != "output" for key in table]


@pytest.mark.parametrize("section, key", FUZZ_KEYS,
                         ids=[f"{section}-{key}" for section, key in FUZZ_KEYS])
def test_every_config_value_exits_with_a_code(tmp_path, section, key):
    # each value of FUZZ_VALUES in place of one key of the warmup config: no
    # subcommand raises, each exits 0, 2, 3 or 4, and a value that
    # parse_config refuses exits 2 from all of them.  No run may warn: the
    # test configuration raises a RuntimeWarning as an error
    for i, value in enumerate(FUZZ_VALUES):
        path = _warmup_with(tmp_path / f"{i}.ini", section, key, value)
        try:
            cli.parse_config(path)
            refused = False
        except cli.ConfigError:
            refused = True
        codes = []
        for sub in ("spectrum", "resonance", "branch", "semiflow"):
            argv = [sub, "--config", path, "--out", str(tmp_path / f"out{i}")]
            try:
                codes.append(main(argv))
            except Exception as exc:  # noqa: BLE001
                pytest.fail(f"{key} = {value!r}: {sub} raised {exc!r}")
        assert set(codes) <= {EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_VERDICT}, \
            (value, codes)
        if refused:
            assert codes == [EXIT_CONFIG] * 4, (value, codes)


@pytest.mark.parametrize("offset, code, message", [
    ("1e300", EXIT_CONFIG, "lowest Dirichlet level"),
    ("-1e300", EXIT_CONFIG, "lowest Dirichlet level"),
    ("1e16", EXIT_CONFIG, "lowest Dirichlet level"),
    ("1e12", EXIT_NUMERICAL, "exceeds tol_eig"),  # rounding 2.2e-4, level 0.025
])
def test_potential_beyond_the_kinetic_scale(tmp_path, capsys, offset, code, message):
    # on warmup.ini (L = 10) max|V|·eps reaches (π/20)^2 at |V| ≈ 1.1e14; a
    # potential below that is solved, and its eigen-residual is checked
    path = _warmup_with(tmp_path / "offset.ini", "potential", "offset", offset)
    assert main(["spectrum", "--config", path, "--out", str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"{broken", b'{"eigenvalues": "\xff"}'],
                         ids=["not-json", "not-utf8"])
def test_report_on_a_broken_report_file(tmp_path, capsys, content):
    out = tmp_path / "out"
    out.mkdir()
    (out / "spectrum.json").write_bytes(content)
    assert main(["report", "--config", str(WARMUP), "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("i/o error") and str(out / "spectrum.json") in err
    assert not (out / "report.json").exists()


def test_long_flow_keeps_a_finite_tail_bound(tmp_path):
    # horizon = 80 on warmup.ini: the complement grows to about 1e88, where
    # |Qu|^4 overflows a float, so the Hoelder factor is finite only because
    # lp_norm scales the field by its maximum; the test configuration raises
    # a RuntimeWarning as an error
    path = _warmup_with(tmp_path / "long.ini", "experiment", "horizon", "80")
    out = tmp_path / "out"
    assert main(["semiflow", "--config", path, "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "semiflow.json").read_text())["tail_decay"]["rows"]
    assert rows and all(r["bound"] is not None and np.isfinite(r["bound"]) for r in rows)


FAMILY_PARAMETERS = [  # (subcommand, replaced text, replacement, word in the error)
    ("spectrum", "ell = 2\n", "", "ell"),
    ("spectrum", "family = poschl_teller\nell = 2", "family = custom", "evaluator"),
    ("spectrum", "ell = 2\n", "ell = 2\ndepth = -50\n", "depth"),
    ("resonance", "family = arctan", "family = zero\namplitude = 2", "amplitude"),
]


@pytest.mark.parametrize("sub, old, new, word", FAMILY_PARAMETERS,
                         ids=["missing-ell", "custom", "leftover-depth",
                              "zero-amplitude"])
def test_family_parameters_are_checked(tmp_path, capsys, sub, old, new, word):
    cfg = PT_BASE.format(n=1001)
    assert old in cfg
    code, out = _run(tmp_path, sub, cfg.replace(old, new, 1))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and word in err
    assert not out.exists() or not any(out.iterdir())


def test_readme_schema_matches_the_config_table(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema (INI)")[1].split("```ini\n")[1]
    block = block.split("```")[0]
    keys = {}
    for line in block.splitlines():  # commented-out keys count too
        if header := re.match(r"\[(\w+)\]", line):
            section = keys.setdefault(header[1], set())
        elif key := re.match(r"#? ?(\w+) =", line):
            section.add(key[1])
    assert keys == {name: set(table) for name, table in cli.SCHEMA.items()}
    cli.parse_config(_write(tmp_path, block))  # and the example is a valid config


def test_spectrum_never_builds_the_nonlinearity(tmp_path):
    cfg = PT_BASE.format(n=1001).replace("family = arctan", "family = bogus")
    code, out = _run(tmp_path, "spectrum", cfg)
    assert code == EXIT_OK
    assert (out / "spectrum.json").exists()


SEMIFLOW_NO_LAMBDA0 = PT_BASE.format(n=1001).replace("lambda0_value = -1.0\n", "") + (
    "\n[experiment]\nhorizon = 0.05\nstop = time-only\ninitial = gaussian 1.0\n"
)


def test_semiflow_without_lambda0_skips_the_eigensolver(tmp_path, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolver called without a lambda0 selection")

    monkeypatch.setattr(cli, "eigenpairs_below", no_eigensolve)
    cfg = SEMIFLOW_NO_LAMBDA0.replace("horizon", "lam = -2.0\nhorizon")
    code, out = _run(tmp_path, "semiflow", cfg)
    assert code == EXIT_OK
    assert json.loads((out / "semiflow.json").read_text())["lam"] == -2.0


def test_semiflow_counts_the_steps_of_a_halved_dt(tmp_path):
    # at lam = -1.125, dt = 1 loses positivity (min V = -6) and is halved
    # to 0.125: the horizon 2 takes 16 steps
    cfg = PT_BASE.format(n=1001) + (
        "\n[experiment]\nlam = -1.125\ndt = 1.0\nhorizon = 2.0\n"
        "stop = time-only\n")
    code, out = _run(tmp_path, "semiflow", cfg)
    assert code == EXIT_OK
    assert json.loads((out / "semiflow.json").read_text())["steps"] == 16


def test_a_narrow_gaussian_is_a_finite_field_without_warnings(pt_grid):
    # width^2 = 1e-320 is not 0: |x|^2 / width^2 overflows to inf off the
    # center, where the field is exp(-inf) = 0, and no warning is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = cli._initial_field("gaussian 2.0 0.0 1e-160", pt_grid, None)
    assert np.array_equal(u, np.where(pt_grid.axis == 0.0, 2.0, 0.0))
    assert np.count_nonzero(u) == 1


@pytest.mark.parametrize("sub", ["resonance", "branch"])
def test_missing_lambda0_selection_is_refused_before_the_eigensolve(
        tmp_path, capsys, monkeypatch, sub):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolver called without a lambda0 selection")

    monkeypatch.setattr(cli, "eigenpairs_below", no_eigensolve)
    code, out = _run(tmp_path, sub, SEMIFLOW_NO_LAMBDA0)
    assert code == EXIT_CONFIG
    assert "needs lambda0_index or lambda0_value" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_semiflow_without_lambda0_needs_lam(tmp_path, capsys):
    code, _ = _run(tmp_path, "semiflow", SEMIFLOW_NO_LAMBDA0)
    assert code == EXIT_CONFIG
    assert "lam is required" in capsys.readouterr().err


def test_semiflow_tail_radii_without_lambda0_is_config_error(tmp_path, capsys):
    # like initial = kernel: the tail bound is a bound on Qu, which needs λ0
    cfg = SEMIFLOW_NO_LAMBDA0.replace("horizon", "lam = -2.0\ntail_radii = 5\nhorizon")
    code, out = _run(tmp_path, "semiflow", cfg)
    assert code == EXIT_CONFIG
    assert "tail_radii requires a lambda0 selection" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_branch_builds_each_stage_once(tmp_path, monkeypatch):
    calls = {"assemble_hamiltonian": 0, "eigenpairs_below": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    cfg = PT_BASE.format(n=1001) + "\n[experiment]\nnum_points = 6\n"
    code, _ = _run(tmp_path, "branch", cfg)
    assert code == EXIT_OK
    assert calls == {"assemble_hamiltonian": 1, "eigenpairs_below": 1}


# -- eigenpairs stored by `spectrum`, reused by the later subcommands -----------

REUSE = PT_BASE.format(n=1001) + "\n[experiment]\nnum_points = 4\nhorizon = 0.05\n"
REPORTS = {"resonance": ["resonance.json"],
           "branch": ["branch.csv", "bifurcation.json"],
           "semiflow": ["trajectory.csv", "semiflow.json"]}


def test_later_subcommands_reuse_the_stored_eigenpairs(tmp_path, eigsh_calls):
    cfg = _write(tmp_path, REUSE)
    shared = tmp_path / "shared"
    for sub in ("spectrum", *REPORTS, "report"):
        assert main([sub, "--config", cfg, "--out", str(shared)]) == EXIT_OK
    assert len(eigsh_calls) == 1  # `spectrum` alone solved
    assert {p.name for p in shared.iterdir()} == {
        "spectrum.csv", "spectrum.json", cli.EIGENPAIRS_FILE, "report.json",
        *(name for names in REPORTS.values() for name in names)}
    for sub, names in REPORTS.items():  # each alone solves, to the same bytes
        alone = tmp_path / sub
        assert main([sub, "--config", cfg, "--out", str(alone)]) == EXIT_OK
        assert not (alone / cli.EIGENPAIRS_FILE).exists()
        for name in names:
            assert (alone / name).read_bytes() == (shared / name).read_bytes()
    assert len(eigsh_calls) == 1 + len(REPORTS)
    # `spectrum` always solves, even over a file it could reuse
    spectrum = (shared / "spectrum.json").read_bytes()
    assert main(["spectrum", "--config", cfg, "--out", str(shared)]) == EXIT_OK
    assert len(eigsh_calls) == 2 + len(REPORTS)
    assert (shared / "spectrum.json").read_bytes() == spectrum


def test_stored_eigenpairs_survive_a_change_the_eigensolve_does_not_read(
        tmp_path, eigsh_calls):
    # another λ0 selection, delta_request and morse_lambdas: the key is the
    # same, so `resonance` reuses the pairs and writes what a fresh solve does
    cfg = _write(tmp_path, REUSE)
    shared = tmp_path / "shared"
    assert main(["spectrum", "--config", cfg, "--out", str(shared)]) == EXIT_OK
    spectral = "lambda0_value = -1.0\ndelta_request = 0.25\nmorse_lambdas = -0.5 -2.0\n"
    assert spectral in REUSE
    changed = _write(tmp_path, REUSE.replace(
        spectral, "lambda0_index = 0\ndelta_request = 0.5\nmorse_lambdas = -3.0\n"),
        "changed.ini")
    assert main(["resonance", "--config", changed, "--out", str(shared)]) == EXIT_OK
    assert len(eigsh_calls) == 1
    fresh = tmp_path / "fresh"
    assert main(["resonance", "--config", changed, "--out", str(fresh)]) == EXIT_OK
    assert len(eigsh_calls) == 2
    assert ((fresh / "resonance.json").read_bytes()
            == (shared / "resonance.json").read_bytes())


def _rewrite(path, change):
    with np.load(path) as archive:
        key, vals, fields = (archive[name] for name in ("key", "eigenvalues", "eigenfields"))
    key, vals, fields = change(str(key), vals.copy(), fields.copy())
    write_eigenpairs(path, key, vals, fields)


def _duplicate_first(key, vals, fields):
    vals[1], fields[:, 1] = vals[0], fields[:, 0]
    return key, vals, fields


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_middle_bytes(path):
    raw = bytearray(path.read_bytes())
    mid = len(raw) // 2
    raw[mid: mid + 8] = bytes(b ^ 0xFF for b in raw[mid: mid + 8])
    path.write_bytes(raw)


FAULTS = {  # name -> (fault written over the stored file, the check that fires)
    "key": (lambda p: _rewrite(p, lambda k, v, f: (k.replace("1001", "1003"), v, f)),
            None),
    "truncated": (_truncate, None),
    "corrupt": (_flip_middle_bytes, None),
    "shifted": (lambda p: _rewrite(p, lambda k, v, f: (k, v + [1e-3, 0.0], f)),
                "residual"),
    "dropped": (lambda p: _rewrite(p, lambda k, v, f: (k, v[:1], f[:, :1])),
                "inertia"),
    "duplicated": (lambda p: _rewrite(p, _duplicate_first), "orthonormal"),
    "shape": (lambda p: _rewrite(p, lambda k, v, f: (k, v, f[:-1])), "fit a grid"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_stored_eigenpairs_that_fail_a_check_are_solved_again(tmp_path, monkeypatch,
                                                              eigsh_calls, fault):
    cfg = _write(tmp_path, REUSE)
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(["resonance", "--config", cfg, "--out", str(fresh)]) == EXIT_OK
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    break_file, check = FAULTS[fault]
    break_file(out / cli.EIGENPAIRS_FILE)
    refusals = []
    real_reuse = cli.reuse_eigenpairs

    def reuse(*args, **kwargs):
        try:
            return real_reuse(*args, **kwargs)
        except SpectralError as exc:
            refusals.append(str(exc))
            raise

    monkeypatch.setattr(cli, "reuse_eigenpairs", reuse)
    del eigsh_calls[:]
    assert main(["resonance", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(eigsh_calls) == 1
    if check is None:  # the file is not read as eigenpairs of this config
        assert refusals == []
    else:
        assert len(refusals) == 1 and check in refusals[0]
    assert (out / "resonance.json").read_bytes() == (fresh / "resonance.json").read_bytes()
