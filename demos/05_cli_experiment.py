"""Reproducible experiments through the CLI.

Writes an INI config, runs the branch experiment twice through the
`resonance-lab` entry point, and confirms the reports are byte-identical:
identical config + seed means identical output, down to float formatting.
"""

import json
import tempfile
from pathlib import Path

from resonance_lab.cli import main

CONFIG = """\
[grid]
ndim = 1
half_width = 20.0
points_per_axis = 2001

[potential]
family = poschl_teller
ell = 2

[nonlinearity]
family = arctan

[spectral]
lambda0_value = -1.0
delta_request = 0.25
morse_lambdas = -0.5 -2.0

[experiment]
num_points = 10
expect_positive = true

[run]
seed = 42
"""

with tempfile.TemporaryDirectory(prefix="resonance_lab_demo_") as tmp:
    workdir = Path(tmp)
    config_path = workdir / "branch.ini"
    config_path.write_text(CONFIG)
    out = workdir / "out"

    print(f"work dir: {workdir}")
    code = main(["spectrum", "--config", str(config_path), "--out", str(out)])
    print(f"spectrum exit code: {code}")
    print((out / "spectrum.csv").read_text())

    code = main(["branch", "--config", str(config_path), "--out", str(out)])
    print(f"branch exit code: {code} (0 = detected, 4 = expected-positive failed)")

    first = (out / "bifurcation.json").read_bytes()
    main(["branch", "--config", str(config_path), "--out", str(out)])
    second = (out / "bifurcation.json").read_bytes()
    print(f"byte-identical on rerun: {first == second}")

    report = json.loads(first)
    v = report["verdict"]
    print(f"\nverdict: detected={v['detected']}  fitted power {v['fitted_power']:+.3f}")
    nc = report["necessary_conditions"]
    print(f"Qu bound check: max {nc['qu_max']:.4f} <= {nc['qu_bound']:.4f}"
          f" -> {nc['qu_bound_passed']}")

    code = main(["report", "--config", str(config_path), "--out", str(out)])
    print(f"\nmerged report written: {out / 'report.json'} (exit {code})")
