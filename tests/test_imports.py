"""Which scipy modules a CLI process loads.

The package imports no scipy module at import time: the Hamiltonian applies
A and counts eigenvalues from numpy stencils, and `spectral` imports
scipy.sparse (the matrix S), scipy.sparse.linalg (SuperLU, ARPACK) and
scipy.linalg (LAPACK) at first use.  `report` only merges JSON reports, and
a `resonance` run that reuses stored eigenpairs factors nothing and calls no
eigensolver, so in 1-D it loads no scipy module, and in 2-D only
scipy.linalg, for the inertia count.  Each run is a child interpreter, since
this process has loaded scipy.sparse (pytest's SparseEfficiencyWarning
filter imports it).
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from resonance_lab import grid
from resonance_lab.cli import EXIT_OK
from test_cli import PT_BASE, _run_cli, _write

# prints the scipy modules loaded after `import resonance_lab`, after
# `import resonance_lab.cli` and after the subcommand
PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import resonance_lab
after_package = loaded()
from resonance_lab.cli import main
after_import = loaded()
code = main(sys.argv[1:])
print(json.dumps([code, after_package, after_import, loaded()]))
"""

WELL_2D = """
[grid]
ndim = 2
half_width = 6.0
points_per_axis = 33

[potential]
family = square_well
depth = -50.0
width = 2.0

[nonlinearity]
family = arctan

[spectral]
lambda0_index = 1
delta_request = 0.5
"""

PT_1D = PT_BASE.format(n=401) + """
[experiment]
num_points = 3
horizon = 1.0
"""


def _loaded(tmp_path, sub):
    """The scipy modules a child process has loaded after running the
    subcommand on tmp_path's config; the package and CLI imports load none."""
    done = _run_cli([sys.executable, "-c", PROBE], tmp_path,
                    [sub, "--config", "exp.ini", "--out", "out"], timeout=120)
    assert done.returncode == 0, done.stderr
    code, after_package, after_import, after_run = json.loads(
        done.stdout.strip().splitlines()[-1])
    assert code == EXIT_OK
    assert (after_package, after_import) == ([], [])
    return after_run


def _sparse(modules):
    return [m for m in modules if m == "scipy.sparse" or m.startswith("scipy.sparse.")]


@pytest.mark.parametrize("config", [PT_1D, WELL_2D], ids=["1d", "2d"])
def test_resonance_on_stored_pairs_loads_no_solver(tmp_path, config):
    _write(tmp_path, config)
    assert "scipy.sparse.linalg" in _loaded(tmp_path, "spectrum")
    after = _loaded(tmp_path, "resonance")
    if config is PT_1D:
        assert after == []
    else:  # the inertia count's LAPACK, and no scipy.sparse module
        assert "scipy.linalg" in after
        assert _sparse(after) == []


def test_resonance_without_stored_pairs_loads_both(tmp_path):
    _write(tmp_path, PT_1D)
    assert {"scipy.sparse.linalg", "scipy.linalg"} <= set(_loaded(tmp_path, "resonance"))


def test_report_loads_none_and_the_solving_subcommands_load_superlu(tmp_path):
    _write(tmp_path, PT_1D)
    for sub in ("spectrum", "branch", "semiflow"):
        assert "scipy.sparse.linalg" in _loaded(tmp_path, sub), sub
    assert _loaded(tmp_path, "report") == []


def test_grid_imports_no_scipy():
    # anywhere in the module, inside functions and TYPE_CHECKING blocks too:
    # the grid describes its operators by numpy stencils only
    tree = ast.parse(Path(grid.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "scipy"]
