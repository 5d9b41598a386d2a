"""Which scipy modules a CLI process loads.

The package imports no scipy module at import time: the Hamiltonian applies
A from numpy stencils, the inertia count runs on numpy alone (odd-even
reduction in 1-D, numpy.linalg on the line blocks in 2-D), the same
reduction factors the 1-D IMEX matrix, and `spectral` imports
scipy.sparse (the matrix S) and scipy.sparse.linalg (SuperLU, ARPACK) at
first use.  `report` only merges JSON reports, and a `resonance` run that
reuses stored eigenpairs factors nothing and calls no eigensolver, so it
loads no scipy module, in 1-D as in 2-D; nor does a 1-D `semiflow` on
stored eigenpairs.  Each run is a child
interpreter, since this process has loaded scipy.sparse (pytest's
SparseEfficiencyWarning filter imports it).
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from resonance_lab import grid, spectral
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


@pytest.mark.parametrize("config", [PT_1D, WELL_2D], ids=["1d", "2d"])
def test_resonance_on_stored_pairs_loads_no_solver(tmp_path, config):
    _write(tmp_path, config)
    assert "scipy.sparse.linalg" in _loaded(tmp_path, "spectrum")
    assert _loaded(tmp_path, "resonance") == []


def test_resonance_without_stored_pairs_loads_both(tmp_path):
    _write(tmp_path, PT_1D)
    assert {"scipy.sparse.linalg", "scipy.linalg"} <= set(_loaded(tmp_path, "resonance"))


def test_report_loads_none_and_the_solving_subcommands_load_superlu(tmp_path):
    # on stored pairs a 1-D semiflow factors only its IMEX matrix, by odd-even
    # reduction in numpy, so it loads no scipy module; a 2-D one factors
    # that matrix with SuperLU
    one, two = tmp_path / "1d", tmp_path / "2d"
    one.mkdir()
    two.mkdir()
    _write(one, PT_1D)
    for sub in ("spectrum", "branch"):
        assert "scipy.sparse.linalg" in _loaded(one, sub), sub
    assert _loaded(one, "semiflow") == []
    assert _loaded(one, "report") == []
    _write(two, WELL_2D + "\n[experiment]\nhorizon = 0.05\n")
    assert "scipy.sparse.linalg" in _loaded(two, "spectrum")
    assert "scipy.sparse.linalg" in _loaded(two, "semiflow")


def _scipy_imports(tree):
    """The scipy modules imported anywhere under an AST node."""
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    return [name for name in imported if name.split(".")[0] == "scipy"]


def _parse(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def test_grid_imports_no_scipy():
    # anywhere in the module, inside functions and TYPE_CHECKING blocks too:
    # the grid describes its operators by numpy stencils only
    assert _scipy_imports(_parse(grid)) == []


def _ndim_comparisons(tree):
    """The comparisons under an AST node with `ndim` or `x.ndim` as an operand."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Compare) and any(
        isinstance(x, ast.Name) and x.id == "ndim" or isinstance(x, ast.Attribute)
        and x.attr == "ndim" for x in (node.left, *node.comparators))]


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_grid_and_the_assembly_of_s_select_nothing_by_dimension():
    # 1-D is the one-axis case of the per-axis code: the grid, its stencils
    # and norms, and S's assembly compare nothing against ndim, apart from
    # the admission of ndim in (1, 2) by Grid's constructor, the module's
    # only __init__
    tree = _parse(grid)
    admission = _ndim_comparisons(_function(tree, "__init__"))
    assert len(admission) == 1
    assert _ndim_comparisons(tree) == admission
    assert _ndim_comparisons(_function(_parse(spectral), "sym_matrix")) == []


def test_inertia_count_imports_no_scipy():
    # the count that checks every eigensolve, Morse index and reuse of stored
    # eigenpairs runs on numpy alone: the odd-even reduction in 1-D, the line
    # blocks in 2-D
    counts = {"_count_below", "_pivot_count", "_odd_even_reduce", "_line_block_count"}
    found = {node.name: node for node in ast.walk(_parse(spectral))
             if isinstance(node, ast.FunctionDef) and node.name in counts}
    assert set(found) == counts
    assert {name: _scipy_imports(node) for name, node in found.items()} == {
        name: [] for name in counts}


def test_odd_even_factor_imports_no_scipy():
    # the factor of the 1-D IMEX matrix, so that a 1-D flow loads no scipy
    factor = next(node for node in ast.walk(_parse(spectral))
                  if isinstance(node, ast.ClassDef) and node.name == "_OddEvenFactor")
    assert _scipy_imports(factor) == []
