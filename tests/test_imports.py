"""Which scipy solver modules a CLI process loads.

scipy.sparse.linalg (SuperLU, ARPACK) and scipy.linalg (LAPACK) are imported
by `spectral` at first use.  A `resonance` run that reuses stored eigenpairs
factors nothing and calls no eigensolver, so in 1-D it loads neither module,
and in 2-D only LAPACK, for the inertia count.  Each run is a child
interpreter, since this process has loaded both.
"""

import json
import sys

import pytest

from resonance_lab.cli import EXIT_OK
from test_cli import PT_BASE, _run_cli, _write

SOLVERS = ("scipy.sparse.linalg", "scipy.linalg")

# prints the solver modules loaded after the import and after the subcommand
PROBE = f"""
import json, sys
def loaded():
    return [m for m in {SOLVERS!r} if m in sys.modules]
from resonance_lab.cli import main
after_import = loaded()
code = main(sys.argv[1:])
print(json.dumps([code, after_import, loaded()]))
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


def _loaded(tmp_path, sub, out):
    """The solver modules loaded by `import resonance_lab.cli` and by the
    subcommand after it, in a child process."""
    done = _run_cli([sys.executable, "-c", PROBE], tmp_path,
                    [sub, "--config", "exp.ini", "--out", out], timeout=60)
    assert done.returncode == 0, done.stderr
    code, after_import, after_run = json.loads(done.stdout.strip().splitlines()[-1])
    assert code == EXIT_OK
    return after_import, after_run


@pytest.mark.parametrize("config, resonance_loads", [
    (PT_BASE.format(n=401), []),
    (WELL_2D, ["scipy.linalg"]),
], ids=["1d", "2d"])
def test_resonance_on_stored_pairs_loads_no_solver(tmp_path, config, resonance_loads):
    _write(tmp_path, config)
    assert _loaded(tmp_path, "spectrum", "out") == ([], list(SOLVERS))
    assert _loaded(tmp_path, "resonance", "out") == ([], resonance_loads)


def test_resonance_without_stored_pairs_loads_both(tmp_path):
    _write(tmp_path, PT_BASE.format(n=401))
    assert _loaded(tmp_path, "resonance", "out") == ([], list(SOLVERS))
