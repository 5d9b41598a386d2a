"""The benchmark's layer trace (`bench/tracer.py`) against the package.

The tracer wraps package functions by name and derives the per-layer
metrics that `BENCHMARK.json` declares.  A package change that removes or
renames a wrapped name breaks `bench/run.py --trace 1`; this test shows it
at once, since entering the tracer patches every such name.
"""

import importlib.util
import json
from pathlib import Path

from resonance_lab import cli

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("spectrum", "resonance", "branch", "semiflow")


def _bench_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_every_declared_layer(tmp_path):
    tracer = _bench_tracer()
    config = str(ROOT / "bench" / "configs" / "warmup.ini")
    names_before = dict(vars(cli))
    dispatch_before = dict(cli._DISPATCH)
    with tracer.Tracer() as trace:
        codes = [
            cli.main([sub, "--config", config, "--seed", "5", "--out", str(tmp_path)])
            for sub in SUBCOMMANDS
        ]
    assert codes == [cli.EXIT_OK] * len(SUBCOMMANDS)
    assert dict(vars(cli)) == names_before and cli._DISPATCH == dispatch_before

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the overhead is measured by bench/run.py across rounds, not per round
    expected = {m["name"] for m in declared} - {"trace.overhead_s"}
    metrics = tracer.layer_metrics(trace.spans)
    assert set(metrics) == expected
    assert metrics["solver.solves"][0] == 6  # the warmup branch has 6 points
    # the CLI writes every report through the module's write_* names, which
    # the tracer wraps, so it counts every byte of them
    reports = [p for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")]
    assert metrics["reporting.bytes_written"][0] == sum(p.stat().st_size for p in reports)
    # `spectrum` solves and stores the eigenpairs; the other three subcommands
    # of the round reuse them from the shared output directory
    names = [s.name for s in trace.spans]
    assert names.count("spectral.eigensolve") == 1
    assert names.count("spectral.eigsh") == 1
    # `resonance` alone checks the Landesman-Lazer conditions
    assert names.count("nonlinearity.landesman_lazer") == 1
