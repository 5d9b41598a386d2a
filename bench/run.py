"""Benchmark of the resonance-lab experiment pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is taken from ./src.

--trace 0 measures the end-to-end metrics: it drives the CLI
(`python -m resonance_lab.cli`) in fresh child processes, one at a time, and
reads each child's wall time and peak RSS (`os.wait4`).  This process
imports nothing but the standard library, because a child's peak RSS counts
the parent's resident set at the moment of the spawn.

--trace 1 runs the same subcommands in process, alternating an untraced and
a traced round, and reports per-layer figures from the spans in
bench/tracer.py.  Spans are written to .bench_work/traces/.

Every output is checked by bench/oracles.py, outside the timed region.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("pt1d-arctan", "pt1d-rational", "well2d-arctan")
SUBCOMMANDS = ("spectrum", "resonance", "branch", "semiflow")
MIN_ROUNDS = 2      # end-to-end medians rest on at least two samples
WARMUP_CONFIG = BENCH / "configs" / "warmup.ini"
# One BLAS thread: with OpenBLAS's default of one thread per core on two
# cores, the wall time of the same 2-D eigensolve spreads 17% (IQR/median),
# against 5% on one thread, for about 20% more wall time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def config_path(workload):
    return BENCH / "configs" / f"{workload}.ini"


def cli_argv(sub, config, seed, out):
    return [sub, "--config", str(config), "--seed", str(seed), "--out", str(out)]


# -- end to end ----------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, log, env):
    """Run argv to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_checks(workload, dirs):
    """bench/oracles.py in its own process: {dir: {sub: failures}, "selftest": [...]}."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "oracles.py"), str(config_path(workload))]
        + [str(d) for d in dirs],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"output checks crashed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds, work):
    env = child_env()
    py = sys.executable
    importer = [py, "-c", "import resonance_lab.cli"]

    def cli_process(sub, config, out):
        argv = [py, "-m", "resonance_lab.cli"] + cli_argv(sub, config, seed, out)
        return spawn(argv, out / f"{sub}.log", env)

    # An untimed round on the small warm-up config compiles bytecode and
    # runs every subcommand once.  Without it the first timed `resonance`
    # process was most often the slowest of its run.
    warm = work / "warmup"
    warm.mkdir()
    for sub in SUBCOMMANDS:
        if cli_process(sub, WARMUP_CONFIG, warm)[2] != 0:
            raise BenchError(f"the warm-up {sub} failed:\n"
                             + (warm / f"{sub}.log").read_text(errors="replace"))
    setup = [spawn(importer, work / "setup.log", env)[0]]

    samples = {sub: [] for sub in SUBCOMMANDS}
    dirs = []
    start = time.perf_counter()
    while len(dirs) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        out = work / f"round{len(dirs)}"
        out.mkdir()
        dirs.append(out)
        for sub in SUBCOMMANDS:
            samples[sub].append(cli_process(sub, config_path(workload), out))
        # spread the set-up samples over the run, as the host's load drifts
        setup.append(spawn(importer, work / "setup.log", env)[0])

    # a child's peak RSS includes the resident set it was spawned from
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    smallest = min(rss for runs in samples.values() for _, rss, _ in runs)
    if parent_mb >= smallest:
        raise BenchError(f"the benchmark process peaked at {parent_mb:.1f} MB, above a "
                         f"child's {smallest:.1f} MB; its RSS readings would be the parent's")

    checks = run_checks(workload, dirs)
    failures = []
    for r, out in enumerate(dirs):
        for sub in SUBCOMMANDS:
            code = samples[sub][r][2]
            if code != 0:
                log = (out / f"{sub}.log").read_text(errors="replace").strip()
                failures.append(f"{out.name}/{sub}: exit {code}: {log[-500:]}")
            elif checks[str(out)][sub]:
                failures.append(f"{out.name}/{sub}: {checks[str(out)][sub]}")

    metrics = {"setup_s": (statistics.median(setup), "s", len(setup))}
    for sub in SUBCOMMANDS:
        walls = [w for w, _, _ in samples[sub]]
        metrics[f"{sub}_s"] = (statistics.median(walls), "s", len(walls))
    for sub in SUBCOMMANDS:
        rss = [r for _, r, _ in samples[sub]]
        metrics[f"{sub}_rss_mb"] = (statistics.median(rss), "MB", len(rss))
    attempted = len(dirs) * len(SUBCOMMANDS)
    return metrics, attempted, failures, checks["selftest"]


# -- traced, in process --------------------------------------------------------------


def traced(workload, seed, seconds, work):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import oracles
    import resonance_lab.cli as cli
    import tracer

    def run_round(out, failures, config=config_path(workload)):
        for sub in SUBCOMMANDS:
            try:
                code = cli.main(cli_argv(sub, config, seed, out))
            except Exception:  # noqa: BLE001 -- one failed operation, keep measuring
                code = "exception"
                traceback.print_exc()
            if code != 0:
                failures.append(f"{out.name}/{sub}: exit {code}")

    warmup = []
    run_round(work / "warmup", warmup, WARMUP_CONFIG)
    if warmup:
        raise BenchError(f"the warm-up run failed: {warmup}")

    plain, timed, rounds, dirs, failures, span_dump = [], [], [], [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        out = work / f"plain{len(plain)}"
        t0 = time.perf_counter()
        run_round(out, failures)
        plain.append(time.perf_counter() - t0)
        dirs.append(out)

        out = work / f"traced{len(timed)}"
        with tracer.Tracer() as tr:
            t0 = time.perf_counter()
            run_round(out, failures)
            timed.append(time.perf_counter() - t0)
        dirs.append(out)
        rounds.append(tracer.layer_metrics(tr.spans))
        span_dump.append([s.to_dict() for s in tr.spans])

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{workload}-seed{seed}.json").write_text(json.dumps(span_dump))

    problem = oracles.Problem(config_path(workload))
    failed_ops = {f.split(":")[0] for f in failures}
    for out in dirs:
        for sub, fails in oracles.check_dir(problem, out).items():
            if fails and f"{out.name}/{sub}" not in failed_ops:
                failures.append(f"{out.name}/{sub}: {fails}")
    selftest = oracles.selftest(problem, dirs[0])

    metrics = {}
    for name, (_, unit) in rounds[0].items():
        values = [r[name][0] for r in rounds]
        if unit != "s" and len(set(values)) > 1:
            print(f"warning: counter {name} differs between traced rounds: {values}",
                  file=sys.stderr)
        metrics[name] = (statistics.median(values), unit, len(values))
    metrics["trace.overhead_s"] = (
        statistics.median(timed) - statistics.median(plain), "s", len(timed))
    attempted = len(dirs) * len(SUBCOMMANDS)
    return metrics, attempted, failures, selftest


# -- entry point ---------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads, here or in a child
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "resonance_lab" / "cli.py").is_file():
        print(f"no resonance_lab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, failures, selftest = measure(
            args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    for problem in selftest:
        print(f"oracle self-test: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} median of {n}")
    print(f"  operations: {attempted} subcommand invocations attempted, {len(failures)} failed")
    print(json.dumps({
        "correct": not selftest,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
