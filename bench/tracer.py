"""Outside-in layer trace of resonance_lab, recorded from the benchmark's files.

`Tracer` wraps the functions each module calls through (module attributes,
class methods and the two scipy entry points that do the heavy lifting,
`scipy.sparse.linalg.eigsh` and `splu`) with span recorders, runs the CLI in
process, and restores every attribute afterwards.  A span records its name,
start, end, parent and a few counters read from arguments or results.  Spans
stay in memory; `layer_metrics` derives the per-layer figures from them.

Spans opened on a worker thread with no open span of their own (the CLI runs
its sphere probes on a thread pool) take the main thread's innermost open
span as parent, so they count as children of the subcommand that started
them.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

import scipy.sparse.linalg as spla

import resonance_lab.bifurcation as bif
import resonance_lab.cli as cli
import resonance_lab.nonlinearity as nl
import resonance_lab.semiflow as sf
import resonance_lab.solver as solver
import resonance_lab.spectral as spectral


class Span:
    __slots__ = ("sid", "name", "parent", "t0", "t1", "attrs")

    def __init__(self, sid, name, parent, t0):
        self.sid, self.name, self.parent, self.t0 = sid, name, parent, t0
        self.t1 = None
        self.attrs = {}

    @property
    def duration(self):
        return self.t1 - self.t0

    def to_dict(self):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "start": self.t0, "end": self.t1, **self.attrs}


# counters read from a call: each takes (args, kwargs, result)


def _lu_nnz(args, kwargs, lu):
    return {"nnz": int(lu.L.nnz + lu.U.nnz)}


def _eigsh_k(args, kwargs, result):
    return {"k": int(kwargs["k"] if "k" in kwargs else args[1] if len(args) > 1 else 6)}


def _field_size(args, kwargs, result):
    return {"n": int(args[1].size)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    """Install span recorders on resonance_lab's call paths; a context manager."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._saved = []

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = None
        span = Span(next(self._ids), name, parent, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def patch(self, owner, attr, name, counters=None):
        """Replace owner.attr (or owner[attr]) by a span-recording wrapper;
        counters(args, kwargs, result) gives figures to attach to the span."""
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if counters is not None:
                    span.attrs.update(counters(args, kwargs, result))
                return result
            finally:
                tracer._close(span)

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._saved.append((owner, attr, fn))

    # -- install / restore -------------------------------------------------------

    def __enter__(self):
        p = self.patch
        p(cli, "parse_config", "cli.parse_config")
        for sub in list(cli._DISPATCH):
            p(cli._DISPATCH, sub, f"cli.{sub}")
        p(cli, "make_potential", "potential.make")
        p(cli, "assemble_hamiltonian", "spectral.assemble")
        p(cli, "eigenpairs_below", "spectral.eigensolve",
          lambda a, k, data: {"pairs": len(data.eigenvalues)})
        p(spla, "eigsh", "spectral.eigsh", _eigsh_k)
        p(spla, "splu", "splu", _lu_nnz)
        p(spectral._BorderedResolvent, "__init__", "spectral.resolvent_factor")
        p(solver, "apply_resolvent_complement", "spectral.resolvent_apply")
        for mod in (cli, solver, bif, sf):
            p(mod, "field_norms", "grid.field_norms")
        for mod in (nl, solver, sf):
            p(mod, "evaluate_f", "nonlinearity.evaluate_f", _field_size)
        p(cli, "check_sign_condition", "nonlinearity.sign_condition")
        p(cli, "check_landesman_lazer", "nonlinearity.landesman_lazer")
        p(cli, "kernel_sphere_probe", "nonlinearity.sphere_probe")
        p(bif, "solve_near_resonance", "solver.solve",
          lambda a, k, r: {"iterations": int(r.iterations)})
        p(solver, "k_map", "solver.k_map")
        p(solver, "_anderson_proposal", "solver.anderson")
        p(bif, "continue_branch", "bifurcation.continue",
          lambda a, k, pts: {"points": len(pts),
                             "converged": sum(bool(q.converged) for q in pts)})
        p(bif, "summarize_branch", "bifurcation.summarize")
        p(sf, "evolve", "semiflow.evolve")
        p(sf.ImexStepper, "__init__", "semiflow.imex_factor")
        p(sf.ImexStepper, "step", "semiflow.imex_step")
        p(sf, "lyapunov_J", "semiflow.lyapunov")
        p(sf, "tail_decay_report", "semiflow.tail_report")
        for writer in ("write_csv", "write_json", "write_snapshots"):
            p(cli, writer, "reporting.write", _bytes_written)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        return False


# -- derived per-layer figures ----------------------------------------------------


def _union_length(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans):
    """Per-layer figures of one traced round (every span of that round)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.sid: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def attr_sum(name, key, parent=None):
        return sum(s.attrs.get(key, 0) for s in named(name)
                   if parent is None or (s.parent in by_id and by_id[s.parent].name == parent))

    def kids(span, name):
        return [c for c in children.get(span.sid, []) if c.name == name]

    # Anderson: per solve, k-map applies = 1 + iterations + rejected proposals
    accepted = 0
    for solve in named("solver.solve"):
        rejected = len(kids(solve, "solver.k_map")) - 1 - solve.attrs["iterations"]
        accepted += len(kids(solve, "solver.anderson")) - rejected

    factor_in_apply = sum(
        c.duration for a in named("spectral.resolvent_apply")
        for c in kids(a, "spectral.resolvent_factor")
    )
    cli_self = sum(
        s.duration - _union_length([(c.t0, c.t1) for c in children.get(s.sid, [])])
        for s in spans if s.name.startswith("cli.") and s.name != "cli.parse_config"
    )
    return {
        "grid.field_norms_calls": (len(named("grid.field_norms")), "count"),
        "grid.field_norms_s": (total("grid.field_norms"), "s"),
        "potential.make_s": (total("potential.make"), "s"),
        "spectral.assemble_s": (total("spectral.assemble"), "s"),
        "spectral.eigensolves": (len(named("spectral.eigensolve")), "count"),
        "spectral.eigensolve_s": (total("spectral.eigensolve"), "s"),
        "spectral.eigsh_calls": (len(named("spectral.eigsh")), "count"),
        "spectral.eigsh_k_sum": (attr_sum("spectral.eigsh", "k"), "count"),
        "spectral.eigenpairs": (attr_sum("spectral.eigensolve", "pairs"), "count"),
        "spectral.resolvent_factorizations": (len(named("spectral.resolvent_factor")), "count"),
        "spectral.resolvent_factor_s": (total("spectral.resolvent_factor"), "s"),
        "spectral.resolvent_lu_nnz": (attr_sum("splu", "nnz", "spectral.resolvent_factor"), "count"),
        "spectral.resolvent_applies": (len(named("spectral.resolvent_apply")), "count"),
        "spectral.resolvent_solve_s": (total("spectral.resolvent_apply") - factor_in_apply, "s"),
        "nonlinearity.evaluate_f_calls": (len(named("nonlinearity.evaluate_f")), "count"),
        "nonlinearity.evaluate_f_s": (total("nonlinearity.evaluate_f"), "s"),
        "nonlinearity.sign_condition_s": (total("nonlinearity.sign_condition"), "s"),
        "nonlinearity.sign_condition_evals": (
            attr_sum("nonlinearity.evaluate_f", "n", "nonlinearity.sign_condition"), "count"),
        "nonlinearity.landesman_lazer_s": (total("nonlinearity.landesman_lazer"), "s"),
        "nonlinearity.sphere_probe_s": (total("nonlinearity.sphere_probe"), "s"),
        "solver.solves": (len(named("solver.solve")), "count"),
        "solver.solve_s": (total("solver.solve"), "s"),
        "solver.iterations": (attr_sum("solver.solve", "iterations"), "count"),
        "solver.kmap_applies": (len(named("solver.k_map")), "count"),
        "solver.anderson_proposals": (len(named("solver.anderson")), "count"),
        "solver.anderson_accepted": (accepted, "count"),
        "solver.anderson_s": (total("solver.anderson"), "s"),
        "semiflow.steps": (len(named("semiflow.imex_step")), "count"),
        "semiflow.imex_factorizations": (len(named("semiflow.imex_factor")), "count"),
        "semiflow.imex_factor_s": (total("semiflow.imex_factor"), "s"),
        "semiflow.imex_lu_nnz": (attr_sum("splu", "nnz", "semiflow.imex_factor"), "count"),
        "semiflow.imex_solve_s": (total("semiflow.imex_step"), "s"),
        "semiflow.lyapunov_s": (total("semiflow.lyapunov"), "s"),
        "semiflow.tail_report_s": (total("semiflow.tail_report"), "s"),
        "semiflow.evolve_s": (total("semiflow.evolve"), "s"),
        "bifurcation.points": (attr_sum("bifurcation.continue", "points"), "count"),
        "bifurcation.converged_points": (attr_sum("bifurcation.continue", "converged"), "count"),
        "bifurcation.continue_s": (total("bifurcation.continue"), "s"),
        "bifurcation.summarize_s": (total("bifurcation.summarize"), "s"),
        "cli.parse_config_s": (total("cli.parse_config"), "s"),
        "cli.self_s": (cli_self, "s"),
        "reporting.write_s": (total("reporting.write"), "s"),
        "reporting.bytes_written": (attr_sum("reporting.write", "bytes"), "B"),
        "trace.spans": (len(spans), "count"),
    }
