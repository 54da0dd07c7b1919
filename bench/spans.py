"""Span tracing for the benchmark's traced run.

`Tracer.install()` replaces functions with pass-through wrappers at the names
their callers look them up under (a `from .circuit import run_ansatz` in
`vqls` binds its own name, so patching `circuit.run_ansatz` alone would miss
every call the solver makes).  Each call records one span: id, parent id,
name, start, end and an optional attribute taken from the call.  Spans stay
in memory; `Tracer.layer_metrics` turns them into the per-layer numbers and
`Tracer.save` writes them out.  Timing runs never install the wrappers.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import lorenz_vqls.analysis as analysis
import lorenz_vqls.cli as cli
import lorenz_vqls.lorenz as lorenz
import lorenz_vqls.vqls as vqls
from lorenz_vqls.pauli import PauliSum


def _iterations_used(args, kwargs, result):
    return result.iterations_used


def _system_key(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    h = args[1] if len(args) > 1 else kwargs["h"]
    return (params.sigma, params.rho, params.beta, float(h))


# (owner, attribute, span name, attribute extractor).  The owner is the
# namespace the caller resolves the name in, not the defining module.
HOOKS = (
    (cli, "main", "cli.main", None),
    (cli, "trajectory", "lorenz.trajectory", None),
    (cli, "compare_trajectories", "analysis.compare_trajectories", None),
    (cli, "richardson_series", "analysis.richardson_series", None),
    (cli, "condition_sweep", "analysis.condition_sweep", None),
    (lorenz, "step_solve", "lorenz.step_solve", None),
    (analysis, "step_solve", "lorenz.step_solve", None),
    (lorenz, "step_explicit", "lorenz.step_explicit", None),
    (analysis, "step_explicit", "lorenz.step_explicit", None),
    (lorenz, "build_nonlinear_system", "lorenz.build_nonlinear_system", _system_key),
    (analysis, "build_nonlinear_system", "lorenz.build_nonlinear_system", _system_key),
    (lorenz, "solve_dense", "linalg.solve_dense", None),
    (analysis, "condition_number", "linalg.condition_number", None),
    (lorenz, "build_problem", "vqls.build_problem", None),
    (lorenz, "optimize", "vqls.optimize", _iterations_used),
    (vqls, "decompose", "pauli.decompose", None),
    (vqls, "gradient", "vqls.gradient", None),
    (vqls, "cost", "vqls.cost", None),
    (vqls, "extract_solution", "vqls.extract_solution", None),
    (vqls, "run_ansatz", "circuit.run_ansatz", None),
    (vqls, "expectation", "circuit.expectation", None),
    (PauliSum, "apply", "pauli.apply", None),
)

# Layers whose call count and self time are reported.
TIMED = (
    "circuit.run_ansatz", "circuit.expectation", "pauli.apply", "vqls.gradient",
    "vqls.optimize", "lorenz.step_solve", "linalg.solve_dense",
    "linalg.condition_number", "pauli.decompose",
)
# Layers whose self time alone is reported.
SELF_ONLY = (
    "vqls.build_problem", "vqls.extract_solution", "lorenz.trajectory",
    "analysis.richardson_series", "analysis.condition_sweep",
    "analysis.compare_trajectories", "cli.main",
)
COUNTED = ("vqls.cost", "lorenz.build_nonlinear_system", "lorenz.step_explicit")


class Tracer:
    """The spans of one traced run, held as parallel arrays indexed by span id.

    A span's parent is -1 at the top level; `attrs` maps span id to the
    attribute its hook extracted, for hooks that have one.
    """

    def __init__(self):
        self.names = sorted({name for *_, name, _ in HOOKS})
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attrs = {}
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, extract):
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        attrs, stack, clock = self.attrs, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if extract is not None:
                attrs[sid] = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, extract in HOOKS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extract))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def save(self, path):
        """Write the spans out as a compressed .npz (names indexed by name_id)."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end),
        )

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-layer counts, self times and ratios from this run's spans.

        Self time is a span's duration minus the time its direct children cover.
        """
        names = self.names
        k = len(names)
        nid = np.asarray(self.name_id, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = dict(zip(names, np.bincount(nid, minlength=k).tolist()))
        self_s = dict(zip(names, np.bincount(nid, weights=dur - child, minlength=k).tolist()))

        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)

        # A descent evaluates cost once before its first iteration and once
        # per iteration, and each iteration is one gradient call.  Cost calls
        # made directly under optimize minus gradient calls therefore count
        # the descents an optimize launched, restart 0 included.
        is_opt = nid == names.index("vqls.optimize")
        under_opt = nested & is_opt[np.where(nested, parent, 0)]
        step = (nid == names.index("vqls.cost")).astype(int) - (
            nid == names.index("vqls.gradient")
        )
        descents = np.bincount(
            parent[under_opt], weights=step[under_opt], minlength=len(dur)
        )[is_opt]
        total = calls.get("vqls.gradient", 0)
        won = sum(self.attrs[i] for i in np.flatnonzero(is_opt).tolist())
        opt_dur = dur[is_opt]
        out["vqls.iterations_total"] = total
        out["vqls.iterations_won"] = won
        out["vqls.useful_iter_ratio"] = won / total if total else 0.0
        out["vqls.restarts"] = int(round(descents.sum()))
        out["vqls.restart_solves"] = int((descents > 1.5).sum())
        out["vqls.optimize.s.p50"] = float(np.median(opt_dur)) if opt_dur.size else 0.0
        out["vqls.optimize.s.max"] = float(opt_dur.max()) if opt_dur.size else 0.0

        systems = np.flatnonzero(nid == names.index("lorenz.build_nonlinear_system"))
        distinct = len({self.attrs[i] for i in systems.tolist()})
        out["lorenz.system_reuse"] = systems.size / distinct if distinct else 0.0

        covered = float(dur[~nested].sum())
        out["trace.top_span_frac"] = covered / traced_wall_s
        out["trace.uncovered_s"] = traced_wall_s - covered
        return out
