"""Span recording for the traced run.

The package is not instrumented.  For a traced run the benchmark replaces
the functions listed in ``_targets`` where their callers look them up
(module attributes, class attributes and the CLI's command table) with
wrappers that record a span (name, start, end, parent), and restores them
afterwards.
Modules import names directly, so one function can need wrapping in several
modules; all of them record under the same span name, whose prefix is the
layer.  A target that no longer exists is reported as absent.

Spans are kept in flat arrays, since the corner family alone opens several
hundred thousand, and written to ``spans_*.npz`` at the end.  A layer's
self time is its spans' durations minus the durations of their child spans;
calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("gas", "shocks", "pattern", "unsteady", "elliptic", "diagnostics", "cli")


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list] = defaultdict(list)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "counts": dict(self.counts),
            "values": {k: list(v) for k, v in self.values.items()},
            "pid": os.getpid(),
        }


def _wrap(rec: Recorder, name: str, fn, hook=None):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(rec, args, out)
            return out
        finally:
            rec.close(idx)

    return wrapper


def save_spans(rec: Recorder, path):
    s = rec.spans()
    meta = json.dumps({"counts": s.pop("counts"), "values": s.pop("values"), "pid": s.pop("pid")})
    np.savez(path, meta=np.array(meta), **s)


def load_spans(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        s = {k: z[k] for k in ("names", "name", "parent", "start", "end")}
        s.update(json.loads(str(z["meta"])))
    return s


def _pool_job(rec: Recorder, job, job_dir):
    """Wrapper for the sweep's job function.  In a pool worker, which forks
    with the wrappers in place, the job's spans are recorded afresh and
    written to job_dir when the job ends; the parent gathers them after the
    pool has shut down."""
    main_pid = os.getpid()
    nid = rec.name_id("cli.sweep_job")

    @functools.wraps(job)
    def traced(args):
        in_worker = os.getpid() != main_pid
        if in_worker:
            rec.reset()
        idx = rec.open(nid)
        try:
            return job(args)
        finally:
            rec.close(idx)
            if in_worker:
                save_spans(rec, os.path.join(job_dir, f"spans_{os.getpid()}_{time.perf_counter_ns()}.npz"))

    return traced


class _FactorProxy:
    """Stands in for a sparse LU factor so that each ``solve`` is a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _targets(mods):
    """(owner, attribute, span name, hook) for every wrapped call site."""
    cli, gas, shocks, pattern, unsteady, elliptic, diag = (
        mods[k] for k in ("cli", "gas", "shocks", "pattern", "unsteady", "elliptic", "diagnostics")
    )

    def count(key, fn):
        def hook(rec, args, out):
            rec.counts[key] += fn(args, out)
        return hook

    def keep(key, fn):
        def hook(rec, args, out):
            rec.values[key].append(fn(args, out))
        return hook

    def iterate_hook(rec, args, out):
        rec.counts["elliptic.outer_iterations"] += len(out.residual_history)
        rec.values["elliptic.combined_residual"].append(out.residual_history[-1]["combined"])

    def run_hook(rec, args, out):
        rec.values["unsteady.defect"].append(out.defect)

    export = "cli.export"
    checks = "diagnostics.checks"
    measure = "unsteady.measure"
    cells = count("unsteady.cell_steps", lambda a, o: a[1].nx * a[1].ny)
    points = count("elliptic.invert_points", lambda a, o: np.size(a[1]))
    return [
        (cli.COMMANDS, key, "cli.command", None) for key in list(cli.COMMANDS)
    ] + [
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "write_field_csv", export, None),
        (cli, "write_field_raw", export, None),
        (cli, "export_solution_csv", export, None),
        (cli, "_write_rows", export, None),
        (diag, "write_report_csv", export, None),
        (cli, "build", "pattern.build", None),
        (unsteady, "build", "pattern.build", None),
        (pattern, "build", "pattern.build", None),
        (pattern, "horizontal_downstream_shock", "shocks.horizontal_downstream_shock", None),
        (shocks, "horizontal_downstream_shock", "shocks.horizontal_downstream_shock", None),
        (shocks, "deflection_solutions", "shocks.deflection_solutions", None),
        (shocks, "resolve_oblique", "shocks.resolve_oblique", None),
        (diag, "resolve_oblique", "shocks.resolve_oblique", None),
        (shocks, "downstream_normal_mach", "shocks.downstream_normal_mach", None),
        (gas.GasModel, "sound_speed", "gas.sound_speed", None),
        (gas, "pi_of_rho", "gas.pi_of_rho", None),
        (unsteady, "pi_of_rho", "gas.pi_of_rho", None),
        (gas, "pi_inverse", "gas.pi_inverse", None),
        (elliptic, "pi_inverse", "gas.pi_inverse", None),
        (cli, "iterate", "elliptic.iterate", iterate_hook),
        (elliptic, "build_mapping", "elliptic.build_mapping", None),
        (elliptic, "solve_fixed_boundary", "elliptic.solve_fixed_boundary", None),
        (elliptic, "_residual", "elliptic.residual", None),
        (elliptic.GridMapping, "hessian_terms", "elliptic.hessian_terms", None),
        (elliptic.GridMapping, "invert", "elliptic.invert", points),
        (elliptic.EllipticSolution, "fields", "elliptic.fields", None),
        (diag, "weak_residual", "diagnostics.weak_residual",
         keep("diagnostics.weak_residual_max", lambda a, o: o["max"])),
        (diag.CompositeField, "evaluate", "diagnostics.evaluate",
         count("diagnostics.evaluate_points", lambda a, o: np.size(a[1]))),
        (diag, "ellipticity_report", checks, None),
        (diag, "density_extrema", checks, None),
        (diag, "velocity_and_normal_ranges", checks, None),
        (diag, "arc_profile", checks, None),
        (unsteady, "run", "unsteady.run", run_hook),
        (unsteady, "step", "unsteady.step", cells),
        (unsteady, "stable_dt", "unsteady.stable_dt", None),
        (unsteady.Grid, "solid_mask", "unsteady.solid_mask", None),
        (unsteady, "sample_self_similar", "unsteady.sample", None),
        (unsteady, "tip_shock_angle", measure, keep("unsteady.tip_angle", lambda a, o: o)),
        (unsteady, "region_probes", measure, None),
        (unsteady, "probe_stats", measure, None),
    ]


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self, rec: Recorder, mods: dict, job_dir):
        self.rec = rec
        self.mods = mods
        self.job_dir = job_dir
        self.absent: list[str] = []
        self._saved: list = []

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def __enter__(self):
        rec = self.rec
        for owner, attr, name, hook in _targets(self.mods):
            present = attr in owner if isinstance(owner, dict) else hasattr(owner, attr)
            if not present:
                self.absent.append(f"{name} ({attr})")
                continue
            orig = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            self._set(owner, attr, _wrap(rec, name, orig, hook))
        el = self.mods["elliptic"]
        if hasattr(el, "splu"):
            splu = el.splu
            solve_id = rec.name_id("elliptic.newton_solve")

            def factor(*args, **kwargs):
                lu = splu(*args, **kwargs)

                def solve(*a, **k):
                    idx = rec.open(solve_id)
                    try:
                        return lu.solve(*a, **k)
                    finally:
                        rec.close(idx)

                return _FactorProxy(lu, solve)

            self._saved.append((el, "splu", splu))
            el.splu = _wrap(rec, "elliptic.factorize", factor)
        else:
            self.absent.append("elliptic.factorize (splu)")
        cli = self.mods["cli"]
        if hasattr(cli, "_sweep_job"):
            job = cli._sweep_job
            self._saved.append((cli, "_sweep_job", job))
            cli._sweep_job = _pool_job(rec, job, self.job_dir)
        else:
            self.absent.append("cli.sweep_job (_sweep_job)")
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            self._set(owner, attr, orig)
        self._saved.clear()
        return False


def self_times(spans: dict) -> tuple[dict, float]:
    """({span name: (count, inclusive seconds, self seconds)}, total
    seconds of the root spans)."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    n_names = len(spans["names"])
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    out = {
        str(spans["names"][k]): (c, incl, slf)
        for k, (c, incl, slf) in enumerate(
            zip(
                np.bincount(name, minlength=n_names),
                np.bincount(name, weights=dur, minlength=n_names),
                np.bincount(name, weights=own, minlength=n_names),
            )
        )
    }
    return out, float(np.sum(dur[~has_parent]))


def nesting_problems(spans: dict) -> list[str]:
    """Spans left open or reaching outside their parent break the self-time
    accounting; report them."""
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    bad = []
    if np.any(end < start):
        bad.append(f"{int(np.sum(end < start))} spans never closed")
    kids = np.nonzero(parent >= 0)[0]
    p = parent[kids]
    outside = (start[kids] < start[p]) | (end[kids] > end[p])
    if np.any(outside):
        bad.append(f"{int(np.sum(outside))} spans reach outside their parent")
    return bad
