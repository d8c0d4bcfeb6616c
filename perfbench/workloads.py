"""The four workloads, their correctness checks and the per-layer metrics.

Run as a script, this file is the process that executes one workload: it
repeats whole rounds of the workload until ``--seconds`` have passed, checks
every round's outputs, and prints one JSON object as its last line.  The
process is separate from ``run.py`` so that its peak resident memory is the
workload's own.  ``run.py`` imports this file only for the configs, so the
package is imported lazily.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracing import LAYERS, Recorder, Tracer, load_spans, nesting_problems, save_spans, self_times  # noqa: E402

GAMMA, MACH, TAU_DEG = 1.4, 2.94, 10.0
DESK = f"gamma = {GAMMA}\nM_I = {MACH}\ntau_deg = {TAU_DEG:g}\n"
EPS_LIST = (0.04, 0.01, 0.0025)


def load_package():
    """Import the package from the checkout's ``src``; {module name: module}."""
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    return {name: importlib.import_module(f"wedgeflow.{name}") for name in LAYERS}


def src_lines(root: Path) -> dict:
    """Physical line counts of the seven modules and of the whole package."""
    pkg = root / "src" / "wedgeflow"
    out = {}
    for name in LAYERS:
        path = pkg / f"{name}.py"
        out[f"{name}.src_lines"] = len(path.read_text().splitlines()) if path.is_file() else 0
    out["src.lines"] = sum(len(p.read_text().splitlines()) for p in sorted(pkg.rglob("*.py")))
    return out


def _cli(mods, argv, out_dir: Path):
    """One ``wedge`` command; returns (seconds, exit code, stdout)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = mods["cli"].dispatch(argv + ["--out", str(out_dir)])
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            print(f"{type(exc).__name__}: {exc}")
            rc = -1
    return time.perf_counter() - t0, rc, buf.getvalue()


def _failure(message: str):
    """A failed operation is counted, not a correctness problem; say why."""
    print(f"failed operation: {message.strip()[-400:]}", file=sys.stderr)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    configs: dict = {}

    def write_configs(self, cfg_dir: Path, seed: int) -> list[Path]:
        cfg_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for stem, text in self.configs.items():
            p = cfg_dir / f"{stem}.cfg"
            p.write_text(text + f"seed = {seed}\n")
            paths.append(p)
        return paths


class DeskVerify(Workload):
    """``wedge verify`` on the desk case at three regularizations."""

    name = "desk-verify"
    configs = {
        f"verify_eps{eps:g}": DESK + f"epsilon = {eps}\nlattice_n = 48\nquad_n = 256\n"
        for eps in EPS_LIST
    }

    def round(self, mods, cfgs, out: Path, ctx):
        seconds, failed, problems, weak = 0.0, 0, [], []
        for eps, cfg in zip(EPS_LIST, cfgs):
            d = out / cfg.stem
            dt, rc, text = _cli(mods, ["verify", "--config", str(cfg)], d)
            seconds += dt
            if rc != 0:
                failed += 1
                _failure(f"verify eps={eps}: exit {rc}: {text}")
                continue
            rows = _read_csv(d / "verify_report.csv")
            bad = [r["name"] for r in rows if r["verdict"] != "PASS"]
            if bad or not rows:
                problems.append(f"verify eps={eps}: checks not passed: {bad or 'no report'}")
            weak += [float(r["value"]) for r in rows if r["name"] == "weak_residual_battery_max"]
        if failed == 0 and len(weak) == len(EPS_LIST):
            # O(sqrt(eps)) regularization error of the weak residual
            slope = float(np.polyfit(np.log(EPS_LIST), np.log(weak), 1)[0])
            if not 0.3 <= slope <= 0.7:
                problems.append(f"weak-residual log-log slope {slope:.3f} outside [0.3, 0.7]")
        elif failed == 0:
            problems.append("weak_residual_battery_max missing from a report")
        return seconds, len(EPS_LIST), failed, problems


class SweepGrid(Workload):
    """``wedge sweep`` over three eps and two lattices in the command's pool."""

    name = "sweep-grid"
    LATTICES = (48, 64)
    TOL = 1e-6
    configs = {
        "sweep": DESK
        + f"epsilon = 0.01\neps_list = {', '.join(map(str, EPS_LIST))}\n"
        f"lattice_list = {', '.join(map(str, LATTICES))}\nquad_n = 256\ntol_outer = 1e-6\n"
    }

    def round(self, mods, cfgs, out: Path, ctx):
        jobs = len(EPS_LIST) * len(self.LATTICES)
        seconds, rc, text = _cli(mods, ["sweep", "--config", str(cfgs[0])], out)
        summary = out / "sweep_summary.csv"
        if rc != 0:
            _failure(f"sweep: exit {rc}: {text}")
        if not summary.is_file():
            return seconds, jobs, jobs, []
        rows = _read_csv(summary)
        problems = []
        failed = sum(1 for r in rows if r["converged"] != "True") + max(jobs - len(rows), 0)
        for r in rows:
            eps, n = float(r["epsilon"]), int(r["lattice"])
            tag = f"sweep eps={eps:g} n={n}"
            if r["converged"] != "True":
                continue
            if not float(r["combined_residual"]) < self.TOL:
                problems.append(f"{tag}: combined residual {r['combined_residual']}")
            case = ctx["cases"][eps]
            nodes = np.loadtxt(out / f"sweep_eps{eps:g}_n{n}_nodes.csv", delimiter=",", skiprows=1)
            bad = reference.node_checks(GAMMA, nodes, eps, case.v_I, case.c_R, self.TOL)
            problems += [f"{tag}: {b}" for b in bad]
            top = nodes[nodes[:, 1] == 1.0]
            reach = 3.0 * math.sqrt(eps) * case.c_R
            for side, node, corner in (("L", top[0], case.corner_L), ("R", top[-1], case.corner_R)):
                dist = float(np.hypot(*(node[2:4] - corner)))
                if not dist < reach:
                    problems.append(f"{tag}: corner {side} {dist:.4f} from the pattern corner")
        return seconds, jobs, failed, problems


class March400(Workload):
    """``wedge simulate`` at grid_n 400 to t = 1."""

    name = "march-400"
    BOX = (-0.6, 4.8, 2.6)
    configs = {
        "march": DESK
        + "epsilon = 0.01\ngrid_n = 400\nt_final = 1.0\ncfl = 0.45\nsample_nx = 320\n"
        f"box_x_min = {BOX[0]}\nbox_x_max = {BOX[1]}\nbox_y_max = {BOX[2]}\nsnapshot_every = 0\n"
    }

    def round(self, mods, cfgs, out: Path, ctx):
        seconds, rc, text = _cli(mods, ["simulate", "--config", str(cfgs[0])], out)
        if rc != 0:
            _failure(f"simulate: exit {rc}: {text}")
            return seconds, 1, 1, []
        return seconds, 1, 0, self.check(out, text, ctx["case"])

    def check(self, out: Path, text: str, case) -> list[str]:
        problems = []
        raw = (out / "field_final.raw").read_bytes()
        head, _, body = raw.partition(b"\n")
        tag, nx, ny, t = head.decode().split()
        nx, ny = int(nx), int(ny)
        data = np.frombuffer(body, dtype="<f8")
        if tag != "WEDGE1" or data.size != 3 * nx * ny or abs(float(t) - 1.0) > 1e-12:
            return [f"field_final.raw: header {head!r}, {data.size} values"]
        rho = data[: nx * ny].reshape(ny, nx)
        if not np.all(np.isfinite(data)) or not np.all(rho > 0.0):
            problems.append("field_final.raw: non-finite values or rho <= 0")
        theta_ref = math.degrees(case.theta)
        angle = self.tip_angle(rho, nx, ny, case)
        if not abs(angle - theta_ref) < 2.0:
            problems.append(f"tip angle from the raw field {angle:.3f} deg vs reference {theta_ref:.4f}")
        line = next((ln for ln in text.splitlines() if ln.startswith("simulate:")), "")
        try:
            printed = float(line.split("tip angle ")[1].split("deg")[0])
            defect = float(line.split("self-similarity defect ")[1])
        except (IndexError, ValueError):
            return problems + [f"simulate summary line unreadable: {line!r}"]
        if not abs(printed - theta_ref) < 2.0:
            problems.append(f"printed tip angle {printed:.3f} deg vs reference {theta_ref:.4f}")
        if not defect < 0.05:
            problems.append(f"self-similarity defect {defect}")
        probes = {r["region"]: r for r in _read_csv(out / "probes.csv")}
        expect = {"I": 1.0, "L": case.rho_L, "R": case.rho_R}
        for region, rho_ref in expect.items():
            if region not in probes:
                problems.append(f"probe {region} missing")
                continue
            mean, std = float(probes[region]["rho_mean"]), float(probes[region]["rho_std"])
            if not abs(mean - rho_ref) < 0.01 * rho_ref:
                problems.append(f"probe {region}: rho {mean:.4f} vs reference {rho_ref:.4f}")
            if not std < 0.01 * mean:
                problems.append(f"probe {region}: relative std {std / mean:.4f}")
        if "elliptic" not in probes or not float(probes["elliptic"]["L_mean"]) < 1.0:
            problems.append("elliptic probe missing or not pseudo-subsonic")
        return problems

    def tip_angle(self, rho, nx, ny, case) -> float:
        """Tip-shock angle measured on the raw field, independently of the
        package: a least-squares line through the topmost crossing of the
        mid density in each column between the tip and the sonic corner."""
        x0, x1, _ = self.BOX
        h = (x1 - x0) / nx
        x = x0 + (np.arange(nx) + 0.5) * h
        y = (np.arange(ny) + 0.5) * h
        rho_mid = 0.5 * (1.0 + case.rho_L)
        xc = case.corner_L_orig[0]
        pts = []
        for i in np.nonzero((x >= 0.25 * xc) & (x <= 0.75 * xc))[0]:
            col = rho[:, i]
            dense = np.nonzero(col > rho_mid)[0]
            if len(dense) and dense[-1] + 1 < ny:
                j = dense[-1]
                frac = (rho_mid - col[j]) / (col[j + 1] - col[j])
                pts.append((x[i], y[j] + frac * h))
        if len(pts) < 4:
            return math.nan
        pts = np.asarray(pts)
        return math.degrees(math.atan(np.polyfit(pts[:, 0], pts[:, 1], 1)[0]))


class CornerFamily(Workload):
    """The acceptance test's shock families plus the 79 wedge builds."""

    name = "corner-family"
    MIY, EPS = -2.0, 0.01
    configs = {"family": f"gamma = {GAMMA}\nM_I_y = {MIY}\nepsilon = {EPS}\n"}
    BETAS = np.linspace(0.0, 1.1, 23)
    N_TARGETS = 1000
    TAUS_DEG = np.arange(2, 81) * 0.5  # 1.0 ... 40.0

    def round(self, mods, cfgs, out: Path, ctx):
        gas, shocks, pattern = mods["gas"], mods["shocks"], mods["pattern"]
        model = gas.GasModel(gamma=GAMMA)
        taus = ctx["taus"]
        members, eta_builds, tau_builds, failed = [], [], [], 0
        t0 = time.perf_counter()
        up = gas.FlowState.from_model(model, 1.0, (0.0, self.MIY))
        for b in self.BETAS:
            try:
                members.append((float(b), *shocks.horizontal_downstream_shock(model, up, float(b))))
            except (ValueError, ArithmeticError):
                failed += 1
        base = pattern.ProblemConfig(model=model, MIy=self.MIY, epsilon=self.EPS)
        eta_r, _ = shocks.horizontal_downstream_shock(model, base.upstream(), 0.0)
        hint = None
        for eta in np.linspace(eta_r / self.N_TARGETS, eta_r, self.N_TARGETS)[::-1]:
            cfg = pattern.ProblemConfig(model=model, MIy=self.MIY, eta_L_star=float(eta), epsilon=self.EPS)
            try:
                pat = pattern.build(cfg, validate_supersonic=False, beta_hint=hint)
            except (ValueError, ArithmeticError):
                failed += 1
                continue
            hint = pat.beta
            eta_builds.append((float(eta), pat))
        for tau in taus:
            cfg = pattern.ProblemConfig(model=model, M_I=MACH, tau=math.radians(tau), epsilon=self.EPS)
            try:
                tau_builds.append((tau, pattern.build(cfg)))
            except (ValueError, ArithmeticError):
                failed += 1
        seconds = time.perf_counter() - t0
        attempted = len(self.BETAS) + self.N_TARGETS + len(taus)
        return seconds, attempted, failed, self.check(members, eta_builds, tau_builds, ctx)

    def check(self, members, eta_builds, tau_builds, ctx) -> list[str]:
        problems = []
        up_v = np.array([0.0, self.MIY])
        worst_vdy, worst_rh = 0.0, 0.0
        for b, eta0, sol in members:
            worst_vdy = max(worst_vdy, abs(float(sol.downstream.v[1])))
            n = (math.sin(b), -math.cos(b))
            worst_rh = max(worst_rh, reference.rh_residual(
                GAMMA, (0.0, eta0), n, 1.0, up_v, sol.downstream.rho, sol.downstream.v))
        etas = [eta0 for _, eta0, _ in members]
        if not np.all(np.diff(etas) > 0.0):
            problems.append("eta_0(beta) is not increasing")
        if not worst_vdy < 1e-10:
            problems.append(f"family |v_d^y| reaches {worst_vdy:.1e} c_I")

        eta_r = ctx["eta_R"]
        r = math.sqrt(1.0 - self.EPS)
        worst_gap = 0.0
        for target, pat in eta_builds:
            c_L = float(reference.sound(GAMMA, pat.state_L.rho))
            tangent = (-pat.shock_L.n[1], pat.shock_L.n[0])
            left, _ = reference.sonic_points_on_line(pat.shock_L.point, tangent, pat.state_L.v, r * c_L)
            worst_gap = max(worst_gap, abs(float(left[1]) - target))
            worst_rh = max(worst_rh, self._rh(pat))
        if not worst_gap < 1e-8 * eta_r:
            problems.append(f"eta_L* targets missed by {worst_gap:.1e} (> 1e-8 eta_R*)")

        worst_req, worst_angle = 0.0, 0.0
        for tau, pat in tau_builds:
            worst_req = max(worst_req, abs(pat.M_I - MACH), abs(pat.tau - math.radians(tau)))
            worst_angle = max(worst_angle, abs(pat.tau + pat.beta - ctx["theta"][tau]))
            worst_rh = max(worst_rh, self._rh(pat))
        if not worst_req < 1e-10:
            problems.append(f"tau builds return (M_I, tau) off by {worst_req:.1e}")
        if not worst_angle < 1e-8:
            problems.append(f"tip-shock angle off the reference weak shock by {worst_angle:.1e} rad")
        if not worst_rh < 1e-10:
            problems.append(f"Rankine-Hugoniot residual reaches {worst_rh:.1e}")
        return problems

    @staticmethod
    def _rh(pat) -> float:
        I = pat.state_I
        return max(
            reference.rh_residual(GAMMA, s.point, s.n, I.rho, I.v, st.rho, st.v)
            for s, st in ((pat.shock_L, pat.state_L), (pat.shock_R, pat.state_R))
        )


WORKLOADS = {w.name: w for w in (DeskVerify(), SweepGrid(), March400(), CornerFamily())}


def reference_context(workload: Workload, seed: int) -> dict:
    """Reference values a workload's checks need, computed once per run."""
    bad = reference.self_check(GAMMA, MACH)
    if bad:
        raise SystemExit(f"reference solver failed its self-check: {bad}")
    tau = math.radians(TAU_DEG)
    ctx = {"case": reference.DeskCase(GAMMA, MACH, tau, 0.01)}
    if isinstance(workload, SweepGrid):
        ctx["cases"] = {eps: reference.DeskCase(GAMMA, MACH, tau, eps) for eps in EPS_LIST}
    if isinstance(workload, CornerFamily):
        taus = list(workload.TAUS_DEG)
        np.random.default_rng(seed).shuffle(taus)
        ctx["taus"] = [float(t) for t in taus]
        ctx["theta"] = {t: reference.tip_shock(GAMMA, MACH, math.radians(t))[0] for t in ctx["taus"]}
        ctx["eta_R"], _ = reference.reflected_shock(GAMMA, -workload.MIY)
    return ctx


# --- traced runs ---------------------------------------------------------------


def layer_metrics(
    main: dict, workers: list[dict], rounds: int, traced_s: float, pool_s: float, theta: float
) -> dict:
    """Per-round per-layer metrics from the spans of the main process and
    of the pool workers; pool_s is the sum over rounds of the pool's
    worker count times the round's wall time."""
    count, incl, own = {}, {}, {}
    counters, values = {}, {}
    root_main = 0.0
    for k, s in enumerate([main] + workers):
        by_name, roots = self_times(s)
        if k == 0:
            root_main = roots
        for name, (c, i, o) in by_name.items():
            count[name] = count.get(name, 0) + c
            incl[name] = incl.get(name, 0.0) + i
            own[name] = own.get(name, 0.0) + o
        for key, v in s["counts"].items():
            counters[key] = counters.get(key, 0.0) + v
        for key, v in s["values"].items():
            values.setdefault(key, []).extend(v)

    def n(name):
        return count.get(name, 0) / rounds

    def sec(name):
        return incl.get(name, 0.0) / rounds

    def per_call(name, scale):
        return incl[name] / count[name] * scale if count.get(name) else 0.0

    def biggest(key):
        return max(values[key]) if values.get(key) else 0.0

    worker_s = sum(float(np.sum((w["end"] - w["start"])[w["parent"] < 0])) for w in workers)
    cells = counters.get("unsteady.cell_steps", 0.0)
    m = {
        "elliptic.solves": n("elliptic.iterate"),
        "elliptic.iterate_s": sec("elliptic.iterate"),
        "elliptic.outer_iterations": counters.get("elliptic.outer_iterations", 0.0) / rounds,
        "elliptic.newton_steps": n("elliptic.newton_solve"),
        "elliptic.factorizations": n("elliptic.factorize"),
        "elliptic.factorize_s": sec("elliptic.factorize"),
        "elliptic.residual_evals": n("elliptic.residual"),
        "elliptic.residual_s": sec("elliptic.residual"),
        "elliptic.hessian_evals": n("elliptic.hessian_terms"),
        "elliptic.fixed_boundary_self_s": own.get("elliptic.solve_fixed_boundary", 0.0) / rounds,
        "elliptic.mapping_builds": n("elliptic.build_mapping"),
        "elliptic.mapping_s": sec("elliptic.build_mapping"),
        "elliptic.invert_points": counters.get("elliptic.invert_points", 0.0) / rounds,
        "elliptic.invert_s": sec("elliptic.invert"),
        "elliptic.fields_calls": n("elliptic.fields"),
        "elliptic.combined_residual": biggest("elliptic.combined_residual"),
        "diagnostics.weak_residual_s": sec("diagnostics.weak_residual"),
        "diagnostics.evaluate_points": counters.get("diagnostics.evaluate_points", 0.0) / rounds,
        "diagnostics.checks_s": sec("diagnostics.checks"),
        "diagnostics.weak_residual_max": biggest("diagnostics.weak_residual_max"),
        "unsteady.steps": n("unsteady.step"),
        "unsteady.step_s": sec("unsteady.step"),
        "unsteady.ns_per_cell_step": incl.get("unsteady.step", 0.0) / cells * 1e9 if cells else 0.0,
        "unsteady.stable_dt_calls": n("unsteady.stable_dt"),
        "unsteady.stable_dt_s": sec("unsteady.stable_dt"),
        "unsteady.solid_mask_calls": n("unsteady.solid_mask"),
        "unsteady.sample_s": sec("unsteady.sample"),
        "unsteady.measure_s": sec("unsteady.measure"),
        "unsteady.defect": biggest("unsteady.defect"),
        "unsteady.tip_angle_error_deg": max(
            (abs(math.degrees(a - theta)) for a in values.get("unsteady.tip_angle", [])), default=0.0
        ),
        "gas.sound_speed_calls": n("gas.sound_speed"),
        "gas.sound_speed_s": sec("gas.sound_speed"),
        "gas.pi_of_rho_calls": n("gas.pi_of_rho"),
        "gas.pi_of_rho_s": sec("gas.pi_of_rho"),
        "gas.pi_inverse_calls": n("gas.pi_inverse"),
        "shocks.downstream_normal_mach_calls": n("shocks.downstream_normal_mach"),
        "shocks.downstream_normal_mach_us": per_call("shocks.downstream_normal_mach", 1e6),
        "shocks.resolve_oblique_calls": n("shocks.resolve_oblique"),
        "pattern.builds": n("pattern.build"),
        "pattern.build_ms": per_call("pattern.build", 1e3),
        "cli.export_s": sec("cli.export"),
        "cli.pool_utilization": worker_s / pool_s if pool_s else 0.0,
        "trace.round_s": traced_s / rounds,
        "trace.outside_s": (traced_s - root_main) / rounds,
        "trace.worker_s": worker_s / rounds,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".", 1)[0] == layer) / rounds
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    mods = load_package()
    cfgs = wl.write_configs(args.dir / "config", args.seed)
    ctx = reference_context(wl, args.seed)
    rec = Recorder() if args.trace else None
    trace_dir = args.dir / "trace"
    workers, absent, pool_s = [], set(), 0.0

    round_s, attempted, failed, problems = [], 0, 0, []
    t_start = time.perf_counter()
    # whole rounds only, and only as many as fit in the run, so that a run
    # lasts about --seconds whatever the length of a round
    while not round_s or (time.perf_counter() - t_start) * (len(round_s) + 1) / len(round_s) <= args.seconds:
        out = args.dir / "round"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if rec is None:
            seconds, a, f, p = wl.round(mods, cfgs, out, ctx)
        else:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            tracer = Tracer(rec, mods, trace_dir)
            with tracer:
                seconds, a, f, p = wl.round(mods, cfgs, out, ctx)
            absent.update(tracer.absent)
            jobs = [load_spans(path) for path in sorted(trace_dir.glob("spans_*.npz"))]
            workers += jobs
            pool_s += len({j["pid"] for j in jobs}) * seconds
        round_s.append(seconds)
        attempted, failed = attempted + a, failed + f
        problems += [q for q in p if q not in problems]

    result = {
        "rounds": len(round_s),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_s": statistics.median(round_s),
        "round_s": round_s,
    }
    if rec is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (kids if isinstance(wl, SweepGrid) else own) / 1024.0
    else:
        spans = rec.spans()
        save_spans(rec, args.dir / f"spans_{args.workload}.npz")
        layers = layer_metrics(spans, workers, len(round_s), sum(round_s), pool_s, ctx["case"].theta)
        # the layers' self times plus the time outside any span must add up
        # to the traced wall time plus the pool workers' job time
        lhs = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["trace.outside_s"]
        rhs = layers["trace.round_s"] + layers["trace.worker_s"]
        for s in [spans] + workers:
            problems += nesting_problems(s)
        if not (abs(lhs - rhs) <= 1e-6 * rhs and layers["trace.outside_s"] >= 0.0):
            problems.append(f"self times {lhs:.6f} s + outside do not add up to {rhs:.6f} s")
        layers.update(src_lines(ROOT))
        result["per_layer"] = layers
        result["absent"] = sorted(absent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
