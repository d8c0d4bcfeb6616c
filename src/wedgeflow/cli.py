"""The ``wedge`` command line front end.

    wedge <command> --config FILE [--strict] [--out DIR]

Commands: polar, pattern, simulate, elliptic, verify, sweep.  The config is
flat ``key = value`` text with ``#`` comments; the wedge angle is given as
``tau_deg`` in degrees and stored in radians.  Exit codes: 0 success, 1
solver non-convergence, a dead worker process or an output file that cannot
be written, 2 configuration error, 3 diagnostic FAIL under --strict, 130
interrupted (SIGINT).  Every output file is written here; ``sweep`` runs one
worker per usable CPU and ``simulate`` one process per usable CPU, up to two.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .gas import GasModel, WedgeError
from . import pattern as pattern_mod
from .pattern import ProblemConfig, build
from .shocks import critical_angle, deflection_solutions, polar_bytes, shock_polar
from . import unsteady as unsteady_mod
from .unsteady import UnsteadyConfig, WorkerLost


# simulate refuses a config whose march needs more steps than this
MAX_MARCH_STEPS = 10**6


class ConfigError(WedgeError, ValueError):
    pass


@dataclass
class RunConfig:
    # gas / problem
    gamma: float = 1.4
    rho_I: float = 1.0
    c_I: float = 1.0
    M_I: float | None = None
    tau: float | None = None  # from tau_deg
    M_I_y: float | None = None
    eta_L_star: float | None = None
    epsilon: float = 0.01
    # unsteady numerics, defaulting to the march's own
    grid_n: int = UnsteadyConfig.grid_n
    cfl: float = UnsteadyConfig.cfl
    t_final: float = UnsteadyConfig.t_final
    sample_nx: int = UnsteadyConfig.sample_nx
    box_x_min: float = UnsteadyConfig.box[0]
    box_x_max: float = UnsteadyConfig.box[1]
    box_y_max: float = UnsteadyConfig.box[2]
    # elliptic numerics
    lattice_n: int = 48
    tol_outer: float = 1e-6
    max_outer: int = 120  # accepted Newton steps
    # sweep / verification
    eps_list: tuple = (0.04, 0.01, 0.0025)
    lattice_list: tuple = (48,)
    quad_n: int = 256  # accepted; the weak residual's Gauss rules have a fixed resolution
    polar_n: int = 2001
    seed: int = 0  # accepted; the fixed bump battery draws no random numbers
    snapshot_every: int = UnsteadyConfig.snapshot_every

    def model(self) -> GasModel:
        return GasModel(gamma=self.gamma, rho0=self.rho_I, c0=self.c_I)

    def problem(self) -> ProblemConfig:
        if self.M_I is None and self.M_I_y is None:
            raise ConfigError("either (M_I, tau_deg) or M_I_y is required")
        return ProblemConfig(
            model=self.model(),
            M_I=self.M_I,
            tau=self.tau,
            MIy=self.M_I_y,
            eta_L_star=self.eta_L_star,
            epsilon=self.epsilon,
        )

    def elliptic(self):
        from .elliptic import EllipticConfig, lattice_bytes  # loads scipy: imported where used

        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon = {self.epsilon}: the elliptic solve needs epsilon > 0")
        _check_memory(f"lattice_n = {self.lattice_n}", lattice_bytes(self.lattice_n), "the solve")
        return EllipticConfig(
            lattice_n=self.lattice_n, tol_outer=self.tol_outer, max_outer=self.max_outer
        )


_RANGES = {
    "gamma": (1.0, 10.0),
    "rho_I": (1e-12, math.inf),
    "c_I": (1e-12, math.inf),
    "epsilon": (0.0, 0.25),
    "cfl": (1e-6, 0.999),
    "t_final": (1e-9, math.inf),
    "tol_outer": (0.0, 1.0),
    "max_outer": (1, math.inf),
    "lattice_n": (8, math.inf),
    "quad_n": (2, math.inf),
    "grid_n": (4, math.inf),
    "sample_nx": (2, math.inf),
    "polar_n": (2, math.inf),
    "snapshot_every": (0, math.inf),
}


def _check_memory(setting: str, need: int, what: str):
    """ConfigError naming the setting when need bytes exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"{setting}: {what} needs {need / 1e9:.3g} GB, "
            f"more than the {have / 1e9:.3g} GB of physical memory"
        )


def parse_config(path=None, text=None) -> RunConfig:
    """Flat key = value text; unknown keys and out-of-range values raise
    ConfigError naming the key."""
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    if text:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            raw[key] = val

    cfg = RunConfig()
    # the wedge angle is the one angle key: set in degrees, stored in radians
    known = {f.name for f in fields(RunConfig)} - {"tau"} | {"tau_deg"}
    for key, val in raw.items():
        if key not in known:
            raise ConfigError(f"unknown key: {key}")
        try:
            if key == "tau_deg":
                cfg.tau = math.radians(float(val))
            elif key in ("eps_list", "lattice_list"):
                parts = [s for s in val.replace(",", " ").split() if s]
                setattr(cfg, key, tuple(int(s) if key == "lattice_list" else float(s) for s in parts))
            elif isinstance(getattr(cfg, key), int):
                setattr(cfg, key, int(val))
            else:
                setattr(cfg, key, float(val))
        except ValueError as exc:
            raise ConfigError(f"malformed value for {key}: {val!r}") from exc

    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{'tau_deg' if f.name == 'tau' else f.name} = {v} is not finite")
    for name, (lo, hi) in _RANGES.items():
        v = getattr(cfg, name)
        if v is not None and not lo <= v <= hi:
            raise ConfigError(f"{name} = {v} out of range [{lo}, {hi}]")
    for n in cfg.lattice_list:
        if n < _RANGES["lattice_n"][0]:
            raise ConfigError(f"lattice_list entry {n} below {_RANGES['lattice_n'][0]}")
    for eps in cfg.eps_list:
        if not 0.0 < eps <= _RANGES["epsilon"][1]:
            raise ConfigError(f"eps_list entry {eps} out of range (0, {_RANGES['epsilon'][1]}]")
    # a sweep job's files are named by its eps (as %g) and lattice
    for key, stems in (("eps_list", [f"{e:g}" for e in cfg.eps_list]), ("lattice_list", cfg.lattice_list)):
        if not stems or len(set(stems)) < len(stems):
            raise ConfigError(f"{key} = {list(stems)} needs at least one entry, none repeated")
    if not cfg.box_x_min < 0.0 < cfg.box_x_max:
        raise ConfigError(
            f"box_x_min = {cfg.box_x_min}, box_x_max = {cfg.box_x_max}: "
            "the box must contain the wedge tip x = 0"
        )
    _, _, rows = unsteady_mod.grid_shape(cfg.grid_n, (cfg.box_x_min, cfg.box_x_max, cfg.box_y_max))
    if rows < 2:
        raise ConfigError(
            f"box_y_max = {cfg.box_y_max} gives {rows} cell rows at grid_n = {cfg.grid_n}; "
            "at least 2 are needed"
        )
    if cfg.tau is not None and not 0.0 < cfg.tau < 0.5 * math.pi:
        raise ConfigError(f"tau_deg = {math.degrees(cfg.tau)} out of range (0, 90)")
    if cfg.M_I is not None and cfg.M_I <= 1.0:
        raise ConfigError(f"M_I = {cfg.M_I} must exceed 1")
    if cfg.M_I_y is not None and cfg.M_I_y >= 0.0:
        raise ConfigError(f"M_I_y = {cfg.M_I_y} must be negative")
    if cfg.M_I is not None and cfg.tau is None:
        raise ConfigError("M_I given without tau_deg")
    if cfg.M_I_y is not None and (cfg.M_I is not None or cfg.tau is not None):
        raise ConfigError("M_I_y and the wedge pair (M_I, tau_deg) both given; give one or the other")
    # eta_L_star picks the L shock of an M_I_y pattern; a wedge pair fixes it
    # as the tip shock.  Its upper end eta_R* is computed by the build.
    if cfg.eta_L_star is not None and cfg.eta_L_star <= 0.0:
        raise ConfigError(f"eta_L_star = {cfg.eta_L_star} must be positive")
    if cfg.eta_L_star is not None and (cfg.M_I is not None or cfg.tau is not None):
        raise ConfigError("eta_L_star and the wedge pair (M_I, tau_deg) both given; eta_L_star goes with M_I_y")
    return cfg


def _write_rows(path, header, rows):
    """Every CSV file but the field, snapshot and elliptic node files, in
    csv.writer's default dialect (repr of each float, CRLF line ends)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_polar(cfg: RunConfig, out: Path, strict: bool) -> int:
    if cfg.M_I is None or cfg.tau is None:
        raise ConfigError("polar needs M_I and tau_deg")
    problem = cfg.problem()
    model, upstream = problem.model, problem.upstream_original()
    _check_memory(f"polar_n = {cfg.polar_n}", polar_bytes(cfg.polar_n), "the polar")
    samples = shock_polar(model, upstream, cfg.polar_n)
    _write_rows(
        out / "polar.csv",
        ["beta", "vx_d", "vy_d", "rho_d", "c_d", "L_d"],
        ((s.beta, s.downstream_v[0], s.downstream_v[1], s.rho_d, s.c_d, s.L_d) for s in samples),
    )
    tau_star = critical_angle(model, upstream)
    sols = deflection_solutions(model, upstream, cfg.tau)
    if sols is None:
        line = (
            f"tau={math.degrees(cfg.tau):.4f}deg above critical "
            f"tau*={math.degrees(tau_star):.4f}deg: no attached shock"
        )
    else:
        line = (
            f"tau={math.degrees(cfg.tau):.4f}deg: weak M_d={sols.weak.downstream_mach:.4f} "
            f"({'supersonic' if sols.weak_supersonic else 'subsonic'}), "
            f"strong M_d={sols.strong.downstream_mach:.4f} "
            f"({'supersonic' if sols.strong_supersonic else 'subsonic'}); "
            f"tau*={math.degrees(tau_star):.4f}deg"
        )
    print(line)
    (out / "polar_summary.txt").write_text(line + "\n")
    return 0


def cmd_pattern(cfg: RunConfig, out: Path, strict: bool) -> int:
    pat = build(cfg.problem())
    # one row per geometric entity, for plotting scripts
    states = (pat.state_I, pat.state_L, pat.state_R)
    rows = [(f"state_{k}", *st.v, st.rho, st.c, "") for k, st in zip("ILR", states)]
    rows += [
        ("shock_L", *pat.shock_L.point, *pat.shock_L.n, pat.beta),
        ("shock_R", *pat.shock_R.point, *pat.shock_R.n, 0.0),
        ("corner_L", *pat.xi_L_star, "", "", ""),
        ("corner_R", *pat.xi_R_star, "", "", ""),
    ]
    for k, arc in zip("LR", (pat.arc_L, pat.arc_R)):
        rows.append((f"arc_{k}", *arc.center, arc.radius, arc.angle_lo, arc.angle_hi))
    rows.append(("wall", *pat.xi_BL, *pat.xi_BR, ""))
    _write_rows(out / "pattern.csv", ["entity", "a", "b", "c", "d", "e"], rows)
    sep = pattern_mod.separation_check(pat)
    # the tip-frame Mach numbers need an original picture: an unperturbed
    # pattern (M_I_y without eta_L_star) has its tip at -infinity
    machs = (
        f"M_L={pat.mach_L:.4f} M_R={pat.mach_R:.4f} " if math.isfinite(pat.wall_speed) else ""
    )
    print(
        f"pattern: eta_R*={pat.eta_R_star:.6g} eta_L*={pat.eta_L_star:.6g} "
        f"beta={pat.beta:.6f} {machs}separation={sep:.6f}"
    )
    return 0


def cmd_simulate(cfg: RunConfig, out: Path, strict: bool) -> int:
    if cfg.tau is None:
        raise ConfigError("simulate needs the wedge pair (M_I, tau_deg)")
    ucfg = UnsteadyConfig(
        problem=cfg.problem(),
        grid_n=cfg.grid_n,
        box=(cfg.box_x_min, cfg.box_x_max, cfg.box_y_max),
        cfl=cfg.cfl,
        t_final=cfg.t_final,
        sample_nx=cfg.sample_nx,
        snapshot_every=cfg.snapshot_every,
    )
    steps = unsteady_mod.min_march_steps(ucfg)
    if steps > MAX_MARCH_STEPS:
        raise ConfigError(
            f"grid_n = {cfg.grid_n}, cfl = {cfg.cfl}, t_final = {cfg.t_final}, M_I = {cfg.M_I}, "
            f"c_I = {cfg.c_I}: the march needs at least {steps} steps, more than {MAX_MARCH_STEPS}"
        )
    # run keeps its first sampling while it marches on; the march counts
    # the state once and the buffers of each of its processes
    _check_memory(
        f"grid_n = {cfg.grid_n}, sample_nx = {cfg.sample_nx}",
        unsteady_mod.march_bytes(ucfg) + unsteady_mod.sample_bytes(ucfg),
        "the march and its samplings",
    )
    setup = unsteady_mod.march_setup(ucfg)
    if unsteady_mod.shared_sample_points(setup) == 0:
        raise ConfigError(
            f"grid_n = {cfg.grid_n}, box_x_min = {cfg.box_x_min}, box_x_max = {cfg.box_x_max}, "
            f"box_y_max = {cfg.box_y_max}, t_final = {cfg.t_final}: the samplings at t_final / 2 "
            "and t_final share no valid point in the xi window"
        )
    counter = {"k": 0}

    def snap(grid, state):
        counter["k"] += 1
        write_field_csv(grid, state, out / f"snapshot_{counter['k']:04d}.csv")

    res = unsteady_mod.run(ucfg, on_snapshot=snap if cfg.snapshot_every else None, setup=setup)
    write_field_csv(res.grid, res.final, out / "field_final.csv")
    write_field_raw(res.grid, res.final, out / "field_final.raw")
    # probes.csv is written before the tip-angle fit, which can fail on a
    # coarse run; the probe lines are printed after the summary line
    rows, lines = [], []
    for name, center in unsteady_mod.region_probes(res.pattern).items():
        try:
            st = unsteady_mod.probe_stats(res.sample_final, center, 0.1)
        except ValueError:
            lines.append(f"  probe {name}: outside the sampled window, skipped")
            continue
        rows.append((name, center[0], center[1], st["rho_mean"], st["rho_std"], st["L_mean"]))
        lines.append(
            f"  probe {name}: rho={st['rho_mean']:.4f} (std {st['rho_std']:.4f}) L={st['L_mean']:.3f}"
        )
    _write_rows(out / "probes.csv", ["region", "x", "y", "rho_mean", "rho_std", "L_mean"], rows)
    ang = unsteady_mod.tip_shock_angle(res)
    pred = unsteady_mod.predicted_tip_shock_angle(res.pattern)
    print(
        f"simulate: steps={res.steps} t={res.final.t:.4f} "
        f"tip angle {math.degrees(ang):.3f}deg (weak-shock prediction {math.degrees(pred):.3f}deg) "
        f"self-similarity defect {res.defect:.5f}"
    )
    for line in lines:
        print(line)
    return 0


def write_field_csv(grid, state, path):
    """One row per fluid cell, row-major, in csv.writer's format (repr of
    each float, CRLF line ends).  Rows are built from blocks of cells so that
    the Python objects of only one block are alive at once.  The reprs of the
    column and row centres are formed once and indexed per cell."""
    xs, ys = (np.array([repr(v) for v in c.tolist()], dtype=object) for c in grid.centers())
    j, i = np.nonzero(~grid.solid_mask())
    cols = (i, j, xs[i], ys[j], state.rho[j, i], state.vx[j, i], state.vy[j, i])
    with open(path, "w", newline="") as fh:
        fh.write("i,j,x,y,rho,vx,vy\r\n")
        for k in range(0, len(i), 4096):
            rows = zip(*(c[k : k + 4096].tolist() for c in cols))
            fh.write("".join("%d,%d,%s,%s,%r,%r,%r\r\n" % row for row in rows))


def write_field_raw(grid, state, path):
    """Binary dump: ASCII header line, then rho, vx, vy as little-endian
    float64, row-major."""
    with open(path, "wb") as fh:
        fh.write(f"WEDGE1 {grid.nx} {grid.ny} {state.t}\n".encode())
        for arr in (state.rho, state.vx, state.vy):
            fh.write(arr.astype("<f8").tobytes())


def write_solution_csv(sol, node_path, shock_path, history_path):
    """Per-node (row-major over the lattice), shock-curve and residual-history
    files of an elliptic solution, in csv.writer's format.  The node file is
    written one lattice row at a time; the reprs of the lattice coordinates
    sigma and zeta are formed once and reused on every row."""
    m, f = sol.mapping, sol.fields()
    coords = [repr(v) for v in m.lattice.nodes.tolist()]
    values = [a.tolist() for a in (m.xi, m.eta, sol.psi, f["rho"], f["vx"], f["vy"], f["L2"])]
    with open(node_path, "w", newline="") as fh:
        fh.write("sigma,zeta,xi,eta,psi,rho,vx,vy,L2\r\n")
        for j, zeta in enumerate(coords):
            cols = (map(repr, a[j]) for a in values)
            fh.writelines(",".join(row) + "\r\n" for row in zip(coords, repeat(zeta), *cols))
    # the downstream shock normal is -grad zeta on the shock row
    normal = map(math.atan2, (-m.zet_y[-1]).tolist(), (-m.zet_x[-1]).tolist())
    _write_rows(shock_path, ["xi", "s", "normal_angle"], zip(m.xi[-1].tolist(), m.eta[-1].tolist(), normal))
    keys = ["iter", "r_interior", "r_arcL", "r_arcR", "r_wall", "r_shock", "r_shock_update", "combined"]
    _write_rows(history_path, keys, ([rec[k] for k in keys] for rec in sol.residual_history))


def cmd_elliptic(cfg: RunConfig, out: Path, strict: bool) -> int:
    from .elliptic import iterate

    pat = build(cfg.problem())
    sol = iterate(pat, cfg.elliptic())
    write_solution_csv(
        sol, out / "solution_nodes.csv", out / "solution_shock.csv", out / "residual_history.csv"
    )
    rec = sol.residual_history[-1]
    print(
        f"elliptic: converged={sol.converged} iterations={len(sol.residual_history)} "
        f"combined residual={rec['combined']:.3e}"
    )
    return 0 if sol.converged else 1


def cmd_verify(cfg: RunConfig, out: Path, strict: bool) -> int:
    from . import diagnostics as diag_mod
    from .elliptic import iterate

    pat = build(cfg.problem())
    sol = iterate(pat, cfg.elliptic())
    if not sol.converged:
        print("verify: elliptic solve did not converge")
        return 1
    checks = diag_mod.ellipticity_report(sol) + diag_mod.density_extrema(sol)
    checks += diag_mod.velocity_and_normal_ranges(sol)
    for side in ("L", "R"):
        checks += diag_mod.arc_profile(sol, side)[1]
    wr = diag_mod.weak_residual(sol)
    checks.append(
        diag_mod.CheckResult(
            name="weak_residual_battery_max",
            passed=True,
            value=wr["max"],
            tolerance=float("nan"),
            note=f"{len(wr['values'])} bumps, informational at fixed epsilon",
        )
    )
    # how far the shock's free ends sit below the sonic corners, in units of c_I
    for side, star, corner in (("L", pat.eta_L_star, sol.corner_L), ("R", pat.eta_R_star, sol.corner_R)):
        gap = float(star - corner[1]) / pat.state_I.c
        note = f"eta_{side}* minus the shock's end height, informational"
        checks.append(diag_mod.CheckResult(f"corner_gap_{side}", True, gap, float("nan"), note=note))
    for c in checks:
        print(c.line())
    rows = [(c.name, "PASS" if c.passed else "FAIL", c.value, c.tolerance, c.location, c.note) for c in checks]
    _write_rows(out / "verify_report.csv", ["name", "verdict", "value", "tolerance", "location", "note"], rows)
    n_fail = sum(1 for c in checks if not c.passed)
    print(f"verify: {len(checks) - n_fail}/{len(checks)} checks passed")
    if n_fail and strict:
        return 3
    return 0


def _sweep_job(args):
    from . import diagnostics as diag_mod
    from .elliptic import iterate

    cfg_dict, eps, lattice, out_dir = args
    cfg = RunConfig(**{**cfg_dict, "epsilon": eps, "lattice_n": lattice})
    pat = build(cfg.problem())
    sol = iterate(pat, cfg.elliptic())
    stem = Path(out_dir) / f"sweep_eps{eps:g}_n{lattice}"
    write_solution_csv(sol, f"{stem}_nodes.csv", f"{stem}_shock.csv", f"{stem}_history.csv")
    rec = sol.residual_history[-1]
    dl = float(np.hypot(*(sol.corner_L - pat.xi_L_star)))
    dr = float(np.hypot(*(sol.corner_R - pat.xi_R_star)))
    wr = diag_mod.weak_residual(sol)
    return (eps, lattice, sol.converged, rec["combined"], dl, dr, wr["max"])


def cmd_sweep(cfg: RunConfig, out: Path, strict: bool) -> int:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # loaded before the pool starts, so that forked workers inherit them
    from . import diagnostics, elliptic  # noqa: F401

    for n in cfg.lattice_list:
        _check_memory(f"lattice_list entry {n}", elliptic.lattice_bytes(n), "the solve")
    jobs = [
        (asdict(cfg), eps, lattice, str(out))
        for eps in sorted(cfg.eps_list, reverse=True)
        for lattice in cfg.lattice_list
    ]
    futures = {}
    try:
        workers = min(len(jobs), unsteady_mod.usable_cpus())
        with ProcessPoolExecutor(max_workers=workers, initializer=unsteady_mod.ignore_interrupts) as pool:
            try:
                # largest lattice first, so that no worker ends the sweep alone
                # on a long job; results are collected in job order.  The pool
                # forks its workers at the first submit
                with unsteady_mod.interrupts_held():
                    for k in sorted(range(len(jobs)), key=lambda k: -jobs[k][2]):
                        futures[k] = pool.submit(_sweep_job, jobs[k])
                results = [futures[k].result() for k in range(len(jobs))]
            except KeyboardInterrupt:
                # the workers ignore SIGINT: end them, so that the interrupt
                # waits neither for the jobs in flight nor for the queued ones;
                # leaving the block then shuts the broken pool down
                for p in multiprocessing.active_children():
                    p.terminate()
                raise
    except BrokenProcessPool:
        # the pool has shut down, so every submitted future is done
        lost = ", ".join(
            f"(eps={job[1]:g}, lattice={job[2]})"
            for k, job in enumerate(jobs)
            if k not in futures or isinstance(futures[k].exception(), BrokenProcessPool)
        )
        raise WorkerLost(f"a sweep worker died; jobs in flight: {lost}") from None
    _write_rows(
        out / "sweep_summary.csv",
        ["epsilon", "lattice", "converged", "combined_residual", "corner_dL", "corner_dR", "weak_residual_max"],
        results,
    )
    ok = all(r[2] for r in results)
    for r in results:
        print(
            f"sweep eps={r[0]:g} n={r[1]}: converged={r[2]} residual={r[3]:.3e} "
            f"corners=({r[4]:.4f},{r[5]:.4f}) weak={r[6]:.5f}"
        )
    if len(cfg.eps_list) >= 2:
        eps_arr = sorted({r[0] for r in results}, reverse=True)
        vals = [max(r[6] for r in results if r[0] == e) for e in eps_arr]
        slope = float(np.polyfit(np.log(eps_arr), np.log(vals), 1)[0])
        print(f"sweep: weak-residual log-log slope vs epsilon = {slope:.3f}")
    return 0 if ok else 1


COMMANDS = {
    "polar": cmd_polar,
    "pattern": cmd_pattern,
    "simulate": cmd_simulate,
    "elliptic": cmd_elliptic,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def dispatch(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wedge", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--strict", action="store_true", help="exit 3 on diagnostic FAIL")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        cfg = parse_config(args.config)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out}: cannot make the output directory ({exc.strerror})") from None
        return COMMANDS[args.command](cfg, out, args.strict)
    except ConfigError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except WedgeError as exc:
        print(f"solver failure ({type(exc).__name__}): {_one_line(exc)}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an allocation no preflight estimate caught
        print(f"solver failure (MemoryError): {_one_line(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an output file that cannot be written; the error names it
        print(f"output error ({type(exc).__name__}): {_one_line(exc)}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # the conventional status of a command ended by SIGINT
        print("interrupted", file=sys.stderr)
        return 130


def _one_line(exc) -> str:
    """The message with its whitespace runs, newlines included, collapsed."""
    return " ".join(str(exc).split())


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
