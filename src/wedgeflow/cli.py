"""The ``wedge`` command line front end.

    wedge <command> --config FILE [--strict] [--out DIR]

Commands: polar, pattern, simulate, elliptic, verify, sweep.  The config is
flat ``key = value`` text with ``#`` comments; angles use a ``_deg`` suffix
and are stored in radians.  Exit codes: 0 success, 1 solver
non-convergence, 2 configuration error, 3 diagnostic FAIL under --strict.
The WEDGE_THREADS environment variable caps the sweep worker count.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .gas import GasModel, FlowState, WedgeError
from . import pattern as pattern_mod
from .pattern import ProblemConfig, build
from .shocks import critical_angle, deflection_solutions, shock_polar
from . import unsteady as unsteady_mod
from .unsteady import UnsteadyConfig
from .elliptic import EllipticConfig, export_solution_csv, iterate
from . import diagnostics as diag_mod


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
    # unsteady numerics
    grid_n: int = 200
    cfl: float = 0.45
    t_final: float = 1.0
    sample_nx: int = 320
    box_x_min: float = -0.6
    box_x_max: float = 4.8
    box_y_max: float = 2.6
    # elliptic numerics
    lattice_n: int = 48
    tol_inner: float = 1e-10
    tol_outer: float = 1e-6
    omega_relax: float = 0.5
    max_outer: int = 120
    # sweep / verification
    eps_list: tuple = (0.04, 0.01, 0.0025)
    lattice_list: tuple = (48,)
    quad_n: int = 256
    polar_n: int = 2001
    seed: int = 0  # accepted; the fixed bump battery draws no random numbers
    snapshot_every: int = 0

    def model(self) -> GasModel:
        return GasModel(gamma=self.gamma, rho0=self.rho_I, c0=self.c_I)

    def problem(self) -> ProblemConfig:
        if self.M_I is None and self.M_I_y is None:
            raise ConfigError("either (M_I, tau_deg) or M_I_y is required")
        return ProblemConfig(
            model=self.model(),
            rho_I=self.rho_I,
            c_I=self.c_I,
            M_I=self.M_I,
            tau=self.tau,
            MIy=self.M_I_y,
            eta_L_star=self.eta_L_star,
            epsilon=self.epsilon,
        )

    def elliptic(self) -> EllipticConfig:
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon = {self.epsilon}: the elliptic solve needs epsilon > 0")
        return EllipticConfig(
            n_sigma=self.lattice_n,
            n_zeta=self.lattice_n,
            tol_inner=self.tol_inner,
            tol_outer=self.tol_outer,
            omega_relax=self.omega_relax,
            max_outer=self.max_outer,
        )


_RANGES = {
    "gamma": (1.0, 10.0),
    "rho_I": (1e-12, math.inf),
    "c_I": (1e-12, math.inf),
    "epsilon": (0.0, 0.25),
    "cfl": (1e-6, 0.999),
    "t_final": (1e-9, math.inf),
    "omega_relax": (1e-3, 1.0),
    # below about 1e-15 a Newton step relative to the potential scale stalls
    # at rounding level before it reaches the tolerance
    "tol_inner": (1e-14, 1.0),
    "tol_outer": (0.0, 1.0),
    "max_outer": (1, math.inf),
    "lattice_n": (8, math.inf),
    "quad_n": (2, math.inf),
    "grid_n": (4, math.inf),
    "sample_nx": (2, math.inf),
    "snapshot_every": (0, math.inf),
}


def parse_config(path=None, text=None) -> RunConfig:
    """Flat key = value text; unknown keys and out-of-range values raise
    ConfigError naming the key."""
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        text = p.read_text()
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
    known = {f.name for f in fields(RunConfig)}
    for key, val in raw.items():
        name = key
        if key.endswith("_deg"):
            name = key[: -len("_deg")]
            if name not in known:
                raise ConfigError(f"unknown key: {key}")
            try:
                setattr(cfg, name, math.radians(float(val)))
            except ValueError as exc:
                raise ConfigError(f"malformed value for {key}: {val!r}") from exc
            continue
        if name not in known:
            raise ConfigError(f"unknown key: {key}")
        current = getattr(cfg, name)
        try:
            if name in ("eps_list", "lattice_list"):
                parts = [s for s in val.replace(",", " ").split() if s]
                setattr(cfg, name, tuple(int(s) if name == "lattice_list" else float(s) for s in parts))
            elif isinstance(current, bool):
                setattr(cfg, name, val.lower() in ("1", "true", "yes"))
            elif isinstance(current, int) and not isinstance(current, bool):
                setattr(cfg, name, int(val))
            else:
                setattr(cfg, name, float(val))
        except ValueError as exc:
            raise ConfigError(f"malformed value for {key}: {val!r}") from exc

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
    if not cfg.box_x_min < 0.0 < cfg.box_x_max:
        raise ConfigError(
            f"box_x_min = {cfg.box_x_min}, box_x_max = {cfg.box_x_max}: "
            "the box must contain the wedge tip x = 0"
        )
    # the cell-row count of unsteady.run
    rows = round(cfg.box_y_max / ((cfg.box_x_max - cfg.box_x_min) / cfg.grid_n))
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
    return cfg


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_polar(cfg: RunConfig, out: Path, strict: bool) -> int:
    if cfg.M_I is None or cfg.tau is None:
        raise ConfigError("polar needs M_I and tau_deg")
    model = cfg.model()
    upstream = FlowState.from_model(model, cfg.rho_I, (cfg.M_I * cfg.c_I, 0.0))
    samples = shock_polar(model, upstream, np.zeros(2), cfg.polar_n)
    _write_rows(
        out / "polar.csv",
        ["beta", "vx_d", "vy_d", "rho_d", "c_d", "L_d"],
        [(s.beta, s.downstream_v[0], s.downstream_v[1], s.rho_d, s.c_d, s.L_d) for s in samples],
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
    pattern_mod.export_csv(pat, out / "pattern.csv")
    sep = pattern_mod.separation_check(pat)
    print(
        f"pattern: eta_R*={pat.eta_R_star:.6f} eta_L*={pat.eta_L_star:.6f} "
        f"beta={pat.beta:.6f} M_L={pat.mach_L:.4f} M_R={pat.mach_R:.4f} "
        f"separation={sep:.6f}"
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
    counter = {"k": 0}

    def snap(grid, state):
        counter["k"] += 1
        write_field_csv(grid, state, out / f"snapshot_{counter['k']:04d}.csv")

    res = unsteady_mod.run(ucfg, on_snapshot=snap if cfg.snapshot_every else None)
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
    """One row per fluid cell, row-major.  Rows are built from blocks of
    cells so that the Python objects of only one block are alive at once."""
    x, y = grid.centers()
    j, i = np.nonzero(~grid.solid_mask())
    cols = (i, j, x[i], y[j], state.rho[j, i], state.vx[j, i], state.vy[j, i])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "x", "y", "rho", "vx", "vy"])
        for k in range(0, len(i), 4096):
            w.writerows(zip(*(c[k : k + 4096].tolist() for c in cols)))


def write_field_raw(grid, state, path):
    """Binary dump: ASCII header line, then rho, vx, vy as little-endian
    float64, row-major."""
    with open(path, "wb") as fh:
        fh.write(f"WEDGE1 {grid.nx} {grid.ny} {state.t}\n".encode())
        for arr in (state.rho, state.vx, state.vy):
            fh.write(arr.astype("<f8").tobytes())


def cmd_elliptic(cfg: RunConfig, out: Path, strict: bool) -> int:
    pat = build(cfg.problem())
    sol = iterate(pat, cfg.elliptic())
    export_solution_csv(
        sol, out / "solution_nodes.csv", out / "solution_shock.csv", out / "residual_history.csv"
    )
    rec = sol.residual_history[-1]
    print(
        f"elliptic: converged={sol.converged} iterations={len(sol.residual_history)} "
        f"combined residual={rec['combined']:.3e}"
    )
    return 0 if sol.converged else 1


def run_checks(sol, quad_n):
    checks = []
    checks += diag_mod.ellipticity_report(sol)
    c, _ = diag_mod.density_extrema(sol)
    checks += c
    checks += diag_mod.velocity_and_normal_ranges(sol)
    for side in ("L", "R"):
        _, arc_checks = diag_mod.arc_profile(sol, side)
        checks += arc_checks
    comp = diag_mod.CompositeField(sol)
    wr = diag_mod.weak_residual(comp, quad_n=quad_n)
    checks.append(
        diag_mod.CheckResult(
            name="weak_residual_battery_max",
            passed=True,
            value=wr["max"],
            tolerance=float("nan"),
            note=f"{len(wr['values'])} bumps, informational at fixed epsilon",
        )
    )
    return checks


def cmd_verify(cfg: RunConfig, out: Path, strict: bool) -> int:
    pat = build(cfg.problem())
    sol = iterate(pat, cfg.elliptic())
    if not sol.converged:
        print("verify: elliptic solve did not converge")
        return 1
    checks = run_checks(sol, cfg.quad_n)
    for c in checks:
        print(c.line())
    diag_mod.write_report_csv(checks, out / "verify_report.csv")
    n_fail = sum(1 for c in checks if not c.passed)
    print(f"verify: {len(checks) - n_fail}/{len(checks)} checks passed")
    if n_fail and strict:
        return 3
    return 0


def _sweep_job(args):
    cfg_dict, eps, lattice, out_dir = args
    cfg = RunConfig(**cfg_dict)
    cfg.epsilon = eps
    cfg.lattice_n = lattice
    pat = build(cfg.problem())
    sol = iterate(pat, cfg.elliptic())
    export_solution_csv(
        sol,
        Path(out_dir) / f"sweep_eps{eps:g}_n{lattice}_nodes.csv",
        Path(out_dir) / f"sweep_eps{eps:g}_n{lattice}_shock.csv",
        Path(out_dir) / f"sweep_eps{eps:g}_n{lattice}_history.csv",
    )
    rec = sol.residual_history[-1]
    dl = float(np.hypot(*(sol.corner_L - pat.xi_L_star)))
    dr = float(np.hypot(*(sol.corner_R - pat.xi_R_star)))
    comp = diag_mod.CompositeField(sol)
    wr = diag_mod.weak_residual(comp, quad_n=cfg.quad_n)
    return (eps, lattice, sol.converged, rec["combined"], dl, dr, wr["max"])


def cmd_sweep(cfg: RunConfig, out: Path, strict: bool) -> int:
    from dataclasses import asdict

    jobs = [
        (asdict(cfg), eps, lattice, str(out))
        for eps in sorted(cfg.eps_list, reverse=True)
        for lattice in cfg.lattice_list
    ]
    max_workers = min(len(jobs), int(os.environ.get("WEDGE_THREADS", os.cpu_count() or 1)))
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_sweep_job, jobs))
    else:
        results = [_sweep_job(j) for j in jobs]
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

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out, args.strict)
    except ConfigError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except WedgeError as exc:
        print(f"solver failure ({type(exc).__name__}): {_one_line(exc)}", file=sys.stderr)
        return 1


def _one_line(exc) -> str:
    """The message with its whitespace runs, newlines included, collapsed."""
    return " ".join(str(exc).split())


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
