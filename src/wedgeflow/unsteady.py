"""Time-marching solver for the irrotational gas system on the wedge domain.

The system evolved is

    rho_t + div(rho v) = 0,
    v_t + grad(|v|^2/2 + pi(rho)) = 0,

which is unsteady potential flow written for (rho, v); the gradient-form
momentum update keeps smooth flow exactly irrotational, and the jump
conditions of this conservative system coincide with the potential-flow
shock relations.

Scheme: first-order local Lax-Friedrichs fluxes with wave-speed bound
|v.n| + c, explicit Euler in time.  The wedge is a staircase mask of solid
cells with mirror-reflected ghost states; outer boundaries are upstream
Dirichlet (left, top) and zero-gradient outflow (right).  The bottom row of
the box is the upstream wall (slip via mirror).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gas import GasModel, FlowState, VacuumError, WedgeError, pi_of_rho
from .pattern import ProblemConfig, WavePattern, build, picture_map

CFL_DEFAULT = 0.45
RHO_FLOOR_FACTOR = 1e-10


class CFLviolation(WedgeError, ValueError):
    pass


class ShockFitError(WedgeError, ArithmeticError):
    """Too few shock-front crossings to fit the tip-shock angle."""


@dataclass(frozen=True)
class Grid:
    """Uniform square-cell grid; cells with center below the wedge face are solid.

    The static geometry is built once, at construction: the read-only solid
    mask and the wall-ghost stencil that ``step`` reads.
    """

    x0: float
    y0: float
    spacing: float
    nx: int
    ny: int
    tau: float = 0.0
    _solid: np.ndarray = field(init=False, repr=False, compare=False)
    _ghosts: _WallGhosts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, y = self.centers()
        solid = (x[None, :] > 0.0) & (y[:, None] < x[None, :] * math.tan(self.tau))
        solid.flags.writeable = False
        object.__setattr__(self, "_solid", solid)
        object.__setattr__(self, "_ghosts", _WallGhosts(self))

    def centers(self):
        x = self.x0 + (np.arange(self.nx) + 0.5) * self.spacing
        y = self.y0 + (np.arange(self.ny) + 0.5) * self.spacing
        return x, y

    def solid_mask(self):
        """Solid cells, shape (ny, nx); the array is read-only."""
        return self._solid


@dataclass
class SimState:
    t: float
    rho: np.ndarray  # (ny, nx)
    vx: np.ndarray
    vy: np.ndarray


def init(model: GasModel, upstream: FlowState, grid: Grid) -> SimState:
    shape = (grid.ny, grid.nx)
    return SimState(
        t=0.0,
        rho=np.full(shape, upstream.rho),
        vx=np.full(shape, upstream.v[0]),
        vy=np.full(shape, upstream.v[1]),
    )


def total_mass(grid: Grid, state: SimState) -> float:
    return float(np.sum(state.rho[~grid._solid])) * grid.spacing**2


def _pad(arr, left, top, bottom_mirror_sign):
    """One ghost layer: Dirichlet left, zero-gradient right, mirror bottom.

    top = None copies the edge (outflow); otherwise Dirichlet.
    """
    ny, nx = arr.shape
    out = np.empty((ny + 2, nx + 2))
    out[1:-1, 1:-1] = arr
    out[1:-1, 0] = left
    out[1:-1, -1] = arr[:, -1]
    out[-1, 1:-1] = arr[-1, :] if top is None else top
    out[0, 1:-1] = bottom_mirror_sign * arr[0, :]
    out[0, 0] = out[1, 0]
    out[0, -1] = out[1, -1]
    out[-1, 0] = out[-1, 1]
    out[-1, -1] = out[-1, -2]
    return out


def stable_dt(model: GasModel, grid: Grid, state: SimState, cfl=CFL_DEFAULT) -> float:
    """cfl * h / (max(|vx| + c) + max(|vy| + c)), maxima over the fluid cells."""
    fluid = ~grid._solid
    c = np.asarray(model.sound_speed(state.rho))[fluid]
    sx = float(np.max(np.abs(state.vx[fluid]) + c))
    sy = float(np.max(np.abs(state.vy[fluid]) + c))
    return cfl * grid.spacing / (sx + sy)


class _WallGhosts:
    """Reflected ghost states for the wedge: solid cells adjacent to fluid
    carry the fluid state at their mirror point across the wedge surface,
    with velocity mirrored about the wall normal."""

    def __init__(self, grid: Grid):
        solid = grid._solid
        near = np.zeros_like(solid)
        near[:-1, :] |= solid[:-1, :] & ~solid[1:, :]
        near[1:, :] |= solid[1:, :] & ~solid[:-1, :]
        near[:, :-1] |= solid[:, :-1] & ~solid[:, 1:]
        near[:, 1:] |= solid[:, 1:] & ~solid[:, :-1]
        self.jj, self.ii = np.nonzero(near)
        x, y = grid.centers()
        n = np.array([-math.sin(grid.tau), math.cos(grid.tau)])  # wall normal, into the fluid
        p = np.stack([x[self.ii], y[self.jj]], axis=-1)
        pm = p - 2.0 * (p @ n)[:, None] * n[None, :]
        # bilinear stencil of the mirror points, restricted to fluid cells:
        # weights of solid stencil members are dropped and renormalized
        fi = np.clip((pm[:, 0] - grid.x0) / grid.spacing - 0.5, 0.0, grid.nx - 1.0)
        fj = np.clip((pm[:, 1] - grid.y0) / grid.spacing - 0.5, 0.0, grid.ny - 1.0)
        i0 = np.clip(np.floor(fi).astype(int), 0, grid.nx - 2)
        j0 = np.clip(np.floor(fj).astype(int), 0, grid.ny - 2)
        di, dj = fi - i0, fj - j0
        w = np.stack(
            [(1 - di) * (1 - dj), di * (1 - dj), (1 - di) * dj, di * dj], axis=0
        )
        sj = np.stack([j0, j0, j0 + 1, j0 + 1], axis=0)
        si = np.stack([i0, i0 + 1, i0, i0 + 1], axis=0)
        w = np.where(solid[sj, si], 0.0, w)
        wsum = np.sum(w, axis=0)
        # mirror stencils fully buried in solid (possible right at the tip):
        # fall back to the nearest fluid cell in the same column
        starved = wsum < 1e-12
        if np.any(starved):
            fl_j = np.argmax(~solid, axis=0)  # first fluid row per column
            for k in np.nonzero(starved)[0]:
                col = self.ii[k]
                w[:, k] = np.array([1.0, 0.0, 0.0, 0.0])
                sj[:, k] = fl_j[col]
                si[:, k] = col
            wsum = np.sum(w, axis=0)
        self.w = w / wsum
        self.sj, self.si = sj, si
        # velocity mirror about the wall normal
        self.mxx = 1.0 - 2.0 * n[0] * n[0]
        self.mxy = -2.0 * n[0] * n[1]
        self.myy = 1.0 - 2.0 * n[1] * n[1]

    def _gather(self, arr):
        return np.sum(self.w * arr[self.sj, self.si], axis=0)

    def fill(self, rho, vx, vy):
        """Overwrite near-surface solid cells with wall-mirrored fluid data."""
        r = self._gather(rho)
        u = self._gather(vx)
        w = self._gather(vy)
        rho[self.jj, self.ii] = r
        vx[self.jj, self.ii] = self.mxx * u + self.mxy * w
        vy[self.jj, self.ii] = self.mxy * u + self.myy * w


def _llf(rho_p, B_p, c_p, vn_p, vt_p, lo, hi):
    """Local Lax-Friedrichs fluxes of (rho, v_n, v_t) through the faces
    between the padded cells [lo] and [hi]; n points from lo to hi."""
    r0, r1 = rho_p[lo], rho_p[hi]
    n0, n1 = vn_p[lo], vn_p[hi]
    a = np.maximum(np.abs(n0) + c_p[lo], np.abs(n1) + c_p[hi])
    return (
        0.5 * (r0 * n0 + r1 * n1) - 0.5 * a * (r1 - r0),
        0.5 * (B_p[lo] + B_p[hi]) - 0.5 * a * (n1 - n0),
        -0.5 * a * (vt_p[hi] - vt_p[lo]),
    )


def step(
    model: GasModel,
    grid: Grid,
    state: SimState,
    upstream: FlowState,
    dt: float | None = None,
    cfl: float = CFL_DEFAULT,
    return_diag: bool = False,
    top_bc: str = "inflow",
):
    """One explicit finite-volume update.  dt=None chooses the CFL step.

    The left boundary is upstream inflow; top_bc is "inflow" too (the
    wedge-problem default) or "outflow" (zero gradient, for quasi-1D test strips).
    """
    solid = grid._solid
    fluid = ~solid
    h = grid.spacing

    rho_g, vx_g, vy_g = state.rho.copy(), state.vx.copy(), state.vy.copy()
    grid._ghosts.fill(rho_g, vx_g, vy_g)

    top_in = top_bc == "inflow"
    rho_p = _pad(rho_g, upstream.rho, upstream.rho if top_in else None, 1.0)
    vx_p = _pad(vx_g, upstream.v[0], upstream.v[0] if top_in else None, 1.0)
    vy_p = _pad(vy_g, upstream.v[1], upstream.v[1] if top_in else None, -1.0)
    # the gas closures, once per padded cell; B is the Bernoulli flux |v|^2/2 + pi
    c_p = np.asarray(model.sound_speed(rho_p))
    B_p = 0.5 * (vx_p**2 + vy_p**2) + pi_of_rho(model, rho_p)

    # the stable_dt bound at cfl = 1, from the same c on the fluid cells
    c = c_p[1:-1, 1:-1][fluid]
    sx = float(np.max(np.abs(state.vx[fluid]) + c))
    sy = float(np.max(np.abs(state.vy[fluid]) + c))
    dt_max = h / (sx + sy)
    if dt is None:
        dt = cfl * dt_max
    elif dt > dt_max * (1.0 + 1e-12):
        raise CFLviolation(f"dt = {dt} exceeds the stable bound {dt_max}")

    fx_rho, fx_vx, fx_vy = _llf(rho_p, B_p, c_p, vx_p, vy_p, np.s_[1:-1, :-1], np.s_[1:-1, 1:])
    fy_rho, fy_vy, fy_vx = _llf(rho_p, B_p, c_p, vy_p, vx_p, np.s_[:-1, 1:-1], np.s_[1:, 1:-1])

    lam = dt / h
    rho_new = state.rho - lam * (fx_rho[:, 1:] - fx_rho[:, :-1] + fy_rho[1:, :] - fy_rho[:-1, :])
    vx_new = state.vx - lam * (fx_vx[:, 1:] - fx_vx[:, :-1] + fy_vx[1:, :] - fy_vx[:-1, :])
    vy_new = state.vy - lam * (fx_vy[:, 1:] - fx_vy[:, :-1] + fy_vy[1:, :] - fy_vy[:-1, :])
    rho_new[solid] = state.rho[solid]
    vx_new[solid] = state.vx[solid]
    vy_new[solid] = state.vy[solid]

    floor = RHO_FLOOR_FACTOR * upstream.rho
    if np.any(rho_new[fluid] <= floor):
        j, i = np.unravel_index(int(np.argmin(np.where(fluid, rho_new, np.inf))), rho_new.shape)
        raise VacuumError(
            f"density floor reached at cell (i={i}, j={j}), t = {state.t + dt}"
        )

    new = SimState(t=state.t + dt, rho=rho_new, vx=vx_new, vy=vy_new)
    if not return_diag:
        return new

    # net mass inflow through the boundary of the fluid region: the outer
    # box faces plus the fluid-solid faces of the wedge staircase
    fluid_f = fluid.astype(float)
    influx = (
        np.sum(fx_rho[:, 0] * fluid_f[:, 0])
        - np.sum(fx_rho[:, -1] * fluid_f[:, -1])
        + np.sum(fy_rho[0, :] * fluid_f[0, :])
        - np.sum(fy_rho[-1, :] * fluid_f[-1, :])
    )
    sxL, sxR = solid[:, :-1], solid[:, 1:]
    influx += np.sum(fx_rho[:, 1:-1] * (sxL & ~sxR)) - np.sum(fx_rho[:, 1:-1] * (sxR & ~sxL))
    syB, syT = solid[:-1, :], solid[1:, :]
    influx += np.sum(fy_rho[1:-1, :] * (syB & ~syT)) - np.sum(fy_rho[1:-1, :] * (syT & ~syB))
    diag = {"dt": dt, "boundary_mass_inflow": float(influx) * h * dt}
    return new, diag


def discrete_curl(grid: Grid, state: SimState):
    """Centered-difference curl of v on interior cells."""
    h = grid.spacing
    dvy_dx = (state.vy[1:-1, 2:] - state.vy[1:-1, :-2]) / (2 * h)
    dvx_dy = (state.vx[2:, 1:-1] - state.vx[:-2, 1:-1]) / (2 * h)
    return dvy_dx - dvx_dy


@dataclass
class SelfSimilarField:
    """Solver data sampled on a fixed grid of xi = x/t."""

    t: float
    xi_x: np.ndarray
    xi_y: np.ndarray
    rho: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    L: np.ndarray
    valid: np.ndarray


def bilinear(arr, fi, fj):
    """arr[j, i] interpolated bilinearly at fractional indices (fi, fj),
    which are clamped to the array."""
    i0 = np.clip(np.floor(fi).astype(int), 0, arr.shape[1] - 2)
    j0 = np.clip(np.floor(fj).astype(int), 0, arr.shape[0] - 2)
    di = np.clip(fi - i0, 0.0, 1.0)
    dj = np.clip(fj - j0, 0.0, 1.0)
    return (
        arr[j0, i0] * (1 - di) * (1 - dj)
        + arr[j0, i0 + 1] * di * (1 - dj)
        + arr[j0 + 1, i0] * (1 - di) * dj
        + arr[j0 + 1, i0 + 1] * di * dj
    )


def sample_self_similar(
    model: GasModel, grid: Grid, state: SimState, xi_x, xi_y
) -> SelfSimilarField:
    """Bilinear samples of (rho, v, L) along rays xi = x/t."""
    if state.t <= 0.0:
        raise ValueError("self-similar sampling needs t > 0")
    xi_x = np.asarray(xi_x, dtype=float)
    xi_y = np.asarray(xi_y, dtype=float)
    XX, YY = np.meshgrid(xi_x * state.t, xi_y * state.t)
    h = grid.spacing
    fi = (XX - grid.x0) / h - 0.5
    fj = (YY - grid.y0) / h - 0.5
    inside = (fi >= 0) & (fi <= grid.nx - 1) & (fj >= 0) & (fj <= grid.ny - 1)
    rho = bilinear(state.rho, fi, fj)
    vx = bilinear(state.vx, fi, fj)
    vy = bilinear(state.vy, fi, fj)
    solid = bilinear(grid._solid.astype(float), fi, fj) > 1e-12
    XiX, XiY = np.meshgrid(xi_x, xi_y)
    c = np.asarray(model.sound_speed(np.maximum(rho, 1e-300)))
    L = np.hypot(vx - XiX, vy - XiY) / c
    return SelfSimilarField(
        t=state.t, xi_x=xi_x, xi_y=xi_y, rho=rho, vx=vx, vy=vy, L=L,
        valid=inside & ~solid,
    )


def self_similarity_defect(f1: SelfSimilarField, f2: SelfSimilarField) -> float:
    """Relative L1 distance of two self-similar samplings on a common window."""
    if f1.rho.shape != f2.rho.shape:
        raise ValueError("fields must share the sampling grid")
    m = f1.valid & f2.valid
    num = (
        np.sum(np.abs(f1.rho[m] - f2.rho[m]))
        + np.sum(np.abs(f1.vx[m] - f2.vx[m]))
        + np.sum(np.abs(f1.vy[m] - f2.vy[m]))
    )
    den = np.sum(np.abs(f1.rho[m])) + np.sum(np.abs(f1.vx[m])) + np.sum(np.abs(f1.vy[m]))
    return float(num / den)


@dataclass(frozen=True)
class UnsteadyConfig:
    problem: ProblemConfig
    grid_n: int = 200  # cells along x; the box has 2:1 aspect, square cells
    box: tuple[float, float, float] = (-0.6, 4.8, 2.6)  # (x_min, x_max, y_max) in xi units
    cfl: float = CFL_DEFAULT
    t_final: float = 1.0
    sample_nx: int = 320
    snapshot_every: int = 0  # steps between snapshot callbacks; 0 disables


@dataclass
class UnsteadyResult:
    pattern: WavePattern
    grid: Grid
    final: SimState
    sample_half: SelfSimilarField
    sample_final: SelfSimilarField
    defect: float
    steps: int


def run(config: UnsteadyConfig, on_snapshot=None) -> UnsteadyResult:
    """March the wedge problem to t_final and sample at t_final/2 and t_final."""
    problem = config.problem
    if problem.tau is None:
        raise ValueError("unsteady run needs the original picture (M_I, tau)")
    pattern = build(problem)
    model = problem.model
    upstream_orig = FlowState.from_model(
        model, problem.rho_I, (problem.M_I * problem.c_I, 0.0)
    )

    x_min, x_max, y_max = config.box
    h = (x_max - x_min) / config.grid_n
    ny = int(round(y_max / h))
    grid = Grid(x0=x_min, y0=0.0, spacing=h, nx=config.grid_n, ny=ny, tau=problem.tau)

    state = init(model, upstream_orig, grid)
    t_half = 0.5 * config.t_final
    steps = 0
    for target in (t_half, config.t_final):
        while state.t < target - 1e-14:
            dt = min(stable_dt(model, grid, state, config.cfl), target - state.t)
            state = step(model, grid, state, upstream_orig, dt=dt)
            steps += 1
            if on_snapshot and config.snapshot_every and steps % config.snapshot_every == 0:
                on_snapshot(grid, state)
        if target == t_half:
            sample_half_state = SimState(
                t=state.t, rho=state.rho.copy(), vx=state.vx.copy(), vy=state.vy.copy()
            )

    margin = 1.5 * h / t_half
    xi_x = np.linspace(x_min + margin, x_max - margin, config.sample_nx)
    xi_y = np.linspace(margin, y_max - margin, max(8, int(config.sample_nx * y_max / (x_max - x_min))))
    f1 = sample_self_similar(model, grid, sample_half_state, xi_x, xi_y)
    f2 = sample_self_similar(model, grid, state, xi_x, xi_y)
    return UnsteadyResult(
        pattern=pattern,
        grid=grid,
        final=state,
        sample_half=f1,
        sample_final=f2,
        defect=self_similarity_defect(f1, f2),
        steps=steps,
    )


# --- measurements against the predicted pattern ------------------------------


def tip_shock_angle(result: UnsteadyResult, n_columns: int = 60) -> float:
    """Measured tip-shock angle from the mid-density level set.

    Least-squares line through the per-column crossing heights of
    rho = (rho_I + rho_L)/2, within a window on the straight part of the
    shock (between the tip and the sonic corner).  Samples the final state
    on its own fine vertical grid so the crossing is bracketed even close
    to the tip.
    """
    pattern = result.pattern
    model = pattern.config.model
    state, grid = result.final, result.grid
    rho_mid = 0.5 * (pattern.state_I.rho + pattern.state_L.rho)

    to_orig = picture_map(pattern, "original")
    corner = to_orig.apply(pattern.xi_L_star)
    cols = np.linspace(0.25 * corner[0], 0.75 * corner[0], n_columns)
    tau = pattern.tau
    theta_pred = tau + pattern.beta
    dxi = 0.5 * grid.spacing / state.t

    pts = []
    for xc in cols:
        y_lo = xc * math.tan(tau) + 2.0 * grid.spacing / state.t
        y_hi = xc * math.tan(theta_pred) * 1.6 + 6.0 * grid.spacing / state.t
        ys = np.arange(y_lo, y_hi, dxi)
        f = sample_self_similar(model, grid, state, np.array([xc]), ys)
        col_rho, ok = f.rho[:, 0], f.valid[:, 0]
        dense = np.where(ok & (col_rho > rho_mid))[0]
        if len(dense) == 0:
            continue
        j = dense.max()  # topmost dense sample: the shock front
        if j + 1 >= len(ys) or not ok[j + 1] or col_rho[j + 1] >= rho_mid:
            continue
        frac = (rho_mid - col_rho[j]) / (col_rho[j + 1] - col_rho[j])
        pts.append((xc, ys[j] + frac * (ys[j + 1] - ys[j])))
    if len(pts) < max(4, n_columns // 4):
        raise ShockFitError(
            f"too few shock-front crossings for the angle fit: {len(pts)} of {n_columns} columns"
        )
    pts = np.asarray(pts)
    slope = np.polyfit(pts[:, 0], pts[:, 1], 1)[0]
    return math.atan(slope)


def predicted_tip_shock_angle(pattern: WavePattern) -> float:
    """Weak-solution shock angle in original coordinates: tau + tilt."""
    return pattern.tau + pattern.beta


def probe_stats(field: SelfSimilarField, center, halfwidth):
    """Mean/std of rho and mean L in a square probe box of the xi plane."""
    cx, cy = center
    mask = (
        field.valid
        & (np.abs(field.xi_x[None, :] - cx) <= halfwidth)
        & (np.abs(field.xi_y[:, None] - cy) <= halfwidth)
    )
    if not np.any(mask):
        raise ValueError(f"probe box at {center} is empty")
    rho = field.rho[mask]
    return {
        "rho_mean": float(np.mean(rho)),
        "rho_std": float(np.std(rho)),
        "L_mean": float(np.mean(field.L[mask])),
        "cells": int(np.sum(mask)),
    }


def region_probes(pattern: WavePattern):
    """Probe centers (original xi coordinates) inside the I, L, R and elliptic regions."""
    to_orig = picture_map(pattern, "original")
    corner_L = to_orig.apply(pattern.xi_L_star)
    arc_R_c = to_orig.apply(pattern.arc_R.center)
    r_R = pattern.arc_R.radius
    tau, beta = pattern.tau, pattern.beta
    t_wall = np.array([math.cos(tau), math.sin(tau)])
    n_wall = np.array([-math.sin(tau), math.cos(tau)])

    # L probe: deep in the layer between wedge face and tip shock, clear of
    # both the smeared shock and the sonic circle
    x_L = 0.75 * corner_L[0]
    y_wedge = x_L * math.tan(tau)
    y_shock = x_L * math.tan(tau + beta)
    probe_L = np.array([x_L, 0.58 * y_wedge + 0.42 * y_shock])
    # I probe: above the shock over the corner
    probe_I = np.array([corner_L[0], corner_L[1] + 0.8])
    # R probe: past the right arc, midway between wedge face and the R shock
    eta_R = pattern.eta_R_star
    base = arc_R_c + 1.6 * r_R * t_wall
    probe_R = base - (base @ n_wall - 0.5 * eta_R) * n_wall
    # elliptic probe: center of the subsonic lens
    probe_E = arc_R_c + 0.55 * (corner_L - arc_R_c) + np.array([0.0, -0.1 * eta_R])
    return {"I": probe_I, "L": probe_L, "R": probe_R, "elliptic": probe_E}
