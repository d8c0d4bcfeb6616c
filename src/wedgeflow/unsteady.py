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

A step updates its state in place and allocates nothing the size of the
grid but the results of the two gas closures.  ``run`` hands every step one
``_Workspace``: flat padded arrays and face and flux-sum buffers.  In the
flat padded layout (rows of nx + 2 cells, one ghost layer round the window)
the faces between cells k and k + 1 (x) and k and k + nx + 2 (y) are
contiguous slices, so the fluxes and their sums per cell are formed by 1-D
array operations.

A step updates only the rows the wedge has disturbed.  A cell whose four
neighbours hold its own state bit for bit has two equal flux pairs, so its
increment is exactly 0 and the update returns it unchanged; ahead of the
tip shock the upstream state therefore survives bit for bit.  Each step
finds the highest row, above the wall ghosts, whose bits differ from the
upstream state, and marches the rows up to the one above it as a grid that
ends there (``_active_rows``).  The fields and the time step are bit for
bit those of the full-grid update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gas import GasModel, FlowState, VacuumError, WedgeError, pi_of_rho
from .pattern import ProblemConfig, WavePattern, build

CFL_DEFAULT = 0.45
RHO_FLOOR_FACTOR = 1e-10


class ShockFitError(WedgeError, ArithmeticError):
    """Too few shock-front crossings to fit the tip-shock angle."""


class SamplingError(WedgeError, ValueError):
    """Two self-similar samplings share no valid point to compare."""


@dataclass(frozen=True)
class Grid:
    """Uniform square-cell grid with its bottom row on the wall (y = 0); cells
    with center below the wedge face are solid.

    The static geometry is built once, at construction: the read-only solid
    mask and the wall-ghost stencil that ``step`` reads.
    """

    x0: float
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
        y = (np.arange(self.ny) + 0.5) * self.spacing
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


def init(upstream: FlowState, grid: Grid) -> SimState:
    shape = (grid.ny, grid.nx)
    return SimState(
        t=0.0,
        rho=np.full(shape, upstream.rho),
        vx=np.full(shape, upstream.v[0]),
        vy=np.full(shape, upstream.v[1]),
    )


def _fill_border(p, left, top, bottom_mirror_sign):
    """The outer ghost layer of a padded array with its interior filled: Dirichlet
    left, zero-gradient right, mirror bottom; top = None copies the edge (outflow)."""
    p[1:-1, 0] = left
    p[1:-1, -1] = p[1:-1, -2]
    p[-1, 1:-1] = p[-2, 1:-1] if top is None else top
    np.multiply(p[1, 1:-1], bottom_mirror_sign, out=p[0, 1:-1])
    p[0, 0] = p[1, 0]
    p[0, -1] = p[1, -1]
    p[-1, 0] = p[-1, 1]
    p[-1, -1] = p[-1, -2]


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
        fj = np.clip(pm[:, 1] / grid.spacing - 0.5, 0.0, grid.ny - 1.0)
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
        # the highest row the ghost fill writes or reads; -1 without a wedge
        self.top = int(max(self.jj.max(initial=-1), sj.max(initial=-1)))
        # velocity mirror about the wall normal
        self.mxx = 1.0 - 2.0 * n[0] * n[0]
        self.mxy = -2.0 * n[0] * n[1]
        self.myy = 1.0 - 2.0 * n[1] * n[1]

    def fill(self, rho, vx, vy):
        """Overwrite near-surface solid cells with wall-mirrored fluid data."""
        r, u, w = (np.sum(self.w * a[self.sj, self.si], axis=0) for a in (rho, vx, vy))
        rho[self.jj, self.ii] = r
        vx[self.jj, self.ii] = self.mxx * u + self.mxy * w
        vy[self.jj, self.ii] = self.mxy * u + self.myy * w


def _llf(rho, B, s, vn, vt, m, k0, k1, off, ha, d):
    """Yield the local Lax-Friedrichs fluxes of rho, v_n and v_t in turn
    through the faces between the flat padded cells k and k + off,
    k0 <= k < k1, entry k - k0 for face k; n points from k to k + off, and s
    is the wave speed |v_n| + c.

    Every flux is yielded in s's array, so each is read before the next is
    asked for.  m, ha and d are scratch; the mass flux is formed once per cell.
    """
    lo, hi = slice(k0, k1), slice(k0 + off, k1 + off)
    ha, d, f = ha[: k1 - k0], d[: k1 - k0], s[: k1 - k0]
    np.maximum(s[lo], s[hi], out=ha)
    ha *= 0.5  # a/2: halving and the sign flip of the v_t flux are exact
    np.multiply(rho, vn, out=m)
    for q, u in ((m, rho), (B, vn)):  # 0.5 (q_lo + q_hi) - (a/2) (u_hi - u_lo)
        np.add(q[lo], q[hi], out=f)
        f *= 0.5
        np.subtract(u[hi], u[lo], out=d)
        d *= ha
        f -= d
        yield f
    np.subtract(vt[lo], vt[hi], out=f)
    f *= ha
    yield f


class _Workspace:
    """The buffers of the steps on one grid, sized for the full grid; a step
    works on their leading part.

    The padded arrays are flat, (W + 2) * (nx + 2) values for a window of W
    rows, so the faces between flat cells k and k + 1 (x) and k and
    k + nx + 2 (y) are contiguous slices; the faces that straddle a row end
    join two border ghosts and are never read.
    """

    def __init__(self, grid: Grid):
        S = grid.nx + 2
        self.rho, self.vx, self.vy, self.sx, self.sy = (np.empty((grid.ny + 2) * S) for _ in range(5))
        self.ha, self.d = np.empty((grid.ny + 1) * S), np.empty((grid.ny + 1) * S)
        self.sums = tuple(np.empty(grid.ny * S) for _ in range(3))  # the flux sums of rho, vx, vy
        self.fluid = ~grid._solid
        fluid_p = np.zeros((grid.ny + 2, grid.nx + 2), dtype=bool)
        fluid_p[1:-1, 1:-1] = self.fluid
        self.fluid_p = fluid_p.reshape(-1)  # the fluid cells in the flat padded layout


def _grid_shape(config: "UnsteadyConfig"):
    """(h, nx, ny): the cell size and counts of the march's grid."""
    x_min, x_max, y_max = config.box
    h = (x_max - x_min) / config.grid_n
    return h, config.grid_n, int(round(y_max / h))


def march_bytes(config: "UnsteadyConfig") -> int:
    """Bytes of the grid-sized arrays a march holds at its peak: the
    workspace's buffers in the padded layout above, the state, the results
    of a step's two gas closures, the boolean masks (solid, fluid, wall
    ghosts, active rows), and NumPy's iteration buffer, which the update
    takes for its strided flux sums."""
    _, nx, ny = _grid_shape(config)
    S = nx + 2
    padded, cells = (ny + 2) * S, ny * nx
    floats = 7 * padded + 2 * (ny + 1) * S + 3 * ny * S + 3 * cells + np.getbufsize()
    return 8 * floats + padded + 4 * cells


def _active_rows(grid: Grid, state: SimState, upstream: FlowState) -> int:
    """W: a step updates rows 0..W-1 and leaves the rows above as they are.

    J is the highest row holding a value whose bits differ from the upstream
    state's (a NaN, or -0.0 in place of 0.0, counts as differing), and never
    below the top wall-ghost row; the rows below that are not scanned.
    W = min(ny, J + 2), and why this is exact:

    - every cell from row J + 2 up has four neighbours holding its own state
      bit for bit, so its two flux pairs are equal, its increment is exactly
      0 and old - 0 == old: the full-grid step returns it unchanged;
    - below ny, rows W - 1 and W both hold the upstream state, so the top
      ghost layer of the window (upstream for inflow, a copy of row W - 1 for
      outflow) holds what row W holds: the fluxes into row W - 1 are the
      full-grid ones;
    - a solid cell below a fluid one is a wall ghost, so row W - 1 has a fluid
      cell whenever a row above it does, and the wave-speed maxima over the
      window's fluid cells are the full-grid ones.
    """
    g = grid._ghosts.top
    differs = np.zeros((grid.ny - g - 1, grid.nx), dtype=bool)
    for a, v in zip((state.rho, state.vx, state.vy), (upstream.rho, *upstream.v)):
        bits = np.asarray(a[g + 1 :], dtype=np.float64).view(np.int64)
        differs |= bits != np.float64(v).view(np.int64)
    rows = np.flatnonzero(differs.any(axis=1))
    J = g + 1 + int(rows[-1]) if rows.size else g
    return min(grid.ny, J + 2)


def step(
    model: GasModel,
    grid: Grid,
    state: SimState,
    upstream: FlowState,
    workspace: _Workspace,
    cfl: float = CFL_DEFAULT,
    top_bc: str = "inflow",
    t_stop: float = math.inf,
) -> None:
    """Advance state in place by one explicit finite-volume update: its three
    fields and t.  The step is the CFL step
    cfl * h / (max(|vx| + c) + max(|vy| + c)), maxima over the fluid cells,
    shortened so that the step ends no later than t_stop; a wave speed that is
    not finite raises VacuumError naming its cell and the start time.

    The left boundary is upstream inflow; top_bc is "inflow" too (the
    wedge-problem default) or "outflow" (zero gradient, for quasi-1D test strips).
    The update writes the fluid cells of the rows below ``_active_rows`` as
    on a grid that ends there; solid cells and the rows above keep their
    bytes, which is bit for bit the full-grid update.  ``workspace`` is
    ``_Workspace(grid)``, the step's buffers.  A VacuumError from the CFL bound
    leaves state unchanged; one from the density floor leaves it updated.
    """
    ws = workspace
    W = _active_rows(grid, state, upstream)
    fluid = ws.fluid[:W]
    h = grid.spacing
    S = grid.nx + 2  # the padded row length
    P = (W + 2) * S
    inner = np.s_[1:-1, 1:-1]
    olds = (state.rho, state.vx, state.vy)

    # padded arrays: the window's state inside, wall ghosts in its solid cells, one outer ghost layer
    rho, vx, vy, sx, sy = (a[:P] for a in (ws.rho, ws.vx, ws.vy, ws.sx, ws.sy))
    rho_p, vx_p, vy_p = (a.reshape(W + 2, S) for a in (rho, vx, vy))
    rho_p[inner], vx_p[inner], vy_p[inner] = (old[:W] for old in olds)
    grid._ghosts.fill(rho_p[inner], vx_p[inner], vy_p[inner])
    for p, v, sign in zip((rho_p, vx_p, vy_p), (upstream.rho, *upstream.v), (1.0, 1.0, -1.0)):
        _fill_border(p, v, v if top_bc == "inflow" else None, sign)

    # once per padded cell, for the faces and the CFL bound: c, B = |v|^2/2 + pi,
    # |v_n| + c (sx holds |v|^2/2 until it takes |v_x| + c)
    c = np.asarray(model.sound_speed(rho_p)).reshape(P)
    np.multiply(vx, vx, out=sx)
    np.multiply(vy, vy, out=sy)
    sx += sy
    sx *= 0.5
    B = pi_of_rho(model, rho_p).reshape(P)
    B += sx
    for v, s in ((vx, sx), (vy, sy)):
        np.abs(v, out=s)
        s += c

    # the CFL step from the same wave speeds on the fluid cells
    rows = slice(S, (W + 1) * S)
    speeds = sum(float(np.max(s[rows], where=ws.fluid_p[rows], initial=-np.inf)) for s in (sx, sy))
    if not math.isfinite(speeds):  # a NaN or infinite velocity
        sx_in, sy_in = sx.reshape(W + 2, S)[inner], sy.reshape(W + 2, S)[inner]
        bad = fluid & ~np.isfinite(sx_in + sy_in)
        j, i = np.unravel_index(int(np.argmax(bad)), fluid.shape)
        raise VacuumError(
            f"wave speed {sx_in[j, i] + sy_in[j, i]} at cell (i={i}, j={j}), t = {state.t}"
        )
    dt = min(cfl * h / speeds, t_stop - state.t)

    # old -= lam * (((fx_E - fx_W) + fy_N) - fy_S) in the fluid, summed in the
    # flat layout: entry q of a sum is the padded cell S + 1 + q, whose x faces
    # are entries q and q + 1 of the x pass and whose y faces are entries
    # 1 + q and S + 1 + q of the y pass.  c's array takes the mass flux
    n = W * S - 2  # from the first interior cell of the window to its last
    sums = [a[:n] for a in ws.sums]
    for a, f in zip(sums, _llf(rho, B, sx, vx, vy, c, S, (W + 1) * S, 1, ws.ha, ws.d)):
        np.subtract(f[1 : n + 1], f[:n], out=a)
    y_faces = _llf(rho, B, sy, vy, vx, c, 0, (W + 1) * S, S, ws.ha, ws.d)
    for a, f in zip((sums[0], sums[2], sums[1]), y_faces):
        a += f[S + 1 : S + 1 + n]
        a -= f[1 : 1 + n]
    lam = dt / h
    for a, old in zip(ws.sums, olds):
        a[:n] *= lam
        np.subtract(old[:W], a[: W * S].reshape(W, S)[:, : S - 2], out=old[:W], where=fluid)
    state.t += dt

    # written so that a NaN density fails it too; argmin finds a NaN first.
    # The rows above the window hold the upstream density
    floor = RHO_FLOOR_FACTOR * upstream.rho
    if not np.all(state.rho[:W] > floor, where=fluid):
        j, i = np.unravel_index(int(np.argmin(np.where(fluid, state.rho[:W], np.inf))), fluid.shape)
        raise VacuumError(
            f"density {state.rho[j, i]} not above the floor {floor} at cell (i={i}, j={j}), "
            f"t = {state.t}"
        )


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
    fj = YY / h - 0.5
    inside = (fi >= 0) & (fi <= grid.nx - 1) & (fj >= 0) & (fj <= grid.ny - 1)
    rho = bilinear(state.rho, fi, fj)
    vx = bilinear(state.vx, fi, fj)
    vy = bilinear(state.vy, fi, fj)
    solid = bilinear(grid._solid, fi, fj) > 1e-12  # bool times float64 is float64, no copy
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
    if not m.any():
        raise SamplingError(
            f"the samplings at t = {f1.t:g} and t = {f2.t:g} share no valid point in the xi window "
            f"x {f1.xi_x[0]:.4g} to {f1.xi_x[-1]:.4g}, y {f1.xi_y[0]:.4g} to {f1.xi_y[-1]:.4g}"
        )
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
    sample_final: SelfSimilarField
    defect: float
    steps: int


def _sample_rows(config: UnsteadyConfig) -> int:
    """Rows of the xi grid that run samples on; it has sample_nx columns."""
    x_min, x_max, y_max = config.box
    return max(8, int(config.sample_nx * y_max / (x_max - x_min)))


def sample_bytes(config: UnsteadyConfig) -> int:
    """Bytes of run's two samplings at their peak, per xi point: the first
    field's rho, v and L and its valid flag, and the second sampling's
    temporaries, 14 float and 2 flag arrays (tracemalloc reads 147 bytes per
    point)."""
    return config.sample_nx * _sample_rows(config) * (8 * (4 + 14) + 1 + 2)


def run(config: UnsteadyConfig, on_snapshot=None) -> UnsteadyResult:
    """March the wedge problem to t_final and sample at t_final/2 and t_final.

    Every ``snapshot_every`` steps ``on_snapshot(grid, state)`` is called with
    the march's own state, which the next step updates in place: a caller
    copies what it keeps.
    """
    problem = config.problem
    upstream_orig = problem.upstream_original()
    pattern = build(problem)
    model = problem.model

    x_min, x_max, y_max = config.box
    h, _, ny = _grid_shape(config)
    grid = Grid(x0=x_min, spacing=h, nx=config.grid_n, ny=ny, tau=problem.tau)

    state = init(upstream_orig, grid)
    t_half = 0.5 * config.t_final
    margin = 1.5 * h / t_half
    xi_x = np.linspace(x_min + margin, x_max - margin, config.sample_nx)
    xi_y = np.linspace(margin, y_max - margin, _sample_rows(config))
    workspace = _Workspace(grid)
    steps, samples = 0, []
    for target in (t_half, config.t_final):
        while state.t < target - 1e-14:
            step(model, grid, state, upstream_orig, workspace, cfl=config.cfl, t_stop=target)
            steps += 1
            if on_snapshot and config.snapshot_every and steps % config.snapshot_every == 0:
                on_snapshot(grid, state)
        if target == config.t_final:
            workspace = None  # the last sample and the caller's export reuse its memory
        samples.append(sample_self_similar(model, grid, state, xi_x, xi_y))
    f1, f2 = samples
    return UnsteadyResult(
        pattern=pattern,
        grid=grid,
        final=state,
        sample_final=f2,
        defect=self_similarity_defect(f1, f2),
        steps=steps,
    )


# --- measurements against the predicted pattern ------------------------------


def tip_shock_angle(result: UnsteadyResult) -> float:
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

    corner = pattern.to_original(pattern.xi_L_star)
    cols = np.linspace(0.25 * corner[0], 0.75 * corner[0], 60)
    tau = pattern.tau
    theta_pred = predicted_tip_shock_angle(pattern)
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
    if len(pts) < len(cols) // 4:
        raise ShockFitError(
            f"too few shock-front crossings for the angle fit: {len(pts)} of {len(cols)} columns"
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
    }


def region_probes(pattern: WavePattern):
    """Probe centers (original xi coordinates) inside the I, L, R and elliptic regions."""
    corner_L = pattern.to_original(pattern.xi_L_star)
    arc_R_c = pattern.to_original(pattern.arc_R.center)
    r_R = pattern.arc_R.radius
    tau = pattern.tau
    t_wall = np.array([math.cos(tau), math.sin(tau)])
    n_wall = np.array([-math.sin(tau), math.cos(tau)])

    # L probe: deep in the layer between wedge face and tip shock, clear of
    # both the smeared shock and the sonic circle
    x_L = 0.75 * corner_L[0]
    y_wedge = x_L * math.tan(tau)
    y_shock = x_L * math.tan(predicted_tip_shock_angle(pattern))
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
