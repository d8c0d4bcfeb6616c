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
grid but the results of ``pi_of_rho`` and ``c2_of_pi``.  ``run`` hands
every step one ``_Workspace``: flat padded arrays and face and flux-sum
buffers.  In the flat padded layout (rows of nx + 2 cells, one ghost layer
round the window) the faces between cells k and k + 1 (x) and k and
k + nx + 2 (y) are contiguous slices, so the fluxes and their sums per
cell are formed by 1-D array operations.

A step updates only the rows the wedge has disturbed.  A cell whose four
neighbours hold its own state bit for bit has two equal flux pairs, so its
increment is exactly 0 and the update returns it unchanged; ahead of the
tip shock the upstream state therefore survives bit for bit.  Each step
finds the highest row, above the wall ghosts, whose bits differ from the
upstream state, and marches the rows up to the one above it as a grid that
ends there (``_active_rows``).  The fields and the time step are bit for
bit those of the full-grid update.

On two or more usable CPUs ``run`` marches on two processes.  The fields
live in one anonymous shared mapping, and a forked partner updates rows
0..R-1 of each step's W-row window, R = W // 2, with the wall ghosts, while
the march's own process finds the window and updates rows R..W-1.  Each
process copies its rows and one halo row on each side, fills the wall
ghosts and borders among them, forms pi, c, B, the wave speeds and the
fluxes there, and updates its own rows in place.
This is exact: every quantity of a cell, face or update is formed
element by element from the cells it reads, which hold the same bits in
both copies, and the larger of the two processes' CFL maxima is the
window's maximum, so dt, every field and every step count are those of
one process.  Both copy before either updates: the partner sends its
maxima only after its copy, and the march's process sends dt / h only
after its own.  An error is formed over the whole window, as on one
process.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .gas import GasModel, FlowState, VacuumError, WedgeError, c2_of_pi, pi_of_rho
from .pattern import ProblemConfig, WavePattern, build

CFL_DEFAULT = 0.45
RHO_FLOOR_FACTOR = 1e-10
# how long a process of a two-process march polls for its partner's next
# message before it sleeps on it: one that sleeps on an idle CPU woke 0.2 to
# 0.4 ms after its message (2-vCPU VM), four times a step, while a grid_n 400
# step's waits last under 0.5 ms
SPIN_S = 2e-3


class ShockFitError(WedgeError, ArithmeticError):
    """Too few shock-front crossings to fit the tip-shock angle."""


class SamplingError(WedgeError, ValueError):
    """Two self-similar samplings share no valid point to compare."""


class WorkerLost(WedgeError, RuntimeError):
    """A worker process died: a sweep's pool worker or a march's partner,
    for example killed for lack of memory."""


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _processes() -> int:
    """The processes a march runs on: one per usable CPU, up to two, where
    the platform lets each process keep to its own CPUs."""
    return min(2, usable_cpus()) if hasattr(os, "sched_setaffinity") else 1


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


def init(upstream: FlowState, grid: Grid, shared: bool = False) -> SimState:
    """The upstream state on every cell; shared puts the three fields in one
    anonymous shared mapping, which a forked process writes to as well."""
    shape = (3, grid.ny, grid.nx)
    if shared:
        import mmap

        fields = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)
    else:
        fields = np.empty(shape)
    for a, v in zip(fields, (upstream.rho, *upstream.v)):
        a.fill(v)
    return SimState(0.0, *fields)


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

    def fill(self, fields, out, j0, j1):
        """Write the near-surface solid cells of rows j0..j1-1 with
        wall-mirrored fluid data: out holds the (rho, vx, vy) of those rows,
        out's row 0 being row j0, and the stencils read the grid's fields.

        The ghosts are stored row by row, so each row range is a slice of
        them; each ghost's four-term sum is added in stencil order whatever
        the slice's length."""
        k0, k1 = np.searchsorted(self.jj, (j0, j1))
        sj, si, w = self.sj[:, k0:k1], self.si[:, k0:k1], self.w[:, k0:k1]
        jj, ii = self.jj[k0:k1] - j0, self.ii[k0:k1]
        r, u, v = (np.sum(w * a[sj, si], axis=0) for a in fields)
        rho, vx, vy = out
        rho[jj, ii] = r
        vx[jj, ii] = self.mxx * u + self.mxy * v
        vy[jj, ii] = self.mxy * u + self.myy * v


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
    """The buffers of one process's steps on one grid, sized for the most
    rows a step updates with them (every row by default); a step works on
    their leading part.  With a partner, a step updates the upper half of
    the window's rows and the partner the lower half.

    The padded arrays are flat, (m + 2) * (nx + 2) values for m rows and a
    ghost or halo row on each side, so the faces between flat cells k and
    k + 1 (x) and k and k + nx + 2 (y) are contiguous slices; the faces that
    straddle a row end join two border ghosts and are never read.
    """

    def __init__(self, grid: Grid, rows: int | None = None, partner: _Partner | None = None):
        rows = grid.ny if rows is None else rows
        S = grid.nx + 2
        self.rho, self.vx, self.vy, self.sx, self.sy = (np.empty((rows + 2) * S) for _ in range(5))
        self.ha, self.d = np.empty((rows + 1) * S), np.empty((rows + 1) * S)
        self.sums = tuple(np.empty(rows * S) for _ in range(3))  # the flux sums of rho, vx, vy
        self.fluid = ~grid._solid
        fluid_p = np.zeros((grid.ny + 2, grid.nx + 2), dtype=bool)
        fluid_p[1:-1, 1:-1] = self.fluid
        self.fluid_p = fluid_p.reshape(-1)  # the fluid cells in the flat padded layout
        self.partner = partner


def _half_rows(grid: Grid) -> int:
    """The most rows either process updates in a two-process step."""
    return grid.ny - grid.ny // 2


class _Partner:
    """The march's second process, forked so that it shares the anonymous
    mapping of the fields, and the parent's end of their pipe.

    Per step the parent sends (R, W, top_bc) and, after the partner's CFL
    maxima, dt / h; the partner answers each with its maxima and then with
    whether its rows' density stayed above the floor.  Each wait also watches
    the process, so a partner that dies ends in WorkerLost.

    Until ``close`` the two processes keep to disjoint halves of the
    parent's CPUs (to its one CPU, where it has one): a pipe's wake-up draws
    the woken process onto the waker's CPU, and the two halves of a step
    would then take turns on one CPU.
    """

    def __init__(self, model: GasModel, grid: Grid, state: SimState, upstream: FlowState):
        import multiprocessing  # here, so that a one-process march never loads it
        import select

        ctx = multiprocessing.get_context("fork")  # the child inherits the mapping
        self.cpus = os.sched_getaffinity(0)
        cpus = sorted(self.cpus)
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_partner_loop,
            args=(child, self.conn, cpus[1::2] or cpus, model, grid, state, upstream),
            daemon=True,
        )
        self.process.start()
        child.close()
        os.sched_setaffinity(0, cpus[::2])
        self._poll = select.poll()
        for fd in (self.conn.fileno(), self.process.sentinel):
            self._poll.register(fd, select.POLLIN)

    def receive(self):
        """The partner's next message; an exception it could not act on is raised here."""
        if self.conn.fileno() in dict(_ready(self._poll)):
            try:
                message = self.conn.recv()
            except EOFError:
                pass
            else:
                if isinstance(message, Exception):
                    raise message
                return message
        self.process.join()
        raise WorkerLost(f"the march's partner process died (exit code {self.process.exitcode})")

    def close(self):
        """End the partner, which exits when its pipe closes, wait for it, and
        give this process its CPUs back."""
        self.conn.close()
        self.process.join()
        os.sched_setaffinity(0, self.cpus)


def _ready(poll):
    """The (fd, event) pairs that poll finds ready, polled for up to SPIN_S
    before it sleeps on them."""
    end = time.perf_counter() + SPIN_S
    while not (ready := poll.poll(0)):
        if time.perf_counter() > end:
            return poll.poll()
    return ready


def _partner_loop(conn, parent_end, cpus, model, grid, state, upstream):
    """The partner's side of each step, on the given CPUs: rows 0..R-1 of the
    window.  A VacuumError is sent as NaN maxima, so that the parent forms it
    over the whole window; it ends when the parent closes the pipe."""
    import select
    import signal

    parent_end.close()  # so that the pipe closes when the parent dies
    os.sched_setaffinity(0, cpus)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt stops the parent, which closes the pipe
    ws = _Workspace(grid, _half_rows(grid))
    poll = select.poll()
    poll.register(conn.fileno(), select.POLLIN)
    try:
        while True:
            _ready(poll)
            R, W, top_bc = conn.recv()
            rows = _update_rows(model, grid, state, upstream, ws, W, 0, R, top_bc)
            try:
                maxima = next(rows)
            except VacuumError:
                maxima = (math.nan, math.nan)
            conn.send(maxima)
            _ready(poll)
            conn.send(rows.send(conn.recv()))
    except (EOFError, BrokenPipeError):
        pass
    except Exception as exc:  # the parent raises it as the march's error
        conn.send(exc)


def _grid_shape(config: "UnsteadyConfig"):
    """(h, nx, ny): the cell size and counts of the march's grid."""
    x_min, x_max, y_max = config.box
    h = (x_max - x_min) / config.grid_n
    return h, config.grid_n, int(round(y_max / h))


def march_bytes(config: "UnsteadyConfig") -> int:
    """Bytes of the grid-sized arrays a march holds at its peak, on the
    processes run starts.  Once: the state (in the mapping the processes
    share) and the grid's boolean masks (solid, wall ghosts, active rows).
    Per process: the workspace's buffers in the padded layout above, for the
    most rows the process updates, the results of a step's ``pi_of_rho`` and
    ``c2_of_pi``, NumPy's iteration buffer, which the update takes for its
    strided flux sums, and the workspace's fluid masks."""
    _, nx, ny = _grid_shape(config)
    processes = _processes()
    m = ny - ny // 2 if processes > 1 else ny
    S = nx + 2
    cells = ny * nx
    own = 8 * (7 * (m + 2) * S + 2 * (m + 1) * S + 3 * m * S + np.getbufsize()) + (ny + 2) * S + cells
    return 8 * 3 * cells + 3 * cells + processes * own


def min_march_steps(config: "UnsteadyConfig") -> int:
    """A lower bound on run's step count: t_final (M_I + 2) c_I / (cfl h).

    Each CFL step is cfl h over max(|v_x| + c) + max(|v_y| + c) on the fluid
    cells, and the cells ahead of the tip hold the supersonic upstream state,
    whose speeds sum to (M_I + 2) c_I."""
    h, _, _ = _grid_shape(config)
    up = config.problem.upstream_original()
    return math.floor(config.t_final * (abs(up.v[0]) + abs(up.v[1]) + 2.0 * up.c) / (config.cfl * h))


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


def _update_rows(model, grid, state, upstream, ws, W, lo, hi, top_bc):
    """The arithmetic of a step on rows lo..hi-1 of a W-row window, as a
    generator: it yields the CFL maxima (max(|vx| + c), max(|vy| + c)) over
    those rows' fluid cells; sent lam = dt / h, it updates those rows of
    state in place and yields whether their fluid density stays above the
    floor.

    It reads the rows lo - 1..hi of the window: the window's own rows, their
    wall ghosts, and the window's border rows where it reaches them.  Local
    padded row p is window row lo - 1 + p; the border columns and corners of
    its halo rows are not those of the full window, and no update reads them.
    """
    m = hi - lo
    S = grid.nx + 2  # the padded row length
    P = (m + 2) * S
    a, b = max(lo - 1, 0), min(hi + 1, W)  # the window rows it copies
    olds = (state.rho, state.vx, state.vy)

    # padded arrays: the rows' state inside, wall ghosts in its solid cells, the border where it is one
    rho, vx, vy, sx, sy = (x[:P] for x in (ws.rho, ws.vx, ws.vy, ws.sx, ws.sy))
    padded = [x.reshape(m + 2, S) for x in (rho, vx, vy)]
    copied = [p[a - lo + 1 : b - lo + 1, 1:-1] for p in padded]
    for p, old in zip(copied, olds):
        p[...] = old[a:b]
    grid._ghosts.fill(olds, copied, a, b)
    for p, v, sign in zip(padded, (upstream.rho, *upstream.v), (1.0, 1.0, -1.0)):
        if lo == 0:  # mirror bottom
            np.multiply(p[1, 1:-1], sign, out=p[0, 1:-1])
        if hi == W:  # upstream top, or a copy of the edge for outflow
            p[-1, 1:-1] = v if top_bc == "inflow" else p[-2, 1:-1]
        p[:, 0] = v  # upstream left
        p[:, -1] = p[:, -2]  # zero-gradient right

    # once per padded cell, for the faces and the CFL bound: pi, c from pi,
    # B = |v|^2/2 + pi, |v_n| + c (sx holds |v|^2/2 until it takes |v_x| + c)
    B = pi_of_rho(model, padded[0]).reshape(P)
    c = c2_of_pi(model, B)
    np.sqrt(c, out=c)
    np.multiply(vx, vx, out=sx)
    np.multiply(vy, vy, out=sy)
    sx += sy
    sx *= 0.5
    B += sx
    for v, s in ((vx, sx), (vy, sy)):
        np.abs(v, out=s)
        s += c

    # the CFL maxima from the same wave speeds on the fluid cells
    fluid_p = ws.fluid_p[(lo + 1) * S : (hi + 1) * S]
    lam = yield tuple(float(np.max(s[S : (m + 1) * S], where=fluid_p, initial=-np.inf)) for s in (sx, sy))

    # old -= lam * (((fx_E - fx_W) + fy_N) - fy_S) in the fluid, summed in the
    # flat layout: entry q of a sum is the padded cell S + 1 + q, whose x faces
    # are entries q and q + 1 of the x pass and whose y faces are entries
    # 1 + q and S + 1 + q of the y pass.  c's array takes the mass flux
    n = m * S - 2  # from the first interior cell of the rows to their last
    sums = [x[:n] for x in ws.sums]
    for x, f in zip(sums, _llf(rho, B, sx, vx, vy, c, S, (m + 1) * S, 1, ws.ha, ws.d)):
        np.subtract(f[1 : n + 1], f[:n], out=x)
    y_faces = _llf(rho, B, sy, vy, vx, c, 0, (m + 1) * S, S, ws.ha, ws.d)
    for x, f in zip((sums[0], sums[2], sums[1]), y_faces):
        x += f[S + 1 : S + 1 + n]
        x -= f[1 : 1 + n]
    fluid = ws.fluid[lo:hi]
    for x, old in zip(ws.sums, olds):
        x[:n] *= lam
        np.subtract(old[lo:hi], x[: m * S].reshape(m, S)[:, : S - 2], out=old[lo:hi], where=fluid)
    # written so that a NaN density fails it too
    yield bool(np.all(state.rho[lo:hi] > RHO_FLOOR_FACTOR * upstream.rho, where=fluid))


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
    ``_Workspace(grid)``, the step's buffers, or a workspace with a partner,
    which then updates the lower half of those rows.  A VacuumError from the
    CFL bound leaves state unchanged; one from the density floor leaves it
    updated.
    """
    ws = workspace
    W = _active_rows(grid, state, upstream)
    partner = ws.partner if W > 1 else None
    R = W // 2 if partner else 0  # this process updates rows R..W-1, the partner rows 0..R-1
    if partner:
        partner.conn.send((R, W, top_bc))
    rows = _update_rows(model, grid, state, upstream, ws, W, R, W, top_bc)
    try:
        maxima = next(rows)
    except VacuumError:
        if not partner:
            raise
        maxima = (math.nan, math.nan)
    if partner:  # np.maximum keeps a NaN from either side
        maxima = np.maximum(maxima, partner.receive()).tolist()
    speeds = maxima[0] + maxima[1]
    fluid = ws.fluid[:W]
    if not math.isfinite(speeds):  # a NaN or infinite velocity
        if partner:  # the first phase again, on one process, forms the error over the whole window
            ws = _Workspace(grid)
            next(_update_rows(model, grid, state, upstream, ws, W, 0, W, top_bc))
        S = grid.nx + 2
        sx_in, sy_in = (s[: (W + 2) * S].reshape(W + 2, S)[1:-1, 1:-1] for s in (ws.sx, ws.sy))
        bad = fluid & ~np.isfinite(sx_in + sy_in)
        j, i = np.unravel_index(int(np.argmax(bad)), fluid.shape)
        raise VacuumError(
            f"wave speed {sx_in[j, i] + sy_in[j, i]} at cell (i={i}, j={j}), t = {state.t}"
        )
    h = grid.spacing
    dt = min(cfl * h / speeds, t_stop - state.t)
    lam = dt / h
    if partner:
        partner.conn.send(lam)
    above = rows.send(lam)
    state.t += dt
    if partner:
        above = partner.receive() and above

    # argmin finds a NaN first; the rows above the window hold the upstream density
    if not above:
        floor = RHO_FLOOR_FACTOR * upstream.rho
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


def _sample_points(grid: Grid, t: float, xi_x, xi_y, valid=None):
    """(fi, fj, valid) of the xi grid at time t: the fractional cell indices
    of the points x = xi t, and whether each lies inside the grid's cell
    centres and off the wedge; a valid given is that of the same points."""
    XX, YY = np.meshgrid(xi_x * t, xi_y * t)
    fi = (XX - grid.x0) / grid.spacing - 0.5
    fj = YY / grid.spacing - 0.5
    if valid is None:
        inside = (fi >= 0) & (fi <= grid.nx - 1) & (fj >= 0) & (fj <= grid.ny - 1)
        solid = bilinear(grid._solid, fi, fj) > 1e-12  # bool times float64 is float64, no copy
        valid = inside & ~solid
    return fi, fj, valid


def sample_self_similar(
    model: GasModel, grid: Grid, state: SimState, xi_x, xi_y, valid=None
) -> SelfSimilarField:
    """Bilinear samples of (rho, v, L) along rays xi = x/t; valid is the
    points' validity at state.t (``_sample_points``), where the caller has it."""
    if state.t <= 0.0:
        raise ValueError("self-similar sampling needs t > 0")
    xi_x = np.asarray(xi_x, dtype=float)
    xi_y = np.asarray(xi_y, dtype=float)
    fi, fj, valid = _sample_points(grid, state.t, xi_x, xi_y, valid)
    rho = bilinear(state.rho, fi, fj)
    vx = bilinear(state.vx, fi, fj)
    vy = bilinear(state.vy, fi, fj)
    XiX, XiY = np.meshgrid(xi_x, xi_y)
    c = np.asarray(model.sound_speed(np.maximum(rho, 1e-300)))
    L = np.hypot(vx - XiX, vy - XiY) / c
    return SelfSimilarField(t=state.t, xi_x=xi_x, xi_y=xi_y, rho=rho, vx=vx, vy=vy, L=L, valid=valid)


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


@dataclass(frozen=True)
class MarchSetup:
    """run's grid; its xi grid, which stays 1.5 cells at t_final / 2 inside
    each side of the box; and the sampling times t_final / 2 and t_final with
    which points of the xi grid are valid at each (``_sample_points``)."""

    grid: Grid
    xi_x: np.ndarray
    xi_y: np.ndarray
    times: tuple[float, float]
    valid: tuple


def march_setup(config: UnsteadyConfig) -> MarchSetup:
    x_min, x_max, y_max = config.box
    h, nx, ny = _grid_shape(config)
    grid = Grid(x0=x_min, spacing=h, nx=nx, ny=ny, tau=config.problem.tau)
    margin = 1.5 * h / (0.5 * config.t_final)
    xi_x = np.linspace(x_min + margin, x_max - margin, config.sample_nx)
    xi_y = np.linspace(margin, y_max - margin, _sample_rows(config))
    times = (0.5 * config.t_final, config.t_final)
    return MarchSetup(grid, xi_x, xi_y, times, tuple(_sample_points(grid, t, xi_x, xi_y)[2] for t in times))


def shared_sample_points(setup: MarchSetup) -> int:
    """The points of run's xi grid valid in both its samplings; with none
    there is no self-similarity defect to take."""
    return int(np.count_nonzero(setup.valid[0] & setup.valid[1]))


def sample_bytes(config: UnsteadyConfig) -> int:
    """Bytes of run's two samplings at their peak, per xi point: the first
    field's rho, v and L and its valid flag, and the second sampling's
    temporaries, 12 float and 1 flag arrays (tracemalloc reads 130 bytes per
    point)."""
    return config.sample_nx * _sample_rows(config) * (8 * (4 + 12) + 1 + 1)


def run(config: UnsteadyConfig, on_snapshot=None, setup: MarchSetup | None = None) -> UnsteadyResult:
    """March the wedge problem to t_final and sample at t_final/2 and t_final;
    setup is ``march_setup(config)``, where the caller has it.

    Every ``snapshot_every`` steps ``on_snapshot(grid, state)`` is called with
    the march's own state, which the next step updates in place: a caller
    copies what it keeps.  On two usable CPUs a partner process updates half
    of each step's rows (module docstring); it has ended when run returns or
    raises.
    """
    problem = config.problem
    upstream_orig = problem.upstream_original()
    pattern = build(problem)
    model = problem.model

    setup = march_setup(config) if setup is None else setup
    grid = setup.grid
    two = _processes() > 1
    state = init(upstream_orig, grid, shared=two)
    partner = _Partner(model, grid, state, upstream_orig) if two else None
    try:
        workspace = _Workspace(grid, _half_rows(grid), partner) if two else _Workspace(grid)
        steps, samples = 0, []
        for target, valid in zip(setup.times, setup.valid):
            while state.t < target - 1e-14:
                step(model, grid, state, upstream_orig, workspace, cfl=config.cfl, t_stop=target)
                steps += 1
                if on_snapshot and config.snapshot_every and steps % config.snapshot_every == 0:
                    on_snapshot(grid, state)
            if target == config.t_final:
                workspace = None  # the last sample and the caller's export reuse its memory
            # the setup's masks are those of the target time, which the march
            # ends on unless a CFL step lands within 1e-14 below it
            valid = valid if state.t == target else None
            samples.append(sample_self_similar(model, grid, state, setup.xi_x, setup.xi_y, valid))
    finally:
        if partner:
            partner.close()
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
    shock (between the tip and the sonic corner).  Samples the final
    density alone (_sample_points, bilinear) on its own fine vertical grid
    so the crossing is bracketed even close to the tip.
    """
    pattern = result.pattern
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
        fi, fj, ok = _sample_points(grid, state.t, np.array([xc]), ys)
        col_rho, ok = bilinear(state.rho, fi, fj)[:, 0], ok[:, 0]
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
