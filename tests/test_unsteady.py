import contextlib
import dataclasses
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from shock_oracles import resolve_oblique
from wedgeflow import unsteady
from wedgeflow.gas import GasModel, FlowState, VacuumError, WedgeError, pi_of_rho
from wedgeflow.pattern import GeometryError, ProblemConfig
from wedgeflow.unsteady import (
    Grid,
    SimState,
    UnsteadyConfig,
    init,
    run,
    sample_self_similar,
    self_similarity_defect,
    step,
)

AIR = GasModel(gamma=1.4)


def flat_grid(nx=64, ny=8, h=0.02, x0=0.0):
    return Grid(x0=x0, spacing=h, nx=nx, ny=ny, tau=0.0)


def copied(state):
    return SimState(state.t, state.rho.copy(), state.vx.copy(), state.vy.copy())


def total_mass(grid, state):
    return float(np.sum(state.rho[~grid.solid_mask()])) * grid.spacing**2


def discrete_curl(grid, state):
    """Centered-difference curl of v on interior cells."""
    h = grid.spacing
    dvy_dx = (state.vy[1:-1, 2:] - state.vy[1:-1, :-2]) / (2 * h)
    dvx_dy = (state.vx[2:, 1:-1] - state.vx[:-2, 1:-1]) / (2 * h)
    return dvy_dx - dvx_dy


class TestInit:
    def test_uniform_state(self):
        up = FlowState.from_model(AIR, 1.2, (2.0, 0.0))
        g = flat_grid()
        s = init(up, g)
        assert np.all(s.rho == 1.2)
        assert np.all(s.vx == 2.0)
        assert np.all(s.vy == 0.0)
        assert s.t == 0.0

    def test_total_mass_exact(self):
        up = FlowState.from_model(AIR, 1.2, (2.0, 0.0))
        g = flat_grid()
        s = init(up, g)
        fluid_area = g.nx * g.ny * g.spacing**2
        assert total_mass(g, s) == pytest.approx(1.2 * fluid_area, rel=1e-14)

    def test_wedge_mask(self):
        g = Grid(x0=-0.5, spacing=0.1, nx=20, ny=10, tau=math.radians(30))
        solid = g.solid_mask()
        x, y = g.centers()
        assert not solid[:, x < 0].any()
        assert solid[0, -1]  # bottom-right cell is inside the wedge

    def test_solid_mask_read_only(self):
        g = Grid(x0=-0.5, spacing=0.1, nx=20, ny=10, tau=math.radians(30))
        with pytest.raises(ValueError):
            g.solid_mask()[0, -1] = False

    def test_flat_wall_constant_state_is_exact(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid()
        s = init(up, g)
        step(AIR, g, s, up, unsteady._Workspace(g))
        assert np.max(np.abs(s.rho - 1.0)) < 1e-14
        assert np.max(np.abs(s.vx - 2.0)) < 1e-14
        assert np.max(np.abs(s.vy)) < 1e-14


class TestWallGhosts:
    @staticmethod
    def starved(g):
        """Ghosts whose mirror point has no fluid cell among the centres that
        weigh in its bilinear interpolation: their fluid weights sum to less
        than 1e-12."""
        gh, solid = g._ghosts, g.solid_mask()
        x, y = g.centers()
        n = np.array([-math.sin(g.tau), math.cos(g.tau)])
        p = np.stack([x[gh.ii], y[gh.jj]], axis=-1)
        pm = p - 2.0 * (p @ n)[:, None] * n
        fi = np.clip((pm[:, 0] - g.x0) / g.spacing - 0.5, 0.0, g.nx - 1.0)
        fj = np.clip(pm[:, 1] / g.spacing - 0.5, 0.0, g.ny - 1.0)
        i0 = np.clip(np.floor(fi).astype(int), 0, g.nx - 2)
        j0 = np.clip(np.floor(fj).astype(int), 0, g.ny - 2)
        di, dj = fi - i0, fj - j0
        corners = ((0, 0, (1 - di) * (1 - dj)), (0, 1, di * (1 - dj)), (1, 0, (1 - di) * dj), (1, 1, di * dj))
        fluid_weight = sum(np.where(solid[j0 + a, i0 + b], 0.0, w) for a, b, w in corners)
        # a weight of rounding size, such as 1e-16 for a point on a centre, is none
        return np.flatnonzero(fluid_weight < 1e-12)

    @pytest.mark.parametrize(
        "grid, count",
        [
            (dict(x0=-0.5, spacing=0.05, nx=60, ny=30), 3),
            (dict(x0=-0.05, spacing=0.05, nx=20, ny=10), 1),
        ],
    )
    def test_starved_ghost_copies_the_first_fluid_cell_of_its_column(self, grid, count):
        # at 45 degrees the mirror of a ghost near the wedge face can fall
        # deep into the solid, where no stencil member is fluid
        g = Grid(tau=math.radians(45.0), **grid)
        starved = self.starved(g)
        assert len(starved) == count
        rng = np.random.default_rng(0)
        rho, vx, vy = (rng.uniform(0.5, 2.0, (g.ny, g.nx)) for _ in range(3))
        fluid = (rho.copy(), vx.copy(), vy.copy())
        g._ghosts.fill((rho, vx, vy), (rho, vx, vy), 0, g.ny)
        first_fluid = np.argmax(~g.solid_mask(), axis=0)
        n = np.array([-math.sin(g.tau), math.cos(g.tau)])
        for k in starved:
            j, i = g._ghosts.jj[k], g._ghosts.ii[k]
            src = (first_fluid[i], i)
            assert not g.solid_mask()[src] and g.solid_mask()[j, i]
            assert rho[j, i] == fluid[0][src]
            v = np.array([fluid[1][src], fluid[2][src]])
            mirrored = v - 2.0 * (v @ n) * n
            assert [vx[j, i], vy[j, i]] == pytest.approx(mirrored, rel=1e-14, abs=1e-15)


class TestStep:
    def test_cfl_step_is_stable_dt_cut_at_t_stop(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.4, spacing=0.05, nx=60, ny=30, tau=math.radians(10.0))
        ws = unsteady._Workspace(g)
        s = init(up, g)
        dt = stable_dt(AIR, g, s, 0.3)
        step(AIR, g, s, up, ws, cfl=0.3)
        assert s.t == dt
        s = init(up, g)
        step(AIR, g, s, up, ws, cfl=0.3, t_stop=1e-4)
        assert s.t == 1e-4

    def test_nan_names_the_cell(self):
        # the NaN reaches the CFL bound before any density
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid()
        s = init(up, g)
        s.vy[0, 5] = math.nan
        with pytest.raises(WedgeError, match=r"nan .*cell \(i=5, j=0\), t = ") as exc:
            step(AIR, g, s, up, unsteady._Workspace(g))
        assert str(exc.value).endswith("t = 0.0")

    def test_density_floor_names_the_cell(self):
        # gas at 1.5e-10 rho_I streams apart at 100 c_I from the line between
        # columns 7 and 8; the cells on either side of it lose 45 % of their
        # mass in one step, below the floor of 1e-10 rho_I
        up = FlowState.from_model(AIR, 1.0, (0.0, 0.0))
        g = flat_grid(nx=16, ny=4)
        s = init(up, g)
        s.rho[:, 5:11] = 1.5e-10
        s.vx[:, 5:8], s.vx[:, 8:11] = -100.0, 100.0
        with pytest.raises(VacuumError) as exc:
            step(AIR, g, s, up, unsteady._Workspace(g))
        # the state is left updated; the message names its lowest density
        j, i = np.unravel_index(int(np.argmin(s.rho)), s.rho.shape)
        assert 0 < s.rho[j, i] < 1e-10
        assert i in (7, 8) and s.t > 0.0
        assert str(exc.value) == (
            f"density {s.rho[j, i]} not above the floor 1e-10 at cell (i={i}, j={j}), t = {s.t}"
        )

    def test_step_evaluates_each_closure_once(self, monkeypatch):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.4, spacing=0.05, nx=60, ny=30, tau=math.radians(10.0))
        assert g.solid_mask().any()
        s = init(up, g)
        calls = dict.fromkeys(("sound_speed", "pi_of_rho", "solid_mask"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(GasModel, "sound_speed", counted("sound_speed", GasModel.sound_speed))
        monkeypatch.setattr(unsteady, "pi_of_rho", counted("pi_of_rho", unsteady.pi_of_rho))
        monkeypatch.setattr(Grid, "solid_mask", counted("solid_mask", Grid.solid_mask))
        step(AIR, g, s, up, unsteady._Workspace(g))
        assert calls == {"sound_speed": 0, "pi_of_rho": 1, "solid_mask": 0}

    def test_mass_conservation_against_boundary_flux(self):
        # the inflow over the fluid region's boundary comes from the reference
        # step, whose states and CFL step are step's bit for bit
        cfg = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.4, spacing=0.05, nx=60, ny=30, tau=cfg.tau)
        s, ws = init(up, g), unsteady._Workspace(g)
        for _ in range(25):
            m0 = total_mass(g, s)
            _, inflow = _ref_step(AIR, g, s, up)
            step(AIR, g, s, up, ws)
            m1 = total_mass(g, s)
            assert m1 - m0 == pytest.approx(inflow, rel=1e-10, abs=1e-14)

    def test_moving_normal_shock_speed(self):
        # exact potential-flow shock: upstream (1, 2.0), speed sigma = 0.8
        sigma = 0.8
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        sol = resolve_oblique(AIR, up, (sigma, 0.0), (1.0, 0.0))
        g = flat_grid(nx=400, ny=6, h=0.01)
        x, _ = g.centers()
        s = init(up, g)
        s.t = 1.0
        xs0 = sigma * s.t
        right = x >= xs0
        s.rho[:, right] = sol.downstream.rho
        s.vx[:, right] = sol.downstream.v[0]
        s.vy[:, right] = sol.downstream.v[1]

        def shock_pos(state):
            rho_mid = 0.5 * (up.rho + sol.downstream.rho)
            prof = state.rho[3, :]
            k = int(np.argmax(prof > rho_mid))
            # linear interpolation of the crossing
            f = (rho_mid - prof[k - 1]) / (prof[k] - prof[k - 1])
            return x[k - 1] + f * g.spacing

        # let the discrete shock profile form, then clock it over 100 steps
        ws = unsteady._Workspace(g)
        for _ in range(100):
            step(AIR, g, s, up, ws, top_bc="outflow")
        p0, t0 = shock_pos(s), s.t
        for _ in range(100):
            step(AIR, g, s, up, ws, top_bc="outflow")
        speed = (shock_pos(s) - p0) / (s.t - t0)
        assert speed == pytest.approx(sigma, rel=0.02)

    def test_galilean_shift_of_samples(self):
        sigma, v0 = 0.8, 0.3
        up_a = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        sol_a = resolve_oblique(AIR, up_a, (sigma, 0.0), (1.0, 0.0))
        up_b = FlowState.from_model(AIR, 1.0, (2.0 + v0, 0.0))
        g = flat_grid(nx=500, ny=6, h=0.01)
        x, _ = g.centers()

        def setup(up, down_v, down_rho, xs):
            s = init(up, g)
            s.t = 1.0
            right = x >= xs
            s.rho[:, right] = down_rho
            s.vx[:, right] = down_v
            return s

        sa = setup(up_a, sol_a.downstream.v[0], sol_a.downstream.rho, sigma)
        sb = setup(up_b, sol_a.downstream.v[0] + v0, sol_a.downstream.rho, sigma + v0)
        # one fixed step in both frames: t_stop ends it, below the CFL bound at cfl 1
        dt = min(stable_dt(AIR, g, sa), stable_dt(AIR, g, sb))
        ws = unsteady._Workspace(g)
        for _ in range(120):
            step(AIR, g, sa, up_a, ws, cfl=1.0, top_bc="outflow", t_stop=sa.t + dt)
            step(AIR, g, sb, up_b, ws, cfl=1.0, top_bc="outflow", t_stop=sb.t + dt)
            assert sa.t == sb.t
        xi = np.linspace(0.5, 2.2, 150)
        y = np.array([0.03])
        fa = sample_self_similar(AIR, g, sa, xi, y)
        fb = sample_self_similar(AIR, g, sb, xi + v0, y)
        rel = np.abs(fa.rho - fb.rho) / np.abs(fa.rho)
        assert np.mean(rel) < 0.02
        # upstream of the smeared front the frames agree to the tail of the
        # scheme's dissipation (which is slightly frame-dependent)
        assert np.max(rel[:, xi < 0.55]) < 1e-6

    def test_irrotational_in_smooth_regions(self):
        cfg = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.6, spacing=0.04, nx=100, ny=50, tau=cfg.tau)
        s, ws = init(up, g), unsteady._Workspace(g)
        for _ in range(60):
            step(AIR, g, s, up, ws)
        curl = discrete_curl(g, s)
        # quiescent upstream quarter of the box, away from wall and shocks
        sub = curl[30:, :20]
        assert np.max(np.abs(sub)) < 1e-6 * 1.0 / g.spacing


class TestWorkspace:
    """``run`` hands one workspace to every step; the steps update the state
    in place."""

    def test_step_allocates_nothing_grid_sized(self):
        up, g, s = TestStepMatchesReference().wedge_case()
        ws = unsteady._Workspace(g)
        for _ in range(20):
            step(AIR, g, s, up, ws)
        tracemalloc.start()
        try:
            for _ in range(5):
                step(AIR, g, s, up, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two closure results are the only arrays a step allocates at full size
        padded = (g.ny + 2) * (g.nx + 2) * 8
        assert peak < 4 * padded

    def test_step_writes_only_the_fluid_cells_of_its_window(self):
        up, g, s = TestStepMatchesReference().wedge_case()
        ws = unsteady._Workspace(g)
        for _ in range(3):
            step(AIR, g, s, up, ws)
        W = unsteady._active_rows(g, s, up)
        window_fluid = np.zeros((g.ny, g.nx), dtype=bool)
        window_fluid[:W] = ~g.solid_mask()[:W]
        assert W < g.ny and g.solid_mask()[:W].any()
        arrays = (s.rho, s.vx, s.vy)
        kept = [a.copy() for a in arrays]
        t0 = s.t
        assert step(AIR, g, s, up, ws) is None
        assert s.t > t0
        for name, a, b in zip(("rho", "vx", "vy"), arrays, kept):
            assert getattr(s, name) is a  # updated in place
            assert a[~window_fluid].tobytes() == b[~window_fluid].tobytes(), name
            assert (a[window_fluid] != b[window_fluid]).any(), name

    @pytest.mark.parametrize("grid_n", [100, 200])
    def test_march_bytes_matches_the_march(self, grid_n, monkeypatch, tmp_path):
        # the estimate behind the grid_n preflight, against tracemalloc's peak
        # over a desk march with a sampling too small to count, on one CPU and
        # on two.  On two the march's process traces its own share, the
        # partner (forked with tracemalloc running) what it allocates after
        # the fork, and the fields' shared mapping is traced by neither
        partner_loop = unsteady._partner_loop

        def traced_partner(*args):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                partner_loop(*args)
            finally:
                (tmp_path / "partner").write_text(str(tracemalloc.get_traced_memory()[1] - start))

        monkeypatch.setattr(unsteady, "_partner_loop", traced_partner)
        problem = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)
        cfg = UnsteadyConfig(problem=problem, grid_n=grid_n, sample_nx=2)
        for cpus in (1, 2):
            monkeypatch.setattr(unsteady, "usable_cpus", lambda n=cpus: n)
            assert unsteady.sample_bytes(cfg) < 0.01 * unsteady.march_bytes(cfg)
            run(dataclasses.replace(cfg, grid_n=8))  # the modules a march imports on first use
            (tmp_path / "partner").unlink(missing_ok=True)
            tracemalloc.start()
            try:
                res = run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if cpus == 2:
                peak += int((tmp_path / "partner").read_text()) + 3 * res.final.rho.nbytes
            else:
                assert not (tmp_path / "partner").exists()
            assert peak == pytest.approx(unsteady.march_bytes(cfg), rel=0.1), cpus

    def test_run_marches_like_steps_without_a_workspace(self, monkeypatch):
        # on one CPU and on two, where a partner process updates half of
        # each step's rows
        started = []

        class Partner(unsteady._Partner):
            def __init__(self, *args):
                started.append(args)
                super().__init__(*args)

        monkeypatch.setattr(unsteady, "_Partner", Partner)
        problem = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)
        cfg = UnsteadyConfig(problem=problem, grid_n=100, t_final=1.0, snapshot_every=50)
        marches = []
        for cpus in (1, 2):
            monkeypatch.setattr(unsteady, "usable_cpus", lambda n=cpus: n)
            snaps = []

            def keep(grid, state, snaps=snaps):  # the march updates the state in place
                snaps.append(copied(state))

            marches.append((run(cfg, on_snapshot=keep), snaps))
            assert len(started) == cpus - 1
            assert multiprocessing.active_children() == []
        res = marches[0][0]
        up = FlowState.from_model(AIR, AIR.rho0, (problem.M_I * AIR.c0, 0.0))
        s, steps, ref_snaps = init(up, res.grid), 0, []
        ws = unsteady._Workspace(res.grid)
        for target in (0.5 * cfg.t_final, cfg.t_final):
            while s.t < target - 1e-14:
                step(AIR, res.grid, s, up, ws, cfl=cfg.cfl, t_stop=target)
                steps += 1
                if steps % cfg.snapshot_every == 0:
                    ref_snaps.append(copied(s))
        for res, snaps in marches:
            assert steps == res.steps and len(snaps) == len(ref_snaps) == steps // 50 > 0
            for a, b in zip([*snaps, res.final], [*ref_snaps, s]):
                TestActiveRows.assert_same_bytes(a, b)


# A plain copy of the step's arithmetic as first written: a padded copy per
# field, the face states gathered per face, one expression per flux and
# update.  The lean step must reproduce it bit for bit.


def _ref_pad(arr, left, top, bottom_mirror_sign):
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


def _ref_llf(rho_p, B_p, c_p, vn_p, vt_p, lo, hi):
    r0, r1 = rho_p[lo], rho_p[hi]
    n0, n1 = vn_p[lo], vn_p[hi]
    a = np.maximum(np.abs(n0) + c_p[lo], np.abs(n1) + c_p[hi])
    return (
        0.5 * (r0 * n0 + r1 * n1) - 0.5 * a * (r1 - r0),
        0.5 * (B_p[lo] + B_p[hi]) - 0.5 * a * (n1 - n0),
        -0.5 * a * (vt_p[hi] - vt_p[lo]),
    )


def _ref_sound_speed(model, rho):
    """c = sqrt(max(c0^2 + (gamma - 1) pi, 0)) from pi_of_rho, as the step takes it."""
    gm1 = 0.0 if model.isothermal else model.gamma - 1.0
    return np.sqrt(np.maximum(model.c0**2 + gm1 * pi_of_rho(model, rho), 0.0))


def stable_dt(model, grid, state, cfl=unsteady.CFL_DEFAULT):
    """The CFL step cfl * h / (max(|vx| + c) + max(|vy| + c)), maxima over
    the fluid cells."""
    fluid = ~grid.solid_mask()
    c = _ref_sound_speed(model, state.rho[fluid])
    sx = float(np.max(np.abs(state.vx[fluid]) + c))
    sy = float(np.max(np.abs(state.vy[fluid]) + c))
    return cfl * grid.spacing / (sx + sy)


def _ref_step(model, grid, state, upstream, dt=None, cfl=unsteady.CFL_DEFAULT, top_bc="inflow"):
    """(new state, boundary mass inflow) by the reference arithmetic."""
    solid = grid.solid_mask()
    fluid = ~solid
    h = grid.spacing
    rho_g, vx_g, vy_g = state.rho.copy(), state.vx.copy(), state.vy.copy()
    grid._ghosts.fill((rho_g, vx_g, vy_g), (rho_g, vx_g, vy_g), 0, grid.ny)
    top_in = top_bc == "inflow"
    rho_p = _ref_pad(rho_g, upstream.rho, upstream.rho if top_in else None, 1.0)
    vx_p = _ref_pad(vx_g, upstream.v[0], upstream.v[0] if top_in else None, 1.0)
    vy_p = _ref_pad(vy_g, upstream.v[1], upstream.v[1] if top_in else None, -1.0)
    c_p = _ref_sound_speed(model, rho_p)
    B_p = 0.5 * (vx_p**2 + vy_p**2) + pi_of_rho(model, rho_p)
    if dt is None:
        dt = stable_dt(model, grid, state, cfl)
    fx_rho, fx_vx, fx_vy = _ref_llf(rho_p, B_p, c_p, vx_p, vy_p, np.s_[1:-1, :-1], np.s_[1:-1, 1:])
    fy_rho, fy_vy, fy_vx = _ref_llf(rho_p, B_p, c_p, vy_p, vx_p, np.s_[:-1, 1:-1], np.s_[1:, 1:-1])
    lam = dt / h
    rho_new = state.rho - lam * (fx_rho[:, 1:] - fx_rho[:, :-1] + fy_rho[1:, :] - fy_rho[:-1, :])
    vx_new = state.vx - lam * (fx_vx[:, 1:] - fx_vx[:, :-1] + fy_vx[1:, :] - fy_vx[:-1, :])
    vy_new = state.vy - lam * (fx_vy[:, 1:] - fx_vy[:, :-1] + fy_vy[1:, :] - fy_vy[:-1, :])
    rho_new[solid] = state.rho[solid]
    vx_new[solid] = state.vx[solid]
    vy_new[solid] = state.vy[solid]
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
    new = SimState(t=state.t + dt, rho=rho_new, vx=vx_new, vy=vy_new)
    return new, float(influx) * h * dt


class TestStepMatchesReference:
    STEPS = 40

    @staticmethod
    def assert_same(a, b):
        assert a.t == b.t
        for name in ("rho", "vx", "vy"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def wedge_case(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.4, spacing=0.05, nx=60, ny=30, tau=math.radians(10.0))
        return up, g, init(up, g)

    def test_wedge_inflow_top_cfl_step(self):
        up, g, s = self.wedge_case()
        ref, ws = copied(s), unsteady._Workspace(g)
        for _ in range(self.STEPS):
            step(AIR, g, s, up, ws)
            ref, _ = _ref_step(AIR, g, ref, up)
            self.assert_same(s, ref)

    def test_flat_strip_outflow_top_given_dt(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        sol = resolve_oblique(AIR, up, (0.8, 0.0), (1.0, 0.0))
        g = flat_grid(nx=120, ny=6, h=0.01)
        s = init(up, g)
        s.t = 1.0
        right = g.centers()[0] >= 0.6
        s.rho[:, right] = sol.downstream.rho
        s.vx[:, right] = sol.downstream.v[0]
        s.vy[:, right] = 0.01  # v_y jumps across x faces: a nonzero tangential flux
        dt = 0.5 * stable_dt(AIR, g, s)
        ref, ws = copied(s), unsteady._Workspace(g)
        for _ in range(self.STEPS):
            step(AIR, g, s, up, ws, top_bc="outflow", t_stop=s.t + dt)
            ref, _ = _ref_step(AIR, g, ref, up, dt=(ref.t + dt) - ref.t, top_bc="outflow")
            self.assert_same(s, ref)


class TestActiveRows:
    """The step updates only the rows below ``_active_rows``; every other row
    holds the upstream state and must come out as the full-grid step leaves it."""

    STEPS = 5

    @staticmethod
    def assert_same_bytes(a, b):
        assert a.t == b.t
        for name in ("rho", "vx", "vy"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def march_like_reference(self, up, g, s, top_bc="inflow"):
        ref, ws = copied(s), unsteady._Workspace(g)
        for _ in range(self.STEPS):
            step(AIR, g, s, up, ws, top_bc=top_bc)
            ref, _ = _ref_step(AIR, g, ref, up, top_bc=top_bc)
            self.assert_same_bytes(s, ref)

    @pytest.mark.parametrize(
        "j, i, name, value",
        [
            (29, 17, "rho", 1.01),  # one cell in the top row
            (15, 59, "vx", 2.9),  # at the right edge, half-way up
            (22, 30, "vy", -0.0),  # equal to the upstream 0.0, but not in its bits
        ],
    )
    def test_disturbed_cell_steps_like_reference(self, j, i, name, value):
        up, g, s = TestStepMatchesReference().wedge_case()
        assert g._ghosts.top < 15
        getattr(s, name)[j, i] = value
        assert unsteady._active_rows(g, s, up) == min(g.ny, j + 2)
        self.march_like_reference(up, g, s)

    def test_flat_strip_outflow_top_steps_like_reference(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid(nx=40, ny=12)
        s = init(up, g)
        s.rho[2, 10] = 1.1
        assert g._ghosts.top == -1
        assert unsteady._active_rows(g, s, up) == 4
        self.march_like_reference(up, g, s, top_bc="outflow")

    def test_ghosts_up_to_the_top_row_give_the_full_grid(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.4, spacing=0.05, nx=60, ny=30, tau=math.radians(40.0))
        s = init(up, g)
        assert g._ghosts.top == g.ny - 1
        assert unsteady._active_rows(g, s, up) == g.ny
        self.march_like_reference(up, g, s)

    def test_nan_in_top_row_names_the_cell(self):
        up, g, s = TestStepMatchesReference().wedge_case()
        s.vx[-1, 0] = math.nan
        with pytest.raises(VacuumError, match=r"nan .*cell \(i=0, j=29\)"):
            step(AIR, g, s, up, unsteady._Workspace(g))

    def test_window_starts_small_and_grows_to_the_full_grid(self, monkeypatch):
        up, g, s = TestStepMatchesReference().wedge_case()
        first = unsteady._active_rows(g, s, up)
        assert first < g.ny
        rows = []  # rows of the padded arrays each step builds, ghost layers excluded
        pi_of_rho = unsteady.pi_of_rho

        def recording(model, rho):
            rows.append(np.shape(rho)[0] - 2)
            return pi_of_rho(model, rho)

        monkeypatch.setattr(unsteady, "pi_of_rho", recording)
        ws = unsteady._Workspace(g)
        for _ in range(TestStepMatchesReference.STEPS):
            step(AIR, g, s, up, ws)
        assert rows[0] == first
        assert rows[-1] == g.ny


@contextlib.contextmanager
def partnered(up, g, s):
    """A copy of s in a shared mapping, and a workspace whose partner process
    updates the lower half of each step's window rows; the partner has ended
    when the block exits."""
    shared = init(up, g, shared=True)
    for name in ("rho", "vx", "vy"):
        getattr(shared, name)[...] = getattr(s, name)
    shared.t = s.t
    partner = unsteady._Partner(AIR, g, shared, up)
    try:
        yield shared, unsteady._Workspace(g, unsteady._half_rows(g), partner)
    finally:
        partner.close()


class TestTwoProcesses:
    """With a partner, each process updates its half of the window's rows in
    the fields they share; the fields, t and every error are those of one
    process."""

    CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None

    def march_like_one_process(self, up, g, s, steps=TestStepMatchesReference.STEPS, top_bc="inflow"):
        ref, ws = copied(s), unsteady._Workspace(g)
        with partnered(up, g, s) as (shared, ws2):
            windows = set()
            for _ in range(steps):
                windows.add(unsteady._active_rows(g, shared, up))
                step(AIR, g, shared, up, ws2, top_bc=top_bc)
                step(AIR, g, ref, up, ws, top_bc=top_bc)
                TestActiveRows.assert_same_bytes(shared, ref)
        assert multiprocessing.active_children() == []
        return windows

    def test_wedge_steps_like_one_process(self):
        # the split falls in the wall-ghost rows while the window is small
        up, g, s = TestStepMatchesReference().wedge_case()
        windows = self.march_like_one_process(up, g, s)
        assert min(windows) // 2 <= g._ghosts.top and max(windows) == g.ny

    def test_ghosts_up_to_the_top_row_step_like_one_process(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.4, spacing=0.05, nx=60, ny=31, tau=math.radians(40.0))
        assert g._ghosts.top == g.ny - 1
        self.march_like_one_process(up, g, init(up, g))

    def test_outflow_strip_steps_like_one_process(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid(nx=40, ny=12)
        s = init(up, g)
        # undisturbed: a window of one row, which the march's process updates alone
        assert self.march_like_one_process(up, g, s, steps=2, top_bc="outflow") == {1}
        s.rho[2, 10] = 1.1
        s.vy[5, 20] = -0.3
        assert {7, g.ny} <= self.march_like_one_process(up, g, s, steps=8, top_bc="outflow")

    @pytest.mark.parametrize("row", [5, 22], ids=["partner_rows", "march_rows"])
    @pytest.mark.parametrize("case", ["density_floor", "wave_speed", "nan_density"])
    def test_errors_read_as_on_one_process(self, case, row, monkeypatch):
        # row 5 lies in the partner's half of the window, row 22 in the march
        # process's half; an error in either is formed over the whole window
        up, g, s = TestStepMatchesReference().wedge_case()
        if case == "density_floor":
            monkeypatch.setattr(unsteady, "RHO_FLOOR_FACTOR", 0.9)
            s.rho[row : row + 2, 20:40] = 0.5
        elif case == "wave_speed":
            s.vx[row, 30] = math.inf
        else:
            s.rho[row, 30] = math.nan
        assert (row < unsteady._active_rows(g, s, up) // 2) == (row == 5)
        ref = copied(s)
        with pytest.raises(VacuumError) as one:
            step(AIR, g, ref, up, unsteady._Workspace(g))
        with partnered(up, g, s) as (shared, ws):
            with pytest.raises(VacuumError) as two:
                step(AIR, g, shared, up, ws)
        assert str(two.value) == str(one.value)
        TestActiveRows.assert_same_bytes(shared, ref)
        assert multiprocessing.active_children() == []

    def test_run_that_raises_leaves_no_process(self, monkeypatch):
        # every upstream cell is below a floor of 2 rho_I
        monkeypatch.setattr(unsteady, "RHO_FLOOR_FACTOR", 2.0)
        problem = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)
        cfg = UnsteadyConfig(problem=problem, grid_n=40)
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(unsteady, "usable_cpus", lambda n=cpus: n)
            with pytest.raises(VacuumError, match=r"not above the floor 2\.0 at cell \(i=0, j=0\)") as exc:
                run(cfg)
            messages.append(str(exc.value))
            assert multiprocessing.active_children() == []
            if self.CPUS is not None:
                assert os.sched_getaffinity(0) == self.CPUS
        assert messages[0] == messages[1]

    def test_partner_error_is_raised_by_the_step(self, monkeypatch):
        # an error the partner cannot act on ends it and is the step's error
        update_rows, parent = unsteady._update_rows, os.getpid()

        def failing(*args):
            if os.getpid() != parent:
                raise MemoryError("partner allocation")
            return update_rows(*args)

        monkeypatch.setattr(unsteady, "_update_rows", failing)
        up, g, s = TestStepMatchesReference().wedge_case()
        with partnered(up, g, s) as (shared, ws):
            with pytest.raises(MemoryError, match="^partner allocation$"):
                step(AIR, g, shared, up, ws)
        assert multiprocessing.active_children() == []

    def test_dead_partner_is_worker_lost(self, monkeypatch):
        update_rows, parent = unsteady._update_rows, os.getpid()
        calls = []

        def dying(*args):
            if os.getpid() != parent:
                calls.append(args)
                if len(calls) == 3:
                    os._exit(5)
            return update_rows(*args)

        monkeypatch.setattr(unsteady, "_update_rows", dying)
        up, g, s = TestStepMatchesReference().wedge_case()
        with partnered(up, g, s) as (shared, ws):
            step(AIR, g, shared, up, ws)
            step(AIR, g, shared, up, ws)
            with pytest.raises(unsteady.WorkerLost, match=r"partner process died \(exit code 5\)$"):
                step(AIR, g, shared, up, ws)
        assert calls == [] and multiprocessing.active_children() == []


class TestSampling:
    def test_sample_bytes_matches_two_samplings(self):
        # the estimate behind the sample_nx preflight, against tracemalloc's
        # peak while run's first field is kept and the second is sampled
        problem = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)
        cfg = UnsteadyConfig(problem=problem, grid_n=40, sample_nx=400)
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.6, spacing=5.4 / 40, nx=40, ny=19, tau=problem.tau)
        s = init(up, g)
        s.t = 1.0
        xi_x = np.linspace(-0.5, 4.7, cfg.sample_nx)
        xi_y = np.linspace(0.05, 2.5, unsteady._sample_rows(cfg))
        tracemalloc.start()
        try:
            first = sample_self_similar(AIR, g, s, xi_x, xi_y)
            second = sample_self_similar(AIR, g, s, xi_x, xi_y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.rho.size == second.rho.size == 400 * 192
        assert peak == pytest.approx(unsteady.sample_bytes(cfg), rel=0.05)

    def test_identical_states_zero_defect(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid()
        s = init(up, g)
        s.t = 1.0
        xi = np.linspace(0.1, 1.0, 20)
        f1 = sample_self_similar(AIR, g, s, xi, xi[:8])
        f2 = sample_self_similar(AIR, g, s, xi, xi[:8])
        assert self_similarity_defect(f1, f2) == 0.0

    def test_exact_self_similar_field_two_times(self):
        # analytic field rho = f(x/t): sampled at two times it agrees exactly
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid(nx=200, ny=10, h=0.01)
        x, y = g.centers()

        def make(t):
            s = init(up, g)
            s.t = t
            s.rho = 1.0 + 0.3 * np.tanh((x[None, :] / t - 0.9) / 0.2) * np.ones((g.ny, 1))
            return s

        xi = np.linspace(0.3, 1.5, 60)
        yy = np.linspace(0.02, 0.06, 4)
        f1 = sample_self_similar(AIR, g, make(1.0), xi, yy)
        f2 = sample_self_similar(AIR, g, make(1.3), xi, yy)
        assert self_similarity_defect(f1, f2) < 2e-4  # interpolation error only


def _tip_angle_from_full_samplings(result):
    """tip_shock_angle with each column sampled by sample_self_similar."""
    pattern, state, grid = result.pattern, result.final, result.grid
    rho_mid = 0.5 * (pattern.state_I.rho + pattern.state_L.rho)
    corner = pattern.to_original(pattern.xi_L_star)
    theta_pred = unsteady.predicted_tip_shock_angle(pattern)
    dxi = 0.5 * grid.spacing / state.t
    pts = []
    for xc in np.linspace(0.25 * corner[0], 0.75 * corner[0], 60):
        y_lo = xc * math.tan(pattern.tau) + 2.0 * grid.spacing / state.t
        y_hi = xc * math.tan(theta_pred) * 1.6 + 6.0 * grid.spacing / state.t
        ys = np.arange(y_lo, y_hi, dxi)
        f = sample_self_similar(pattern.config.model, grid, state, np.array([xc]), ys)
        col_rho, ok = f.rho[:, 0], f.valid[:, 0]
        dense = np.where(ok & (col_rho > rho_mid))[0]
        if len(dense) == 0:
            continue
        j = dense.max()
        if j + 1 >= len(ys) or not ok[j + 1] or col_rho[j + 1] >= rho_mid:
            continue
        frac = (rho_mid - col_rho[j]) / (col_rho[j + 1] - col_rho[j])
        pts.append((xc, ys[j] + frac * (ys[j + 1] - ys[j])))
    pts = np.asarray(pts)
    return math.atan(np.polyfit(pts[:, 0], pts[:, 1], 1)[0])


@pytest.mark.slow
class TestWedgeRunCoarse:
    def test_structure_small_grid(self, desk_march_100):
        # 100-cell class run; the full 400-cell criteria live in the acceptance suite
        from wedgeflow.unsteady import (
            predicted_tip_shock_angle,
            probe_stats,
            region_probes,
            tip_shock_angle,
        )

        res, _ = desk_march_100
        ang = tip_shock_angle(res)
        assert ang == pytest.approx(predicted_tip_shock_angle(res.pattern), abs=math.radians(4))
        probes = region_probes(res.pattern)
        st = probe_stats(res.sample_final, probes["elliptic"], 0.1)
        assert st["L_mean"] < 1.0
        for name in ("I", "L", "R"):
            st = probe_stats(res.sample_final, probes[name], 0.1)
            assert st["L_mean"] > 1.0
        assert res.defect < 0.05

    def test_tip_angle_samples_only_the_density(self, desk_march_100, monkeypatch):
        # the fit reads rho alone: the full samplings it once took (rho, v, L,
        # with a sound speed per column) give the same angle bit for bit
        res, _ = desk_march_100
        want = _tip_angle_from_full_samplings(res)

        def refuse(self, rho):
            raise AssertionError("the tip-angle fit formed a sound speed")

        monkeypatch.setattr(GasModel, "sound_speed", refuse)
        assert unsteady.tip_shock_angle(res) == want

    def test_run_needs_the_wedge_pair(self):
        # a standard-picture problem has no wedge to march
        cfg = UnsteadyConfig(problem=ProblemConfig(model=AIR, MIy=-2.0), grid_n=20)
        with pytest.raises(GeometryError, match="wedge pair"):
            run(cfg)
