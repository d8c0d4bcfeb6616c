import math

import numpy as np
import pytest

from wedgeflow import unsteady
from wedgeflow.gas import GasModel, FlowState
from wedgeflow.pattern import ProblemConfig
from wedgeflow.shocks import resolve_oblique
from wedgeflow.unsteady import (
    CFLviolation,
    Grid,
    SimState,
    UnsteadyConfig,
    discrete_curl,
    init,
    run,
    sample_self_similar,
    self_similarity_defect,
    stable_dt,
    step,
    total_mass,
)

AIR = GasModel(gamma=1.4)


def flat_grid(nx=64, ny=8, h=0.02, x0=0.0):
    return Grid(x0=x0, y0=0.0, spacing=h, nx=nx, ny=ny, tau=0.0)


class TestInit:
    def test_uniform_state(self):
        up = FlowState.from_model(AIR, 1.2, (2.0, 0.0))
        g = flat_grid()
        s = init(AIR, up, g)
        assert np.all(s.rho == 1.2)
        assert np.all(s.vx == 2.0)
        assert np.all(s.vy == 0.0)
        assert s.t == 0.0

    def test_total_mass_exact(self):
        up = FlowState.from_model(AIR, 1.2, (2.0, 0.0))
        g = flat_grid()
        s = init(AIR, up, g)
        fluid_area = g.nx * g.ny * g.spacing**2
        assert total_mass(g, s) == pytest.approx(1.2 * fluid_area, rel=1e-14)

    def test_wedge_mask(self):
        g = Grid(x0=-0.5, y0=0.0, spacing=0.1, nx=20, ny=10, tau=math.radians(30))
        solid = g.solid_mask()
        x, y = g.centers()
        assert not solid[:, x < 0].any()
        assert solid[0, -1]  # bottom-right cell is inside the wedge

    def test_solid_mask_read_only(self):
        g = Grid(x0=-0.5, y0=0.0, spacing=0.1, nx=20, ny=10, tau=math.radians(30))
        with pytest.raises(ValueError):
            g.solid_mask()[0, -1] = False

    def test_flat_wall_constant_state_is_exact(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid()
        s = init(AIR, up, g)
        s2 = step(AIR, g, s, up)
        assert np.max(np.abs(s2.rho - 1.0)) < 1e-14
        assert np.max(np.abs(s2.vx - 2.0)) < 1e-14
        assert np.max(np.abs(s2.vy)) < 1e-14


class TestStep:
    def test_cfl_violation_raises(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid()
        s = init(AIR, up, g)
        with pytest.raises(CFLviolation):
            step(AIR, g, s, up, dt=10.0)

    def test_step_evaluates_each_closure_once(self, monkeypatch):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.4, y0=0.0, spacing=0.05, nx=60, ny=30, tau=math.radians(10.0))
        assert g.solid_mask().any()
        s = init(AIR, up, g)
        calls = dict.fromkeys(("sound_speed", "pi_of_rho", "stable_dt", "solid_mask"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(GasModel, "sound_speed", counted("sound_speed", GasModel.sound_speed))
        monkeypatch.setattr(unsteady, "pi_of_rho", counted("pi_of_rho", unsteady.pi_of_rho))
        monkeypatch.setattr(unsteady, "stable_dt", counted("stable_dt", unsteady.stable_dt))
        monkeypatch.setattr(Grid, "solid_mask", counted("solid_mask", Grid.solid_mask))
        step(AIR, g, s, up)
        assert calls == {"sound_speed": 1, "pi_of_rho": 1, "stable_dt": 0, "solid_mask": 0}

    def test_mass_conservation_against_boundary_flux(self):
        cfg = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        g = Grid(x0=-0.4, y0=0.0, spacing=0.05, nx=60, ny=30, tau=cfg.tau)
        s = init(AIR, up, g)
        for _ in range(25):
            m0 = total_mass(g, s)
            s, diag = step(AIR, g, s, up, return_diag=True)
            m1 = total_mass(g, s)
            assert m1 - m0 == pytest.approx(diag["boundary_mass_inflow"], rel=1e-10, abs=1e-14)

    def test_moving_normal_shock_speed(self):
        # exact potential-flow shock: upstream (1, 2.0), speed sigma = 0.8
        sigma = 0.8
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        sol = resolve_oblique(AIR, up, (sigma, 0.0), (1.0, 0.0))
        g = flat_grid(nx=400, ny=6, h=0.01)
        x, _ = g.centers()
        s = init(AIR, up, g)
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
        for _ in range(100):
            s = step(AIR, g, s, up, top_bc="outflow")
        p0, t0 = shock_pos(s), s.t
        for _ in range(100):
            s = step(AIR, g, s, up, top_bc="outflow")
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
            s = init(AIR, up, g)
            s.t = 1.0
            right = x >= xs
            s.rho[:, right] = down_rho
            s.vx[:, right] = down_v
            return s

        sa = setup(up_a, sol_a.downstream.v[0], sol_a.downstream.rho, sigma)
        sb = setup(up_b, sol_a.downstream.v[0] + v0, sol_a.downstream.rho, sigma + v0)
        dt = min(stable_dt(AIR, g, sa), stable_dt(AIR, g, sb))
        for _ in range(120):
            sa = step(AIR, g, sa, up_a, dt=dt, top_bc="outflow")
            sb = step(AIR, g, sb, up_b, dt=dt, top_bc="outflow")
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
        g = Grid(x0=-0.6, y0=0.0, spacing=0.04, nx=100, ny=50, tau=cfg.tau)
        s = init(AIR, up, g)
        for _ in range(60):
            s = step(AIR, g, s, up)
        curl = discrete_curl(g, s)
        # quiescent upstream quarter of the box, away from wall and shocks
        sub = curl[30:, :20]
        assert np.max(np.abs(sub)) < 1e-6 * 1.0 / g.spacing


class TestSampling:
    def test_identical_states_zero_defect(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        g = flat_grid()
        s = init(AIR, up, g)
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
            s = init(AIR, up, g)
            s.t = t
            s.rho = 1.0 + 0.3 * np.tanh((x[None, :] / t - 0.9) / 0.2) * np.ones((g.ny, 1))
            return s

        xi = np.linspace(0.3, 1.5, 60)
        yy = np.linspace(0.02, 0.06, 4)
        f1 = sample_self_similar(AIR, g, make(1.0), xi, yy)
        f2 = sample_self_similar(AIR, g, make(1.3), xi, yy)
        assert self_similarity_defect(f1, f2) < 2e-4  # interpolation error only


@pytest.mark.slow
class TestWedgeRunCoarse:
    def test_structure_small_grid(self):
        # 100-cell class run; the full 400-cell criteria live in the acceptance suite
        from wedgeflow.unsteady import (
            predicted_tip_shock_angle,
            probe_stats,
            region_probes,
            tip_shock_angle,
        )

        cfg = UnsteadyConfig(
            problem=ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01),
            grid_n=100,
            t_final=1.0,
        )
        res = run(cfg)
        ang = tip_shock_angle(res)
        assert ang == pytest.approx(predicted_tip_shock_angle(res.pattern), abs=math.radians(4))
        probes = region_probes(res.pattern)
        st = probe_stats(res.sample_final, probes["elliptic"], 0.1)
        assert st["L_mean"] < 1.0
        for name in ("I", "L", "R"):
            st = probe_stats(res.sample_final, probes[name], 0.1)
            assert st["L_mean"] > 1.0
        assert res.defect < 0.05
