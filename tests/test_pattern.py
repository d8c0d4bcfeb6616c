import math
from dataclasses import replace

import numpy as np
import pytest

from shock_oracles import cross2, mp_weak_tilt
from wedgeflow import pattern, shocks
from wedgeflow.gas import FlowState, GasModel
from wedgeflow.pattern import (
    GeometryError,
    ProblemConfig,
    WavePattern,
    _sonic_height,
    _tip_tilt,
    build,
    separation_check,
)
from wedgeflow.shocks import (
    _bracketed_root,
    _energy_inverse,
    _family_ratio,
    _family_spread,
    critical_angle,
    horizontal_downstream_shock,
    sonic_points,
)
from wedgeflow.cli import dispatch

AIR = GasModel(gamma=1.4)
ISO = GasModel(gamma=1.0)

CASE_12 = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)


def assert_pattern_invariants(p: WavePattern):
    eps = p.config.epsilon
    # R state at rest, arc_R centered at the origin
    assert np.allclose(p.state_R.v, 0.0, atol=1e-10)
    assert np.allclose(p.arc_R.center, 0.0)
    # L velocity horizontal with v_L^x <= 0
    assert abs(p.state_L.v[1]) < 1e-9
    assert p.state_L.v[0] <= 1e-12
    # wall-arc endpoints
    assert np.allclose(p.xi_BR, [p.state_R.c, 0.0], atol=1e-14)
    assert np.allclose(p.xi_BL, [p.state_L.v[0] - p.state_L.c, 0.0], atol=1e-9)
    # both shocks admissible and compressive
    assert p.shock_L.lun >= 1.0 and p.shock_R.lun >= 1.0
    assert p.state_L.rho >= p.state_I.rho
    assert p.state_R.rho > p.state_I.rho
    # corners sit exactly on their arcs
    for corner, arc, c in (
        (p.xi_L_star, p.arc_L, p.state_L.c),
        (p.xi_R_star, p.arc_R, p.state_R.c),
    ):
        r = np.hypot(*(corner - arc.center))
        assert abs(r - math.sqrt(1 - eps) * c) < 1e-12 * c
    # arc/shock transversality at the corners
    for shock, angle in ((p.shock_R, p.arc_R.angle_hi), (p.shock_L, p.arc_L.angle_lo)):
        assert abs(cross2(shock.tangent, (-math.sin(angle), math.cos(angle)))) > 1e-3


class TestBuild:
    def test_degenerate_straight_pattern(self):
        cfg = ProblemConfig(model=AIR, MIy=-2.0, epsilon=0.01)
        p = build(cfg)  # eta_L_star defaults to eta_R_star
        assert p.beta == 0.0
        assert p.eta_L_star == pytest.approx(p.eta_R_star, rel=1e-12)
        assert np.allclose(p.state_L.v, p.state_R.v, atol=1e-12)
        assert p.state_L.rho == pytest.approx(p.state_R.rho, rel=1e-12)
        assert not math.isfinite(p.wall_speed)
        assert_pattern_invariants(p)

    def test_case_12_invariants(self):
        p = build(CASE_12)
        assert_pattern_invariants(p)
        assert p.mach_L > 1.0
        assert p.mach_R > 1.0
        assert 0 < p.eta_L_star < p.eta_R_star
        # tilted shock is strictly stronger than the horizontal one
        assert p.state_L.rho > p.state_R.rho

    def test_tau_round_trip(self):
        p = build(CASE_12)
        assert p.tau == pytest.approx(math.radians(10.0), abs=1e-8)
        assert p.M_I == pytest.approx(2.94, abs=1e-8)
        # rebuild in standard form and convert back
        cfg2 = ProblemConfig(
            model=AIR, MIy=p.config.miy, eta_L_star=p.eta_L_star, epsilon=0.01
        )
        p2 = build(cfg2)
        assert p2.tau == pytest.approx(math.radians(10.0), abs=1e-8)
        assert p2.beta == pytest.approx(p.beta, abs=1e-10)

    @pytest.mark.parametrize("gamma", [1.0, 1.4])
    def test_eta_sweep_no_gaps(self, gamma):
        model = GasModel(gamma=gamma)
        cfg = ProblemConfig(model=model, MIy=-2.0, epsilon=0.01)
        eta_R, _ = horizontal_downstream_shock(model, cfg.upstream(), 0.0)
        betas = []
        for eta in np.linspace(0.05 * eta_R, eta_R, 40):
            p = build(
                ProblemConfig(model=model, MIy=-2.0, eta_L_star=float(eta), epsilon=0.01)
            )
            assert p.eta_L_star == pytest.approx(eta, abs=1e-9)
            betas.append(p.beta)
        assert np.all(np.diff(betas) < 0)  # tilt decreases toward the straight shock

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 5.0 / 3.0, 3.0])
    @pytest.mark.parametrize("miy", [-2.0, -1.2])
    def test_closed_form_sonic_height_meets_the_built_member(self, gamma, miy):
        # the tilt solve's objective in u against the sonic point of the shock
        # that the family solve resolves at the same tilt: 50 tilts evenly
        # over [0, top], each reached at the t whose family spread is
        # m^2 tan^2 b, and the bracket's end t_top = sqrt(d_top), past top
        model = GasModel(gamma=gamma)
        cfg = ProblemConfig(model=model, MIy=miy, epsilon=0.01)
        up = cfg.upstream()
        u_R = _family_ratio(gamma, -miy)
        eta_R, shock_R = horizontal_downstream_shock(model, up, 0.0)
        ldn2 = shock_R.ldn**2
        top = math.atan2(shock_R.ldn, math.sqrt(1.0 - 0.01 - ldn2))
        spread_top = miy**2 * ldn2 / (1.0 - 0.01 - ldn2)
        t_top = math.sqrt(
            _energy_inverse(gamma, spread_top / (2.0 * math.exp((gamma - 1.0) * u_R) * math.tanh(0.5 * u_R)))
        )
        ts = [
            _bracketed_root(
                lambda t, b=b: _family_spread(gamma, u_R, t * t) - (miy * math.tan(b)) ** 2, 0.0, t_top, xtol=0.0
            )
            for b in np.linspace(0.0, top, 50)
        ]
        for t in [*ts, t_top]:
            height, _, cos_b, sin_b = _sonic_height(cfg, up, u_R, float(t))
            beta = math.atan2(sin_b, cos_b)
            point = sonic_points(horizontal_downstream_shock(model, up, beta)[1], 0.01)[0]
            assert abs(height - point[1]) <= 1e-14 * eta_R
        assert beta > top  # the tilt bracket spans [0, top]

    def test_slow_wedge_pair_builds(self):
        # below the 4.19 degree critical angle of M_I = 1.2
        p = build(ProblemConfig(model=AIR, M_I=1.2, tau=math.radians(3.0), epsilon=0.01))
        assert p.beta == pytest.approx(1.0642440684652414, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 5.0 / 3.0, 3.0])
    def test_tilt_meets_the_tip_incidence_relation(self, gamma):
        # the weak steady tip shock's tilt b satisfies
        # eta_0(b) = M_I c_I cos(tau) tan(b) of the horizontal-downstream family
        model = GasModel(gamma=gamma)
        for mach in (1.05, 1.2, 1.5, 2.0, 2.94, 5.0):
            tau_star = critical_angle(model, FlowState.from_model(model, 1.0, (mach, 0.0)))
            for frac in np.linspace(0.02, 0.98, 25):
                cfg = ProblemConfig(model=model, M_I=mach, tau=float(frac * tau_star), epsilon=0.01)
                _, cos_b, sin_b = _tip_tilt(cfg)
                beta = math.atan2(sin_b, cos_b)
                assert beta > 0.0
                eta0, _ = horizontal_downstream_shock(model, cfg.upstream(), beta)
                gap = eta0 - mach * math.cos(cfg.tau) * math.tan(beta)
                assert abs(gap) <= 1e-12 * mach, (mach, frac)

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 5.0 / 3.0, 3.0])
    @pytest.mark.parametrize("mach", [1.05, 1.5, 2.94, 5.0, 10.0])
    def test_tip_tilt_matches_high_precision_reference(self, gamma, mach):
        # at half the critical angle; at gamma 1, M_I 10 the tilt is 1.4e-11 rad
        model = GasModel(gamma=gamma)
        tau = 0.5 * critical_angle(model, FlowState.from_model(model, 1.0, (mach, 0.0)))
        _, cos_b, sin_b = _tip_tilt(ProblemConfig(model=model, M_I=mach, tau=tau, epsilon=0.01))
        assert float(abs(math.atan2(sin_b, cos_b) / mp_weak_tilt(gamma, mach, tau) - 1)) <= 4e-15

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 5.0 / 3.0, 3.0])
    @pytest.mark.parametrize("miy", [-0.3, -1.2, -2.0, -4.0, -8.0])
    def test_eta_L_star_on_target(self, gamma, miy):
        # both ends of the tilt range: 1e-6 eta_R above the wall, and 1e-12
        # eta_R below the straight shock, where the tilt is ~1e-12 rad; at
        # gamma 1, M_I_y -8 eta_R is 1e-13 c_I
        model = GasModel(gamma=gamma)
        eta_R, _ = horizontal_downstream_shock(model, ProblemConfig(model=model, MIy=miy).upstream(), 0.0)
        ends = [1e-6, 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
        for frac in np.concatenate([ends, np.linspace(0.01, 0.99, 50)]):
            cfg = ProblemConfig(model=model, MIy=miy, eta_L_star=float(frac * eta_R), epsilon=0.01)
            p = build(cfg, validate_supersonic=False)
            assert abs(p.eta_L_star - frac * eta_R) <= 1e-14 * eta_R, frac

    def test_one_root_per_build(self, monkeypatch):
        # every root of a build and the objective evaluations it takes: an
        # eta_L_star build solves the R member and the tilt (2 roots, 18.2
        # evaluations on average here), a wedge build also the steady polar's
        # normal shock, largest deflection and weak root (4 roots, 35.4, and
        # one slope evaluation that splits the largest deflection's bracket);
        # with the tilt as an outer root over nested shock solves, about 92
        # and 205
        count = {"roots": 0, "evals": 0}
        solve = shocks._bracketed_root

        def counted(f, a, b, xtol):
            count["roots"] += 1

            def g(x):
                count["evals"] += 1
                return f(x)

            return solve(g, a, b, xtol)

        monkeypatch.setattr(shocks, "_bracketed_root", counted)
        monkeypatch.setattr(pattern, "_bracketed_root", counted)
        eta_R, _ = horizontal_downstream_shock(AIR, ProblemConfig(model=AIR, MIy=-2.0).upstream(), 0.0)
        count.update(roots=0, evals=0)
        targets = np.linspace(0.001, 0.999, 200) * eta_R
        for eta in targets:
            build(ProblemConfig(model=AIR, MIy=-2.0, eta_L_star=float(eta), epsilon=0.01), validate_supersonic=False)
        assert count["roots"] == 2 * len(targets)
        assert count["evals"] <= 19 * len(targets)
        count.update(roots=0, evals=0)
        taus = np.arange(2, 81) * 0.5
        for tau in taus:
            build(ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(tau), epsilon=0.01))
        assert count["roots"] == 4 * len(taus)
        assert count["evals"] <= 36 * len(taus)

    def test_wedge_pair_needs_the_mach_number(self):
        # M_I_y poses the standard picture; any part of the wedge pair next
        # to it is a second parameterization of the same upstream state
        for pair in ({"tau": 0.1}, {"M_I": 3.0}, {"M_I": 3.0, "tau": 0.1}):
            with pytest.raises(ValueError, match=r"MIy and the wedge pair \(M_I, tau\)"):
                ProblemConfig(model=AIR, MIy=-2.0, **pair)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"MIy": -2.0, "epsilon": 0.3}, r"epsilon must lie in \[0, 0\.25\], got 0\.3"),
            ({"MIy": -2.0, "epsilon": -0.01}, r"epsilon must lie in \[0, 0\.25\], got -0\.01"),
            ({}, r"either MIy or the pair \(M_I, tau\) is required"),
            ({"M_I": 2.94}, r"either MIy or the pair \(M_I, tau\) is required"),
            ({"MIy": 0.0}, "MIy must be negative .*got 0.0"),
            ({"M_I": 2.94, "tau": 0.0}, r"tau must lie in \(0, pi/2\), got 0\.0"),
            ({"M_I": 2.94, "tau": 0.5 * math.pi}, r"tau must lie in \(0, pi/2\), got 1\.57"),
            ({"M_I": 1.0, "tau": 0.1}, "M_I must exceed 1, got 1.0"),
        ],
    )
    def test_config_out_of_range_rejected(self, kwargs, message):
        # the command line checks these first; a library caller meets them here
        with pytest.raises(ValueError, match=message):
            ProblemConfig(model=AIR, **kwargs)

    def test_upstream_state_is_the_gas_reference_state(self):
        model = GasModel(gamma=1.4, rho0=2.0, c0=1.5)
        p = build(ProblemConfig(model=model, M_I=2.94, tau=math.radians(10.0), epsilon=0.01))
        assert p.state_I.rho == 2.0
        assert p.state_I.c == 1.5
        assert p.config.upstream_original().v.tolist() == [2.94 * 1.5, 0.0]
        assert p.M_I == pytest.approx(2.94, rel=1e-12)
        assert p.tau == pytest.approx(math.radians(10.0), rel=1e-12)

    def test_eta_L_star_with_the_wedge_pair_rejected(self):
        # the wedge pair fixes the L shock as its tip shock; eta_L_star would
        # pick another member and so another wedge
        with pytest.raises(ValueError, match="eta_L_star and the wedge pair"):
            ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), eta_L_star=0.1)

    def test_invalid_eta_rejected(self):
        with pytest.raises(GeometryError):
            build(ProblemConfig(model=AIR, MIy=-2.0, eta_L_star=-0.1))
        cfg = ProblemConfig(model=AIR, MIy=-2.0)
        eta_R, _ = horizontal_downstream_shock(AIR, cfg.upstream(), 0.0)
        with pytest.raises(GeometryError):
            build(ProblemConfig(model=AIR, MIy=-2.0, eta_L_star=1.5 * eta_R))


def eta_L_cross(config: ProblemConfig) -> float:
    """Largest eta_L_star at which the corner chord touches the upstream disk.

    Returns 0 when the separation condition holds for every
    eta_L_star in (0, eta_R_star].  The distance decreases as eta_L_star
    decreases, which the bisection verifies on its trace.
    """
    base = replace(config, eta_L_star=None, M_I=None, tau=None, MIy=config.miy)
    upstream = base.upstream()
    eta_R_star, _ = horizontal_downstream_shock(base.model, upstream, 0.0)

    def sep(eta):
        return separation_check(build(replace(base, eta_L_star=eta), validate_supersonic=False))

    floor = 1e-7 * eta_R_star
    if sep(floor) > 0.0:
        return 0.0
    lo, hi = floor, eta_R_star
    trace = []
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s = sep(mid)
        trace.append((mid, s))
        if s > 0.0:
            hi = mid
        else:
            lo = mid
    # monotone claim along the trace: larger eta_L_star, larger distance
    pts = sorted(trace)
    vals = [s for _, s in pts]
    if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
        raise ArithmeticError("separation distance not monotone along bisection trace")
    return 0.5 * (lo + hi)


class TestSeparation:
    def test_fast_upstream_always_separated(self):
        cfg = ProblemConfig(model=AIR, MIy=-2.0, epsilon=0.01)
        eta_R, _ = horizontal_downstream_shock(AIR, cfg.upstream(), 0.0)
        for eta in np.linspace(0.02 * eta_R, eta_R, 25):
            p = build(ProblemConfig(model=AIR, MIy=-2.0, eta_L_star=float(eta), epsilon=0.01))
            assert separation_check(p) > 0.0

    def test_straight_pattern_separated(self):
        p = build(ProblemConfig(model=AIR, MIy=-0.3, epsilon=0.01))
        assert separation_check(p) > 0.0

    def test_eta_L_cross_fast_flow(self):
        assert eta_L_cross(ProblemConfig(model=AIR, MIy=-2.0, epsilon=0.01)) == 0.0

    def test_eta_L_cross_slow_flow(self):
        cfg = ProblemConfig(model=AIR, MIy=-0.3, epsilon=0.01)
        eta_x = eta_L_cross(cfg)
        assert eta_x > 0.0
        lo = build(
            ProblemConfig(model=AIR, MIy=-0.3, eta_L_star=eta_x - 1e-6, epsilon=0.01),
            validate_supersonic=False,
        )
        hi = build(
            ProblemConfig(model=AIR, MIy=-0.3, eta_L_star=eta_x + 1e-6, epsilon=0.01),
            validate_supersonic=False,
        )
        assert separation_check(lo) < 0.0 < separation_check(hi)

    def test_case_12_separated(self):
        assert separation_check(build(CASE_12)) > 0.0


class TestPictures:
    def test_original_picture_structure(self):
        p = build(CASE_12)
        v_I = p.to_original(p.state_I.v)
        assert v_I[1] == pytest.approx(0.0, abs=1e-9)
        assert v_I[0] == pytest.approx(2.94, abs=1e-9)
        assert np.allclose(p.to_original([-p.wall_speed, 0.0]), 0.0, atol=1e-9)
        # tip shock passes through the origin in the original picture; a
        # direction maps as the difference of two mapped points
        sp = p.to_original(p.shock_L.point)
        sd = p.to_original(p.shock_L.point + p.shock_L.tangent) - sp
        assert abs(cross2(sp, sd)) < 1e-9

    def test_galilean_invariance_of_state_data(self):
        p = build(CASE_12)
        # |v - xi| is preserved by the combined shift of points and velocities
        xi = np.array([0.2, 0.4])
        z = p.state_I.v - xi
        z2 = p.to_original(p.state_I.v) - p.to_original(xi)
        assert np.hypot(*z) == pytest.approx(np.hypot(*z2), rel=1e-13)


def test_export_csv(tmp_path, capsys):
    # the pattern file of `wedge pattern` on CASE_12
    cfg = tmp_path / "wedge.cfg"
    cfg.write_text("gamma = 1.4\nM_I = 2.94\ntau_deg = 10\nepsilon = 0.01\n")
    assert dispatch(["pattern", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "pattern.csv").read_text().strip().splitlines()
    assert lines[0].startswith("entity")
    kinds = {ln.split(",")[0] for ln in lines[1:]}
    assert {"state_I", "shock_L", "arc_R", "wall", "corner_L"} <= kinds
