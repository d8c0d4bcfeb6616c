"""Acceptance suite: one test per acceptance criterion, each at its stated
tolerance, printing one PASS/FAIL line (run with -s to see them live)."""

import math
import time

import numpy as np
import pytest

from elliptic_oracles import bumped
from shock_oracles import (
    corner_sensitivity,
    corner_sensitivity_fd,
    downstream_normal_mach,
    g_value,
    jump_state,
    sensitivities,
)
from wedgeflow.gas import GasModel, FlowState
from wedgeflow.pattern import ProblemConfig, build
from wedgeflow.shocks import (
    critical_angle,
    deflection_solutions,
    horizontal_downstream_shock,
    shock_polar,
)
from wedgeflow.elliptic import EllipticConfig, Lattice, chord_shock, iterate
from wedgeflow import diagnostics as diag
from wedgeflow.unsteady import (
    predicted_tip_shock_angle,
    probe_stats,
    region_probes,
    tip_shock_angle,
)

AIR = GasModel(gamma=1.4)
ISO = GasModel(gamma=1.0)
GAMMAS = [1.0, 1.4, 5 / 3, 3.0]
CASE12 = dict(model=AIR, M_I=2.94, tau=math.radians(10.0))


def report(name: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_solutions():
    """Converged gamma = 1.4 desk solutions for eps in {0.04, 0.01, 0.0025}."""
    out = {}
    for eps in (0.04, 0.01, 0.0025):
        pat = build(ProblemConfig(epsilon=eps, **CASE12))
        out[eps] = iterate(pat, EllipticConfig(lattice_n=64))
    return out


def test_criterion_shock_algebra_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_g, worst_inv, worst_flux = 0.0, 0.0, 0.0
    for _ in range(200):
        gamma = GAMMAS[rng.integers(0, 4)]
        lun = float(rng.uniform(1.0001, 10.0))
        ldn = downstream_normal_mach(gamma, lun)
        worst_g = max(worst_g, abs(g_value(gamma, lun) - g_value(gamma, ldn)) / g_value(gamma, lun))
        worst_inv = max(worst_inv, abs(downstream_normal_mach(gamma, ldn) - lun))
        model = GasModel(gamma=gamma)
        rho_d, c_d = jump_state(model, 1.0, 1.0, lun)
        worst_flux = max(worst_flux, abs(rho_d * ldn * c_d - lun) / lun)
    elapsed = time.perf_counter() - t0
    ok = worst_g < 1e-10 and worst_inv < 1e-8 and worst_flux < 1e-10 and elapsed < 1.0
    report(
        "shock-algebra exactness (200 random states)",
        ok,
        f"g-residual {worst_g:.2e} < 1e-10, self-inverse {worst_inv:.2e} < 1e-8, "
        f"mass-flux {worst_flux:.2e} < 1e-10, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_sensitivity_formulas():
    t0 = time.perf_counter()
    # normal-shock derivative formulas vs central finite differences
    states = [(g, l) for g in GAMMAS for l in (1.5, 3.0, 7.0)][:10]
    worst_dldn, worst_dzdn = 0.0, 0.0
    strict_ok = True
    h = 1e-5
    for gamma, lun in states:
        s = sensitivities(gamma, lun)
        fd_ldn = (downstream_normal_mach(gamma, lun + h) - downstream_normal_mach(gamma, lun - h)) / (2 * h)
        worst_dldn = max(worst_dldn, abs(s.dldn_dlun / fd_ldn - 1.0))
        model = GasModel(gamma=gamma)

        def zdn(l_u):
            ldn = downstream_normal_mach(gamma, l_u)
            _, c_d = jump_state(model, 1.0, 1.0, l_u)
            return ldn * c_d

        fd_zdn = (zdn(lun + h) - zdn(lun - h)) / (2 * h)
        if abs(fd_zdn) > 1e-8:
            worst_dzdn = max(worst_dzdn, abs(s.dzdn_dzun / fd_zdn - 1.0))
        else:
            worst_dzdn = max(worst_dzdn, abs(s.dzdn_dzun - fd_zdn))
        bound = (gamma - 1.0) / (gamma + 1.0)
        zu_over_zd = lun / zdn(lun)
        strict_ok &= zu_over_zd * s.dzdn_dzun < bound  # (2.4.16)
        strict_ok &= s.dvdn_dsigma > 2.0 / (gamma + 1.0) > 0.0  # (2.4.19)

    # corner-slide formulas vs the direct parameterization at tiny eps
    corner_states = [
        (g, miy) for g in (1.4, 5 / 3, 2.0, 3.0) for miy in (-1.2, -1.8, -2.5)
    ][:10]
    worst_corner = 0.0
    for gamma, miy in corner_states:
        pat = build(ProblemConfig(model=GasModel(gamma=gamma), MIy=miy, epsilon=1e-6))
        cs = corner_sensitivity(pat)
        fd = corner_sensitivity_fd(pat)
        worst_corner = max(
            worst_corner,
            abs(cs.dvdy_domega / fd["dvdy_domega"] - 1.0),
            abs(cs.p_omega / fd["p_omega"] - 1.0),
            abs(cs.k_omega / fd["k_omega"] - 1.0),
        )
        strict_ok &= cs.dvdy_positive  # (4.9.8)
        strict_ok &= cs.bound_check  # (4.9.18)
    elapsed = time.perf_counter() - t0
    ok = worst_dldn < 1e-5 and worst_dzdn < 1e-5 and worst_corner < 1e-5 and strict_ok and elapsed < 10.0
    report(
        "sensitivity formulas vs finite differences",
        ok,
        f"dLdn {worst_dldn:.2e}, dzdn {worst_dzdn:.2e}, corner {worst_corner:.2e} "
        f"(all < 1e-5), strict inequalities {strict_ok}, runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_polar_structure():
    up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
    samples = shock_polar(AIR, up, 10001)
    betas = np.array([s.beta for s in samples])
    rho = np.array([s.rho_d for s in samples])
    L = np.array([s.L_d for s in samples])
    zmag = np.array([np.hypot(*s.downstream_v) for s in samples])
    half = betas >= 0.0
    mono = (
        bool(np.all(np.diff(rho[half]) < 1e-12))
        and bool(np.all(np.diff(L[half]) > -1e-12))
        and bool(np.all(np.diff(zmag[half]) > -1e-12))
    )
    sols = deflection_solutions(AIR, up, math.radians(10.0))
    structure = sols is not None and sols.weak_supersonic and not sols.strong_supersonic
    tau_star = critical_angle(AIR, up)
    flip = (
        deflection_solutions(AIR, up, tau_star - 1e-10) is not None
        and deflection_solutions(AIR, up, tau_star + 1e-10) is None
    )
    ok = mono and structure and flip
    report(
        "polar structure (10^4-point grid, deflection pair, critical bracketing)",
        ok,
        f"monotone {mono}, weak supersonic + strong subsonic {structure}, "
        f"count flip within 1e-10 rad {flip}",
    )


def test_criterion_corner_family_solver():
    model = AIR
    up = FlowState.from_model(model, 1.0, (0.0, -2.0))
    worst_vdy = 0.0
    etas = []
    betas = np.linspace(0.0, 1.1, 23)
    for b in betas:
        eta0, sol = horizontal_downstream_shock(model, up, float(b))
        worst_vdy = max(worst_vdy, abs(float(sol.downstream.v[1])))
        etas.append(eta0)
    mono = bool(np.all(np.diff(etas) > 0.0))

    cfg = ProblemConfig(model=model, MIy=-2.0, epsilon=0.01)
    eta_r, _ = horizontal_downstream_shock(model, cfg.upstream(), 0.0)
    targets = np.linspace(eta_r / 1000.0, eta_r, 1000)
    hint = None
    worst_gap = 0.0
    for eta in targets[::-1]:
        pat = build(
            ProblemConfig(model=model, MIy=-2.0, eta_L_star=float(eta), epsilon=0.01),
            validate_supersonic=False,
            beta_hint=hint,
        )
        hint = pat.beta
        worst_gap = max(worst_gap, abs(pat.eta_L_star - eta))
    ok = worst_vdy < 1e-10 * 1.0 and mono and worst_gap < 1e-8 * eta_r
    report(
        "horizontal-downstream shock family",
        ok,
        f"|v_d^y| {worst_vdy:.2e} < 1e-10 c_I, eta_0 monotone {mono}, "
        f"eta_L* sweep of 1000 targets covered with max gap {worst_gap:.2e}",
    )


@pytest.mark.slow
def test_criterion_unsteady_run(desk_march_100, desk_march_200, desk_march):
    t0 = time.perf_counter()
    # the desk runs at grid_n 100, 200 and 400, each timed by its fixture
    runs = {100: desk_march_100, 200: desk_march_200, 400: desk_march}
    defects = {n: r.defect for n, (r, _) in runs.items()}
    march_s = sum(s for _, s in runs.values())
    res = desk_march[0]
    ang = tip_shock_angle(res)
    pred = predicted_tip_shock_angle(res.pattern)
    angle_ok = abs(ang - pred) < math.radians(2.0)

    probes = region_probes(res.pattern)
    stats = {k: probe_stats(res.sample_final, c, 0.1) for k, c in probes.items()}
    st_L = stats["L"]
    # downstream-of-tip probe: steady and pseudo Mach numbers both supersonic
    f = res.sample_final
    mask = (
        f.valid
        & (np.abs(f.xi_x[None, :] - probes["L"][0]) <= 0.1)
        & (np.abs(f.xi_y[:, None] - probes["L"][1]) <= 0.1)
    )
    c_snd = np.asarray(AIR.sound_speed(f.rho[mask]))
    mach_L = float(np.mean(np.hypot(f.vx[mask], f.vy[mask]) / c_snd))
    supersonic_ok = mach_L > 1.0 and st_L["L_mean"] > 1.0

    variation_ok = all(
        stats[k]["rho_std"] < 0.01 * stats[k]["rho_mean"] for k in ("I", "L", "R")
    )
    defect_ok = defects[400] < 0.05 and defects[100] > defects[200] > defects[400]
    elliptic_ok = stats["elliptic"]["L_mean"] < 1.0
    elapsed = time.perf_counter() - t0 + march_s
    ok = angle_ok and supersonic_ok and variation_ok and defect_ok and elliptic_ok and elapsed < 600.0
    report(
        "unsteady wedge run (M_I=2.94, tau=10deg, 400^2 class)",
        ok,
        f"tip angle {math.degrees(ang):.2f} vs weak prediction {math.degrees(pred):.2f} "
        f"(|diff| < 2deg: {angle_ok}); tip-downstream M={mach_L:.2f}, L={st_L['L_mean']:.2f} "
        f"supersonic {supersonic_ok}; region variation < 1% {variation_ok}; "
        f"defect {defects[400]:.4f} < 5% and decreasing {sorted(defects.values(), reverse=True) == [defects[100], defects[200], defects[400]]}; "
        f"runtime {elapsed:.0f}s < 600s",
    )


@pytest.mark.slow
def test_tip_angle_refinement_study(desk_march_100, desk_march_200, desk_march):
    """Grid refinement of the marched tip-shock angle (Roache, J. Fluids Eng.
    116 (1994) 405-413): the error against the weak-shock angle falls at each
    refinement with observed order at least 1, and the Richardson limit lies
    within the grid-convergence band 1.25 |A_400 - A_lim| of the weak-shock
    angle, with the strong-shock angle outside it."""
    a100, a200, a400 = (tip_shock_angle(r) for r, _ in (desk_march_100, desk_march_200, desk_march))
    pattern = desk_march[0].pattern
    weak = predicted_tip_shock_angle(pattern)
    cfg = pattern.config
    t = deflection_solutions(cfg.model, cfg.upstream_original(), cfg.tau).strong.tangent
    strong = math.atan2(abs(t[1]), abs(t[0]))
    errors = [abs(a - weak) for a in (a100, a200, a400)]
    ratio = (a100 - a200) / (a200 - a400)
    order = math.log2(ratio) if ratio > 0.0 else math.nan
    limit = a400 + (a400 - a200) / (2.0**order - 1.0)
    band = 1.25 * abs(a400 - limit)
    falls = errors[0] > errors[1] > errors[2]
    ok = falls and order >= 1.0 and abs(limit - weak) <= band < abs(limit - strong)
    report(
        "tip-angle refinement study (grid_n 100, 200, 400)",
        ok,
        f"angles {math.degrees(a100):.3f}, {math.degrees(a200):.3f}, {math.degrees(a400):.3f}deg, "
        f"error falls {falls}; order {order:.2f} >= 1; limit {math.degrees(limit):.3f}deg, "
        f"band {math.degrees(band):.3f}deg around it holds weak {math.degrees(weak):.3f}deg, "
        f"not strong {math.degrees(strong):.1f}deg",
    )


def test_criterion_elliptic_fixed_point(desk_solutions):
    # uniqueness echo: the straight-shock case returns from a 1% bump
    pat0 = build(ProblemConfig(model=ISO, MIy=-2.0, epsilon=0.04))
    shock0 = bumped(chord_shock(pat0, Lattice(32)), 0.01 * pat0.state_R.c)
    sol0 = iterate(pat0, EllipticConfig(lattice_n=32), shock0=shock0)
    recover = float(np.max(np.abs(sol0.mapping.shock.s - pat0.eta_R_star)))
    unpert_ok = sol0.converged and recover < 1e-6

    details = [f"unperturbed recovery {recover:.2e} < 1e-6"]
    desk_ok = True
    for eps in (0.04, 0.01):
        sol = desk_solutions[eps]
        pat = sol.pattern
        rec = sol.residual_history[-1]
        conv = sol.converged and rec["combined"] < 1e-6
        ell = diag.ellipticity_report(sol)[0]
        f = sol.fields()
        rho_ok = float(np.min(f["rho"])) > pat.state_I.rho
        c_r = pat.state_R.c
        corners_ok = (
            float(np.hypot(*(sol.corner_L - pat.xi_L_star))) < 3 * math.sqrt(eps) * c_r
            and float(np.hypot(*(sol.corner_R - pat.xi_R_star))) < 3 * math.sqrt(eps) * c_r
        )
        vel_checks = diag.velocity_and_normal_ranges(sol)
        vel_ok = all(c.passed for c in vel_checks)
        dens_checks = diag.density_extrema(sol)
        names = {c.name: c.passed for c in dens_checks}
        dens_ok = names.get("global_density_min_pseudo_normal", False) and names.get(
            "no_interior_or_wall_density_minima", False
        )
        desk_ok &= conv and ell.passed and rho_ok and corners_ok and vel_ok and dens_ok
        details.append(
            f"eps={eps}: residual {rec['combined']:.1e} < 1e-6 ({conv}), L2 bound {ell.passed}, "
            f"min rho > rho_I {rho_ok}, corners < 3 sqrt(eps) c_R {corners_ok}, "
            f"velocity/normal windows {vel_ok}, density min pseudo-normal {dens_ok}"
        )
    report("elliptic fixed point (straight-shock recovery + desk case)", unpert_ok and desk_ok,
           "; ".join(details))


def test_criterion_weak_residual_scaling(desk_solutions):
    eps_list = [0.04, 0.01, 0.0025]
    battery = diag.make_test_battery(desk_solutions[0.01].pattern)
    vals = []
    for eps in eps_list:
        wr = diag.weak_residual(desk_solutions[eps], bumps=battery)
        vals.append(wr["max"])
    slope = float(np.polyfit(np.log(eps_list), np.log(vals), 1)[0])
    ok = 0.3 <= slope <= 0.7
    report(
        "weak-residual scaling over eps",
        ok,
        f"residuals {['%.5f' % v for v in vals]} for eps {eps_list}, "
        f"log-log slope {slope:.3f} in [0.3, 0.7]",
    )


def test_criterion_arc_ode_suite(desk_solutions):
    from scipy.optimize import brentq as _brentq

    # stationary point: analytic at eps = 0, numeric at eps = 0.01
    r = desk_solutions[0.01].pattern.arc_R.radius
    _, _, _, h0_eps0, _ = diag.arc_ode_constants(1.4, 0.0, r)
    analytic_ok = abs(h0_eps0 - r * r) < 1e-12
    _, _, _, h0, _ = diag.arc_ode_constants(1.4, 0.01, r)
    root = _brentq(lambda h: diag.arc_rhs_f(1.4, 0.01, r, h, 0.0), 0.5 * r * r, 2.0 * r * r,
                   xtol=1e-15)
    numeric_ok = abs(root / h0 - 1.0) < 1e-12

    sector_ok = True
    chi_t = {}
    for eps in (0.04, 0.01):
        sol = desk_solutions[eps]
        worst = 0.0
        for side in ("L", "R"):
            profile, checks = diag.arc_profile(sol, side)
            by = {c.name.split("_", 1)[1]: c.passed for c in checks}
            sector_ok &= by["sector_exclusion"]
            worst = max(worst, profile.chi_t_over_c_max)
        chi_t[eps] = worst
    slope = (math.log(chi_t[0.04]) - math.log(chi_t[0.01])) / (
        math.log(math.sqrt(0.04)) - math.log(math.sqrt(0.01))
    )
    slope_ok = 0.3 <= slope <= 3.0
    ok = analytic_ok and numeric_ok and sector_ok and slope_ok
    report(
        "arc ODE suite",
        ok,
        f"stationary point analytic {analytic_ok} / numeric to 1e-12 {numeric_ok}, "
        f"sector exclusion {sector_ok}, max|chi_t|/c vs sqrt(eps) slope {slope:.2f} in [0.3, 3]",
    )
