import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wedgeflow.gas import (
    GasModel,
    FlowState,
    SelfSimilarPoint,
    constant_state_potential,
    density_sound_pseudo_mach,
)
from wedgeflow.shocks import (
    SONIC_WINDOW,
    InadmissibleShock,
    NoAttachedShock,
    NoPolarError,
    NoSonicIntersection,
    ShockSolveError,
    WrongSideError,
    critical_angle,
    deflection_solutions,
    downstream_normal_mach,
    g_prime,
    g_value,
    horizontal_downstream_shock,
    jump_state,
    polar_beta_max,
    resolve_oblique,
    sensitivities,
    shock_polar,
    sonic_points,
)

AIR = GasModel(gamma=1.4)
ISO = GasModel(gamma=1.0)
GAMMAS = [1.0, 1.4, 5 / 3, 3.0]

# frozen oracles (mpmath, 40 digits): root of g on the nontrivial branch
LDN_AIR_2 = 0.3722444862027500950233
LDN_ISO_2 = 0.2816196106934203835420
RHO_D_AIR_2 = 4.0597700475458147365410
ETA0_ISO = 0.1996786402577338339164


def bisect_oracle(f, lo, hi, n=200):
    """Plain bisection, kept independent of the library root finders."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestGFunction:
    def test_trivial_values(self):
        assert g_value(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert g_value(1.4, 1.0) == pytest.approx(6.0, rel=1e-15)

    def test_direct_value(self):
        # 9 * 2^(-1/3), high-precision direct evaluation
        assert g_value(1.4, 2.0) == pytest.approx(7.143304733856897636, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            g_value(1.4, 0.0)
        with pytest.raises(ValueError):
            g_value(1.4, -0.5)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_derivative_matches_finite_difference(self, gamma):
        for x in (0.3, 0.9, 1.5, 4.0):
            h = 1e-6 * x
            fd = (g_value(gamma, x + h) - g_value(gamma, x - h)) / (2 * h)
            assert g_prime(gamma, x) == pytest.approx(fd, rel=1e-8)


class TestDownstreamNormalMach:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_sonic_fixed_point(self, gamma):
        assert downstream_normal_mach(gamma, 1.0) == 1.0

    def test_air_value_vs_prescan_oracle(self):
        target = g_value(1.4, 2.0)
        # independent oracle: grid pre-scan for the sign change, then bisection
        ys = np.linspace(1e-3, 1 - 1e-9, 2000)
        vals = g_value(1.4, ys) - target
        k = int(np.argmax(vals[:-1] * vals[1:] <= 0))
        ref = bisect_oracle(lambda y: g_value(1.4, y) - target, ys[k], ys[k + 1])
        assert ref == pytest.approx(LDN_AIR_2, abs=1e-12)
        assert downstream_normal_mach(1.4, 2.0) == pytest.approx(ref, abs=1e-12)

    def test_isothermal_value(self):
        target = g_value(1.0, 2.0)  # 4 - 2 log 2
        ref = bisect_oracle(lambda y: g_value(1.0, y) - target, 1e-6, 0.999)
        assert ref == pytest.approx(LDN_ISO_2, abs=1e-12)
        assert downstream_normal_mach(1.0, 2.0) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_self_inverse_and_g_residual(self, gamma):
        rng = np.random.default_rng(42)
        for lun in rng.uniform(1.0001, 10.0, 50):
            ldn = downstream_normal_mach(gamma, lun)
            assert 0 < ldn < 1
            assert abs(g_value(gamma, lun) - g_value(gamma, ldn)) < 1e-10 * g_value(gamma, lun)
            assert abs(downstream_normal_mach(gamma, ldn) - lun) < 1e-8

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_strictly_decreasing(self, gamma):
        lun = np.linspace(1.001, 8.0, 60)
        ldn = np.array([downstream_normal_mach(gamma, x) for x in lun])
        assert np.all(np.diff(ldn) < 0)

    @pytest.mark.parametrize("gamma", [1.4, 5 / 3, 3.0])
    def test_large_lun_asymptotic_trend(self, gamma):
        # L_dn ~ L_un^(-2/(gamma-1)): the compensated ratio drifts < 20% per decade
        ratios = []
        for lun in (10.0, 100.0, 1000.0):
            ldn = downstream_normal_mach(gamma, lun)
            ratios.append(ldn * lun ** (2.0 / (gamma - 1.0)))
        for a, b in zip(ratios, ratios[1:]):
            assert abs(b / a - 1.0) < 0.2

    def test_isothermal_strong_shock_asymptotic(self):
        # L_dn ~ exp(-L_un^2/2) up to the subleading ln(L_un) correction:
        # the invariant match gives ln L_dn = -L_un^2/2 + ln L_un + O(L_dn^2)
        for lun in (6.0, 10.0):
            ldn = downstream_normal_mach(1.0, lun)
            assert abs(math.log(ldn) - (-0.5 * lun**2 + math.log(lun))) < 1e-6

    def test_continuous_in_gamma_at_one(self):
        # the invariant's level sets converge as gamma -> 1 even though the
        # invariant itself diverges
        a = downstream_normal_mach(1.0, 2.0)
        b = downstream_normal_mach(1.0 + 1e-9, 2.0)
        assert abs(a - b) < 1e-8

    def test_near_sonic_tangent(self):
        for lun in (1 + 1e-10, 1 - 1e-10, 1 + 5e-10):
            assert downstream_normal_mach(1.4, lun) == pytest.approx(2.0 - lun, abs=1e-13)

    @pytest.mark.parametrize("gamma", [5.0, 10.0])
    def test_gamma_above_4_22(self, gamma):
        # g(1e-250) overflows once gamma > 4.22
        ldn = downstream_normal_mach(gamma, 2.0)
        assert abs(g_value(gamma, 2.0) - g_value(gamma, ldn)) < 1e-10 * g_value(gamma, 2.0)
        assert abs(downstream_normal_mach(gamma, ldn) - 2.0) < 1e-8

    @pytest.mark.parametrize("lun", [41.0, 1e200])
    def test_unrepresentable_root_is_typed(self, lun):
        # on the isothermal branch L_dn underflows at 41, g overflows at 1e200
        assert issubclass(ShockSolveError, ArithmeticError)
        with pytest.raises(ShockSolveError):
            downstream_normal_mach(1.0, lun)

    @pytest.mark.parametrize("gamma", [1.0, 1.4, 3.0])
    def test_continuous_across_sonic_window(self, gamma):
        # the series branch inside the window against the root solve outside
        for side in (1.0, -1.0):
            inside = downstream_normal_mach(gamma, 1.0 + side * SONIC_WINDOW * (1.0 - 1e-9))
            outside = downstream_normal_mach(gamma, 1.0 + side * SONIC_WINDOW * (1.0 + 1e-9))
            assert abs(inside - outside) <= 4e-11


GAMMA_RANGE = st.floats(1.0, 10.0)
# an admissible L_un, or its reciprocal on the expansion side of the map
L_RANGE = st.builds(
    lambda lun, inverse: 1.0 / lun if inverse else lun, st.floats(1.0 + 1e-5, 30.0), st.booleans()
)


class TestShockMapProperties:
    @given(GAMMA_RANGE, L_RANGE)
    def test_self_inverse(self, gamma, lun):
        ldn = downstream_normal_mach(gamma, lun)
        assert (ldn < 1.0) == (lun > 1.0)
        assert downstream_normal_mach(gamma, ldn) == pytest.approx(lun, rel=1e-8)

    @given(GAMMA_RANGE, st.floats(1.0 + 1e-5, 29.0), st.floats(1e-9, 1.0))
    def test_strictly_decreasing(self, gamma, a, gap):
        b = a + gap * (30.0 - a)
        assert downstream_normal_mach(gamma, b) < downstream_normal_mach(gamma, a)
        assert downstream_normal_mach(gamma, 1.0 / a) < downstream_normal_mach(gamma, 1.0 / b)

    @given(GAMMA_RANGE, L_RANGE)
    def test_mass_flux_identity(self, gamma, lun):
        ldn = downstream_normal_mach(gamma, lun)
        rho_d, c_d = jump_state(GasModel(gamma=gamma), 1.2, 0.8, lun, require_admissible=False)
        assert rho_d * ldn * c_d == pytest.approx(1.2 * lun * 0.8, rel=1e-10)


class TestJumpState:
    def test_vanishing_shock(self):
        rho_d, c_d = jump_state(AIR, 1.3, 0.9, 1.0)
        assert (rho_d, c_d) == (pytest.approx(1.3), pytest.approx(0.9))

    def test_air_density_value(self):
        rho_d, c_d = jump_state(AIR, 1.0, 1.0, 2.0)
        assert rho_d == pytest.approx(RHO_D_AIR_2, rel=1e-12)
        assert rho_d == pytest.approx(4.060, abs=1e-3)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_mass_flux_identity(self, gamma):
        model = GasModel(gamma=gamma)
        rng = np.random.default_rng(3)
        for lun in rng.uniform(1.0, 10.0, 40):
            ldn = downstream_normal_mach(gamma, lun)
            rho_d, c_d = jump_state(model, 1.2, 0.8, lun)
            flux_u = 1.2 * lun * 0.8
            flux_d = rho_d * ldn * c_d
            assert abs(flux_d - flux_u) < 1e-10 * flux_u

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleShock):
            jump_state(AIR, 1.0, 1.0, 0.8)
        rho_d, _ = jump_state(AIR, 1.0, 1.0, 0.8, require_admissible=False)
        assert rho_d < 1.0  # expansion branch rarefies

    def test_sound_speed_increases_for_gamma_gt_1(self):
        for lun in (1.2, 2.0, 5.0):
            _, c_d = jump_state(AIR, 1.0, 1.0, lun)
            assert c_d > 1.0
        _, c_iso = jump_state(ISO, 1.0, 1.0, 2.0)
        assert c_iso == pytest.approx(1.0, rel=1e-14)


class TestSensitivities:
    def test_sonic_limit_is_minus_one(self):
        s = sensitivities(1.4, 1.0 + 1e-8)
        assert s.dldn_dlun == pytest.approx(-1.0, abs=1e-6)

    def test_domain_error_at_sonic(self):
        with pytest.raises(ValueError):
            sensitivities(1.4, 1.0)

    @pytest.mark.parametrize("gamma,lun", [(1.4, 2.0), (1.0, 3.0), (3.0, 1.5), (5 / 3, 6.0)])
    def test_dldn_matches_finite_difference(self, gamma, lun):
        h = 1e-5
        fd = (downstream_normal_mach(gamma, lun + h) - downstream_normal_mach(gamma, lun - h)) / (
            2 * h
        )
        assert sensitivities(gamma, lun).dldn_dlun == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("gamma,lun", [(1.4, 2.0), (3.0, 1.5), (5 / 3, 4.0)])
    def test_dzdn_matches_finite_difference(self, gamma, lun):
        model = GasModel(gamma=gamma)
        c_u = 1.0

        def zdn(zun):
            l_u = zun / c_u
            ldn = downstream_normal_mach(gamma, l_u)
            _, c_d = jump_state(model, 1.0, c_u, l_u)
            return ldn * c_d

        h = 1e-5
        fd = (zdn(lun + h) - zdn(lun - h)) / (2 * h)
        s = sensitivities(gamma, lun)
        assert s.dzdn_dzun == pytest.approx(fd, rel=1e-6, abs=1e-9)
        # strict bounds (gamma-1)/(gamma+1) for both forms
        bound = (gamma - 1.0) / (gamma + 1.0)
        assert s.dzdn_dzun < bound
        zu_over_zd = lun * c_u / zdn(lun)
        assert zu_over_zd * s.dzdn_dzun < bound
        assert s.dvdn_dsigma > s.dvdn_dsigma_lower_bound > 0
        assert s.drho_d_dsigma < 0

    def test_shock_strength_bound_2_4_18(self):
        # z_dn/c_u - 1 < (gamma-1)/(gamma+1) (z_un/c_u - 1)
        for gamma in (1.4, 5 / 3, 3.0):
            model = GasModel(gamma=gamma)
            for lun in (1.1, 2.0, 5.0, 9.0):
                ldn = downstream_normal_mach(gamma, lun)
                _, c_d = jump_state(model, 1.0, 1.0, lun)
                zdn_over_cu = ldn * c_d
                assert zdn_over_cu - 1.0 < (gamma - 1.0) / (gamma + 1.0) * (lun - 1.0)


class TestResolveOblique:
    def test_wrong_side(self):
        up = FlowState.from_model(AIR, 1.0, (0.0, -2.0))
        with pytest.raises(WrongSideError):
            resolve_oblique(AIR, up, (0.0, 0.0), (0.0, 1.0))

    def test_pseudo_normal_point_downstream_parallel(self):
        # z_t = 0: downstream pseudo-velocity stays parallel to n
        up = FlowState.from_model(AIR, 1.0, (0.0, -2.0))
        xi = np.array([0.0, 0.5])
        sol = resolve_oblique(AIR, up, xi, (0.0, -1.0))
        z_d = sol.downstream.v - xi
        assert abs(sol.z_t) < 1e-14
        assert abs(z_d[0] * sol.n[1] - z_d[1] * sol.n[0]) < 1e-14

    def test_mass_flux_invariant(self):
        up = FlowState.from_model(AIR, 1.2, (0.3, -1.9))
        sol = resolve_oblique(AIR, up, (0.1, 0.4), (0.2, -1.0))
        flux_u = up.rho * sol.lun * up.c
        flux_d = sol.downstream.rho * sol.ldn * sol.downstream.c
        assert flux_d == pytest.approx(flux_u, rel=1e-12)

    def test_mirror_symmetry(self):
        # reflecting the normal across z_u reflects the downstream velocity
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        xi = np.zeros(2)

        def reflect_x(w):
            return np.array([w[0], -w[1]])

        n = np.array([0.8, -0.3])
        n /= np.hypot(*n)
        a = resolve_oblique(AIR, up, xi, n)
        b = resolve_oblique(AIR, up, xi, reflect_x(n))
        assert np.allclose(reflect_x(a.downstream.v), b.downstream.v, atol=1e-14)
        assert a.downstream.rho == pytest.approx(b.downstream.rho, rel=1e-14)

    def test_galilean_covariance(self):
        up = FlowState.from_model(AIR, 1.1, (0.4, -2.2))
        xi = np.array([0.2, 0.7])
        n = np.array([0.1, -1.0])
        n /= np.hypot(*n)
        w = np.array([0.53, -0.21])
        a = resolve_oblique(AIR, up, xi, n)
        up_shift = FlowState.from_model(AIR, 1.1, up.v + w)
        b = resolve_oblique(AIR, up_shift, xi + w, n)
        assert b.downstream.rho == pytest.approx(a.downstream.rho, rel=1e-14)
        assert b.lun == pytest.approx(a.lun, rel=1e-14)
        assert b.ldn == pytest.approx(a.ldn, rel=1e-14)
        assert np.allclose(b.downstream.v, a.downstream.v + w, atol=1e-13)

    def test_steady_deflection_matches_polar_intersection(self):
        # resolve a steady shock at some normal, read off its deflection,
        # then the deflection pair at that angle must reproduce the state
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        beta = -0.9  # weak-branch normal angle (counterclockwise from v_u)
        n = np.array([math.cos(beta), math.sin(beta)])
        sol = resolve_oblique(AIR, up, np.zeros(2), n)
        v = sol.downstream.v
        tau = math.atan2(v[1], v[0])
        pair = deflection_solutions(AIR, up, tau)
        match = min(
            np.hypot(*(pair.weak.downstream.v - v)),
            np.hypot(*(pair.strong.downstream.v - v)),
        )
        assert match < 1e-9 * up.c

    def test_inadmissible_flagged_not_raised(self):
        up = FlowState.from_model(AIR, 1.0, (0.0, -0.5))
        sol = resolve_oblique(AIR, up, (0.0, 0.0), (0.0, -1.0))
        assert not sol.admissible
        assert sol.downstream.rho < up.rho


class TestShockPolar:
    def test_requires_supersonic_pseudo_velocity(self):
        up = FlowState.from_model(AIR, 1.0, (0.5, 0.0))
        with pytest.raises(NoPolarError):
            shock_polar(AIR, up, (0.0, 0.0), 11)

    def test_beta_max_matches_closed_form(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        assert polar_beta_max(AIR, up, np.zeros(2)) == pytest.approx(
            math.acos(1.0 / 2.94), abs=1e-12
        )

    def test_monotone_structure(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        samples = shock_polar(AIR, up, np.zeros(2), 801)
        betas = np.array([s.beta for s in samples])
        rho = np.array([s.rho_d for s in samples])
        L = np.array([s.L_d for s in samples])
        zmag = np.array([np.hypot(*(s.downstream_v - 0.0)) for s in samples])
        half = betas >= 0
        assert np.all(np.diff(rho[half]) < 1e-12)
        assert np.all(np.diff(L[half]) > -1e-12)
        assert np.all(np.diff(zmag[half]) > -1e-12)
        # beta = 0 is the normal (strongest) shock
        assert np.argmax(rho) == len(samples) // 2

    def test_endpoints_vanish(self):
        up = FlowState.from_model(AIR, 1.0, (2.0, 0.0))
        samples = shock_polar(AIR, up, np.zeros(2), 5)
        for s in (samples[0], samples[-1]):
            assert s.rho_d == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(s.downstream_v, up.v, atol=1e-9)

    def test_zdx_increasing_in_abs_beta(self):
        up = FlowState.from_model(AIR, 1.0, (3.0, 0.0))
        samples = shock_polar(AIR, up, np.zeros(2), 401)
        betas = np.array([s.beta for s in samples])
        zdx = np.array([s.downstream_v[0] for s in samples])
        half = betas >= 0
        assert np.all(np.diff(zdx[half]) > -1e-12)


class TestDeflection:
    def test_subsonic_raises(self):
        up = FlowState.from_model(AIR, 1.0, (0.9, 0.0))
        with pytest.raises(NoAttachedShock):
            deflection_solutions(AIR, up, 0.1)

    def test_tau_zero_limits(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        sols = deflection_solutions(AIR, up, 0.0)
        # weak limit: vanishing shock
        assert np.allclose(sols.weak.downstream.v, up.v, atol=1e-8)
        # strong limit: normal shock
        norm = resolve_oblique(AIR, up, np.zeros(2), (1.0, 0.0))
        assert np.allclose(sols.strong.downstream.v, norm.downstream.v, atol=1e-8)

    def test_case_m294_tau10(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        sols = deflection_solutions(AIR, up, math.radians(10.0))
        assert sols is not None
        assert sols.weak_supersonic
        assert not sols.strong_supersonic
        # both turn the flow by exactly tau
        for s in (sols.weak, sols.strong):
            v = s.downstream.v
            ang = math.atan2(v[1], v[0])
            assert ang == pytest.approx(math.radians(10.0), abs=1e-10)
        assert sols.weak.admissible and sols.strong.admissible

    def test_above_critical_none(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        tau_star = critical_angle(AIR, up)
        assert deflection_solutions(AIR, up, tau_star + 0.01) is None

    def test_critical_angle_structure(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        tau_star = critical_angle(AIR, up)
        assert tau_star > math.radians(10.0)
        near = deflection_solutions(AIR, up, tau_star)
        dv = near.weak.downstream.v - near.strong.downstream.v
        assert np.hypot(*dv) < 1e-6 * up.c
        # solution count flips across tau_star within 1e-10 rad
        assert deflection_solutions(AIR, up, tau_star - 1e-10) is not None
        assert deflection_solutions(AIR, up, tau_star + 1e-10) is None

    def test_critical_angle_vanishes_at_sonic(self):
        up = FlowState.from_model(AIR, 1.0, (1.001, 0.0))
        assert critical_angle(AIR, up) < 0.01


class TestHorizontalDownstreamShock:
    def test_isothermal_reference_value(self):
        up = FlowState.from_model(ISO, 1.0, (0.0, -2.0))
        eta0, sol = horizontal_downstream_shock(ISO, up, 0.0)
        # independent oracle: g(eta+2) = g(eta) for the isothermal g
        ref = bisect_oracle(lambda e: g_value(1.0, e + 2) - g_value(1.0, e), 0.05, 1.0)
        assert ref == pytest.approx(ETA0_ISO, abs=1e-12)
        assert eta0 == pytest.approx(ref, abs=1e-10)
        assert eta0 == pytest.approx(0.200, abs=1e-3)

    @pytest.mark.parametrize("beta", [-0.6, -0.2, 0.0, 0.3, 0.9])
    def test_downstream_horizontal_and_vdx(self, beta):
        up = FlowState.from_model(AIR, 1.0, (0.0, -1.7))
        eta0, sol = horizontal_downstream_shock(AIR, up, beta)
        assert abs(sol.downstream.v[1]) < 1e-10
        assert sol.downstream.v[0] == pytest.approx(-1.7 * math.tan(beta), abs=1e-9)

    def test_reflection_symmetry(self):
        up = FlowState.from_model(AIR, 1.0, (0.0, -2.4))
        e1, s1 = horizontal_downstream_shock(AIR, up, 0.35)
        e2, s2 = horizontal_downstream_shock(AIR, up, -0.35)
        assert e1 == pytest.approx(e2, rel=1e-12)
        assert s1.downstream.v[0] == pytest.approx(-s2.downstream.v[0], rel=1e-10)

    def test_monotone_in_abs_beta(self):
        up = FlowState.from_model(AIR, 1.0, (0.0, -2.0))
        betas = np.linspace(0.0, 1.2, 25)
        etas = [horizontal_downstream_shock(AIR, up, b)[0] for b in betas]
        assert np.all(np.diff(etas) > 0)


class TestSonicPoints:
    def _r_shock(self, model, epsilon=0.01):
        up = FlowState.from_model(model, 1.0, (0.0, -2.0))
        eta0, sol = horizontal_downstream_shock(model, up, 0.0)
        return sol, eta0

    def test_symmetric_about_pseudo_normal_point(self):
        sol, _ = self._r_shock(AIR)
        a, b = sonic_points(AIR, sol, 0.01)
        xm = sol.pseudo_normal_point()
        assert np.hypot(*(a - xm)) == pytest.approx(np.hypot(*(b - xm)), rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.04])
    def test_pseudo_mach_at_points(self, eps):
        sol, _ = self._r_shock(AIR)
        a, b = sonic_points(AIR, sol, eps)
        psi_d, _ = constant_state_potential(AIR, sol.downstream.rho, sol.downstream.v)
        for pt in (a, b):
            chi = psi_d(pt) - 0.5 * pt @ pt
            _, _, L = density_sound_pseudo_mach(
                AIR, SelfSimilarPoint(xi=pt, chi=chi, z=sol.downstream.v - pt)
            )
            assert L == pytest.approx(math.sqrt(1.0 - eps), abs=1e-10)

    def test_upstream_circle_misses_shock(self):
        sol, eta0 = self._r_shock(AIR)
        # shock is the line eta = eta0; upstream center (0, -2), radius c_u = 1
        dist = abs(eta0 - sol.upstream.v[1])
        assert dist > sol.upstream.c

    def test_no_intersection_raises(self):
        sol, _ = self._r_shock(AIR)
        eps_too_big = 1.0 - sol.ldn**2 + 1e-6
        with pytest.raises(NoSonicIntersection):
            sonic_points(AIR, sol, eps_too_big)
