import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.optimize import brentq, minimize_scalar

from shock_oracles import (
    InadmissibleShock,
    WrongSideError,
    cross2,
    density_sound_pseudo_mach,
    downstream_normal_mach,
    g_prime,
    g_value,
    jump_state,
    mp_critical_angle,
    mp_downstream_normal_mach,
    mp_horizontal_height,
    resolve_oblique,
    sensitivities,
    steady_deflection,
)
from wedgeflow.gas import (
    GasModel,
    WedgeError,
    FlowState,
    constant_state_potential,
)
from wedgeflow import shocks
from wedgeflow.shocks import (
    NoAttachedShock,
    NoSonicIntersection,
    ShockSolveError,
    _bracketed_root,
    _family_ratio,
    _ratios,
    critical_angle,
    deflection_solutions,
    horizontal_downstream_shock,
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
        # on the isothermal branch L_dn underflows at 41, L_un^2 overflows at 1e200
        assert issubclass(ShockSolveError, ArithmeticError)
        with pytest.raises(ShockSolveError):
            downstream_normal_mach(1.0, lun)


# near sonic (to 1e-12 from it, and on both sides of 1 +- 1e-5), on both
# branches, and out to strong shocks and their fed-back expansions
REFERENCE_LUN = [1.0 + 1e-12, 1.0 + 1.1e-5, 1.0 + 1e-4, 1.0 + 1e-3, 1.1, 1.5, 2.0, 3.0, 10.0, 30.0]
REFERENCE_LUN += [1.0 + sign * d for sign in (1.0, -1.0) for d in (1e-8, 1e-6, 3e-5)]
REFERENCE_LUN += [1.0 + sign * 1e-5 * (1.0 + side * 1e-9) for sign in (1.0, -1.0) for side in (1.0, -1.0)]
REFERENCE_LUN += [0.9, 0.5, 0.2, 0.01]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_matches_high_precision_reference(gamma):
    # within 1e-14 relative of a 40-digit root of the g level set, scaled by
    # the map's condition number L_un |dL_dn/dL_un| / L_dn where it exceeds 1
    for lun in REFERENCE_LUN:
        ref, cond = mp_downstream_normal_mach(gamma, lun)
        err = float(abs(downstream_normal_mach(gamma, lun) / ref - 1))
        assert err <= 1e-14 * max(1.0, float(cond)), (lun, err, float(cond))


def test_normal_shock_root_evaluations(monkeypatch):
    # the bracket ends at the convexity bound 2 (L_un^2 - 1)/(gamma+1) on the
    # root: 57 evaluations of L_un(u) over this grid at gamma 1.4, where the
    # bracket of twice that bound took 66 (5, 6, 6, 8, 7, 7, 9, 9, 9)
    calls = []
    normal_mach = shocks._normal_mach
    monkeypatch.setattr(shocks, "_normal_mach", lambda g, u: calls.append(u) or normal_mach(g, u))
    for lun in (1.0001, 1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0):
        downstream_normal_mach(1.4, lun)
    assert len(calls) <= 57


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
        assert abs(float((up.v - xi) @ sol.tangent)) < 1e-14
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
        assert sol.lun < 1.0
        assert sol.downstream.rho < up.rho


class TestShockPolar:
    def test_requires_supersonic_pseudo_velocity(self):
        up = FlowState.from_model(AIR, 1.0, (0.5, 0.0))
        with pytest.raises(NoAttachedShock):
            shock_polar(AIR, up, 11)

    def test_beta_max_matches_closed_form(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        samples = shock_polar(AIR, up, 3)
        for s, sign in ((samples[0], -1.0), (samples[-1], 1.0)):
            assert s.beta == pytest.approx(sign * math.acos(1.0 / 2.94), abs=1e-12)

    def test_monotone_structure(self):
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        samples = shock_polar(AIR, up, 801)
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
        # the edge samples sit at L_un = M cos beta = 1 to rounding; where it
        # rounds to 1 or below, the sample is the vanishing shock u = 0
        for gamma in GAMMAS:
            model = GasModel(gamma=gamma)
            for mach in (1.0001, 1.5, 2.94, 30.0) + ((1e4,) if gamma > 1.0 else ()):
                for angle in (0.0, 2.5):
                    v = (mach * math.cos(angle), mach * math.sin(angle))
                    up = FlowState.from_model(model, 1.0, v)
                    samples = shock_polar(model, up, 5)
                    for s in (samples[0], samples[-1]):
                        assert s.rho_d == pytest.approx(1.0, abs=1e-9)
                        assert np.allclose(s.downstream_v, up.v, rtol=0.0, atol=1e-9 * mach)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_normal_sample_is_the_strong_shock_at_tau_0(self, gamma):
        # the polar and the deflection pair share one normal-shock root and one
        # jump formula, so the sample at beta = 0 is that shock bit for bit
        model = GasModel(gamma=gamma)
        for mach in (1.0001, 1.5, 2.94, 10.0, 30.0):
            for angle in (0.0, 2.5):
                up = FlowState.from_model(model, 1.0, (mach * math.cos(angle), mach * math.sin(angle)))
                s = shock_polar(model, up, 5)[2]
                strong = deflection_solutions(model, up, 0.0).strong.downstream
                assert s.beta == 0.0
                assert (s.rho_d, s.c_d) == (strong.rho, strong.c), (mach, angle)
                assert np.array_equal(s.downstream_v, strong.v), (mach, angle)

    def test_polar_bytes_matches_the_samples(self):
        # the estimate behind the polar_n preflight, against tracemalloc's peak
        up = FlowState.from_model(AIR, 1.0, (2.94, 0.0))
        tracemalloc.start()
        try:
            samples = shock_polar(AIR, up, 401)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == 401
        assert peak == pytest.approx(shocks.polar_bytes(401), rel=0.05)

    def test_zdx_increasing_in_abs_beta(self):
        up = FlowState.from_model(AIR, 1.0, (3.0, 0.0))
        samples = shock_polar(AIR, up, 401)
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
        assert sols.weak.lun >= 1.0 and sols.strong.lun >= 1.0

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

    @pytest.mark.parametrize("mach", [10.0, 20.0, 30.0, 35.0])
    def test_isothermal_strong_root_next_to_the_normal_shock(self, mach):
        # at gamma 1 the strong root lies 3.4e-23 rad (M 10) to 1.7e-267 rad
        # (M 35) from the normal shock, and both roots still turn the flow by tau
        up = FlowState.from_model(ISO, 1.0, (mach, 0.0))
        for tau in (10.0, 40.0, 80.0):
            sols = deflection_solutions(ISO, up, math.radians(tau))
            for s in (sols.weak, sols.strong):
                v = s.downstream.v
                assert abs(math.atan2(cross2(up.v, v), float(up.v @ v)) - math.radians(tau)) <= 4e-15
            # the strong shock's normal lies clockwise of the stream
            n = sols.strong.n
            assert 0.0 < -math.atan2(cross2(up.v, n), float(up.v @ n)) < 1e-20

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("mach", [1.05, 1.5, 2.94, 5.0, 10.0])
    def test_critical_angle_matches_high_precision_reference(self, gamma, mach):
        # at gamma 1, M 10 the largest deflection sits 1e-20 below the normal
        # shock's u, where M^2 - L_un^2 has no digit left in double precision
        model = GasModel(gamma=gamma)
        up = FlowState.from_model(model, 1.0, (mach, 0.0))
        assert abs(critical_angle(model, up) - float(mp_critical_angle(gamma, mach))) <= 4.4e-16


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


    def test_isothermal_member_near_underflow(self):
        # u = log(rho_d/rho_u) is about 700 and L_dn about 1e-303; the nested
        # solve of L_un saw L_dn underflow at its bracket's top and raised
        up = FlowState.from_model(ISO, 1.0, (0.0, -10.0))
        eta0, sol = horizontal_downstream_shock(ISO, up, 1.3)
        assert abs(sol.downstream.v[1]) < 1e-10
        assert 0.0 < sol.ldn < 1e-300

    @pytest.mark.parametrize("gamma", [1.0, 1.4])
    @pytest.mark.parametrize("miy", [-1.5, -2.0, -4.0, -8.0])
    def test_height_matches_high_precision_reference(self, gamma, miy):
        # at gamma 1 and M_I_y -8 the height is 1e-13 of |v_uy|: the sum
        # v_uy + L_un c_u / cos(b) cancels all but three of its digits
        model = GasModel(gamma=gamma)
        up = FlowState.from_model(model, 1.0, (0.0, miy))
        for beta in (0.0, 0.3, 0.9):
            eta0, sol = horizontal_downstream_shock(model, up, beta)
            ref = mp_horizontal_height(gamma, miy, beta, sol.lun)
            assert float(abs(eta0 / ref - 1)) <= 1e-13, (beta, eta0, float(ref))


class TestFamilyJump:
    @given(gamma=st.sampled_from(GAMMAS), jump=st.floats(1e-6, 50.0))
    def test_explicit_relations_in_the_log_density_ratio(self, gamma, jump):
        # at gamma = 1, L_dn ~ L_un exp(-jump^2 / 2) underflows past jump ~ 38
        assume(gamma > 1.0 or jump <= 35.0)
        lun, ldn, c_ratio = _ratios(gamma, _family_ratio(gamma, jump))
        # the difference cancels to jump from terms of size L_un
        assert abs(lun - ldn * c_ratio - jump) <= 1e-13 * lun
        assert c_ratio == pytest.approx((lun / ldn) ** ((gamma - 1.0) / (gamma + 1.0)), rel=1e-13)
        # L_dn(L_un) amplifies a rounding of L_un by its condition number (L_un^2
        # at gamma = 1)
        cond = abs(sensitivities(gamma, lun).dldn_dlun) * lun / ldn
        tol = 1e-13 * max(1.0, cond)
        assert ldn == pytest.approx(downstream_normal_mach(gamma, lun), rel=tol)


class TestSonicPoints:
    def _r_shock(self, model, epsilon=0.01):
        up = FlowState.from_model(model, 1.0, (0.0, -2.0))
        eta0, sol = horizontal_downstream_shock(model, up, 0.0)
        return sol, eta0

    def test_symmetric_about_pseudo_normal_point(self):
        sol, _ = self._r_shock(AIR)
        a, b = sonic_points(sol, 0.01)
        xm = sol.pseudo_normal_point()
        assert np.hypot(*(a - xm)) == pytest.approx(np.hypot(*(b - xm)), rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.04])
    def test_pseudo_mach_at_points(self, eps):
        sol, _ = self._r_shock(AIR)
        a, b = sonic_points(sol, eps)
        psi_d, _ = constant_state_potential(AIR, sol.downstream.rho, sol.downstream.v)
        for pt in (a, b):
            chi = psi_d(pt) - 0.5 * pt @ pt
            _, _, L = density_sound_pseudo_mach(AIR, chi, sol.downstream.v - pt)
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
            sonic_points(sol, eps_too_big)


# monotone test functions with the root r: f(x; r, k)
MONOTONE = {
    "cubic": lambda x, r, k: (x - r) * (1.0 + k * (x - r) ** 2),
    "expm1": lambda x, r, k: math.expm1(k * (x - r)),
    "atan": lambda x, r, k: math.atan(k * (x - r)) + 1e-3 * (x - r),
}


class TestBracketedRoot:
    @given(
        st.sampled_from(sorted(MONOTONE)),
        st.floats(-10.0, 10.0),
        st.floats(0.1, 5.0),
        st.floats(1e-3, 10.0),
        st.floats(1e-3, 10.0),
        st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6]),
        st.booleans(),
    )
    def test_matches_brentq(self, name, r, k, below, above, xtol, falling):
        sign = -1.0 if falling else 1.0

        def f(x):
            return sign * MONOTONE[name](x, r, k)

        a, b = r - below, r + above
        assert abs(_bracketed_root(f, a, b, xtol=xtol) - brentq(f, a, b, xtol=xtol)) <= xtol

    def test_root_at_an_end_is_returned_as_is(self):
        assert _bracketed_root(lambda x: x - 0.1, 0.1, 2.0, xtol=1e-12) == 0.1
        assert _bracketed_root(lambda x: x - 0.1, -3.0, 0.1, xtol=1e-12) == 0.1

    @pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: math.nan])
    def test_no_sign_change_is_typed(self, f):
        assert issubclass(ShockSolveError, WedgeError) and issubclass(ShockSolveError, ArithmeticError)
        with pytest.raises(ShockSolveError, match="no sign change"):
            _bracketed_root(f, -1.0, 1.0, xtol=1e-12)

    @given(st.floats(1.05, 20.0))
    def test_critical_angle_is_the_largest_deflection(self, mach):
        up = FlowState.from_model(AIR, 1.0, (mach, 0.0))
        beta_max = math.acos(1.0 / mach)
        top = minimize_scalar(
            lambda b: -steady_deflection(AIR, up, b),
            bounds=(-beta_max, 0.0),
            method="bounded",
            options={"xatol": 1e-13},
        )
        assert abs(critical_angle(AIR, up) + top.fun) <= 1e-12
