import math

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from wedgeflow import elliptic
from wedgeflow.gas import GasModel, constant_state_potential
from wedgeflow.pattern import ProblemConfig, build
from wedgeflow.elliptic import (
    EllipticConfig,
    GridMapping,
    MappingError,
    ShockCurve,
    build_mapping,
    chord_shock,
    initial_guess,
    iterate,
    solve_fixed_boundary,
    update_shock,
)

AIR = GasModel(gamma=1.4)
ISO = GasModel(gamma=1.0)

UNPERT = ProblemConfig(model=ISO, MIy=-2.0, epsilon=0.04)
CASE_12 = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.04)


def bisect_sigma(m, xi, eta, steps=60):
    """Reference inverse of the onion map: plain bisection on x_of."""
    lo, hi = np.zeros_like(xi), np.ones_like(xi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        take = m.x_of(mid, eta) < xi
        lo, hi = np.where(take, mid, lo), np.where(take, hi, mid)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def unpert_pattern():
    return build(UNPERT)


@pytest.fixture(scope="module")
def case12_pattern():
    return build(CASE_12)


@pytest.fixture(scope="module")
def case12_solution(case12_pattern):
    return iterate(case12_pattern, EllipticConfig(n_sigma=48, n_zeta=48))


class TestMapping:
    def test_wall_row_exactly_on_axis(self, case12_pattern):
        m = build_mapping(case12_pattern, chord_shock(case12_pattern, 32), 32, 24)
        assert np.max(np.abs(m.eta[0, :])) == 0.0

    def test_corners_of_chord_mapping(self, case12_pattern):
        p = case12_pattern
        m = build_mapping(p, chord_shock(p, 32), 32, 24)
        assert np.allclose(m.corner("L"), p.xi_L_star, atol=1e-9)
        assert np.allclose(m.corner("R"), p.xi_R_star, atol=1e-9)

    def test_unperturbed_mapping_symmetric(self, unpert_pattern):
        p = unpert_pattern
        m = build_mapping(p, chord_shock(p, 40), 40, 16)
        # reflection sigma -> 1 - sigma flips xi for the symmetric pattern
        assert np.max(np.abs(m.xi + m.xi[:, ::-1])) < 1e-12
        assert np.max(np.abs(m.eta - m.eta[:, ::-1])) < 1e-12

    def test_jacobian_positive_case12_64(self, case12_pattern):
        m = build_mapping(case12_pattern, chord_shock(case12_pattern, 64), 64, 64)
        assert np.all(m.jac_det > 0.0)

    def test_hessian_transform_second_order(self, case12_pattern):
        # quadratic fields have exact Hessians; the transform error is pure
        # stencil truncation and must shrink at second order
        p = case12_pattern

        def worst(n, nz):
            m = build_mapping(p, chord_shock(p, n), n, nz)
            errs = []
            for f, exact in [
                (m.xi**2, (2.0, 0.0, 0.0)),
                (m.xi * m.eta, (0.0, 1.0, 0.0)),
                (m.eta**2, (0.0, 0.0, 2.0)),
            ]:
                hxx, hxy, hyy = m.hessian_terms(f)
                errs.append(np.max(np.abs(hxx[1:-1, 1:-1] - exact[0])))
                errs.append(np.max(np.abs(hxy[1:-1, 1:-1] - exact[1])))
                errs.append(np.max(np.abs(hyy[1:-1, 1:-1] - exact[2])))
            return max(errs)

        e48, e96 = worst(48, 40), worst(96, 80)
        assert e48 < 2e-2
        assert e96 < 0.35 * e48

    def test_gradient_second_order_for_linear(self, case12_pattern):
        def worst(n, nz):
            m = build_mapping(case12_pattern, chord_shock(case12_pattern, n), n, nz)
            gx, gy = m.gradient(0.4 * m.xi + 1.3 * m.eta)
            return max(np.max(np.abs(gx - 0.4)), np.max(np.abs(gy - 1.3)))

        e32, e64 = worst(32, 24), worst(64, 48)
        assert e32 < 5e-3
        assert e64 < 0.35 * e32

    def test_invert_round_trip(self, case12_pattern):
        m = build_mapping(case12_pattern, chord_shock(case12_pattern, 32), 32, 24)
        sig, zet, inside = m.invert(m.xi[5:-5:4, 3:-3:4], m.eta[5:-5:4, 3:-3:4])
        assert np.all(inside)
        assert np.max(np.abs(sig - m.S[5:-5:4, 3:-3:4])) < 1e-9
        assert np.max(np.abs(zet - m.Z[5:-5:4, 3:-3:4])) < 1e-9

    def test_invert_outside_the_lens(self, case12_pattern):
        p = case12_pattern
        m = build_mapping(p, chord_shock(p, 32), 32, 24)
        d = 0.05 * p.state_R.c
        j, i = 12, 16  # mid-height row, middle column
        xi = np.array([
            m.xi[j, 0] - d,  # left of arc L
            m.xi[j, -1] + d,  # right of arc R
            m.xi[-1, i],  # above the shock
            m.xi[0, i],  # below the wall
            m.xi[j, 0] + d,  # controls: just inside each arc
            m.xi[j, -1] - d,
        ])
        eta = np.array([m.eta[j, 0], m.eta[j, -1], m.eta[-1, i] + d, -d, m.eta[j, 0], m.eta[j, -1]])
        _, _, inside = m.invert(xi, eta)
        assert inside.tolist() == [False, False, False, False, True, True]

    def test_invert_matches_bisection(self, case12_pattern):
        p = case12_pattern
        m = build_mapping(p, chord_shock(p, 32), 32, 24)
        # lattice nodes are exact roots
        sig, _, _ = m.invert(m.xi, m.eta)
        assert np.max(np.abs(sig - bisect_sigma(m, m.xi, m.eta))) <= 1e-13
        sig, _, inside = m.invert(float(m.xi[5, 5]), float(m.eta[5, 5]))
        assert inside and abs(sig - m.S[5, 5]) <= 1e-13
        # 1e-12 inside each arc, at every node height of that arc
        for k, side in ((0, 1.0), (-1, -1.0)):
            eta = m.eta[:, k]
            xi = m.x_of(float(k == -1), eta) + side * 1e-12
            sig, _, inside = m.invert(xi, eta)
            assert np.all(inside[:-1])
            assert np.max(np.abs(sig - bisect_sigma(m, xi, eta))) <= 1e-13
        # above the shock, beyond either arc and above the lower arc top
        d = 0.05 * p.state_R.c
        top = min(m.r_l, m.r_r)
        xi = np.concatenate([m.xi[-1, 1:-1], m.xi[1:-1, 0] - d, m.xi[1:-1, -1] + d, m.xi[0, 1:-1]])
        eta = np.concatenate([
            m.eta[-1, 1:-1] + d, m.eta[1:-1, 0], m.eta[1:-1, -1], np.full(m.n_sigma - 1, 1.01 * top),
        ])
        _, _, inside = m.invert(xi, eta)
        assert not np.any(inside)

    def test_shock_above_arc_top_rejected(self, case12_pattern):
        p = case12_pattern
        tall = chord_shock(p, 16).bumped(2.0 * p.arc_R.radius)
        with pytest.raises(MappingError):
            build_mapping(p, tall, 16, 12)

    def test_negative_shock_height_rejected(self):
        with pytest.raises(MappingError):
            ShockCurve(sigma=np.linspace(0, 1, 5), s=np.array([0.5, 0.4, -0.1, 0.4, 0.5]))


class TestInitialGuess:
    def test_unperturbed_guess_is_exact(self, unpert_pattern):
        p = unpert_pattern
        m = build_mapping(p, chord_shock(p, 24), 24, 20)
        psi = initial_guess(p, m)
        _, a0 = constant_state_potential(ISO, p.state_R.rho, p.state_R.v)
        assert np.max(np.abs(psi - a0)) < 1e-13

    def test_guess_wall_condition_exact(self, case12_pattern, unpert_pattern):
        # the guess's wall derivative vanishes identically (both constant
        # states have zero vertical velocity and sigma_eta = 0 on the wall);
        # the discrete stencil sees only its own O(h^2) truncation
        p = case12_pattern
        m = build_mapping(p, chord_shock(p, 32), 32, 24)
        psi = initial_guess(p, m)
        _, gy = m.gradient(psi)
        assert np.max(np.abs(gy[0, :])) < 2e-5
        # for the unperturbed pattern the guess is constant: exactly zero
        p0 = unpert_pattern
        m0 = build_mapping(p0, chord_shock(p0, 24), 24, 20)
        _, gy0 = m0.gradient(initial_guess(p0, m0))
        assert np.max(np.abs(gy0[0, :])) < 1e-12

    def test_guess_subsonic_interior_case12(self, case12_pattern):
        p = case12_pattern
        m = build_mapping(p, chord_shock(p, 48), 48, 48)
        psi = initial_guess(p, m)
        vx, vy = m.gradient(psi)
        chi = psi - 0.5 * (m.xi**2 + m.eta**2)
        zx, zy = vx - m.xi, vy - m.eta
        arg = -chi - 0.5 * (zx**2 + zy**2)
        c2 = AIR.c0**2 + (AIR.gamma - 1.0) * arg
        L2 = (zx**2 + zy**2) / c2
        assert np.max(L2[1:-1, 1:-1]) < 1.0


class TestInnerSolve:
    def test_unperturbed_is_fixed_point(self, unpert_pattern):
        p = unpert_pattern
        cfg = EllipticConfig(n_sigma=32, n_zeta=32)
        m = build_mapping(p, chord_shock(p, 32), 32, 32)
        psi0 = initial_guess(p, m)
        psi_hat = solve_fixed_boundary(p, m, psi0, cfg)
        assert np.max(np.abs(psi_hat - psi0)) < 1e-8

    def test_chord_newton_reuses_the_factorization(self, case12_pattern, monkeypatch):
        # a first outer iteration, from the initial guess
        p = case12_pattern
        cfg = EllipticConfig(n_sigma=24, n_zeta=24)
        m = build_mapping(p, chord_shock(p, 24), 24, 24)
        psi0 = initial_guess(p, m)
        calls = []
        real_splu = elliptic.splu

        def counting_splu(*args):
            calls.append(1)
            return real_splu(*args)

        monkeypatch.setattr(elliptic, "splu", counting_splu)
        psi = solve_fixed_boundary(p, m, psi0, cfg)
        assert 1 <= len(calls) <= 2
        chi_old = psi0 - 0.5 * (m.xi**2 + m.eta**2)
        F = elliptic._residual(p.config.model, p, m, chi_old, psi)
        assert np.max(np.abs(F)) < cfg.tol_inner

    def test_wall_rows_exact_in_discrete_stencil(self, case12_solution):
        sol = case12_solution
        m = sol.mapping
        dz = m.d_zet
        wall = (-3 * sol.psi[0, :] + 4 * sol.psi[1, :] - sol.psi[2, :]) / (2 * dz)
        # sigma_y = 0 on the wall, so the stencil value alone is the condition
        assert np.max(np.abs(wall[1:-1])) < 1e-9

    def test_interior_residual_halves_under_refinement(self, case12_pattern):
        # evaluate each converged field's nondivergence-form residual on a
        # common fine lattice (cubic interpolation in (sigma, zeta))
        p = case12_pattern

        def fine_residual(n):
            sol = iterate(p, EllipticConfig(n_sigma=n, n_zeta=n))
            fine = build_mapping(p, ShockCurve(
                sigma=np.linspace(0, 1, 97),
                s=sol.shock.value(np.linspace(0, 1, 97)),
            ), 96, 96)
            sp = RectBivariateSpline(sol.mapping.zet, sol.mapping.sig, sol.psi, kx=3, ky=3)
            psi_f = sp(fine.zet, fine.sig)
            vx, vy = fine.gradient(psi_f)
            chi = psi_f - 0.5 * (fine.xi**2 + fine.eta**2)
            zx, zy = vx - fine.xi, vy - fine.eta
            arg = -chi - 0.5 * (zx**2 + zy**2)
            c2 = p.config.model.c0**2 + (p.config.model.gamma - 1) * arg
            hxx, hxy, hyy = fine.hessian_terms(psi_f)
            res = (
                (c2 - zx**2) * hxx + 2 * (-zx * zy) * hxy + (c2 - zy**2) * hyy
            )
            return np.percentile(np.abs(res[4:-4, 4:-4]), 98)

        r24, r48 = fine_residual(24), fine_residual(48)
        assert r48 < 0.5 * r24


class TestShockUpdate:
    def test_unperturbed_shock_unchanged(self, unpert_pattern):
        p = unpert_pattern
        cfg = EllipticConfig(n_sigma=24, n_zeta=24)
        sh = chord_shock(p, 24)
        m = build_mapping(p, sh, 24, 24)
        psi_hat = solve_fixed_boundary(p, m, initial_guess(p, m), cfg)
        s_new = update_shock(p, m, psi_hat)
        assert np.max(np.abs(s_new.s - sh.s)) < 1e-10

    def test_matching_relation_is_identity(self, case12_pattern):
        p = case12_pattern
        cfg = EllipticConfig(n_sigma=24, n_zeta=24)
        m = build_mapping(p, chord_shock(p, 24), 24, 24)
        psi_hat = solve_fixed_boundary(p, m, initial_guess(p, m), cfg)
        s_new = update_shock(p, m, psi_hat)
        psi_I, a0 = constant_state_potential(AIR, p.state_I.rho, p.state_I.v)
        v_iy = p.state_I.v[1]
        recomputed = a0 + v_iy * s_new.s
        assert np.max(np.abs(recomputed - psi_hat[-1, :])) < 1e-12

    def test_monotone_damping_on_desk_case(self, case12_solution):
        upd = [rec["r_shock_update"] for rec in case12_solution.residual_history]
        # under-relaxed updates decay (allow small non-monotone wiggle)
        assert upd[-1] < 1e-6
        drops = sum(1 for a, b in zip(upd, upd[1:]) if b < a)
        assert drops >= 0.7 * (len(upd) - 1)


class TestIterate:
    def test_unperturbed_recovery_from_bump(self, unpert_pattern):
        p = unpert_pattern
        cfg = EllipticConfig(n_sigma=32, n_zeta=32)
        bumped = chord_shock(p, 32).bumped(0.01 * p.state_R.c)
        sol = iterate(p, cfg, shock0=bumped)
        assert sol.converged
        assert np.max(np.abs(sol.shock.s - p.eta_R_star)) < 1e-6

    def test_case12_converges_with_structure(self, case12_solution, case12_pattern):
        sol, p = case12_solution, case12_pattern
        assert sol.converged
        assert sol.residual_history[-1]["combined"] < 1e-6
        eps = p.epsilon
        c_r = p.state_R.c
        assert np.hypot(*(sol.corner_L - p.xi_L_star)) < 3 * math.sqrt(eps) * c_r
        assert np.hypot(*(sol.corner_R - p.xi_R_star)) < 3 * math.sqrt(eps) * c_r
        f = sol.fields()
        assert f["rho"].min() > p.state_I.rho
        assert np.max(f["L2"][1:-1, 1:-1]) < 1.0 - eps + 10.0 / sol.config.n_sigma

    def test_monatomic_desk_case_converges(self):
        # the solver is not tied to the two acceptance gammas
        model = GasModel(gamma=5 / 3)
        p = build(ProblemConfig(model=model, M_I=2.5, tau=math.radians(12.0), epsilon=0.02))
        sol = iterate(p, EllipticConfig(n_sigma=40, n_zeta=40))
        assert sol.converged
        f = sol.fields()
        assert f["rho"].min() > p.state_I.rho
        assert np.max(f["L2"][1:-1, 1:-1]) < 1.0 - p.epsilon

    def test_separation_flag_marks_unsupported_case(self):
        # small |M_I^y| with a low corner violates the corner-chord
        # separation; the solver still runs but flags the case
        p = build(
            ProblemConfig(model=AIR, MIy=-0.3, eta_L_star=0.1, epsilon=0.01),
            validate_supersonic=False,
        )
        sol = iterate(p, EllipticConfig(n_sigma=16, n_zeta=16, max_outer=2))
        assert not sol.separation_ok

    def test_requires_positive_epsilon(self):
        p = build(ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.0))
        with pytest.raises(ValueError):
            iterate(p, EllipticConfig(n_sigma=8, n_zeta=8))


def test_export_csv(tmp_path, case12_solution):
    from wedgeflow.elliptic import export_solution_csv

    node, shock, hist = tmp_path / "n.csv", tmp_path / "s.csv", tmp_path / "h.csv"
    export_solution_csv(case12_solution, node, shock, hist)
    assert node.read_text().splitlines()[0].startswith("sigma,zeta,xi")
    assert len(shock.read_text().splitlines()) == case12_solution.config.n_sigma + 2
    assert "combined" in hist.read_text().splitlines()[0]
