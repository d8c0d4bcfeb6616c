import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.sparse import csc_matrix, hstack

from elliptic_oracles import bumped, fd_jacobian, nodal_fields
from wedgeflow import elliptic
from wedgeflow.gas import GasModel, constant_state_potential
from wedgeflow.pattern import ProblemConfig, build, separation_check
from wedgeflow.elliptic import (
    EllipticConfig,
    GridMapping,
    Lattice,
    MappingError,
    ShockCurve,
    build_mapping,
    chord_shock,
    initial_guess,
    iterate,
)

AIR = GasModel(gamma=1.4)
ISO = GasModel(gamma=1.0)

UNPERT = ProblemConfig(model=ISO, MIy=-2.0, epsilon=0.04)
CASE_12 = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.04)


def chord_mapping(p, n):
    """The mapping of the chord shock on a lattice of n cells per direction."""
    return build_mapping(p, chord_shock(p, Lattice(n)))


def bisect_sigma(m, xi, eta, steps=60):
    """Reference inverse of the onion map: plain bisection on level_arc."""
    lo, hi = np.zeros_like(xi), np.ones_like(xi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        take = elliptic.level_arc(m.pattern, mid, eta)[0] < xi
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
    return iterate(case12_pattern, EllipticConfig(lattice_n=48))


@pytest.fixture
def splu_calls(monkeypatch):
    """A list that gains one entry per elliptic.splu call."""
    calls = []
    real_splu = elliptic.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(elliptic, "splu", counting_splu)
    return calls


class TestLattice:
    @pytest.mark.parametrize("n", [16, 48])
    def test_stencils_exact_on_quadratics(self, n):
        lattice = Lattice(n)
        S, Z = lattice.S, lattice.Z
        a, b, c, d, e, f = 0.3, -1.2, 0.7, 2.1, -0.9, 1.6
        u = a + b * S + c * Z + d * S**2 + e * S * Z + f * Z**2
        u_s, u_z, u_ss, u_sz, u_zz, u_shock = lattice.derivatives(u)
        # first differences: central inside, one-sided of second order at the edges
        assert np.max(np.abs(u_s - (b + 2 * d * S + e * Z))) <= 1e-9
        assert np.max(np.abs(u_z - (c + e * S + 2 * f * Z))) <= 1e-9
        # second differences at the interior nodes, empty rows elsewhere
        interior = np.zeros(u.shape, dtype=bool)
        interior[1:-1, 1:-1] = True
        for got, exact in ((u_ss, 2 * d), (u_sz, e), (u_zz, 2 * f)):
            assert np.max(np.abs(got[interior] - exact)) <= 1e-9
            assert np.all(got[~interior] == 0.0)
        # the identity at every node but the open wall row
        wall = np.zeros(u.shape, dtype=bool)
        wall[0, 1:-1] = True
        assert np.array_equal(u_shock[~wall], u[~wall])
        assert np.all(u_shock[wall] == 0.0)

    @pytest.mark.parametrize("n", [16, 48])
    def test_lattice_bytes_is_a_close_lower_bound(self, case12_pattern, n):
        m = chord_mapping(case12_pattern, n)
        D = m.lattice.D
        fields = [m.xi, m.eta, m.jac_det, m.sig_x, m.sig_y, m.zet_x, m.zet_y, *m.hxx, *m.hxy, *m.hyy]
        held = (
            m.lattice.S.nbytes + m.lattice.Z.nbytes + sum(a.nbytes for a in fields)
            + 6 * m.xi.nbytes  # K of the Jacobian
            + D.data.nbytes + D.indices.nbytes + D.indptr.nbytes
        )
        assert elliptic.lattice_bytes(n) <= held <= 1.02 * elliptic.lattice_bytes(n)

    def test_lattice_bytes_of_a_huge_lattice(self):
        # no array is allocated: 100001^2 nodes need terabytes
        assert elliptic.lattice_bytes(100000) > 2e12


class TestShockCurve:
    """The curve against scipy's not-a-knot CubicSpline as an oracle."""

    @staticmethod
    def curve_and_oracle(N, seed=0):
        lattice = Lattice(N - 1)
        s = np.random.default_rng(seed + N).uniform(0.2, 1.0, N)
        return ShockCurve(lattice, s), CubicSpline(lattice.nodes, s, bc_type="not-a-knot")

    @pytest.mark.parametrize("N", [5, 9, 49, 97])
    def test_heights_and_slopes_between_nodes(self, N):
        curve, spline = self.curve_and_oracle(N)
        sig = np.random.default_rng(N).uniform(0.0, 1.0, 200)
        for got, want in zip(curve.at(sig), (spline(sig), spline(sig, 1))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [5, 9, 49, 97])
    def test_node_slopes_and_curvatures(self, N):
        curve, spline = self.curve_and_oracle(N)
        m, spp = spline(curve.lattice.nodes, 1), spline(curve.lattice.nodes, 2)
        assert np.max(np.abs(curve.m - m)) <= 1e-12 * np.max(np.abs(m))
        assert np.max(np.abs(curve.spp - spp)) <= 1e-10 * np.max(np.abs(spp))

    @pytest.mark.parametrize("N", [5, 9, 49, 97])
    def test_a_quadratic_moves_the_nodes_by_its_derivatives(self, N):
        # what the Jacobian's shock probes at s + delta (1, t, t^2) rely on
        curve, _ = self.curve_and_oracle(N)
        t = curve.lattice.nodes - 0.5
        moved = ShockCurve(curve.lattice, curve.s + 0.3 - 0.7 * t + 1.1 * t * t)
        assert np.max(np.abs(moved.m - curve.m - (2.2 * t - 0.7))) <= 1e-12 * np.max(np.abs(curve.m))
        assert np.max(np.abs(moved.spp - curve.spp - 2.2)) <= 1e-12 * np.max(np.abs(curve.spp))

    def test_slope_rows_are_built_once_per_solve(self, case12_pattern, monkeypatch):
        # the lattice builds them; its curves and the Newton matrix read them
        calls = []
        rows = elliptic._spline_rows

        def recording_rows(N, h):
            calls.append((N, h))
            return rows(N, h)

        monkeypatch.setattr(elliptic, "_spline_rows", recording_rows)
        assert iterate(case12_pattern, EllipticConfig(lattice_n=16)).converged
        assert calls == [(17, 0.0625)]

    def test_mapping_reads_the_curves_node_arrays(self, case12_pattern, monkeypatch):
        p, lattice = case12_pattern, Lattice(16)
        curve = chord_shock(p, lattice)
        base = build_mapping(p, curve)

        def refuse(self, sig):
            raise AssertionError("the mapping evaluated the spline")

        # the mapping evaluates no spline at its nodes ...
        monkeypatch.setattr(ShockCurve, "at", refuse)
        again = build_mapping(p, curve)
        assert np.array_equal(again.jac_det, base.jac_det) and np.array_equal(again.hxx, base.hxx)
        # ... and column k reads the slope and curvature of node k alone
        k = 5
        curve.m[k] += 1e-3
        curve.spp[k] += 1e-2
        moved = build_mapping(p, curve)
        for field in (moved.jac_det - base.jac_det, moved.hxx[3] - base.hxx[3]):
            assert np.flatnonzero(np.any(field != 0.0, axis=0)).tolist() == [k]
        assert np.array_equal(moved.eta, base.eta)


class TestMapping:
    def test_wall_row_exactly_on_axis(self, case12_pattern):
        m = chord_mapping(case12_pattern, 32)
        assert np.max(np.abs(m.eta[0, :])) == 0.0

    def test_corners_of_chord_mapping(self, case12_pattern):
        p = case12_pattern
        m = chord_mapping(p, 32)
        assert np.allclose(m.corner("L"), p.xi_L_star, atol=1e-9)
        assert np.allclose(m.corner("R"), p.xi_R_star, atol=1e-9)

    def test_unperturbed_mapping_symmetric(self, unpert_pattern):
        p = unpert_pattern
        m = chord_mapping(p, 40)
        # reflection sigma -> 1 - sigma flips xi for the symmetric pattern
        assert np.max(np.abs(m.xi + m.xi[:, ::-1])) < 1e-12
        assert np.max(np.abs(m.eta - m.eta[:, ::-1])) < 1e-12

    def test_jacobian_positive_case12_64(self, case12_pattern):
        m = chord_mapping(case12_pattern, 64)
        assert np.all(m.jac_det > 0.0)

    def test_hessian_transform_second_order(self, case12_pattern):
        # quadratic fields have exact Hessians; the transform error is pure
        # stencil truncation and must shrink at second order
        p = case12_pattern

        def worst(n):
            m = chord_mapping(p, n)
            errs = []
            for f, exact in [
                (m.xi**2, (2.0, 0.0, 0.0)),
                (m.xi * m.eta, (0.0, 1.0, 0.0)),
                (m.eta**2, (0.0, 0.0, 2.0)),
            ]:
                _, _, hxx, hxy, hyy = m.hessian_terms(f)
                errs.append(np.max(np.abs(hxx[1:-1, 1:-1] - exact[0])))
                errs.append(np.max(np.abs(hxy[1:-1, 1:-1] - exact[1])))
                errs.append(np.max(np.abs(hyy[1:-1, 1:-1] - exact[2])))
            return max(errs)

        e48, e96 = worst(48), worst(96)
        assert e48 < 2e-2
        assert e96 < 0.35 * e48

    def test_gradient_second_order_for_linear(self, case12_pattern):
        def worst(n):
            m = chord_mapping(case12_pattern, n)
            gx, gy = m.hessian_terms(0.4 * m.xi + 1.3 * m.eta)[:2]
            return max(np.max(np.abs(gx - 0.4)), np.max(np.abs(gy - 1.3)))

        e32, e64 = worst(32), worst(64)
        assert e32 < 5e-3
        assert e64 < 0.35 * e32

    def test_invert_round_trip(self, case12_pattern):
        m = chord_mapping(case12_pattern, 32)
        sig, zet, inside = m.invert(m.xi[5:-5:4, 3:-3:4], m.eta[5:-5:4, 3:-3:4])
        assert np.all(inside)
        assert np.max(np.abs(sig - m.lattice.S[5:-5:4, 3:-3:4])) < 1e-9
        assert np.max(np.abs(zet - m.lattice.Z[5:-5:4, 3:-3:4])) < 1e-9

    def test_invert_outside_the_lens(self, case12_pattern):
        p = case12_pattern
        m = chord_mapping(p, 32)
        d = 0.05 * p.state_R.c
        j, i = 16, 16  # mid-height row, middle column
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
        m = chord_mapping(p, 32)
        # lattice nodes are exact roots
        sig, _, _ = m.invert(m.xi, m.eta)
        assert np.max(np.abs(sig - bisect_sigma(m, m.xi, m.eta))) <= 1e-13
        sig, _, inside = m.invert(float(m.xi[5, 5]), float(m.eta[5, 5]))
        assert inside and abs(sig - m.lattice.S[5, 5]) <= 1e-13
        # 1e-12 inside each arc, at every node height of that arc
        for k, side in ((0, 1.0), (-1, -1.0)):
            eta = m.eta[:, k]
            xi = elliptic.level_arc(p, float(k == -1), eta)[0] + side * 1e-12
            sig, _, inside = m.invert(xi, eta)
            assert np.all(inside[:-1])
            assert np.max(np.abs(sig - bisect_sigma(m, xi, eta))) <= 1e-13
        # above the shock, beyond either arc and above the lower arc top
        d = 0.05 * p.state_R.c
        top = min(p.arc_L.radius, p.arc_R.radius)
        xi = np.concatenate([m.xi[-1, 1:-1], m.xi[1:-1, 0] - d, m.xi[1:-1, -1] + d, m.xi[0, 1:-1]])
        eta = np.concatenate([
            m.eta[-1, 1:-1] + d, m.eta[1:-1, 0], m.eta[1:-1, -1], np.full(m.lattice.nodes.size - 2, 1.01 * top),
        ])
        _, _, inside = m.invert(xi, eta)
        assert not np.any(inside)

    def test_shock_above_arc_top_rejected(self, case12_pattern):
        p = case12_pattern
        lattice = Lattice(16)
        tall = bumped(chord_shock(p, lattice), 2.0 * p.arc_R.radius)
        with pytest.raises(MappingError):
            build_mapping(p, tall)

    def test_negative_shock_height_rejected(self):
        # and so are heights that are not finite or not shaped like the nodes
        cases = [
            (4, [0.5, 0.4, -0.1, 0.4, 0.5]),
            (4, [0.5, 0.4, np.nan, 0.4, 0.5]),
            (16, np.full(10, 0.5)),
            (16, np.full((17, 1), 0.5)),
        ]
        for n, s in cases:
            with pytest.raises(MappingError):
                ShockCurve(Lattice(n), np.asarray(s))


class TestInitialGuess:
    def test_unperturbed_guess_is_exact(self, unpert_pattern):
        p = unpert_pattern
        m = chord_mapping(p, 24)
        psi = initial_guess(p, m)
        _, a0 = constant_state_potential(ISO, p.state_R.rho, p.state_R.v)
        assert np.max(np.abs(psi - a0)) < 1e-13

    def test_guess_wall_condition_exact(self, case12_pattern, unpert_pattern):
        # the guess's wall derivative vanishes identically (both constant
        # states have zero vertical velocity and sigma_eta = 0 on the wall);
        # the discrete stencil sees only its own O(h^2) truncation
        p = case12_pattern
        m = chord_mapping(p, 32)
        psi = initial_guess(p, m)
        _, gy = m.hessian_terms(psi)[:2]
        assert np.max(np.abs(gy[0, :])) < 2e-5
        # for the unperturbed pattern the guess is constant: exactly zero
        p0 = unpert_pattern
        m0 = chord_mapping(p0, 24)
        _, gy0 = m0.hessian_terms(initial_guess(p0, m0))[:2]
        assert np.max(np.abs(gy0[0, :])) < 1e-12

    def test_guess_subsonic_interior_case12(self, case12_pattern):
        p = case12_pattern
        m = chord_mapping(p, 48)
        psi = initial_guess(p, m)
        vx, vy = m.hessian_terms(psi)[:2]
        chi = psi - 0.5 * (m.xi**2 + m.eta**2)
        zx, zy = vx - m.xi, vy - m.eta
        arg = -chi - 0.5 * (zx**2 + zy**2)
        c2 = AIR.c0**2 + (AIR.gamma - 1.0) * arg
        L2 = (zx**2 + zy**2) / c2
        assert np.max(L2[1:-1, 1:-1]) < 1.0


class TestInnerSolve:
    def test_unperturbed_is_fixed_point(self, unpert_pattern):
        p = unpert_pattern
        sol = iterate(p, EllipticConfig(lattice_n=32))
        assert sol.converged
        assert np.max(np.abs(sol.psi - initial_guess(p, chord_mapping(p, 32)))) < 1e-8

    def test_chord_newton_reuses_the_factorization(self, case12_pattern, splu_calls):
        p = case12_pattern
        sol = iterate(p, EllipticConfig(lattice_n=24))
        assert sol.converged
        assert 1 <= len(splu_calls) < len(sol.residual_history)
        F, _, _ = elliptic._residual(p.config.model, p, sol.mapping, sol.psi)
        assert np.max(np.abs(F)) < sol.config.tol_outer

    def test_stale_factorization_converges_to_the_fresh_solution(
        self, case12_pattern, splu_calls, monkeypatch
    ):
        # a Newton matrix carried over accepted steps, against a fresh one at
        # every step (no step on a carried one is accepted)
        p = case12_pattern
        cfg = EllipticConfig(lattice_n=24, tol_outer=1e-10)
        chord = iterate(p, cfg)
        n_chord = len(splu_calls)
        monkeypatch.setattr(elliptic, "CHORD_CONTRACTION", math.inf)
        fresh = iterate(p, cfg)
        assert chord.converged and fresh.converged
        assert len(splu_calls) - n_chord == len(fresh.residual_history) > n_chord
        scale = p.state_R.c * max(1.0, np.max(np.abs(fresh.psi)))
        assert np.max(np.abs(chord.psi - fresh.psi)) < 1e-9 * scale

    def test_wall_rows_exact_in_discrete_stencil(self, case12_solution):
        sol = case12_solution
        m = sol.mapping
        dz = m.lattice.h
        wall = (-3 * sol.psi[0, :] + 4 * sol.psi[1, :] - sol.psi[2, :]) / (2 * dz)
        # sigma_y = 0 on the wall, so the stencil value alone is the condition
        assert np.max(np.abs(wall[1:-1])) < 1e-9

    def test_interior_residual_halves_under_refinement(self, case12_pattern):
        # evaluate each converged field's nondivergence-form residual on a
        # common fine lattice (cubic interpolation in (sigma, zeta))
        p = case12_pattern

        def fine_residual(n):
            sol = iterate(p, EllipticConfig(lattice_n=n))
            lattice = Lattice(96)
            fine = build_mapping(p, ShockCurve(lattice, sol.mapping.shock.at(lattice.nodes)[0]))
            sp = RectBivariateSpline(sol.mapping.lattice.nodes, sol.mapping.lattice.nodes, sol.psi, kx=3, ky=3)
            psi_f = sp(fine.lattice.nodes, fine.lattice.nodes)
            vx, vy, hxx, hxy, hyy = fine.hessian_terms(psi_f)
            chi = psi_f - 0.5 * (fine.xi**2 + fine.eta**2)
            zx, zy = vx - fine.xi, vy - fine.eta
            arg = -chi - 0.5 * (zx**2 + zy**2)
            c2 = p.config.model.c0**2 + (p.config.model.gamma - 1) * arg
            res = (
                (c2 - zx**2) * hxx + 2 * (-zx * zy) * hxy + (c2 - zy**2) * hyy
            )
            return np.percentile(np.abs(res[4:-4, 4:-4]), 98)

        r24, r48 = fine_residual(24), fine_residual(48)
        assert r48 < 0.5 * r24


class TestExactJacobian:
    @pytest.mark.parametrize("n", [16, 48])
    def test_matches_finite_differences(self, case12_pattern, n):
        # off the fixed point: psi a smooth perturbation of the initial guess
        # that vanishes on no boundary row, the shock read off its top row
        p = case12_pattern
        model = p.config.model
        lattice = Lattice(n)
        m0 = build_mapping(p, chord_shock(p, lattice))
        S, Z = lattice.S, lattice.Z
        psi = initial_guess(p, m0) + 0.01 * p.state_R.c * (Z + S * Z + 0.5 * S**2)
        _, a0 = constant_state_potential(model, p.state_I.rho, p.state_I.v)
        v_iy = p.state_I.v[1]

        def mapping_of(q):
            return build_mapping(p, ShockCurve(lattice, (q[-1] - a0) / v_iy))

        def resid(q):
            return elliptic._residual(model, p, mapping_of(q), q)[0]

        F = resid(psi)
        scale = p.state_R.c * max(1.0, np.max(np.abs(psi)))
        fd = fd_jacobian(resid, psi, F, 1e-7 * scale).tocsr()
        # eliminate the slope unknowns: dF/dpsi = A - B T^-1 C, where C
        # reads the top row only
        J = elliptic._jacobian(model, p, mapping_of(psi), psi, F).tocsc()
        size, top = psi.size, psi.size - lattice.nodes.size
        A, B = J[:size, :size], J[:size, size:]
        C, T = J[size:, top:size], J[size:, size:]
        coupled = A[:, top:].toarray() - B.toarray() @ np.linalg.solve(T.toarray(), C.toarray())
        exact = hstack([A[:, :top], csc_matrix(coupled)]).tocsr()
        # forward differences carry an O(delta) truncation error
        row_scale = abs(exact).max(axis=1).toarray().ravel()
        row_diff = abs(exact - fd).max(axis=1).toarray().ravel()
        assert np.max(row_diff / row_scale) <= 1e-4
        # off the top-row columns the pattern is the stencils'
        local = exact[:, :top], fd[:, :top]
        assert ((local[0] != 0) != (local[1] != 0)).nnz == 0

    def test_jacobian_solves_no_slope_system(self, case12_pattern, monkeypatch):
        # the shock probes shift the curve's node arrays instead
        p, lattice = case12_pattern, Lattice(16)
        mapping = build_mapping(p, chord_shock(p, lattice))
        psi = initial_guess(p, mapping)
        F = elliptic._residual(p.config.model, p, mapping, psi)[0]
        calls = []
        real_solve = elliptic.solve_banded

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(elliptic, "solve_banded", counting_solve)
        elliptic._jacobian(p.config.model, p, mapping, psi, F)
        assert calls == []

    def test_spline_rows_give_the_not_a_knot_slopes(self, case12_pattern):
        lattice = Lattice(32)
        s = chord_shock(case12_pattern, lattice).s * (1.0 + 0.3 * np.sin(7.0 * lattice.nodes))
        T, R, piece, ws, wm = lattice.T, lattice.R, lattice.piece, lattice.ws, lattice.wm
        m = np.linalg.solve(T.toarray(), R @ s)
        spline = CubicSpline(lattice.nodes, s, bc_type="not-a-knot")
        assert np.max(np.abs(m - spline(lattice.nodes, 1))) <= 1e-12 * np.max(np.abs(m))
        ends = piece, piece + 1
        spp = spline(lattice.nodes, 2)
        hermite = sum(ws[:, k] * s[e] + wm[:, k] * m[e] for k, e in enumerate(ends))
        assert np.max(np.abs(hermite - spp)) <= 1e-10 * np.max(np.abs(spp))


class TestShockUpdate:
    def test_unperturbed_shock_unchanged(self, unpert_pattern):
        p = unpert_pattern
        sh = chord_shock(p, Lattice(24))
        sol = iterate(p, EllipticConfig(lattice_n=24))
        assert sol.converged
        assert np.max(np.abs(sol.mapping.shock.s - sh.s)) < 1e-10

    def test_matching_relation_is_identity(self, case12_solution, case12_pattern):
        p, sol = case12_pattern, case12_solution
        _, a0 = constant_state_potential(AIR, p.state_I.rho, p.state_I.v)
        v_iy = p.state_I.v[1]
        assert np.max(np.abs(sol.mapping.shock.s - (sol.psi[-1, :] - a0) / v_iy)) < 1e-12
        assert np.max(np.abs(a0 + v_iy * sol.mapping.shock.s - sol.psi[-1, :])) < 1e-12

    def test_monotone_residual_on_desk_case(self, case12_solution):
        combined = [rec["combined"] for rec in case12_solution.residual_history]
        assert combined[-1] < 1e-6
        assert all(b < a for a, b in zip(combined, combined[1:]))

    def test_stop_test_bounds_the_error_at_the_slow_corner(self):
        # the default tolerance stops within 1e-6 r_R of a tight solve where
        # the split iteration with Anderson mixing stopped 1.3e-4 r_R away
        p = build(ProblemConfig(model=GasModel(gamma=1.1), M_I=2.2, tau=math.radians(5.0), epsilon=0.04))
        loose = iterate(p, EllipticConfig(lattice_n=32))
        tight = iterate(p, EllipticConfig(lattice_n=32, tol_outer=1e-11))
        assert loose.converged and tight.converged
        gap = np.max(np.abs(loose.mapping.shock.s - tight.mapping.shock.s))
        assert gap < 1e-6 * p.arc_R.radius


class TestIterate:
    def test_unperturbed_recovery_from_bump(self, unpert_pattern):
        p = unpert_pattern
        cfg = EllipticConfig(lattice_n=32)
        shock0 = bumped(chord_shock(p, Lattice(32)), 0.01 * p.state_R.c)
        sol = iterate(p, cfg, shock0=shock0)
        assert sol.converged
        assert np.max(np.abs(sol.mapping.shock.s - p.eta_R_star)) < 1e-6

    def test_shock0_on_another_lattice_raises(self, case12_pattern, monkeypatch):
        def refuse(*args):
            raise AssertionError("the solve built a mapping")

        monkeypatch.setattr(elliptic, "build_mapping", refuse)
        shock0 = chord_shock(case12_pattern, Lattice(32))
        with pytest.raises(MappingError, match="32 cells.*lattice_n is 16") as err:
            iterate(case12_pattern, EllipticConfig(lattice_n=16), shock0=shock0)
        assert "\n" not in str(err.value)

    def test_factorization_carried_across_outer_iterations(self, case12_pattern, splu_calls):
        sol = iterate(case12_pattern, EllipticConfig(lattice_n=48))
        assert sol.converged
        assert len(splu_calls) <= 3

    def test_case12_converges_with_structure(self, case12_solution, case12_pattern):
        sol, p = case12_solution, case12_pattern
        assert sol.converged
        assert sol.residual_history[-1]["combined"] < 1e-6
        eps = p.config.epsilon
        c_r = p.state_R.c
        assert np.hypot(*(sol.corner_L - p.xi_L_star)) < 3 * math.sqrt(eps) * c_r
        assert np.hypot(*(sol.corner_R - p.xi_R_star)) < 3 * math.sqrt(eps) * c_r
        f = sol.fields()
        assert f["rho"].min() > p.state_I.rho
        assert np.max(f["L2"][1:-1, 1:-1]) < 1.0 - eps + 10.0 / sol.config.lattice_n

    @pytest.mark.parametrize("eps", [0.04, 0.01, 0.0025])
    def test_desk_case_outer_iterations(self, eps):
        # 7 Newton steps per eps at lattice 48
        p = build(ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=eps))
        cfg = EllipticConfig(lattice_n=48)
        sol = iterate(p, cfg)
        assert sol.converged
        assert len(sol.residual_history) <= 8
        assert sol.residual_history[-1]["combined"] < cfg.tol_outer

    def test_escaping_relaxed_step_raises(self, case12_pattern, monkeypatch):
        # every corner sits above a tenth of its arc radius
        monkeypatch.setattr(elliptic, "CORNER_MARGIN", 0.1)
        with pytest.raises(elliptic.CornerEscapeError, match="left the extended arc"):
            iterate(case12_pattern, EllipticConfig(lattice_n=16))

    def test_monatomic_desk_case_converges(self):
        # the solver is not tied to the two acceptance gammas
        model = GasModel(gamma=5 / 3)
        p = build(ProblemConfig(model=model, M_I=2.5, tau=math.radians(12.0), epsilon=0.02))
        sol = iterate(p, EllipticConfig(lattice_n=40))
        assert sol.converged
        f = sol.fields()
        assert f["rho"].min() > p.state_I.rho
        assert np.max(f["L2"][1:-1, 1:-1]) < 1.0 - p.config.epsilon

    def test_separation_flag_marks_unsupported_case(self):
        # small |M_I^y| with a low corner violates the corner-chord
        # separation; the condition is advisory and the solver still runs
        p = build(
            ProblemConfig(model=AIR, MIy=-0.3, eta_L_star=0.1, epsilon=0.01),
            validate_supersonic=False,
        )
        assert separation_check(p) < 0.0
        sol = iterate(p, EllipticConfig(lattice_n=16, max_outer=2))
        assert len(sol.residual_history) == 2

    def test_requires_positive_epsilon(self):
        p = build(ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.0))
        with pytest.raises(ValueError):
            iterate(p, EllipticConfig(lattice_n=8))


def test_fields_match_their_formulas_bit_for_bit(case12_solution):
    # on case12 and on the desk case; L2 is also the kernel's |z|^2/c^2
    desk = iterate(build(replace(CASE_12, epsilon=0.01)), EllipticConfig(lattice_n=48))
    for sol in (case12_solution, desk):
        f = sol.fields()
        for key, a in nodal_fields(sol).items():
            assert f[key].tobytes() == a.tobytes(), key
        z2, c2 = elliptic._conditions(sol.pattern.config.model, sol.pattern, sol.mapping, sol.psi)[4:6]
        assert (z2 / c2).tobytes() == f["L2"].tobytes()


def test_fields_are_formed_once_as_read_only_arrays(case12_solution):
    sol = case12_solution
    f = sol.fields()
    c2 = elliptic._conditions(sol.pattern.config.model, sol.pattern, sol.mapping, sol.psi)[5]
    assert f["c2"].tobytes() == c2.tobytes()
    assert all(a is b and not a.flags.writeable for a, b in zip(f.values(), sol.fields().values()))
    with pytest.raises(FrozenInstanceError):
        sol.psi = sol.psi + 1.0


def test_export_csv(tmp_path, case12_solution):
    from wedgeflow.cli import write_solution_csv

    node, shock, hist = tmp_path / "n.csv", tmp_path / "s.csv", tmp_path / "h.csv"
    write_solution_csv(case12_solution, node, shock, hist)
    assert node.read_text().splitlines()[0].startswith("sigma,zeta,xi")
    assert len(shock.read_text().splitlines()) == case12_solution.config.lattice_n + 2
    assert "combined" in hist.read_text().splitlines()[0]
