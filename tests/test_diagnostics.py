import csv
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from shock_oracles import corner_sensitivity, corner_sensitivity_fd
from wedgeflow.gas import GasModel
from wedgeflow.pattern import ProblemConfig, build
from wedgeflow.elliptic import EllipticConfig, GridMapping, iterate
from wedgeflow.shocks import horizontal_downstream_shock
from wedgeflow.diagnostics import (
    CompositeField,
    ProfileError,
    arc_ode_constants,
    arc_profile,
    arc_rhs_f,
    density_extrema,
    ellipticity_report,
    make_test_battery,
    velocity_and_normal_ranges,
    weak_residual,
    _local_minima,
)
from wedgeflow import diagnostics, elliptic
from wedgeflow.cli import dispatch, write_solution_csv

AIR = GasModel(gamma=1.4)
ISO = GasModel(gamma=1.0)


@pytest.fixture(scope="module")
def unpert_solution():
    p = build(ProblemConfig(model=ISO, MIy=-2.0, epsilon=0.04))
    return iterate(p, EllipticConfig(lattice_n=32))


@pytest.fixture(scope="module")
def case12_solution():
    p = build(ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01))
    return iterate(p, EllipticConfig(lattice_n=48))


class TestEllipticity:
    def test_constant_state_max_on_boundary(self):
        # L = |xi - v|/c is radial: on any disk of samples inside the sonic
        # circle the largest value sits on the outermost ring
        v, c = np.array([0.3, -0.1]), 1.2
        rr, tt = np.meshgrid(np.linspace(0, 0.9 * c, 25), np.linspace(0, 2 * math.pi, 33))
        X = v[0] + rr * np.cos(tt)
        Y = v[1] + rr * np.sin(tt)
        L = np.hypot(X - v[0], Y - v[1]) / c
        k = np.unravel_index(np.argmax(L), L.shape)
        assert k[1] == 24  # outermost radius index

    def test_unperturbed_L2_attained_only_on_arcs(self, unpert_solution):
        sol = unpert_solution
        eps = sol.pattern.config.epsilon
        f = sol.fields()
        assert np.max(f["L2"][:, 1:-1]) < 1.0 - eps
        assert np.max(np.abs(f["L2"][:, 0] - (1 - eps))) < 1e-8
        assert np.max(np.abs(f["L2"][:, -1] - (1 - eps))) < 1e-8

    def test_case12_interior_bound(self, case12_solution):
        reports = ellipticity_report(case12_solution)
        assert all(r.passed for r in reports)
        assert reports[0].value < 0.99  # strict bound, before the grid slack


class TestDensityExtrema:
    def test_constant_field_has_no_extrema(self):
        assert _local_minima(np.full((12, 14), 1.7)) == []

    def test_unperturbed_no_minima(self, unpert_solution):
        by_name = {c.name: c for c in density_extrema(unpert_solution)}
        assert by_name["no_interior_or_wall_density_minima"].passed
        assert by_name["no_interior_or_wall_density_minima"].value == 0

    def test_case12_min_on_shock_pseudo_normal(self, case12_solution):
        by_name = {c.name: c for c in density_extrema(case12_solution)}
        assert by_name["no_interior_or_wall_density_minima"].passed
        assert by_name["global_density_min_above_upstream"].passed
        assert by_name["global_density_min_above_upstream"].location == "shock"
        assert by_name["global_density_min_pseudo_normal"].passed
        assert by_name["shock_convex_at_density_min"].passed


class TestVelocityRanges:
    def test_unperturbed_vx_window(self, unpert_solution):
        checks = velocity_and_normal_ranges(unpert_solution)
        assert all(c.passed for c in checks)
        vx_max = next(c for c in checks if c.name == "vx_upper_window")
        assert abs(vx_max.value) < 1e-6  # v^x identically zero up to solver tol

    def test_case12_all_pass_with_C3(self, case12_solution):
        checks = velocity_and_normal_ranges(case12_solution)
        assert all(c.passed for c in checks)

    def test_case12_admissibility(self, case12_solution):
        checks = velocity_and_normal_ranges(case12_solution)
        adm = next(c for c in checks if c.name == "shock_admissible_everywhere")
        assert adm.passed and adm.value > 1.0


class TestShockNormal:
    """solution_shock.csv's normal_angle is the mapping's exact downstream
    shock normal, -grad zeta on the shock row."""

    @staticmethod
    def written_angles(sol, tmp_path):
        paths = [tmp_path / f"{n}.csv" for n in ("nodes", "shock", "history")]
        write_solution_csv(sol, *paths)
        with open(paths[1], newline="") as fh:
            return np.array([float(row["normal_angle"]) for row in csv.DictReader(fh)])

    def test_case12_normal_is_minus_grad_zeta_and_the_spline_normal(self, case12_solution, tmp_path):
        m = case12_solution.mapping
        angles = self.written_angles(case12_solution, tmp_path)
        assert angles.tolist() == [math.atan2(-zy, -zx) for zx, zy in zip(m.zet_x[-1], m.zet_y[-1])]
        # at every node, the corners included, the outward normal of the
        # lens edge from the level arcs and the curve's slope, turned downstream
        _, _, nx, ny = diagnostics._lens_edge(m, "S", m.lattice.nodes)
        assert np.max(np.abs(angles - np.arctan2(-ny, -nx))) <= 1e-12

    def test_straight_shock_normal_points_down(self, unpert_solution, tmp_path):
        angles = self.written_angles(unpert_solution, tmp_path)
        assert np.max(np.abs(angles + 0.5 * math.pi)) <= 1e-12


class TestArcProfile:
    def test_stationary_point_eps0_analytic(self):
        # at eps = 0 the stationary sound speed equals the arc radius
        for gamma in (1.0, 1.4, 3.0):
            _, _, _, h0, _ = arc_ode_constants(gamma, 0.0, r=0.731)
            assert h0 == pytest.approx(0.731**2, rel=1e-15)

    def test_stationary_point_eps_numeric(self):
        # root of f(h, 0) recovers the closed form at eps = 0.01
        gamma, eps, r = 1.4, 0.01, 1.07
        _, _, _, h0, _ = arc_ode_constants(gamma, eps, r)
        root = brentq(lambda h: arc_rhs_f(gamma, eps, r, h, 0.0), 0.5 * r**2, 2.0 * r**2,
                      xtol=1e-15)
        assert root == pytest.approx(h0, rel=1e-12)

    def test_case12_profiles_pass(self, case12_solution):
        for side in ("L", "R"):
            profile, checks = arc_profile(case12_solution, side)
            assert all(c.passed for c in checks)
            assert profile.phi_bar > 0
            # tangential pseudo-velocity vanishes at the wall corner
            assert abs(profile.p[0]) < 1e-6

    def test_isothermal_integrated_lower_bound(self):
        # gamma = 1 tilted pattern: integrating the single inequality from
        # the wall corner keeps chi_phi above -O(eps)
        eps = 0.04
        cfg0 = ProblemConfig(model=ISO, MIy=-2.0, epsilon=eps)
        eta_R, _ = horizontal_downstream_shock(ISO, cfg0.upstream(), 0.0)
        p = build(ProblemConfig(model=ISO, MIy=-2.0, eta_L_star=0.6 * eta_R, epsilon=eps))
        sol = iterate(p, EllipticConfig(lattice_n=40))
        assert sol.converged
        for side in ("L", "R"):
            profile, checks = arc_profile(sol, side)
            assert all(c.passed for c in checks)
            c2 = p.state_R.c**2
            assert np.min(profile.p) > -0.5 * eps * c2

    def test_profile_refused_without_arc_condition(self, case12_solution):
        import dataclasses

        sol = case12_solution
        sol.fields()  # formed before the copy, which forms its own
        broken = dataclasses.replace(sol, psi=sol.psi * 1.05)
        assert not np.array_equal(broken.fields()["L2"], sol.fields()["L2"])
        with pytest.raises(ProfileError):
            arc_profile(broken, "R")


class TestCornerSensitivity:
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 3.0])
    @pytest.mark.parametrize("miy", [-1.5, -3.0])
    def test_inequalities(self, gamma, miy):
        p = build(ProblemConfig(model=GasModel(gamma=gamma), MIy=miy, epsilon=1e-6))
        cs = corner_sensitivity(p)
        assert cs.dvdy_positive
        assert cs.bound_check
        assert math.hypot(cs.p_omega, cs.k_omega) < cs.bound_rhs

    @pytest.mark.parametrize("gamma,miy", [(1.4, -1.5), (1.4, -3.0), (3.0, -2.0), (5 / 3, -2.5)])
    def test_formulas_match_finite_differences(self, gamma, miy):
        p = build(ProblemConfig(model=GasModel(gamma=gamma), MIy=miy, epsilon=1e-6))
        cs = corner_sensitivity(p)
        fd = corner_sensitivity_fd(p)
        assert cs.p_omega == pytest.approx(fd["p_omega"], rel=1e-5)
        assert cs.k_omega == pytest.approx(fd["k_omega"], rel=1e-5)
        assert cs.dvdy_domega == pytest.approx(fd["dvdy_domega"], rel=1e-5)
        assert cs.dzdy_domega == pytest.approx(fd["dzdy_domega"], rel=1e-5)

    def test_isothermal_k_prefactor_vanishes(self):
        p = build(ProblemConfig(model=ISO, MIy=-2.0, epsilon=1e-6))
        assert corner_sensitivity(p).k_omega == 0.0

    def test_theta_windows(self):
        # the corner direction stays in the allowed sector on both sides
        for gamma in (1.4, 3.0):
            p = build(ProblemConfig(model=GasModel(gamma=gamma), MIy=-2.0, epsilon=0.01))
            cs = corner_sensitivity(p)
            hi = 0.5 * math.pi - cs.sigma_theta * cs.phi_bar
            assert 0.0 < cs.theta_plus < hi
            assert math.pi < cs.theta_minus < 1.5 * math.pi - cs.sigma_theta * cs.phi_bar


def _midpoint_weak_residual(comp, bumps, quad_n):
    """The midpoint rule the weak residual used before the divergence form:
    quad_n x quad_n cells on each bump's square, the composite field sampled
    through CompositeField.evaluate, normalized by the same rule applied to
    rho_R (c_R |grad theta| + 2 theta)."""
    p = comp.pattern
    rho_s, c_s = p.state_R.rho, p.state_R.c
    values = []
    for center, radius in bumps:
        xs = np.linspace(center[0] - radius, center[0] + radius, quad_n, endpoint=False)
        ys = np.linspace(center[1] - radius, center[1] + radius, quad_n, endpoint=False)
        dx, dy = xs[1] - xs[0], ys[1] - ys[0]
        X, Y = np.meshgrid(xs + 0.5 * dx, ys + 0.5 * dy)
        u = ((X - center[0]) ** 2 + (Y - center[1]) ** 2) / radius**2
        disc = u < 1.0
        X, Y, u = X[disc], Y[disc], u[disc]
        rho, zx, zy, _ = comp.evaluate(X, Y)
        theta = np.exp(1.0 - 1.0 / (1.0 - u))
        fac = -2.0 * theta / (radius**2 * (1.0 - u) ** 2)
        tx, ty = fac * (X - center[0]), fac * (Y - center[1])
        raw = np.sum(rho * (zx * tx + zy * ty) - 2.0 * rho * theta) * dx * dy
        norm = np.sum(rho_s * (c_s * np.hypot(tx, ty) + 2.0 * theta)) * dx * dy
        values.append(abs(raw) / norm)
    return np.array(values)


class TestWeakResidual:
    def test_constant_region_bump_quadrature_only(self, unpert_solution):
        # a bump wholly inside the upstream region meets no interface and no
        # lattice cell: the divergence form gives exactly 0
        p = unpert_solution.pattern
        center = np.array([0.0, p.eta_R_star + 1.3 * p.state_R.c])
        out = weak_residual(unpert_solution, bumps=[(center, 0.3 * p.state_R.c)])
        assert out["max"] == 0.0

    def test_straight_shock_bump(self, unpert_solution):
        # straddle the horizontal shock right of the lens: only the
        # Rankine-Hugoniot residual of the pattern is left
        p = unpert_solution.pattern
        center = np.array([p.xi_R_star[0] + 1.0 * p.state_R.c, p.eta_R_star])
        out = weak_residual(unpert_solution, bumps=[(center, 0.25 * p.state_R.c)])
        assert out["max"] <= 1e-12

    def test_battery_constant_and_straight_shock_bumps(self, case12_solution):
        # the desk battery's last four bumps: the straight L and R shocks and
        # two constant-region interiors
        out = weak_residual(case12_solution)
        assert np.all(out["values"][8:10] <= 1e-12)
        assert np.all(out["values"][10:] == 0.0)

    def test_converged_in_the_node_count(self, case12_solution, monkeypatch):
        base = weak_residual(case12_solution)
        monkeypatch.setattr(diagnostics, "GAUSS_NODES", 2 * diagnostics.GAUSS_NODES)
        fine = weak_residual(case12_solution)
        assert abs(fine["max"] / base["max"] - 1.0) < 1e-3
        assert np.max(np.abs(fine["values"] - base["values"])) < 0.01 * base["max"]

    def test_matches_the_midpoint_rule_on_the_arcs(self, case12_solution):
        # at quad_n 768 the midpoint rule's arc-bump values move by 2.4 %
        # between quad_n 512 and 1024: 3 % is its own spread
        battery = make_test_battery(case12_solution.pattern)[:6]
        ref = _midpoint_weak_residual(CompositeField(case12_solution), battery, 768)
        new = weak_residual(case12_solution, bumps=battery)["values"]
        assert np.all(np.abs(new / ref - 1.0) < 0.03)

    def test_unit_bump_integrals(self):
        # over the unit disc, by Gauss-Legendre in the radius: A0 the integral
        # of theta_hat, A1 that of |grad theta_hat|, which by parts in the
        # radius is 2 pi times the integral of theta_hat from 0 to 1
        x, w = np.polynomial.legendre.leggauss(128)
        r, w = 0.5 * (x + 1.0), 0.5 * w
        theta = np.exp(1.0 - 1.0 / (1.0 - r * r))
        assert diagnostics.BUMP_A0 == pytest.approx(2.0 * math.pi * np.sum(w * theta * r), rel=1e-14)
        assert diagnostics.BUMP_A1 == pytest.approx(2.0 * math.pi * np.sum(w * theta), rel=1e-14)

    def test_deterministic(self, case12_solution):
        battery = make_test_battery(case12_solution.pattern)
        a = weak_residual(case12_solution, bumps=battery)
        b = weak_residual(case12_solution, bumps=battery)
        assert np.array_equal(a["values"], b["values"])

    def test_battery_stays_above_wall(self, case12_solution):
        for center, radius in make_test_battery(case12_solution.pattern):
            assert center[1] - radius > 0.0


def test_report_csv(tmp_path, capsys):
    # the report file of `wedge verify`; its first row is the ellipticity check
    cfg = tmp_path / "wedge.cfg"
    cfg.write_text("gamma = 1.4\nM_I = 2.94\ntau_deg = 10\nepsilon = 0.01\nlattice_n = 48\nquad_n = 16\n")
    assert dispatch(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "verify_report.csv").read_text().splitlines()
    assert text[0].startswith("name,verdict")
    assert text[1].startswith("interior_L2_bound,PASS")


def test_verify_forms_the_nodal_fields_once(tmp_path, capsys, monkeypatch):
    # after the solve, the checks and the weak residual share one set of
    # nodal fields: one Hessian evaluation at most
    calls = []
    terms, solve = GridMapping.hessian_terms, elliptic.iterate

    def counted_terms(self, u):
        calls.append(1)
        return terms(self, u)

    def solve_then_count(*args, **kwargs):
        sol = solve(*args, **kwargs)
        calls.clear()
        return sol

    monkeypatch.setattr(GridMapping, "hessian_terms", counted_terms)
    monkeypatch.setattr(elliptic, "iterate", solve_then_count)
    cfg = tmp_path / "wedge.cfg"
    cfg.write_text("gamma = 1.4\nM_I = 2.94\ntau_deg = 10\nepsilon = 0.04\nlattice_n = 24\n")
    assert dispatch(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(calls) <= 1


@pytest.mark.parametrize("eps, gap_L, gap_R", [(0.01, 3.51e-3, 4.28e-3), (0.0025, 2.37e-3, 3.37e-3)])
def test_report_carries_the_corner_gaps(eps, gap_L, gap_R, tmp_path, capsys):
    # informational rows: the sonic-corner heights eta_L*, eta_R* minus the
    # shock's end heights s(0), s(1), in units of c_I = 1
    cfg = tmp_path / "wedge.cfg"
    cfg.write_text(f"gamma = 1.4\nM_I = 2.94\ntau_deg = 10\nepsilon = {eps}\nlattice_n = 48\n")
    assert dispatch(["verify", "--config", str(cfg), "--out", str(tmp_path), "--strict"]) == 0
    with open(tmp_path / "verify_report.csv", newline="") as fh:
        rows = {row["name"]: row for row in csv.DictReader(fh)}
    p = build(ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=eps))
    sol = iterate(p, EllipticConfig(lattice_n=48))
    ends = {"L": (p.eta_L_star, sol.corner_L, gap_L), "R": (p.eta_R_star, sol.corner_R, gap_R)}
    for side, (star, corner, gap) in ends.items():
        row = rows[f"corner_gap_{side}"]
        assert (row["verdict"], row["tolerance"]) == ("PASS", "nan")
        assert float(row["value"]) == star - corner[1]
        assert float(row["value"]) == pytest.approx(gap, abs=5e-6)
