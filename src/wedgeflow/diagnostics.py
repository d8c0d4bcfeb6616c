"""Invariant checks on computed flow fields.

Every check is a pure function of its inputs producing CheckResult records
(name, PASS/FAIL, value, tolerance, location); grid-scaled tolerances are
reported next to each verdict, never hidden.  The checks cover interior
ellipticity, density extremum structure, velocity and shock-normal windows,
the arc ODE system with its sector exclusion, corner sensitivities against
finite differences, and the weak-form residual of the composite flow.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .gas import WedgeError
from .pattern import WavePattern
from .shocks import resolve_oblique
from .elliptic import EllipticSolution
from .unsteady import bilinear

# default acceptance knobs
C_GRID = 10.0  # grid_tol = C_GRID * spacing
C_WINDOW = 3.0  # velocity / normal / corner windows in units of sqrt(eps)


class ProfileError(WedgeError, RuntimeError):
    """Arc profile extraction refused (boundary condition not satisfied)."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    location: str = ""
    note: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        loc = f" @ {self.location}" if self.location else ""
        note = f" ({self.note})" if self.note else ""
        return f"{verdict} {self.name}: value={self.value:.6g} tol={self.tolerance:.6g}{loc}{note}"


def write_report_csv(results, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "verdict", "value", "tolerance", "location", "note"])
        for r in results:
            w.writerow([r.name, "PASS" if r.passed else "FAIL", r.value, r.tolerance, r.location, r.note])


def _spacing(sol: EllipticSolution) -> float:
    m = sol.mapping
    dx = np.hypot(np.diff(m.xi, axis=1), np.diff(m.eta, axis=1))
    dy = np.hypot(np.diff(m.xi, axis=0), np.diff(m.eta, axis=0))
    return float(max(dx.max(), dy.max()))


# --- ellipticity -------------------------------------------------------------


def ellipticity_report(sol: EllipticSolution, c_grid: float = C_GRID):
    """Interior pseudo-Mach bound: L^2 < 1 - eps + grid_tol away from the arcs."""
    eps = sol.pattern.epsilon
    f = sol.fields()
    h = _spacing(sol)
    grid_tol = c_grid * h
    inner = f["L2"][:, 1:-1]  # all rows, arc columns excluded
    j, i = np.unravel_index(int(np.argmax(inner)), inner.shape)
    val = float(inner[j, i])
    m = sol.mapping
    loc = f"xi=({m.xi[j, i + 1]:.4f},{m.eta[j, i + 1]:.4f})"
    return [
        CheckResult(
            name="interior_L2_bound",
            passed=val < 1.0 - eps + grid_tol,
            value=val,
            tolerance=1.0 - eps + grid_tol,
            location=loc,
            note=f"grid_tol={grid_tol:.3g}",
        )
    ]


# --- density extrema ---------------------------------------------------------


def _local_minima(arr):
    """Strict-ish 8-neighbor local minima; plateaus grouped to one candidate.

    Out-of-domain neighbors are neutral: they neither disqualify a candidate
    nor make a plateau count as strict.
    """
    pad = np.pad(arr, 1, constant_values=np.nan)
    le_all = np.ones(arr.shape, dtype=bool)
    lt_any = np.zeros(arr.shape, dtype=bool)
    tol = 1e-12 * max(1.0, float(np.nanmax(np.abs(arr))))  # round-off strictness guard
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            if dj == 0 and di == 0:
                continue
            nb = pad[1 + dj : 1 + dj + arr.shape[0], 1 + di : 1 + di + arr.shape[1]]
            valid = ~np.isnan(nb)
            le_all &= np.where(valid, arr <= nb + tol, True)
            lt_any |= np.where(valid, arr < nb - tol, False)
    cand = le_all & lt_any
    # plateau grouping: keep one representative per connected candidate patch
    visited = np.zeros_like(cand)
    out = []
    jj, ii = np.nonzero(cand)
    for j, i in zip(jj, ii):
        if visited[j, i]:
            continue
        stack = [(j, i)]
        visited[j, i] = True
        patch = []
        while stack:
            a, b = stack.pop()
            patch.append((a, b))
            for dj in (-1, 0, 1):
                for di in (-1, 0, 1):
                    aa, bb = a + dj, b + di
                    if (
                        0 <= aa < arr.shape[0]
                        and 0 <= bb < arr.shape[1]
                        and cand[aa, bb]
                        and not visited[aa, bb]
                    ):
                        visited[aa, bb] = True
                        stack.append((aa, bb))
        out.append(min(patch, key=lambda t: arr[t]))
    return out


@dataclass(frozen=True)
class ExtremumReport:
    quantity: str
    location_kind: str  # interior | wall | shock | arc | corner
    indices: tuple
    value: float
    classification: str
    pseudo_normal: bool | None = None
    chi_t: float | None = None


def _classify_node(sol, j, i):
    nz, ns = sol.psi.shape
    on_wall, on_shock = j == 0, j == nz - 1
    on_arc = i == 0 or i == ns - 1
    if on_arc and (on_wall or on_shock):
        return "corner"
    if on_arc:
        return "arc"
    if on_wall:
        return "wall"
    if on_shock:
        return "shock"
    return "interior"


def density_extrema(sol: EllipticSolution, c_grid: float = C_GRID):
    """Locate density minima; check the interior/wall exclusion and the
    pseudo-normal + convexity structure of shock minima."""
    pattern = sol.pattern
    f = sol.fields()
    rho = f["rho"]
    m = sol.mapping
    h = _spacing(sol)

    xs, es = m.xi[-1, :], m.eta[-1, :]

    def tangential(j, i):
        """chi_t, the pseudo-velocity along the shock at node (j, i), and the
        pseudo-normal tolerance 5 * spacing * |z| there."""
        t_vec = np.array([np.gradient(xs)[i], np.gradient(es)[i]])
        t_vec /= np.hypot(*t_vec)
        z_vec = np.array([f["zx"][j, i], f["zy"][j, i]])
        return float(z_vec @ t_vec), 5.0 * h * float(np.hypot(*z_vec))

    reports = []
    for j, i in _local_minima(rho):
        kind = _classify_node(sol, j, i)
        chi_t = pseudo_normal = None
        if kind == "shock":
            chi_t, tol = tangential(j, i)
            pseudo_normal = abs(chi_t) < tol
        reports.append(
            ExtremumReport(
                quantity="rho", location_kind=kind, indices=(j, i), value=float(rho[j, i]),
                classification="min", pseudo_normal=pseudo_normal, chi_t=chi_t,
            )
        )

    checks = []
    bad = [r for r in reports if r.location_kind in ("interior", "wall")]
    checks.append(
        CheckResult(
            name="no_interior_or_wall_density_minima",
            passed=len(bad) == 0,
            value=float(len(bad)),
            tolerance=0.0,
            note="strict 8-neighbor minima, plateaus grouped",
        )
    )

    # global minimum over the closed region
    j, i = np.unravel_index(int(np.argmin(rho)), rho.shape)
    gkind = _classify_node(sol, j, i)
    checks.append(
        CheckResult(
            name="global_density_min_above_upstream",
            passed=float(rho[j, i]) > pattern.state_I.rho,
            value=float(rho[j, i]),
            tolerance=pattern.state_I.rho,
            location=gkind,
        )
    )
    spread = float(np.max(rho) - np.min(rho))
    if spread < 1e-10 * float(np.max(rho)):
        # constant-state alternative: no extremum structure to check
        checks.append(
            CheckResult(
                name="density_constant_state_alternative",
                passed=True,
                value=spread,
                tolerance=1e-10 * float(np.max(rho)),
                note="rho constant to round-off; straight-shock solution",
            )
        )
    elif gkind == "shock":
        chi_t, tol = tangential(j, i)
        checks.append(
            CheckResult(
                name="global_density_min_pseudo_normal",
                passed=abs(chi_t) < tol,
                value=abs(chi_t),
                tolerance=tol,
                location=f"shock node i={i}",
                note="pseudo_normal_tol = 5*spacing*|z|",
            )
        )
        # local convexity of the region at the minimum: s'' < 0 for the graph
        spp = np.gradient(np.gradient(es, xs), xs)
        if 2 <= i <= len(xs) - 3:
            checks.append(
                CheckResult(
                    name="shock_convex_at_density_min",
                    passed=spp[i] < 0.0,
                    value=float(spp[i]),
                    tolerance=0.0,
                    location=f"shock node i={i}",
                )
            )
    return checks, reports


# --- velocity and shock-normal windows ---------------------------------------


def velocity_and_normal_ranges(sol: EllipticSolution, c_window: float = C_WINDOW):
    """Horizontal-velocity window, shock-normal window, admissibility, and
    the above-the-corner-chord property."""
    pattern = sol.pattern
    eps = pattern.epsilon
    c_r = pattern.state_R.c
    f = sol.fields()
    m = sol.mapping
    band = c_window * math.sqrt(eps) * c_r
    v_lx = float(pattern.state_L.v[0])

    checks = []
    vx_max, vx_min = float(np.max(f["vx"])), float(np.min(f["vx"]))
    checks.append(
        CheckResult(
            name="vx_upper_window",
            passed=vx_max <= 0.0 + band,
            value=vx_max,
            tolerance=band,
            note=f"window [v_Lx - {band:.3g}, {band:.3g}]",
        )
    )
    checks.append(
        CheckResult(
            name="vx_lower_window",
            passed=vx_min >= v_lx - band,
            value=vx_min,
            tolerance=v_lx - band,
        )
    )

    # shock normals between the R and L shock normals, within the window
    xs, es = m.xi[-1, :], m.eta[-1, :]
    tx, ty = np.gradient(xs), np.gradient(es)
    norm = np.hypot(tx, ty)
    ang = np.arctan2(-tx / norm, ty / norm)  # angle of (t_y, -t_x): downstream normal
    lo, hi = -0.5 * math.pi, -0.5 * math.pi + pattern.beta
    dist = np.maximum(lo - ang, ang - hi)
    worst = float(np.max(dist))
    checks.append(
        CheckResult(
            name="shock_normal_window",
            passed=worst <= c_window * math.sqrt(eps),
            value=worst,
            tolerance=c_window * math.sqrt(eps),
            note="angular distance to [n_R, n_L]",
        )
    )

    rho_shock = f["rho"][-1, :]
    checks.append(
        CheckResult(
            name="shock_admissible_everywhere",
            passed=bool(np.all(rho_shock > pattern.state_I.rho)),
            value=float(np.min(rho_shock)),
            tolerance=pattern.state_I.rho,
        )
    )

    a, b = sol.corner_L, sol.corner_R
    chord = a[1] + (xs - a[0]) * (b[1] - a[1]) / (b[0] - a[0])
    gap = float(np.min(es - chord))
    checks.append(
        CheckResult(
            name="shock_above_corner_chord",
            passed=gap >= -1e-10 * c_r,
            value=gap,
            tolerance=0.0,
        )
    )

    # informational: the L-picture tangential combination v^x + alpha v^y with
    # alpha = tan(beta) taken from the frame transform, not guessed
    alpha = math.tan(pattern.beta)
    combo = f["vx"] + alpha * f["vy"]
    checks.append(
        CheckResult(
            name="L_picture_velocity_combination",
            passed=True,
            value=float(np.max(combo)),
            tolerance=float(np.min(combo)),
            note=f"informational; alpha=tan(beta)={alpha:.4g}",
        )
    )
    return checks


# --- arc ODE profile ----------------------------------------------------------


@dataclass
class ArcProfile:
    side: str
    phi: np.ndarray
    p: np.ndarray
    h: np.ndarray
    k: np.ndarray | None
    q: np.ndarray | None
    theta: np.ndarray | None
    sigma_f: float
    sigma_g: float
    sigma_theta: float | None
    h0: float
    r: float
    phi_bar: float
    chi_t_over_c_max: float


def arc_ode_constants(gamma: float, eps: float, r: float):
    """Stationary point and linearization constants of the arc ODE system."""
    D = gamma + 1.0 - eps * (gamma - 1.0)
    sigma_g = -2.0 * (gamma - 1.0) / D
    h0 = (1.0 + 2.0 * eps / D) ** 2 * r**2 / (1.0 - eps)
    sigma_f = (1.0 - eps) / (2.0 * (1.0 + 2.0 * eps / D))
    sigma_theta = math.sqrt(-sigma_f * sigma_g) if gamma > 1.0 + 1e-12 else None
    return D, sigma_g, sigma_f, h0, sigma_theta


def arc_rhs_f(gamma: float, eps: float, r: float, h, p):
    """Lower bound f(h, p) for the second tangential derivative on an arc."""
    D = gamma + 1.0 - eps * (gamma - 1.0)
    return (
        2.0 / D * ((1.0 + eps) / (1.0 - eps) * p**2 / h - eps * r**2)
        - r**2
        + np.sqrt(np.maximum(r**2 * h * (1.0 - eps) - p**2, 0.0))
    )


def arc_profile(sol: EllipticSolution, side: str, c_grid: float = C_GRID):
    """Extract (phi, p, h, k, q, theta) along an arc and check the ODE system.

    The L side is evaluated in its mirror frame, where it has the same
    orientation as the R side (the mirror flips the tangential direction,
    i.e. theta -> -theta in the original frame).
    """
    pattern = sol.pattern
    model = pattern.config.model
    gamma = model.gamma
    eps = pattern.epsilon
    f = sol.fields()
    m = sol.mapping
    h_grid = _spacing(sol)

    if side == "R":
        i = -1
        center = np.zeros(2)
        c_c = pattern.state_R.c
        orient = +1.0
    elif side == "L":
        i = 0
        center = pattern.state_L.v
        c_c = pattern.state_L.c
        orient = -1.0  # mirror frame: clockwise in standard coordinates
    else:
        raise ValueError("side must be 'L' or 'R'")

    L2_arc = f["L2"][:, i]
    bc_err = float(np.max(np.abs(L2_arc - (1.0 - eps))))
    if bc_err > 1e-4:
        raise ProfileError(
            f"arc {side} does not satisfy L^2 = 1-eps (max dev {bc_err:.3g}); "
            "profile refused"
        )

    rel_x = m.xi[:, i] - center[0]
    rel_y = m.eta[:, i] - center[1]
    r = math.sqrt(1.0 - eps) * c_c
    ang = np.arctan2(rel_y, rel_x)
    phi = ang if side == "R" else (math.pi - ang)
    # tangential pseudo-velocity in the profile orientation: p = chi_phi
    zx, zy = f["zx"][:, i], f["zy"][:, i]
    p = orient * (rel_x * zy - rel_y * zx)
    arg = -f["chi"][:, i] - 0.5 * (zx**2 + zy**2)
    h_arr = model.c0**2 + (gamma - 1.0) * arg

    D, sigma_g, sigma_f, h0, sigma_theta = arc_ode_constants(gamma, eps, r)
    if gamma > 1.0 + 1e-12:
        k = math.sqrt(-sigma_f / sigma_g) * (h_arr - h0)
        q = np.hypot(p, k)
        theta = np.arctan2(k, p)
        theta = np.where(theta < -0.5 * math.pi, theta + 2.0 * math.pi, theta)
    else:
        k = q = theta = None

    c_arr = np.sqrt(h_arr)
    chi_t_over_c = np.abs(p) / (r * c_arr)
    profile = ArcProfile(
        side=side, phi=phi, p=p, h=h_arr, k=k, q=q, theta=theta,
        sigma_f=sigma_f, sigma_g=sigma_g, sigma_theta=sigma_theta, h0=h0, r=r,
        phi_bar=float(phi[-1]), chi_t_over_c_max=float(np.max(chi_t_over_c)),
    )

    checks = []
    scale = c_c**2
    tol = c_grid * h_grid * scale

    # (i) ODE identity (c^2)_phi = sigma_g * chi_phi
    dh_dphi = np.gradient(h_arr, phi)
    ode_dev = float(np.max(np.abs(dh_dphi - sigma_g * p)[1:-1]))
    checks.append(
        CheckResult(
            name=f"arc{side}_ode_identity",
            passed=ode_dev < tol,
            value=ode_dev,
            tolerance=tol,
            note="(c^2)_phi vs sigma_g chi_phi",
        )
    )

    # (ii) second-derivative inequality chi_phiphi >= f(c^2, chi_phi)
    p_phi = np.gradient(p, phi)
    rhs = arc_rhs_f(gamma, eps, r, h_arr, p)
    margin = float(np.min((p_phi - rhs)[1:-1]))
    checks.append(
        CheckResult(
            name=f"arc{side}_second_derivative_inequality",
            passed=margin > -tol,
            value=margin,
            tolerance=-tol,
            note="min(chi_phiphi - f)",
        )
    )

    # (iii) tangential pseudo-velocity vanishes at the wall corner
    checks.append(
        CheckResult(
            name=f"arc{side}_wall_corner_chi_t",
            passed=abs(float(p[0])) < tol,
            value=abs(float(p[0])),
            tolerance=tol,
        )
    )

    # (iv) sector exclusion for gamma > 1
    if gamma > 1.0 + 1e-12:
        phi_bar = profile.phi_bar
        q_floor = c_grid * h_grid * scale
        live = q > q_floor
        hi_edge = 1.5 * math.pi - sigma_theta * phi_bar
        inside = live & (theta > 0.5 * math.pi) & (theta < hi_edge)
        checks.append(
            CheckResult(
                name=f"arc{side}_sector_exclusion",
                passed=not bool(np.any(inside)),
                value=float(np.sum(inside)),
                tolerance=0.0,
                note=f"theta not in (pi/2, {hi_edge:.4f}) where q > {q_floor:.3g}",
            )
        )

    # (v) tangential smallness max |chi_t|/c <= C sqrt(eps); best constant reported
    best_c = profile.chi_t_over_c_max / math.sqrt(eps)
    checks.append(
        CheckResult(
            name=f"arc{side}_chi_t_window",
            passed=best_c <= C_WINDOW,
            value=profile.chi_t_over_c_max,
            tolerance=C_WINDOW * math.sqrt(eps),
            note=f"best C_Pt = {best_c:.3g}",
        )
    )
    return profile, checks


# --- corner sensitivities ------------------------------------------------------


@dataclass(frozen=True)
class CornerSensitivity:
    eta: float
    p_omega: float
    k_omega: float
    dvdy_domega: float
    dzdy_domega: float
    bound_rhs: float
    bound_check: bool
    dvdy_positive: bool
    theta_plus: float
    theta_minus: float
    sigma_theta: float | None
    phi_bar: float


def corner_sensitivity(pattern: WavePattern, eta: float | None = None) -> CornerSensitivity:
    """Closed-form derivatives of the right-corner data as the corner slides
    along its arc, evaluated at the expected height (O(eps) terms dropped)."""
    model = pattern.config.model
    gamma = model.gamma
    eps = pattern.epsilon
    c_u = pattern.config.c_I
    v_uy = float(pattern.state_I.v[1])
    c_r = pattern.state_R.c
    r = math.sqrt(1.0 - eps) * c_r
    if eta is None:
        eta = pattern.eta_R_star
    if not 0.0 < eta < r:
        raise ValueError(f"corner height {eta} outside the arc range (0, {r})")
    xi_x = math.sqrt(r**2 - eta**2)

    lun = (eta - v_uy) / c_u
    sig = eta / c_u
    c_d2 = (1.0 + 0.5 * (gamma - 1.0) * (lun**2 - sig**2)) * c_u**2

    dvdy = 2.0 * v_uy * (eta * (v_uy - eta) / c_d2 - 1.0) / ((gamma + 1.0) * (2.0 * eta - v_uy))
    p_om = (
        (2.0 + lun * ((gamma + 1.0) * sig + (gamma - 1.0) * lun))
        / (lun + sig)
        * (-v_uy * c_u)
        / ((gamma + 1.0) * xi_x)
    )
    k_om = math.sqrt((gamma - 1.0) / (gamma + 1.0)) * (-v_uy)
    bound_rhs = -c_r * v_uy / xi_x

    _, _, _, _, sigma_theta = arc_ode_constants(gamma, eps, r)
    phi_bar = math.asin(min(eta / r, 1.0))
    theta_plus = math.atan2(k_om, p_om)
    theta_minus = theta_plus + math.pi
    return CornerSensitivity(
        eta=eta,
        p_omega=p_om,
        k_omega=k_om,
        dvdy_domega=dvdy,
        dzdy_domega=dvdy - 1.0,
        bound_rhs=bound_rhs,
        bound_check=math.hypot(p_om, k_om) < bound_rhs,
        dvdy_positive=dvdy > 0.0,
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        sigma_theta=sigma_theta,
        phi_bar=phi_bar,
    )


def corner_state_direct(pattern: WavePattern, eta: float):
    """Independent corner parameterization: the shock through the arc point
    at height eta whose downstream pseudo-Mach equals sqrt(1-eps) there.

    Solved for the normal angle with a bracketed root; returns the profile
    variables (p, h) and the downstream velocity for finite differencing.
    """
    model = pattern.config.model
    eps = pattern.epsilon
    c_r = pattern.state_R.c
    r = math.sqrt(1.0 - eps) * c_r
    xi_pt = np.array([math.sqrt(r**2 - eta**2), eta])
    up = pattern.state_I
    target = math.sqrt(1.0 - eps)

    def L_d(angle):
        n = np.array([math.cos(angle), math.sin(angle)])
        sol = resolve_oblique(model, up, xi_pt, n)
        z_d = sol.downstream.v - xi_pt
        return float(np.hypot(*z_d)) / sol.downstream.c - target

    lo, hi = -0.5 * math.pi - 0.6, -0.5 * math.pi + 0.35
    angle = brentq(L_d, lo, hi, xtol=1e-15)
    n = np.array([math.cos(angle), math.sin(angle)])
    sol = resolve_oblique(model, up, xi_pt, n)
    z_d = sol.downstream.v - xi_pt
    p = float(xi_pt[0] * z_d[1] - xi_pt[1] * z_d[0])
    h = sol.downstream.c**2
    return {
        "p": p,
        "h": h,
        "v_dy": float(sol.downstream.v[1]),
        "z_dy": float(z_d[1]),
        "normal_angle": angle,
        "solution": sol,
    }


def corner_sensitivity_fd(pattern: WavePattern, eta: float | None = None, step: float | None = None):
    """Central finite differences of the direct corner parameterization."""
    model = pattern.config.model
    gamma = model.gamma
    eps = pattern.epsilon
    c_r = pattern.state_R.c
    r = math.sqrt(1.0 - eps) * c_r
    if eta is None:
        eta = pattern.eta_R_star
    if step is None:
        step = 1e-6 * c_r
    a = corner_state_direct(pattern, eta - step)
    b = corner_state_direct(pattern, eta + step)
    out = {
        "p_omega": (b["p"] - a["p"]) / (2 * step),
        "dvdy_domega": (b["v_dy"] - a["v_dy"]) / (2 * step),
        "dzdy_domega": (b["z_dy"] - a["z_dy"]) / (2 * step),
    }
    if gamma > 1.0 + 1e-12:
        _, sigma_g, sigma_f, _, _ = arc_ode_constants(gamma, eps, r)
        pref = math.sqrt(-sigma_f / sigma_g)
        out["k_omega"] = pref * (b["h"] - a["h"]) / (2 * step)
    return out


# --- composite field and weak residual ----------------------------------------


class CompositeField:
    """The elliptic solution stitched into the constant regions over the
    exterior domain (standard coordinates)."""

    def __init__(self, sol: EllipticSolution):
        self.sol = sol
        self.pattern = sol.pattern
        self.model = sol.pattern.config.model
        f = sol.fields()
        self._rho = f["rho"]
        self._zx = f["zx"]
        self._zy = f["zy"]
        p = self.pattern
        self.eta_shock_R = p.shock_R.point[1]
        self.shock_L_pt = p.shock_L.point
        self.tan_beta = math.tan(p.beta)

    def evaluate(self, X, Y):
        """(rho, z, region_code) at points of the upper half plane.

        Region codes: 0 elliptic, 1 L, 2 R, 3 I.
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        p = self.pattern
        sig, zet, inside = self.sol.mapping.invert(X, Y)

        rho = np.empty_like(X)
        zx = np.empty_like(X)
        zy = np.empty_like(X)
        region = np.full(X.shape, 3, dtype=int)

        # constant states by default
        states = {
            1: (p.state_L.rho, p.state_L.v),
            2: (p.state_R.rho, p.state_R.v),
            3: (p.state_I.rho, p.state_I.v),
        }
        # straight shocks delimit the constant regions only outside their
        # sonic corners; between the corners the free boundary of the lens
        # is the shock
        below_L_shock = (
            (Y < self.shock_L_pt[1] + (X - self.shock_L_pt[0]) * self.tan_beta)
            & (X <= p.xi_L_star[0])
        )
        below_R_shock = (Y < self.eta_shock_R) & (X >= p.xi_R_star[0])

        region[~inside & below_L_shock] = 1
        region[~inside & below_R_shock] = 2
        region[inside] = 0

        for code, (rho_c, v_c) in states.items():
            mk = region == code
            rho[mk] = rho_c
            zx[mk] = v_c[0] - X[mk]
            zy[mk] = v_c[1] - Y[mk]
        if np.any(inside):
            m = self.sol.mapping
            fi, fj = sig[inside] / m.d_sig, zet[inside] / m.d_zet
            rho[inside] = bilinear(self._rho, fi, fj)
            zx[inside] = bilinear(self._zx, fi, fj)
            zy[inside] = bilinear(self._zy, fi, fj)
        return rho, zx, zy, region


def make_test_battery(pattern: WavePattern, n_extra: int = 0, seed: int = 0):
    """Fixed battery of bump test functions (centers, radii) covering the
    arcs, the three shock pieces and the constant regions."""
    p = pattern
    rng = np.random.default_rng(seed)
    c_r = p.state_R.c
    bumps = []

    def arc_pts(arc, fracs):
        for fr in fracs:
            ang = arc.angle_lo + fr * (arc.angle_hi - arc.angle_lo)
            yield arc.point(ang)

    for pt in arc_pts(p.arc_R, (0.25, 0.5, 0.8)):
        bumps.append((pt, 0.22 * c_r))
    for pt in arc_pts(p.arc_L, (0.2, 0.5, 0.75)):
        bumps.append((pt, 0.22 * c_r))
    # curved shock
    a, b = p.xi_L_star, p.xi_R_star
    for fr in (0.35, 0.65):
        pt = a + fr * (b - a) + np.array([0.0, 0.05 * c_r])
        bumps.append((pt, 0.2 * c_r))
    # straight L shock, between the corner and the tip
    sL = p.xi_L_star + 0.8 * c_r * np.array([-math.cos(p.beta), -math.sin(p.beta)])
    bumps.append((sL, min(0.2 * c_r, 0.8 * sL[1])))
    # straight R shock, right of the corner
    sR = np.array([p.xi_R_star[0] + 0.8 * c_r, p.eta_R_star])
    bumps.append((sR, 0.2 * c_r))
    # constant-region interiors
    bumps.append((np.array([p.xi_R_star[0] + 1.2 * c_r, 0.35 * p.eta_R_star]), 0.15 * c_r))
    bumps.append((np.array([0.0, p.eta_R_star + 1.1 * c_r]), 0.3 * c_r))
    for _ in range(n_extra):
        center = np.array(
            [rng.uniform(p.xi_BL[0], p.xi_R_star[0] + c_r), rng.uniform(0.15, 1.2) * p.eta_R_star]
        )
        bumps.append((center, 0.15 * c_r))
    # keep every support strictly above the wall
    out = []
    for center, radius in bumps:
        radius = min(radius, 0.95 * center[1]) if center[1] > 0 else radius
        out.append((np.asarray(center, dtype=float), float(radius)))
    return out


def weak_residual(composite: CompositeField, bumps=None, quad_n: int = 384):
    """Weak-form residual of the composite field against a bump battery.

    For each bump theta the midpoint quadrature of
    integral(rho grad chi . grad theta - 2 rho theta) is normalized by the
    same quadrature of rho_R (c_R |grad theta| + 2 |theta|).  Returns the
    per-bump values and their maximum.
    """
    pattern = composite.pattern
    if bumps is None:
        bumps = make_test_battery(pattern)
    rho_s = pattern.state_R.rho
    c_s = pattern.state_R.c
    values = []
    for center, radius in bumps:
        xs = np.linspace(center[0] - radius, center[0] + radius, quad_n, endpoint=False)
        ys = np.linspace(center[1] - radius, center[1] + radius, quad_n, endpoint=False)
        dx = xs[1] - xs[0]
        dy = ys[1] - ys[0]
        X, Y = np.meshgrid(xs + 0.5 * dx, ys + 0.5 * dy)
        u = ((X - center[0]) ** 2 + (Y - center[1]) ** 2) / radius**2
        # theta and grad theta vanish off the disc, so everything is computed
        # on the disc only; both sums still run over the whole square, zeros
        # off the disc, so that they add in the same order
        disc = u < 1.0
        X, Y, u = X[disc], Y[disc], u[disc]
        rho, zx, zy, _ = composite.evaluate(X, Y)
        theta = np.exp(1.0 - 1.0 / (1.0 - u))
        fac = -2.0 * theta / (radius**2 * (1.0 - u) ** 2)
        tx = fac * (X - center[0])
        ty = fac * (Y - center[1])
        integrand = np.zeros(disc.shape)
        integrand[disc] = rho * (zx * tx + zy * ty) - 2.0 * rho * theta
        weight = np.zeros(disc.shape)
        weight[disc] = rho_s * (c_s * np.hypot(tx, ty) + 2.0 * theta)
        raw = float(np.sum(integrand) * dx * dy)
        norm = float(np.sum(weight) * dx * dy)
        values.append(abs(raw) / norm)
    return {"values": np.array(values), "max": float(np.max(values)), "bumps": bumps}
