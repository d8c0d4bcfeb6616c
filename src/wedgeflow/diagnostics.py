"""Invariant checks on computed flow fields.

Every check is a pure function of its inputs producing CheckResult records
(name, PASS/FAIL, value, tolerance, location); grid-scaled tolerances are
reported next to each verdict, never hidden.  The checks cover interior
ellipticity, density extremum structure, velocity and shock-normal windows,
the arc ODE system with its sector exclusion, and the weak-form residual of
the composite flow.  The corner-slide sensitivities and their finite
differences, which only the tests check, live in tests/shock_oracles.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gas import ISOTHERMAL_EPS, WedgeError
from .pattern import WavePattern
from .shocks import _bracketed_root
from .elliptic import EllipticSolution, level_arc
from .unsteady import bilinear

# acceptance constants
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


def _spacing(sol: EllipticSolution) -> float:
    m = sol.mapping
    dx = np.hypot(np.diff(m.xi, axis=1), np.diff(m.eta, axis=1))
    dy = np.hypot(np.diff(m.xi, axis=0), np.diff(m.eta, axis=0))
    return float(max(dx.max(), dy.max()))


# --- ellipticity -------------------------------------------------------------


def ellipticity_report(sol: EllipticSolution):
    """Interior pseudo-Mach bound: L^2 < 1 - eps + grid_tol away from the arcs."""
    eps = sol.pattern.config.epsilon
    f = sol.fields()
    h = _spacing(sol)
    grid_tol = C_GRID * h
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


def density_extrema(sol: EllipticSolution):
    """Locate density minima; check the interior/wall exclusion and the
    pseudo-normal + convexity structure of the global minimum on the shock."""
    pattern = sol.pattern
    f = sol.fields()
    rho = f["rho"]
    m = sol.mapping
    h = _spacing(sol)

    bad = sum(_classify_node(sol, j, i) in ("interior", "wall") for j, i in _local_minima(rho))
    checks = [
        CheckResult(
            name="no_interior_or_wall_density_minima",
            passed=bad == 0,
            value=float(bad),
            tolerance=0.0,
            note="strict 8-neighbor minima, plateaus grouped",
        )
    ]

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
        # chi_t, the pseudo-velocity along the shock (normal to grad zeta),
        # against the pseudo-normal tolerance 5 * spacing * |z|
        t_vec = np.array([m.zet_y[j, i], -m.zet_x[j, i]])
        t_vec /= np.hypot(*t_vec)
        z_vec = np.array([f["zx"][j, i], f["zy"][j, i]])
        chi_t, tol = float(z_vec @ t_vec), 5.0 * h * float(np.hypot(*z_vec))
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
        # local convexity of the region at the minimum: s'' < 0 for the graph,
        # by second differences over the shock row's node positions
        xs, es = m.xi[-1, :], m.eta[-1, :]
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
    return checks


# --- velocity and shock-normal windows ---------------------------------------


def velocity_and_normal_ranges(sol: EllipticSolution):
    """Horizontal-velocity window, shock-normal window, admissibility, and
    the above-the-corner-chord property."""
    pattern = sol.pattern
    eps = pattern.config.epsilon
    c_r = pattern.state_R.c
    f = sol.fields()
    m = sol.mapping
    band = C_WINDOW * math.sqrt(eps) * c_r
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
    ang = np.arctan2(-m.zet_y[-1], -m.zet_x[-1])  # angle of -grad zeta: the downstream normal
    lo, hi = -0.5 * math.pi, -0.5 * math.pi + pattern.beta
    dist = np.maximum(lo - ang, ang - hi)
    worst = float(np.max(dist))
    checks.append(
        CheckResult(
            name="shock_normal_window",
            passed=worst <= C_WINDOW * math.sqrt(eps),
            value=worst,
            tolerance=C_WINDOW * math.sqrt(eps),
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
    chord = a[1] + (m.xi[-1] - a[0]) * (b[1] - a[1]) / (b[0] - a[0])
    gap = float(np.min(m.eta[-1] - chord))
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
    p: np.ndarray  # chi_phi, the tangential pseudo-velocity, from the wall corner up
    phi_bar: float  # the arc angle at the shock corner
    chi_t_over_c_max: float


def arc_ode_constants(gamma: float, eps: float, r: float):
    """Stationary point and linearization constants of the arc ODE system."""
    D = gamma + 1.0 - eps * (gamma - 1.0)
    sigma_g = -2.0 * (gamma - 1.0) / D
    h0 = (1.0 + 2.0 * eps / D) ** 2 * r**2 / (1.0 - eps)
    sigma_f = (1.0 - eps) / (2.0 * (1.0 + 2.0 * eps / D))
    sigma_theta = math.sqrt(-sigma_f * sigma_g) if gamma - 1.0 >= ISOTHERMAL_EPS else None
    return D, sigma_g, sigma_f, h0, sigma_theta


def arc_rhs_f(gamma: float, eps: float, r: float, h, p):
    """Lower bound f(h, p) for the second tangential derivative on an arc."""
    D = gamma + 1.0 - eps * (gamma - 1.0)
    return (
        2.0 / D * ((1.0 + eps) / (1.0 - eps) * p**2 / h - eps * r**2)
        - r**2
        + np.sqrt(np.maximum(r**2 * h * (1.0 - eps) - p**2, 0.0))
    )


def arc_profile(sol: EllipticSolution, side: str):
    """Extract (phi, p = chi_phi, h = c^2, theta) along an arc and check the
    ODE system; returns (ArcProfile, checks).

    The L side is evaluated in its mirror frame, where it has the same
    orientation as the R side (the mirror flips the tangential direction,
    i.e. theta -> -theta in the original frame).
    """
    pattern = sol.pattern
    model = pattern.config.model
    gamma = model.gamma
    eps = pattern.config.epsilon
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
    h_arr = f["c2"][:, i]

    _, sigma_g, sigma_f, h0, sigma_theta = arc_ode_constants(gamma, eps, r)
    chi_t_over_c = np.abs(p) / (r * np.sqrt(h_arr))
    profile = ArcProfile(p=p, phi_bar=float(phi[-1]), chi_t_over_c_max=float(np.max(chi_t_over_c)))

    checks = []
    scale = c_c**2
    tol = C_GRID * h_grid * scale

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
    if not model.isothermal:
        k = math.sqrt(-sigma_f / sigma_g) * (h_arr - h0)
        theta = np.arctan2(k, p)
        theta = np.where(theta < -0.5 * math.pi, theta + 2.0 * math.pi, theta)
        q_floor = C_GRID * h_grid * scale
        live = np.hypot(p, k) > q_floor
        hi_edge = 1.5 * math.pi - sigma_theta * profile.phi_bar
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


# --- composite field and weak residual ----------------------------------------


def _outer_region(pattern: WavePattern, X, Y):
    """Region code of points outside the lens: 1 L, 2 R, 3 I.

    The straight shocks delimit the constant regions only outside their
    sonic corners; between the corners the free boundary of the lens is the
    shock.  L lies below the L-shock line with xi <= xi_L*, R below the R
    shock with xi >= xi_R*, and I is the rest.
    """
    p = pattern
    below_L = (Y < p.shock_L.point[1] + (X - p.shock_L.point[0]) * math.tan(p.beta)) & (
        X <= p.xi_L_star[0]
    )
    below_R = (Y < p.shock_R.point[1]) & (X >= p.xi_R_star[0])
    return np.where(below_L, 1, np.where(below_R, 2, 3))


class CompositeField:
    """The elliptic solution stitched into the constant regions over the
    exterior domain (standard coordinates)."""

    def __init__(self, sol: EllipticSolution):
        self.sol = sol
        self.pattern = sol.pattern

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
        region = np.where(inside, 0, _outer_region(p, X, Y))
        states = {
            1: (p.state_L.rho, p.state_L.v),
            2: (p.state_R.rho, p.state_R.v),
            3: (p.state_I.rho, p.state_I.v),
        }
        for code, (rho_c, v_c) in states.items():
            mk = region == code
            rho[mk] = rho_c
            zx[mk] = v_c[0] - X[mk]
            zy[mk] = v_c[1] - Y[mk]
        if np.any(inside):
            h, f = self.sol.mapping.lattice.h, self.sol.fields()
            fi, fj = sig[inside] / h, zet[inside] / h
            rho[inside] = bilinear(f["rho"], fi, fj)
            zx[inside] = bilinear(f["zx"], fi, fj)
            zy[inside] = bilinear(f["zy"], fi, fj)
        return rho, zx, zy, region


def make_test_battery(pattern: WavePattern):
    """Fixed battery of bump test functions (centers, radii) covering the
    arcs, the three shock pieces and the constant regions."""
    p = pattern
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
    # keep every support strictly above the wall
    return [(np.asarray(c, dtype=float), float(min(r, 0.95 * c[1]) if c[1] > 0 else r)) for c, r in bumps]


# Gauss-Legendre nodes across each bump's diameter: per direction in the
# lattice cells the bump meets (at least 2 per cell) and along the lens
# boundary; a straight interface gets them all on its chord of the disc
GAUSS_NODES = 64


# the integrals of theta_hat = exp(1 - 1/(1 - |x|^2)) (A0) and of
# |grad theta_hat| (A1) over the unit disc, by 128-point Gauss-Legendre in
# the radius, converged to rounding; tests/test_diagnostics.py recomputes
# them.  Literals, so that importing the module runs no eigenvalue solve.
BUMP_A0 = 1.268112161127588
BUMP_A1 = 3.79158918658596


def _bump(center, radius, X, Y):
    """theta and grad theta of the bump at points; exactly 0 off its disc."""
    dx, dy = X - center[0], Y - center[1]
    q = 1.0 - (dx * dx + dy * dy) / radius**2
    on = q > 0.0
    q = np.where(on, q, 1.0)
    theta = np.where(on, np.exp(1.0 - 1.0 / q), 0.0)
    fac = -2.0 * theta / (radius**2 * q * q)
    return theta, fac * dx, fac * dy


def _gauss(edges, rule):
    """Nodes and weights of a Gauss-Legendre rule (nodes and weights on
    [-1, 1]) on every interval between consecutive edges, flattened."""
    x, w = rule
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (a + half * (x + 1.0)).ravel(), (half * w).ravel()


def _lens_edge(m, piece, t):
    """(X, Y, n_x, n_y) on a piece of the lens boundary at parameters t in
    [0, 1]: the point and the outward normal times ds/dt.  The shock ("S")
    is zeta = 1 parameterized by sigma, so n ds = (-s', x_sigma + x_eta s')
    dsigma; the arcs ("L", "R") are sigma = 0 and 1 parameterized by zeta."""
    t = np.asarray(t, dtype=float)
    if piece == "S":
        Y, sp = m.shock.at(t)
        X, X_s, X_e = level_arc(m.pattern, t, Y)
        return X, Y, -sp, X_s + X_e * sp
    sig, s = (0.0, m.shock.s[0]) if piece == "L" else (1.0, m.shock.s[-1])
    Y = t * s
    X, _, X_e = level_arc(m.pattern, sig, Y)
    sign = 1.0 if piece == "L" else -1.0
    return X, Y, -sign * s, sign * X_e * s


def _interfaces(pattern: WavePattern, m):
    """Where the lens boundary is cut, and the straight interfaces.

    Returns (breaks, straight).  breaks[piece] holds the lattice nodes of a
    lens-boundary piece and its crossings with the cut lines xi = xi_L*,
    xi_R* and the straight-shock lines, so that one region lies across each
    interval between them.  straight lists (p0, d, lo, hi, n, a, b): the
    interface p0 + t d, t in [lo, hi], between the constant states a and b
    outside the lens, with n its normal from a to b.  The straight L shock
    left of xi_L* and the R shock right of xi_R* lie outside the lens's
    arcs; a cut line lies outside the lens only between the shock's
    crossing of it and the straight shock, and not at all when the shock
    does not cross it below the straight shock.
    """
    p = pattern
    a, b = p.xi_L_star, p.xi_R_star
    pt, tb = p.shock_L.point, math.tan(p.beta)
    eta_R = p.shock_R.point[1]
    lines = {
        "cut_L": lambda X, Y: X - a[0],
        "shock_L": lambda X, Y: Y - (pt[1] + (X - pt[0]) * tb),
        "cut_R": lambda X, Y: X - b[0],
        "shock_R": lambda X, Y: Y - eta_R,
    }
    breaks, cut_heights = {}, {}
    for piece in "SLR":
        X, Y, _, _ = _lens_edge(m, piece, m.lattice.nodes)
        cuts = [m.lattice.nodes]
        for name, line in lines.items():
            f = line(X, Y)
            # a node where f is 0 ends two intervals: _bracketed_root returns it
            for i in np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:])):
                t = _bracketed_root(
                    lambda x: float(line(*_lens_edge(m, piece, x)[:2])),
                    m.lattice.nodes[i],
                    m.lattice.nodes[i + 1],
                    xtol=1e-15,
                )
                cuts.append([t])
                if piece == "S":
                    cut_heights[name] = float(m.shock.at(t)[0])
        breaks[piece] = np.unique(np.concatenate(cuts))

    L, R, I = p.state_L, p.state_R, p.state_I
    up = np.array([0.0, 1.0])
    d_L = np.array([math.cos(p.beta), math.sin(p.beta)])
    straight = [
        (a, d_L, -a[1] / d_L[1] if d_L[1] > 0.0 else -math.inf, 0.0, np.array([-d_L[1], d_L[0]]), L, I),
        (b, np.array([1.0, 0.0]), 0.0, math.inf, up, R, I),
    ]
    for name, top, left, right in (("cut_L", a, L, I), ("cut_R", b, I, R)):
        h = cut_heights.get(name)
        if h is not None and h < top[1]:
            straight.append((np.array([top[0], 0.0]), up, h, top[1], np.array([1.0, 0.0]), left, right))
    return breaks, straight


def _chord(p0, d, lo, hi, center, radius):
    """The interval of t in [lo, hi] with p0 + t d inside the disc (d a unit
    vector), or None."""
    w = p0 - center
    bb = float(w @ d)
    disc = bb * bb - (float(w @ w) - radius**2)
    if disc <= 0.0:
        return None
    t0, t1 = max(lo, -bb - math.sqrt(disc)), min(hi, -bb + math.sqrt(disc))
    return (t0, t1) if t0 < t1 else None


def weak_residual(sol: EllipticSolution, bumps=None):
    """Weak-form residual of the composite field against a bump battery.

    For each bump theta the integral of rho grad chi . grad theta - 2 rho
    theta over the composite field is normalized by the integral of rho_R
    (c_R |grad theta| + 2 theta), which is rho_R (c_R r A1 + 2 r^2 A0) for
    a bump of radius r.  Returns the per-bump values and their maximum.

    In a constant state k, z_k = v_k - xi has div z_k = -2, so the
    integrand there is exactly div(theta rho_k z_k).  With the R state as
    the lens's reference, the integral is by the divergence theorem

        integral over the lens of (I_lens - I_R)
        + sum over interfaces of integral theta (rho_A z_A - rho_B z_B) . n_AB ds,

    where the lens carries R and the regions outside it are those of
    CompositeField.evaluate.  The wall adds nothing, since every bump's
    support lies above it (make_test_battery).  The lens integral is taken
    by Gauss-Legendre in (sigma, zeta) on the lattice cells the bump meets,
    through the forward map, whose Jacobian is |x_sigma s|; rho and z are
    bilinear in (sigma, zeta) on each cell.  The interface integrals are
    1-D Gauss rules on pieces split at the lattice nodes and the crossings
    (_interfaces).  No point is mapped back to (sigma, zeta).
    """
    pattern = sol.pattern
    if bumps is None:
        bumps = make_test_battery(pattern)
    m = sol.mapping
    h = m.lattice.h
    f = sol.fields()
    rho_R, c_R = pattern.state_R.rho, pattern.state_R.c
    v_R = pattern.state_R.v
    breaks, straight = _interfaces(pattern, m)
    # the state across a lens-boundary point, by region code (0, the lens
    # itself, is never across)
    states = (pattern.state_R, pattern.state_L, pattern.state_R, pattern.state_I)
    rho_k = np.array([st.rho for st in states])
    mom_k = np.array([st.rho * st.v for st in states])
    diag = np.maximum(
        np.hypot(m.xi[1:, 1:] - m.xi[:-1, :-1], m.eta[1:, 1:] - m.eta[:-1, :-1]),
        np.hypot(m.xi[1:, :-1] - m.xi[:-1, 1:], m.eta[1:, :-1] - m.eta[:-1, 1:]),
    )

    rule = functools.cache(np.polynomial.legendre.leggauss)
    values = []
    for center, radius in bumps:
        center = np.asarray(center, dtype=float)
        raw = 0.0
        # every cell that can meet the disc: a corner lies within the radius
        # plus the cell's longer diagonal of the centre
        d = np.hypot(m.xi - center[0], m.eta - center[1])
        near = np.minimum.reduce([d[:-1, :-1], d[:-1, 1:], d[1:, :-1], d[1:, 1:]])
        J, I = np.nonzero(near < radius + diag)
        if J.size:
            n_sig = max(2, math.ceil(GAUSS_NODES / (I.max() - I.min() + 1)))
            n_zet = max(2, math.ceil(GAUSS_NODES / (J.max() - J.min() + 1)))
            gs, ws = _gauss(np.array([0.0, 1.0]), rule(n_sig))
            gz, wz = _gauss(np.array([0.0, 1.0]), rule(n_zet))
            fi = I[:, None, None] + gs[None, None, :]
            fj = J[:, None, None] + gz[None, :, None]
            s = m.shock.at(fi * h)[0]
            fi, fj = np.broadcast_arrays(fi, fj)
            Y = fj * h * s
            X, X_s, _ = level_arc(m.pattern, fi * h, Y)
            th, tx, ty = _bump(center, radius, X, Y)
            rho = bilinear(f["rho"], fi, fj)
            integrand = (
                (rho * bilinear(f["zx"], fi, fj) - rho_R * (v_R[0] - X)) * tx
                + (rho * bilinear(f["zy"], fi, fj) - rho_R * (v_R[1] - Y)) * ty
                - 2.0 * (rho - rho_R) * th
            )
            weight = np.abs(X_s * s) * (h * h) * wz[None, :, None] * ws[None, None, :]
            raw += float(np.sum(integrand * weight))

            # the lens boundary against the region across it
            for piece, n in (("S", n_sig), ("L", n_zet), ("R", n_zet)):
                t, w = _gauss(breaks[piece], rule(n))
                X, Y, nx, ny = _lens_edge(m, piece, t)
                th, _, _ = _bump(center, radius, X, Y)
                k = _outer_region(pattern, X, Y)
                jump = (
                    (rho_R * v_R[0] - mom_k[k, 0]) * nx
                    + (rho_R * v_R[1] - mom_k[k, 1]) * ny
                    - (rho_R - rho_k[k]) * (X * nx + Y * ny)
                )
                raw += float(np.sum(w * th * jump))

        # the straight interfaces outside the lens
        for p0, dvec, lo, hi, nvec, A, B in straight:
            span = _chord(p0, dvec, lo, hi, center, radius)
            if span is None:
                continue
            t, w = _gauss(np.array(span), rule(GAUSS_NODES))
            X, Y = p0[0] + t * dvec[0], p0[1] + t * dvec[1]
            th, _, _ = _bump(center, radius, X, Y)
            jump = float((A.rho * A.v - B.rho * B.v) @ nvec) - (A.rho - B.rho) * (
                X * nvec[0] + Y * nvec[1]
            )
            raw += float(np.sum(w * th * jump))

        norm = rho_R * (c_R * radius * BUMP_A1 + 2.0 * radius**2 * BUMP_A0)
        values.append(abs(raw) / norm)
    return {"values": np.array(values), "max": float(np.max(values))}
