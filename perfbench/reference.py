"""Reference computations the benchmark checks the package against.

Written in plain numpy/scipy and kept apart from the package, so that a
defect in the package's shock algebra cannot hide in its own checks.  The gas
is polytropic with rho_I = c_I = 1:

    c(rho)  = rho^((gamma-1)/2),
    pi(rho) = (rho^(gamma-1) - 1) / (gamma-1).

Across a potential-flow shock the tangential (pseudo-)velocity is
continuous, the normal mass flux is continuous, and the potential is
continuous, which with Bernoulli makes pi(rho) + w_n^2/2 continuous, w being
the velocity relative to the shock.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar


def pi_of(gamma, rho):
    return (np.power(rho, gamma - 1.0) - 1.0) / (gamma - 1.0)


def sound(gamma, rho):
    return np.power(rho, 0.5 * (gamma - 1.0))


def rho_of_pi(gamma, a):
    return np.power(1.0 + (gamma - 1.0) * a, 1.0 / (gamma - 1.0))


def normal_jump(gamma, rho_u, w_un):
    """Downstream (rho_d, w_dn) of a shock with upstream normal speed w_un > c_u.

    Solves rho_u w_un = rho_d w_dn and pi(rho_u) + w_un^2/2 = pi(rho_d) +
    w_dn^2/2 for the nontrivial root rho_d > rho_u.  The bracket starts at
    the density where the downstream normal speed is sonic, the minimum of
    the Bernoulli defect, where the defect is negative.
    """
    m = rho_u * w_un
    head = pi_of(gamma, rho_u) + 0.5 * w_un * w_un

    def defect(rho):
        return pi_of(gamma, rho) + 0.5 * (m / rho) ** 2 - head

    lo = m ** (2.0 / (gamma + 1.0))
    hi = 2.0 * lo
    while defect(hi) <= 0.0:
        hi *= 2.0
    rho_d = brentq(defect, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=200)
    return rho_d, m / rho_d


def tip_shock(gamma, mach, tau):
    """Weak attached shock of a steady uniform stream (speed mach, along +x)
    turned by the deflection tau.

    Returns (shock angle, rho_L, v_L) with v_L the downstream velocity.  The
    weak root lies between the Mach angle, where the deflection vanishes,
    and the angle of largest deflection.
    """
    mu = math.asin(1.0 / mach)

    def state(theta):
        w_un = mach * math.sin(theta)
        rho_d, w_dn = normal_jump(gamma, 1.0, w_un)
        w_t = mach * math.cos(theta)
        return rho_d, w_dn, w_t

    def deflection(theta):
        _, w_dn, w_t = state(theta)
        return theta - math.atan2(w_dn, w_t)

    top = minimize_scalar(
        lambda th: -deflection(th), bounds=(mu, 0.5 * math.pi), method="bounded",
        options={"xatol": 1e-12},
    )
    if tau > -top.fun:
        raise ValueError(f"tau = {tau} above the critical deflection {-top.fun}")
    theta = brentq(lambda th: deflection(th) - tau, mu * (1.0 + 1e-13), top.x, xtol=1e-15)
    rho_d, w_dn, w_t = state(theta)
    t_hat = np.array([math.cos(theta), math.sin(theta)])
    n_hat = np.array([math.sin(theta), -math.cos(theta)])
    return theta, rho_d, w_t * t_hat + w_dn * n_hat


def reflected_shock(gamma, v_down):
    """Wall-reflected normal shock of the standard picture.

    The incoming state moves straight down with speed v_down > 0 onto the
    wall; the state behind the horizontal shock at height eta_R is at rest.
    Returns (eta_R, rho_R).
    """
    def mismatch(eta):
        _, w_dn = normal_jump(gamma, 1.0, eta + v_down)
        return w_dn - eta

    lo = max(1.0 - v_down, 0.0) + 1e-12
    hi = 1.0 + v_down
    while mismatch(hi) > 0.0:
        hi *= 2.0
    eta = brentq(mismatch, lo, hi, xtol=1e-15)
    rho_R, _ = normal_jump(gamma, 1.0, eta + v_down)
    return eta, rho_R


def self_check(gamma, mach):
    """Reference consistency checks; returns a list of failure messages.

    As tau -> 0 the weak shock angle tends to the Mach angle asin(1/M), and
    a normal jump satisfies its own mass-flux and Bernoulli conditions.
    """
    bad = []
    mu = math.asin(1.0 / mach)
    errs = [abs(tip_shock(gamma, mach, tau)[0] - mu) for tau in (1e-3, 1e-4, 1e-5)]
    if not (errs[2] < errs[1] < errs[0] and errs[2] < 1e-4):
        bad.append(f"tau -> 0 limit: |theta - asin(1/M)| = {errs}")
    rho_d, w_dn = normal_jump(gamma, 1.0, 2.0)
    flux = abs(rho_d * w_dn - 2.0) / 2.0
    bern = abs(pi_of(gamma, rho_d) + 0.5 * w_dn**2 - 2.0) / 2.0
    if not (flux < 1e-14 and bern < 1e-13 and rho_d > 1.0):
        bad.append(f"normal jump residuals: flux {flux:.1e}, Bernoulli {bern:.1e}")
    return bad


def rh_residual(gamma, point, normal, rho_u, v_u, rho_d, v_d):
    """Largest normalized jump-condition defect of two constant states
    across the straight shock through point with the given normal.

    Velocities are taken relative to the similarity point (pseudo-velocities
    z = v - xi); for a straight shock the defects are the same at every
    point of the line.
    """
    point = np.asarray(point, dtype=float)
    n = np.asarray(normal, dtype=float)
    n = n / np.hypot(*n)
    t = np.array([-n[1], n[0]])
    z_u = np.asarray(v_u, dtype=float) - point
    z_d = np.asarray(v_d, dtype=float) - point
    c_u = float(sound(gamma, rho_u))
    zun, zdn = float(z_u @ n), float(z_d @ n)
    tangential = abs(float(z_u @ t) - float(z_d @ t)) / c_u
    flux = abs(rho_u * zun - rho_d * zdn) / (rho_u * max(abs(zun), c_u))
    bern = abs(pi_of(gamma, rho_u) + 0.5 * zun**2 - pi_of(gamma, rho_d) - 0.5 * zdn**2) / c_u**2
    return max(tangential, flux, bern)


def sonic_points_on_line(point, direction, center, radius):
    """The two points where a line meets a circle, ordered by abscissa."""
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.hypot(*d)
    q = p - np.asarray(center, dtype=float)
    b = float(q @ d)
    disc = b * b - (float(q @ q) - radius * radius)
    if disc < 0.0:
        raise ValueError("line misses the circle")
    a, c = p + (-b - math.sqrt(disc)) * d, p + (-b + math.sqrt(disc)) * d
    return (a, c) if a[0] <= c[0] else (c, a)


class DeskCase:
    """The wedge case (M_I, tau) in the package's standard picture.

    Standard coordinates put the R state at rest and the wall on the xi
    axis; the original picture (tip at the origin, stream along +x) maps
    to it by a rotation by -tau plus the boost to the tip at
    (-M_I cos tau, 0).
    """

    def __init__(self, gamma, mach, tau, epsilon):
        self.theta, self.rho_L, v_L_orig = tip_shock(gamma, mach, tau)
        ct, st = math.cos(tau), math.sin(tau)
        tip = np.array([-mach * ct, 0.0])
        rot = np.array([[ct, st], [-st, ct]])  # rotation by -tau
        self.v_I = np.array([0.0, -mach * st])
        self.v_L = rot @ v_L_orig + tip
        self.c_L = float(sound(gamma, self.rho_L))
        self.eta_R, self.rho_R = reflected_shock(gamma, mach * st)
        self.c_R = float(sound(gamma, self.rho_R))
        shock_dir = np.array([math.cos(self.theta - tau), math.sin(self.theta - tau)])
        r = math.sqrt(1.0 - epsilon)
        self.corner_L = sonic_points_on_line(tip, shock_dir, self.v_L, r * self.c_L)[0]
        self.corner_R = sonic_points_on_line(
            np.array([0.0, self.eta_R]), np.array([1.0, 0.0]), np.zeros(2), r * self.c_R
        )[1]
        # the tip-side sonic corner of the L state in the original picture
        self.corner_L_orig = sonic_points_on_line(
            np.zeros(2), np.array([math.cos(self.theta), math.sin(self.theta)]), v_L_orig, r * self.c_L
        )[0]


def node_checks(gamma, nodes, epsilon, v_I, c_R, tol):
    """Arc, ellipticity and shock checks of an exported ``*_nodes.csv``.

    nodes has the columns sigma, zeta, xi, eta, psi, rho, vx, vy, L2, row
    major over (zeta, sigma).  L^2 and rho are recomputed from psi and the
    velocity; the shock normal is the direction of the velocity jump, which
    tangential continuity makes normal to the shock.  Returns the list of
    failed checks.
    """
    ns = int(np.sum(nodes[:, 1] == 0.0))
    nz = len(nodes) // ns
    grid = nodes.reshape(nz, ns, nodes.shape[1])
    xi, eta, psi, rho, vx, vy = (grid[:, :, k] for k in (2, 3, 4, 5, 6, 7))
    zx, zy = vx - xi, vy - eta
    z2 = zx * zx + zy * zy
    arg = -(psi - 0.5 * (xi * xi + eta * eta)) - 0.5 * z2
    c2 = 1.0 + (gamma - 1.0) * arg
    L2 = z2 / c2
    out = {
        "arc": float(max(np.max(np.abs(L2[1:, 0] - (1.0 - epsilon))),
                         np.max(np.abs(L2[1:, -1] - (1.0 - epsilon))))),
        "interior_L2_max": float(np.max(L2[1:-1, 1:-1])),
        "rho_min": float(np.min(rho)),
        "rho_closure": float(np.max(np.abs(rho_of_pi(gamma, arg) - rho) / rho)),
        "L2_export": float(np.max(np.abs(grid[:, :, 8] - L2))),
    }
    top = np.s_[-1, 1:-1]
    dx, dy = v_I[0] - vx[top], v_I[1] - vy[top]
    dn = np.hypot(dx, dy)
    nx, ny = dx / dn, dy / dn
    flux_d = rho[top] * (zx[top] * nx + zy[top] * ny)
    flux_u = (v_I[0] - xi[top]) * nx + (v_I[1] - eta[top]) * ny
    out["shock_flux"] = float(np.max(np.abs(flux_d - flux_u))) / c_R
    # geometric shock tangent from the exported node positions
    tx, ty = np.gradient(xi[-1, :]), np.gradient(eta[-1, :])
    out["shock_normal_angle"] = float(np.max(np.abs(tx[1:-1] * nx + ty[1:-1] * ny) / np.hypot(tx, ty)[1:-1]))

    bad = []
    if not out["arc"] <= tol:
        bad.append(f"|L^2 - (1 - eps)| on the arcs = {out['arc']:.2e} > {tol:.0e}")
    if not out["interior_L2_max"] < 1.0:
        bad.append(f"interior L^2 reaches {out['interior_L2_max']:.4f}")
    if not out["rho_min"] > 1.0:
        bad.append(f"min rho = {out['rho_min']:.6f} <= rho_I")
    if not out["rho_closure"] < 1e-10:
        bad.append(f"exported rho off the Bernoulli closure by {out['rho_closure']:.1e}")
    if not out["L2_export"] < 1e-10:
        bad.append(f"exported L2 differs from the recomputed one by {out['L2_export']:.1e}")
    if not out["shock_normal_angle"] < 1e-2:
        bad.append(f"shock shape off the velocity-jump normal by {out['shock_normal_angle']:.1e} rad")
    if not out["shock_flux"] <= tol:
        bad.append(f"shock normal mass-flux defect {out['shock_flux']:.2e} > {tol:.0e}")
    return bad
