"""Free-boundary solver for the pseudo-subsonic region.

The subsonic lens between the two arcs, the wall and the curved shock is
mapped to the unit square by onion coordinates: level curves of sigma blend
the two arc circles (centers and radii linear in sigma, see arc_blend), eta
is preserved, and zeta = eta / s(sigma) scales the shock to zeta = 1.

On that square the construction alternates two steps until the coupled
residual settles:

1. a fixed-boundary quasilinear solve for the potential psi_hat with
   the old iterate frozen exactly where the split removes the zeroth-order
   term of the arc condition:

       interior:  ((c0^2 + (1-g)(chi_old + |grad chi_hat|^2/2)) I
                   - grad chi_hat grad chi_hat^T) : Hess psi_hat = 0
       arcs:      |grad chi_hat|^2/2
                   + (1-e)((g-1) chi_old - c0^2)/(g+1-e(g-1)) = 0
       shock:     (rho_hat grad chi_hat - rho_I grad chi_I)
                   . unit(v_I - grad psi_hat) = 0
       wall:      psi_hat_eta = 0

2. a shock update from the potential-matching condition
   s(sigma) = (psi_hat(sigma, 1) - psi_I(0)) / v_I^y, under-relaxed.

At a fixed point the four conditions hold with chi_hat = chi_old, which is
the self-similar potential flow problem with L^2 = 1 - eps on the arcs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .gas import WedgeError, constant_state_potential, pi_inverse
from .pattern import WavePattern, separation_check

ISO_EPS = 1e-12


class MappingError(WedgeError, ValueError):
    pass


class InnerSolveError(WedgeError, RuntimeError):
    pass


class EllipticityLost(WedgeError, RuntimeError):
    pass


class CornerEscapeError(WedgeError, RuntimeError):
    pass


@dataclass
class ShockCurve:
    """Shock heights at the sigma nodes, with spline derivatives."""

    sigma: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if np.any(self.s[1:-1] <= 0.0):
            raise MappingError("shock height must stay positive over the wall")
        self._spline = CubicSpline(self.sigma, self.s, bc_type="not-a-knot")

    def value(self, sig):
        return self._spline(sig)

    def deriv(self, sig, k=1):
        return self._spline(sig, k)

    def bumped(self, amount) -> "ShockCurve":
        return ShockCurve(sigma=self.sigma.copy(), s=self.s + amount)


def arc_blend(sig, v_lx, r_l, r_r):
    """(b, u, R) of the level-sigma arc xi = b + u sqrt(1 - eta^2/R^2).

    Linear in sigma between arc L (sigma = 0: center v_lx, radius r_l, left
    branch) and arc R (sigma = 1: center 0, radius r_r, right branch), so
    the slopes db/dsigma = -v_lx, du/dsigma = r_r + r_l and
    dR/dsigma = r_r - r_l are constants.  The nonzero slope of u keeps the
    mapping Jacobian nondegenerate at the arc columns.
    """
    b = (1.0 - sig) * v_lx
    u = sig * r_r - (1.0 - sig) * r_l
    R = (1.0 - sig) * r_l + sig * r_r
    return b, u, R


class GridMapping:
    """Closed-form onion map of the unit square onto the lens.

    Level set sigma is the point-blend of the two arc circles at equal
    height: xi(sigma, eta) = b + u sqrt(1 - eta^2/R^2) with b, u, R linear
    blends of the arc centers and radii (arc_blend).  zeta rescales eta by
    the shock height s(sigma).
    """

    def __init__(self, pattern: WavePattern, shock: ShockCurve, n_sigma: int, n_zeta: int):
        self.pattern = pattern
        self.shock = shock
        self.n_sigma = n_sigma
        self.n_zeta = n_zeta
        self.v_lx = float(pattern.state_L.v[0])
        self.r_l = pattern.arc_L.radius
        self.r_r = pattern.arc_R.radius
        # d(b, u, R)/dsigma of arc_blend, constant in sigma
        self.slopes = (-self.v_lx, self.r_r + self.r_l, self.r_r - self.r_l)

        sig = np.linspace(0.0, 1.0, n_sigma + 1)
        zet = np.linspace(0.0, 1.0, n_zeta + 1)
        self.sig, self.zet = sig, zet
        self.d_sig = sig[1] - sig[0]
        self.d_zet = zet[1] - zet[0]
        S, Z = np.meshgrid(sig, zet)  # [j, i]
        self.S, self.Z = S, Z
        self._build(S, Z)

    def x_of(self, sig, eta):
        """Closed-form xi(sigma, eta) for scalars or arrays."""
        b, u, R = arc_blend(np.asarray(sig, dtype=float), self.v_lx, self.r_l, self.r_r)
        g2 = 1.0 - (np.asarray(eta) / R) ** 2
        if np.any(g2 <= 0.0):
            raise MappingError("height exceeds the blended arc radius")
        return b + u * np.sqrt(g2)

    def _build(self, S, Z):
        shock = self.shock
        s_v = shock.value(S)
        sp = shock.deriv(S, 1)
        spp = shock.deriv(S, 2)
        eta = Z * s_v

        b, u, R = arc_blend(S, self.v_lx, self.r_l, self.r_r)
        bp, up, Rp = self.slopes

        g2 = 1.0 - (eta / R) ** 2
        if np.any(g2 <= 1e-12):
            raise MappingError("shock reaches the top of a blended arc")
        g = np.sqrt(g2)
        g_e = -eta / (R**2 * g)
        g_s = eta**2 * Rp / (R**3 * g)
        g_ee = -1.0 / (R**2 * g) - eta**2 / (R**4 * g**3)
        g_se = eta * Rp * (2.0 * R**2 - eta**2) / (R**5 * g**3)
        g_ss = -3.0 * eta**2 * (Rp * Rp) / (R**4 * g) - eta**4 * (Rp * Rp) / (R**6 * g**3)

        X_s = bp + up * g + u * g_s
        X_e = u * g_e
        X_ss = 2.0 * up * g_s + u * g_ss
        X_se = up * g_e + u * g_se
        X_ee = u * g_ee

        # chain rule through eta = zeta s(sigma)
        xi_s = X_s + X_e * Z * sp
        xi_z = X_e * s_v
        xi_ss = X_ss + 2.0 * X_se * Z * sp + X_ee * (Z * sp) ** 2 + X_e * Z * spp
        xi_sz = X_se * s_v + X_ee * Z * sp * s_v + X_e * sp
        xi_zz = X_ee * s_v**2
        eta_s = Z * sp
        eta_z = s_v
        eta_ss = Z * spp
        eta_sz = sp

        det = xi_s * eta_z - xi_z * eta_s
        if np.any(det <= 0.0):
            raise MappingError("degenerate onion mapping (nonpositive Jacobian)")
        self.jac_det = det
        sig_x = eta_z / det
        sig_y = -xi_z / det
        zet_x = -eta_s / det
        zet_y = xi_s / det
        self.xi = b + u * g
        self.eta = eta
        self.sig_x, self.sig_y = sig_x, sig_y
        self.zet_x, self.zet_y = zet_x, zet_y

        # Hessian transform coefficients:
        # u_ab = sum_pq q^p_a q^q_b u_pq - sum_r (sum_pq q^p_a q^q_b G^r_pq) u_r
        # (Christoffel symbols G^r_pq, ordered ss, sz, zz; eta_zz = 0)
        G_s = (sig_x * xi_ss + sig_y * eta_ss, sig_x * xi_sz + sig_y * eta_sz, sig_x * xi_zz)
        G_z = (zet_x * xi_ss + zet_y * eta_ss, zet_x * xi_sz + zet_y * eta_sz, zet_x * xi_zz)

        def hess_coeffs(qa, qb):
            # qa, qb are (d/dx or d/dy) rows: (sig_a, zet_a)
            sa, za = qa
            sb, zb = qb
            c_ss = sa * sb
            c_sz = sa * zb + za * sb
            c_zz = za * zb
            corr_s = c_ss * G_s[0] + c_sz * G_s[1] + c_zz * G_s[2]
            corr_z = c_ss * G_z[0] + c_sz * G_z[1] + c_zz * G_z[2]
            return c_ss, c_sz, c_zz, -corr_s, -corr_z

        qx = (sig_x, zet_x)
        qy = (sig_y, zet_y)
        self.hxx = hess_coeffs(qx, qx)
        self.hxy = hess_coeffs(qx, qy)
        self.hyy = hess_coeffs(qy, qy)

    # lattice derivative helpers --------------------------------------------

    def d_sigma(self, u):
        h = self.d_sig
        out = np.empty_like(u)
        out[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2 * h)
        out[:, 0] = (-3 * u[:, 0] + 4 * u[:, 1] - u[:, 2]) / (2 * h)
        out[:, -1] = (3 * u[:, -1] - 4 * u[:, -2] + u[:, -3]) / (2 * h)
        return out

    def d_zeta(self, u):
        h = self.d_zet
        out = np.empty_like(u)
        out[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2 * h)
        out[0, :] = (-3 * u[0, :] + 4 * u[1, :] - u[2, :]) / (2 * h)
        out[-1, :] = (3 * u[-1, :] - 4 * u[-2, :] + u[-3, :]) / (2 * h)
        return out

    def gradient(self, u):
        us = self.d_sigma(u)
        uz = self.d_zeta(u)
        ux = self.sig_x * us + self.zet_x * uz
        uy = self.sig_y * us + self.zet_y * uz
        return ux, uy

    def hessian_terms(self, u):
        """Physical Hessian entries at interior nodes (edges meaningless)."""
        hs, hz = self.d_sig, self.d_zet
        us = self.d_sigma(u)
        uz = self.d_zeta(u)
        uss = np.zeros_like(u)
        uzz = np.zeros_like(u)
        usz = np.zeros_like(u)
        uss[:, 1:-1] = (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / hs**2
        uzz[1:-1, :] = (u[2:, :] - 2 * u[1:-1, :] + u[:-2, :]) / hz**2
        usz[1:-1, 1:-1] = (
            u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]
        ) / (4 * hs * hz)

        def combine(c):
            c_ss, c_sz, c_zz, d_s, d_z = c
            return c_ss * uss + c_sz * usz + c_zz * uzz + d_s * us + d_z * uz

        return combine(self.hxx), combine(self.hxy), combine(self.hyy)

    def invert(self, xi, eta):
        """(sigma, zeta) of physical points, by bracketed Newton on the sigma blend.

        Returns (sigma, zeta, inside).  Points outside the lens or above the
        shock get inside=False.  For points inside the lens, sigma solves
        x_of(sigma, eta) = xi by _newton_sigma, started from the linear
        interpolation between the two arcs; other points keep that start,
        clipped to [0, 1].
        """
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        # every level arc is at least as tall as the lower of the two arcs;
        # heights outside [0, min radius) are tested at eta = 0 and stay outside
        inside = (eta >= 0.0) & (eta < min(self.r_l, self.r_r))
        eta_in = np.where(inside, eta, 0.0)
        x0, x1 = self.x_of(0.0, eta_in), self.x_of(1.0, eta_in)
        inside &= (xi >= x0) & (xi <= x1)
        sig = np.asarray(np.clip((xi - x0) / (x1 - x0), 0.0, 1.0))
        del eta_in, x0, x1  # lowers the peak memory of the Newton arrays
        sig[inside] = self._newton_sigma(xi[inside], eta[inside], sig[inside])
        s_here = self.shock.value(sig)
        zet = np.where(s_here > 0, eta / np.maximum(s_here, 1e-300), np.inf)
        inside &= zet <= 1.0
        return sig, zet, inside

    def _newton_sigma(self, xi, eta, sig):
        """sigma in [0, 1] with x_of(sigma, eta) = xi, from the start sig.

        Newton falls back to the midpoint of the bracket [lo, hi] whenever
        its point leaves it, and stops when every step is at most 1e-14.
        """
        lo, hi = np.zeros_like(sig), np.ones_like(sig)
        for _ in range(64):
            f, fp = self._x_and_slope(sig, eta)
            f -= xi
            # f is exactly 0 at lattice nodes: the inclusive bracket keeps that
            # Newton point instead of restarting bisection
            below = f < 0.0
            np.copyto(lo, sig, where=below)
            np.copyto(hi, sig, where=~below)
            new = sig - f / fp
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            done = np.all(np.abs(new - sig) <= 1e-14)
            sig = new
            if done:
                return sig
        raise MappingError("sigma inversion did not converge in 64 steps")

    def _x_and_slope(self, sig, eta):
        """x_of(sig, eta) and its sigma derivative, from arc_blend and its
        constant slopes (heights below the blended radius)."""
        b, u, R = arc_blend(sig, self.v_lx, self.r_l, self.r_r)
        bp, up, Rp = self.slopes
        g = np.sqrt(1.0 - (eta / R) ** 2)
        return b + u * g, bp + up * g + u * eta**2 * Rp / (R**3 * g)

    def corner(self, side: str):
        j = -1
        i = 0 if side == "L" else -1
        return np.array([self.xi[j, i], self.eta[j, i]])


def build_mapping(
    pattern: WavePattern, shock: ShockCurve, n_sigma: int = 64, n_zeta: int = 64
) -> GridMapping:
    """Construct and sanity-check the onion mapping for the given shock."""
    m = GridMapping(pattern, shock, n_sigma, n_zeta)
    # wall maps exactly to zeta = 0
    if np.max(np.abs(m.eta[0, :])) != 0.0:
        raise MappingError("wall row does not sit at eta = 0")
    # shock abscissa strictly increasing (graph condition)
    if np.any(np.diff(m.xi[-1, :]) <= 0.0):
        raise MappingError("shock is not a graph over xi")
    return m


def chord_shock(pattern: WavePattern, n_sigma: int) -> ShockCurve:
    """Initial shock between the expected corners, in shock-height form.

    A cubic Hermite graph that leaves the corners tangent to the straight
    L and R shocks (slopes tan(beta) and 0); for the straight-shock pattern
    it degenerates to the chord itself.  Matching the end slopes keeps the
    upstream potential mismatch second order at the corners, so the blended
    initial guess stays pseudo-subsonic there.
    """
    sig = np.linspace(0.0, 1.0, n_sigma + 1)
    a, b = pattern.xi_L_star, pattern.xi_R_star
    if abs(b[1] - a[1]) < 1e-14:
        return ShockCurve(sigma=sig, s=np.full(n_sigma + 1, a[1]))
    v_lx = float(pattern.state_L.v[0])
    r_l, r_r = pattern.arc_L.radius, pattern.arc_R.radius
    xa, xb = float(a[0]), float(b[0])
    ma, mb = math.tan(pattern.beta), 0.0
    dx = xb - xa

    def hermite(x):
        t = (x - xa) / dx
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return h00 * a[1] + h10 * dx * ma + h01 * b[1] + h11 * dx * mb

    heights = np.empty(n_sigma + 1)
    for k, sv in enumerate(sig):
        lo, hi = xa, xb
        bb, u, R = arc_blend(sv, v_lx, r_l, r_r)

        def f(x):
            return bb + u * math.sqrt(max(1.0 - (hermite(x) / R) ** 2, 0.0)) - x

        flo = f(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) * flo <= 0.0:
                hi = mid
            else:
                lo = mid
                flo = f(lo)
        heights[k] = hermite(0.5 * (lo + hi))
    heights[0], heights[-1] = a[1], b[1]
    return ShockCurve(sigma=sig, s=heights)


def initial_guess(pattern: WavePattern, mapping: GridMapping):
    """Blend of the L/R constant-state potentials, matched on the shock.

    The blend weight is a smoothstep in sigma: its zero slope at the arcs
    removes the cross-term grad(sigma) (psi_R - psi_L) there, which keeps
    the guess pseudo-subsonic up to the corners (a linear weight does not).
    """
    model = pattern.config.model
    psi_L, _ = constant_state_potential(model, pattern.state_L.rho, pattern.state_L.v)
    psi_R, _ = constant_state_potential(model, pattern.state_R.rho, pattern.state_R.v)
    psi_I, _ = constant_state_potential(model, pattern.state_I.rho, pattern.state_I.v)
    pts = np.stack([mapping.xi, mapping.eta], axis=-1)
    W = mapping.S**2 * (3.0 - 2.0 * mapping.S)
    base = (1.0 - W) * psi_L(pts) + W * psi_R(pts)
    mism = psi_I(pts[-1, :, :]) - base[-1, :]
    return base + mism[None, :] * mapping.Z**2


@dataclass
class EllipticConfig:
    n_sigma: int = 64
    n_zeta: int = 64
    tol_inner: float = 1e-10
    tol_outer: float = 1e-6
    omega_relax: float = 0.5
    max_outer: int = 120


@dataclass
class EllipticSolution:
    pattern: WavePattern
    config: EllipticConfig
    mapping: GridMapping
    psi: np.ndarray
    shock: ShockCurve
    converged: bool
    residual_history: list
    separation_ok: bool = True

    def fields(self):
        """Nodal (rho, vx, vy, L2, chi) derived from psi on the mapping."""
        model = self.pattern.config.model
        m = self.mapping
        vx, vy = m.gradient(self.psi)
        chi = self.psi - 0.5 * (m.xi**2 + m.eta**2)
        zx, zy = vx - m.xi, vy - m.eta
        arg = -chi - 0.5 * (zx**2 + zy**2)
        rho = pi_inverse(model, arg)
        c2 = model.c0**2 + (model.gamma - 1.0) * arg
        L2 = (zx**2 + zy**2) / c2
        return {"rho": rho, "vx": vx, "vy": vy, "L2": L2, "chi": chi, "zx": zx, "zy": zy}

    @property
    def corner_L(self):
        return self.mapping.corner("L")

    @property
    def corner_R(self):
        return self.mapping.corner("R")


def _conditions(model, pattern, mapping, chi_coef, psi):
    """The four conditions at psi, block by block, each made dimensionless.

    chi_coef is the chi that sets the coefficients: the frozen chi_old of the
    split problem, or chi of psi itself for the unsplit conditions.  Returns
    (interior, arc, wall, shock, z2, c2): the interior operator at the
    interior nodes, the arc condition at every node (its sigma = 0 and 1
    columns are the arc rows), the wall and shock rows without their corner
    nodes, and |z|^2 and c^2 = c0^2 + (1-g)(chi_coef + |z|^2/2) at every node.
    """
    gamma = model.gamma
    eps = pattern.epsilon
    c_r = pattern.state_R.c
    rho_I = pattern.state_I.rho
    v_I = pattern.state_I.v

    vx, vy = mapping.gradient(psi)
    xi, eta = mapping.xi, mapping.eta
    zx, zy = vx - xi, vy - eta
    z2 = zx**2 + zy**2
    c2 = model.c0**2 + (1.0 - gamma) * (chi_coef + 0.5 * z2)

    hxx, hxy, hyy = mapping.hessian_terms(psi)
    Axx = c2 - zx * zx
    Axy = -zx * zy
    Ayy = c2 - zy * zy
    interior = (
        Axx[1:-1, 1:-1] * hxx[1:-1, 1:-1]
        + 2.0 * Axy[1:-1, 1:-1] * hxy[1:-1, 1:-1]
        + Ayy[1:-1, 1:-1] * hyy[1:-1, 1:-1]
    ) / c_r**2

    # arcs: L^2 = 1 - eps solved for |z|^2/2, with chi_coef in c^2
    arc_term = (1.0 - eps) * ((gamma - 1.0) * chi_coef - model.c0**2) / (
        gamma + 1.0 - eps * (gamma - 1.0)
    )
    arc = (0.5 * z2 + arc_term) / c_r**2

    # wall: psi_eta = 0
    wall = vy[0, 1:-1] / c_r

    # shock: normal mass flux against the upstream state
    top = (-1, slice(1, -1))
    chi = psi[top] - 0.5 * (xi[top] ** 2 + eta[top] ** 2)
    arg = -chi - 0.5 * z2[top]
    if gamma > 1.0 + ISO_EPS:
        arg = np.maximum(arg, -model.c0**2 / (gamma - 1.0) * 0.999999)
    rho = pi_inverse(model, arg)
    dx, dy = v_I[0] - vx[top], v_I[1] - vy[top]
    dn = np.maximum(np.hypot(dx, dy), 1e-14 * c_r)
    shock = (
        (rho * zx[top] - rho_I * (v_I[0] - xi[top])) * (dx / dn)
        + (rho * zy[top] - rho_I * (v_I[1] - eta[top])) * (dy / dn)
    ) / (rho_I * c_r)
    return interior, arc, wall, shock, z2, c2


def _residual(model, pattern, mapping, chi_old, psi):
    """Residual of the split problem: coefficients and arc term frozen at chi_old."""
    interior, arc, wall, shock, _, _ = _conditions(model, pattern, mapping, chi_old, psi)
    F = np.empty_like(psi)
    F[1:-1, 1:-1] = interior
    # corner rows carry the arc condition; the shock side is enforced
    # there through the free-boundary placement, the wall side through the
    # even-reflection symmetry of the construction
    F[:, 0] = arc[:, 0]
    F[:, -1] = arc[:, -1]
    F[0, 1:-1] = wall
    F[-1, 1:-1] = shock
    return F


def _jacobian(resid, psi, F, delta_fd):
    """Sparse finite-difference Jacobian of resid at psi (F = resid(psi)).

    Grouped differences over a 5x5 node coloring: the perturbed nodes of one
    color are 5 apart in each direction and every stencil, the one-sided
    boundary stencils included, reaches at most 2 nodes, so each row sees
    at most one perturbed node.
    """
    nz, ns = psi.shape
    rows, cols, vals = [], [], []
    for ci in range(5):
        for cj in range(5):
            mask = np.zeros_like(psi, dtype=bool)
            mask[cj::5, ci::5] = True
            Fp = resid(psi + delta_fd * mask)
            dF = (Fp - F) / delta_fd
            rj, ri = np.nonzero(np.abs(dF) > 0.0)
            # unique perturbed node within distance 2 of each row
            off_i = (ci - ri) % 5
            off_i = np.where(off_i > 2, off_i - 5, off_i)
            off_j = (cj - rj) % 5
            off_j = np.where(off_j > 2, off_j - 5, off_j)
            src_i = ri + off_i
            src_j = rj + off_j
            ok = (src_i >= 0) & (src_i < ns) & (src_j >= 0) & (src_j < nz)
            rows.append(rj[ok] * ns + ri[ok])
            cols.append(src_j[ok] * ns + src_i[ok])
            vals.append(dF[rj[ok], ri[ok]])
    return coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nz * ns, nz * ns),
    ).tocsc()


# the chord iteration refactors once a step shrinks by less than this factor
# against the step before it made with the same factorization
CHORD_CONTRACTION = 4.0
MAX_NEWTON = 20  # Newton steps per fixed-boundary solve
CORNER_MARGIN = 0.995  # a corner above this fraction of its arc radius has escaped


def solve_fixed_boundary(
    pattern: WavePattern,
    mapping: GridMapping,
    psi_old: np.ndarray,
    config: EllipticConfig,
    psi_init: np.ndarray | None = None,
):
    """Chord-Newton solve of the split problem with coefficients frozen at psi_old.

    The Jacobian is assembled by grouped finite differences (_jacobian) and
    factored once per call; later steps reuse that factorization (the chord
    method) and refresh it at the current iterate only when a step shrinks
    by less than CHORD_CONTRACTION against the previous step made with the
    same factorization.  The solve stops when a step falls below tol_inner
    relative to the potential scale; a residual above 4x its best value on
    5 consecutive steps, or above 1e3 tol_inner after MAX_NEWTON steps,
    raises InnerSolveError.  The returned state must keep the frozen
    coefficients elliptic at every interior node (EllipticityLost otherwise).
    """
    model = pattern.config.model
    chi_old = psi_old - 0.5 * (mapping.xi**2 + mapping.eta**2)

    psi = psi_old.copy() if psi_init is None else psi_init.copy()
    scale = pattern.state_R.c * max(1.0, np.max(np.abs(psi)))
    delta_fd = 1e-7 * scale

    def resid(p):
        return _residual(model, pattern, mapping, chi_old, p)

    F = resid(psi)
    best = np.max(np.abs(F))
    growth = 0
    lu = None
    for _ in range(MAX_NEWTON):
        if lu is None:
            try:
                lu = splu(_jacobian(resid, psi, F, delta_fd))
            except RuntimeError as exc:
                raise InnerSolveError(f"singular Newton matrix: {exc}") from exc
            upd_prev = math.inf
        step = lu.solve(-F.ravel()).reshape(psi.shape)
        psi = psi + step
        F = resid(psi)
        res_norm = np.max(np.abs(F))
        upd = np.max(np.abs(step)) / scale
        if upd < config.tol_inner:
            break
        if res_norm > 4.0 * best:
            growth += 1
            if growth >= 5:
                raise InnerSolveError(f"Newton divergence: residual grew to {res_norm}")
        else:
            growth = 0
            best = min(best, res_norm)
        if CHORD_CONTRACTION * upd > upd_prev:
            lu = None
        upd_prev = upd
    else:
        if np.max(np.abs(F)) > 1e3 * config.tol_inner:
            raise InnerSolveError(
                f"Newton did not converge: residual {np.max(np.abs(F))}"
            )

    # frozen-coefficient ellipticity check at the returned state
    *_, z2, c2_mix = _conditions(model, pattern, mapping, chi_old, psi)
    ell = c2_mix - z2
    bad = ell[1:-1, 1:-1] <= 0.0
    if np.any(bad):
        j, i = np.unravel_index(int(np.argmin(ell[1:-1, 1:-1])), bad.shape)
        raise EllipticityLost(
            f"frozen coefficients lost ellipticity at node (sigma={mapping.sig[i+1]:.3f}, "
            f"zeta={mapping.zet[j+1]:.3f})"
        )
    return psi


def update_shock(pattern: WavePattern, mapping: GridMapping, psi_hat: np.ndarray) -> ShockCurve:
    """New shock heights from the potential-matching condition."""
    model = pattern.config.model
    psi_I, a0 = constant_state_potential(model, pattern.state_I.rho, pattern.state_I.v)
    v_iy = float(pattern.state_I.v[1])
    s_new = (psi_hat[-1, :] - a0) / v_iy
    return ShockCurve(sigma=mapping.sig.copy(), s=s_new)


def _true_residuals(pattern, mapping, psi):
    """Residuals of the unsplit fixed-point conditions for the current psi.

    Wall and shock are measured on their open portions; at the corner nodes
    the arc condition, measured as L^2 - (1 - eps), takes precedence.
    """
    chi = psi - 0.5 * (mapping.xi**2 + mapping.eta**2)
    interior, _, wall, shock, z2, c2 = _conditions(pattern.config.model, pattern, mapping, chi, psi)
    L2 = z2 / c2
    target = 1.0 - pattern.epsilon
    return {
        "r_interior": float(np.max(np.abs(interior))),
        "r_arcL": float(np.max(np.abs(L2[1:, 0] - target))),
        "r_arcR": float(np.max(np.abs(L2[1:, -1] - target))),
        "r_wall": float(np.max(np.abs(wall))),
        "r_shock": float(np.max(np.abs(shock))),
    }


def iterate(
    pattern: WavePattern,
    config: EllipticConfig | None = None,
    shock0: ShockCurve | None = None,
) -> EllipticSolution:
    """Alternate fixed-boundary solves and shock updates until residuals settle."""
    config = config or EllipticConfig()
    if pattern.epsilon <= 0.0:
        raise ValueError("the free-boundary solve needs epsilon > 0")
    shock = shock0 or chord_shock(pattern, config.n_sigma)
    mapping = build_mapping(pattern, shock, config.n_sigma, config.n_zeta)
    psi = initial_guess(pattern, mapping)
    history = []
    converged = False
    r_r = pattern.arc_R.radius

    for outer in range(config.max_outer):
        psi_hat = solve_fixed_boundary(pattern, mapping, psi, config, psi_init=psi)
        s_target = update_shock(pattern, mapping, psi_hat)
        ds = s_target.s - shock.s
        s_relaxed = shock.s + config.omega_relax * ds
        rec = _true_residuals(pattern, mapping, psi_hat)
        rec["iter"] = outer
        rec["r_shock_update"] = float(np.max(np.abs(ds))) / r_r
        rec["combined"] = (
            rec["r_interior"]
            + rec["r_arcL"]
            + rec["r_arcR"]
            + rec["r_wall"]
            + rec["r_shock"]
            + rec["r_shock_update"]
        )
        history.append(rec)

        # corner escape checks against the (extended) arcs
        for side, idx, radius in (("L", 0, pattern.arc_L.radius), ("R", -1, pattern.arc_R.radius)):
            if s_relaxed[idx] >= CORNER_MARGIN * radius:
                target = pattern.xi_L_star if side == "L" else pattern.xi_R_star
                raise CornerEscapeError(
                    f"{side} corner left the extended arc: height {s_relaxed[idx]:.4f} "
                    f"vs radius {radius:.4f}; expected height {target[1]:.4f}"
                )

        if rec["combined"] < config.tol_outer:
            psi = psi_hat
            converged = True
            break

        shock = ShockCurve(sigma=shock.sigma, s=s_relaxed)
        mapping = build_mapping(pattern, shock, config.n_sigma, config.n_zeta)
        psi = psi_hat

    # the corner-chord separation condition is advisory for the solver: a
    # violating pattern still runs, but the case is marked unsupported
    sol = EllipticSolution(
        pattern=pattern,
        config=config,
        mapping=mapping,
        psi=psi,
        shock=shock,
        converged=converged,
        residual_history=history,
        separation_ok=separation_check(pattern) > 0.0,
    )
    return sol


def export_solution_csv(sol: EllipticSolution, node_path, shock_path, history_path) -> None:
    """Per-node, shock-curve and residual-history CSV files."""
    m = sol.mapping
    f = sol.fields()
    with open(node_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sigma", "zeta", "xi", "eta", "psi", "rho", "vx", "vy", "L2"])
        for j in range(m.n_zeta + 1):
            for i in range(m.n_sigma + 1):
                w.writerow(
                    [
                        m.sig[i],
                        m.zet[j],
                        m.xi[j, i],
                        m.eta[j, i],
                        sol.psi[j, i],
                        f["rho"][j, i],
                        f["vx"][j, i],
                        f["vy"][j, i],
                        f["L2"][j, i],
                    ]
                )
    with open(shock_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["xi", "s", "normal_angle"])
        xs = m.xi[-1, :]
        ss = m.eta[-1, :]
        slope = np.gradient(ss, xs)
        for x, s_v, sl in zip(xs, ss, slope):
            w.writerow([x, s_v, math.atan2(sl, 1.0) - 0.5 * math.pi])
    with open(history_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "r_interior", "r_arcL", "r_arcR", "r_wall", "r_shock", "r_shock_update", "combined"])
        for rec in sol.residual_history:
            w.writerow(
                [
                    rec["iter"],
                    rec["r_interior"],
                    rec["r_arcL"],
                    rec["r_arcR"],
                    rec["r_wall"],
                    rec["r_shock"],
                    rec["r_shock_update"],
                    rec["combined"],
                ]
            )
