"""Free-boundary solver for the pseudo-subsonic region.

The subsonic lens between the two arcs, the wall and the curved shock is
mapped to the unit square by onion coordinates: level curves of sigma blend
the two arc circles (centers and radii linear in sigma, see arc_blend), eta
is preserved, and zeta = eta / s(sigma) scales the shock to zeta = 1.

On that square one Newton solves the four conditions for the potential
psi, with coefficients from its own chi = psi - |xi|^2/2:

    interior:  ((c0^2 + (1-g)(chi + |grad chi|^2/2)) I
                - grad chi grad chi^T) : Hess psi = 0
    arcs:      |grad chi|^2/2 + (1-e)((g-1) chi - c0^2)/(g+1-e(g-1)) = 0
    shock:     (rho grad chi - rho_I grad chi_I) . unit(v_I - grad psi) = 0
    wall:      psi_eta = 0

which is the self-similar potential flow problem with L^2 = 1 - eps on the
arcs.  The shock is no separate unknown: at every iterate its heights are
s(sigma) = (psi(sigma, 1) - psi_I(0)) / v_I^y, so the potential-matching
condition holds exactly and the mapping follows psi's top row.

Each solve builds one Lattice, whose sparse matrix D stacks every
difference stencil; its shock curves carry it, and a mapping takes it from
its curve.  The residual kernel (_conditions) reads its derivatives from
D psi and also yields per-node coefficients W of the same stencils, so on
a fixed mapping the Jacobian is W D.  Its nodal state (_nodal_state: v,
chi, z, |z|^2, pi, c^2) is the one a solution's fields() read.  Node
(j, i) reads the shock only through (s_i, s'_i, s''_i) of one not-a-knot
spline, ShockCurve(lattice, s), whose node slopes solve the slope rows the
Lattice builds once; with those slopes as extra unknowns, the shock
columns stay sparse too (_jacobian).  The sparse LU of the
whole matrix, ordered by minimum degree on A^T + A with diagonal pivots,
is kept over the steps it contracts (the chord method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .gas import WedgeError, c2_of_pi, constant_state_potential, pi_inverse
from .pattern import WavePattern
from .shocks import _bracketed_root


class MappingError(WedgeError, ValueError):
    pass


class InnerSolveError(WedgeError, RuntimeError):
    pass


class EllipticityLost(WedgeError, RuntimeError):
    pass


class CornerEscapeError(WedgeError, RuntimeError):
    pass


def _spline_rows(N: int, h: float):
    """The not-a-knot spline through N node heights s, spacing h, in its
    node slopes m.

    Returns (T, R, bands, piece, ws, wm).  The slopes solve T m = R s, T's
    diagonals +2 .. -2 in bands, with end rows m_0 - m_2 = -2 (s_0 - 2 s_1
    + s_2)/h and its mirror, and interior rows m_{i-1} + 4 m_i + m_{i+1} =
    3 (s_{i+1} - s_{i-1})/h.  The second derivative at node i, by the
    Hermite formula on the piece p = piece[i] that starts there (the last
    node: on the piece that ends there), is ws[i] . (s_p, s_p+1) + wm[i] .
    (m_p, m_p+1).
    """
    k = np.arange(1, N - 1)
    T = coo_matrix((
        np.concatenate([[1.0, -1.0, 1.0, -1.0], np.ones(N - 2), np.full(N - 2, 4.0), np.ones(N - 2)]),
        (np.concatenate([[0, 0, N - 1, N - 1], k, k, k]),
         np.concatenate([[0, 2, N - 1, N - 3], k - 1, k, k + 1])),
    ), shape=(N, N))
    R = coo_matrix((
        np.concatenate([[-2.0, 4.0, -2.0, 2.0, -4.0, 2.0], np.full(N - 2, -3.0), np.full(N - 2, 3.0)]) / h,
        (np.concatenate([[0, 0, 0, N - 1, N - 1, N - 1], k, k]),
         np.concatenate([[0, 1, 2, N - 1, N - 2, N - 3], k - 1, k + 1])),
    ), shape=(N, N))
    bands = np.zeros((5, N))
    bands[2 + T.row - T.col, T.col] = T.data
    piece = np.minimum(np.arange(N), N - 2)
    ws = np.tile([-6.0, 6.0], (N, 1)) / h**2
    wm = np.tile([-4.0, -2.0], (N, 1)) / h
    ws[-1], wm[-1] = -ws[-1], [2.0 / h, 4.0 / h]
    return T, R, bands, piece, ws, wm


def _hermite(x, x0, w, y0, y1, m0, m1):
    """At x, the cubic on [x0, x0 + w] with ends y0, y1 and end slopes m0, m1, and its slope."""
    t, d0, d1 = (x - x0) / w, w * m0, w * m1
    value = (1 + 2 * t) * (1 - t) ** 2 * y0 + t * (1 - t) ** 2 * d0 + t * t * (3 - 2 * t) * y1
    slope = 6 * t * (t - 1) * (y0 - y1) + (1 - t) * (1 - 3 * t) * d0 + t * (3 * t - 2) * d1
    return value + t * t * (t - 1) * d1, slope / w


@dataclass
class ShockCurve:
    """The not-a-knot spline through heights s at the nodes of lattice: node
    slopes m and curvatures spp from its slope rows, Hermite pieces between.
    Node arrays m and spp that are given are taken as they are, unsolved."""

    lattice: Lattice
    s: np.ndarray
    m: np.ndarray | None = None
    spp: np.ndarray | None = None

    def __post_init__(self):
        lat = self.lattice
        if np.shape(self.s) != lat.nodes.shape:
            raise MappingError(f"shock heights shaped {np.shape(self.s)} on a lattice of {lat.nodes.size} nodes")
        if not np.all(np.isfinite(self.s)) or np.any(self.s[1:-1] <= 0.0):
            raise MappingError("shock height must stay finite, and positive over the wall")
        if self.m is None:
            self.m = solve_banded((2, 2), lat.bands, lat.R @ self.s)
            ends = np.stack([lat.piece, lat.piece + 1], axis=1)
            self.spp = np.sum(lat.ws * self.s[ends] + lat.wm * self.m[ends], axis=1)

    def at(self, sig):
        """(height, slope) of the curve at sig, on its Hermite piece."""
        nodes, h = self.lattice.nodes, self.lattice.h
        p = np.clip(np.searchsorted(nodes, sig, side="right") - 1, 0, self.s.size - 2)
        return _hermite(sig, nodes[p], h, self.s[p], self.s[p + 1], self.m[p], self.m[p + 1])


class Lattice:
    """The unit square of lattice_n cells per direction, and its stencils.

    sigma and zeta share the node array nodes and the spacing h; S and Z are
    the node grids, indexed [zeta, sigma] like psi.  D stacks the operators
    d_s, d_z, d_ss, d_sz, d_zz and the identity, in that order, each acting
    on psi.ravel() (sigma fastest) with integer weights, to be divided by
    its entry of scale.  The first differences are central inside and
    one-sided of second order at the edges.  The second differences act at
    the interior nodes, and the identity at every node but the open wall
    row: those are the rows whose conditions read them.  Their other rows
    are empty.  T, R, bands, piece, ws and wm are the shock spline's slope
    rows (_spline_rows), which its curves and the Newton matrix read.
    """

    def __init__(self, lattice_n: int):
        N = lattice_n + 1
        self.nodes = np.linspace(0.0, 1.0, N)
        h = self.h = self.nodes[1]
        self.S, self.Z = np.meshgrid(self.nodes, self.nodes)
        self.scale = np.array([2 * h, 2 * h, h**2, 4 * h * h, h**2, 1.0])
        node = np.arange(N * N)
        j, i = np.divmod(node, N)
        inner = (0 < i) & (i < lattice_n) & (0 < j) & (j < lattice_n)
        ident = (j > 0) | (i == 0) | (i == lattice_n)

        def first(t, step):
            lo, mid, hi = t == 0, (0 < t) & (t < lattice_n), t == lattice_n
            return [
                (mid, step, 1), (mid, -step, -1),
                (lo, 0, -3), (lo, step, 4), (lo, 2 * step, -1),
                (hi, 0, 3), (hi, -step, -4), (hi, -2 * step, 1),
            ]

        def second(step):
            return [(inner, step, 1), (inner, 0, -2), (inner, -step, 1)]

        cross = [(inner, N + 1, 1), (inner, N - 1, -1), (inner, 1 - N, -1), (inner, -1 - N, 1)]
        ops = (first(i, 1), first(j, N), second(1), cross, second(N), [(ident, 0, 1)])
        # row-major over (node, tap): each row keeps its taps in the order above,
        # so that D u adds them up as the written differences do
        data, cols, counts = [], [], []
        for taps in ops:
            sels, offsets, weights = zip(*taps)
            sel = np.stack(sels, axis=1)
            data.append(np.broadcast_to(np.array(weights, dtype=float), sel.shape)[sel])
            cols.append((node[:, None] + offsets)[sel])
            counts.append(sel.sum(axis=1))
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        data, cols = np.concatenate(data), np.concatenate(cols)
        self.D = csr_matrix((data, cols, indptr), shape=(6 * N * N, N * N))
        self.T, self.R, self.bands, self.piece, self.ws, self.wm = _spline_rows(N, h)

    def derivatives(self, u):
        """(u_s, u_z, u_ss, u_sz, u_zz, u off the open wall row), each shaped like u."""
        return (self.D @ u.ravel()).reshape((6,) + u.shape) / self.scale[:, None, None]


def lattice_bytes(lattice_n: int) -> int:
    """Bytes of the lattice-sized arrays of one solve: the node grids of
    the Lattice, the 22 per-node fields of a GridMapping, the 6 coefficient
    fields K of the Jacobian, and the stencil matrix D (8-byte values and
    4-byte column indices of its taps, 4-byte row pointers).  A lower bound:
    the Jacobian, its LU fill and the solve's temporaries are not counted."""
    N = lattice_n + 1
    taps = 5 * N * N + 10 * (N - 2) ** 2
    return 8 * (2 + 22 + 6) * N * N + 12 * taps + 4 * 6 * N * N


def arc_blend(pattern: WavePattern, sig):
    """(b, u, R) of the level-sigma arc xi = b + u sqrt(1 - eta^2/R^2), and
    their sigma slopes (b', u', R').

    Linear in sigma between arc L (sigma = 0: center v_lx, radius r_l, left
    branch) and arc R (sigma = 1: center 0, radius r_r, right branch), so
    the slopes -v_lx, r_r + r_l and r_r - r_l are constants.  The nonzero
    slope of u keeps the mapping Jacobian nondegenerate at the arc columns.
    """
    v_lx = float(pattern.state_L.v[0])
    r_l, r_r = pattern.arc_L.radius, pattern.arc_R.radius
    blend = ((1.0 - sig) * v_lx, sig * r_r - (1.0 - sig) * r_l, (1.0 - sig) * r_l + sig * r_r)
    return blend, (-v_lx, r_r + r_l, r_r - r_l)


def level_arc(pattern: WavePattern, sig, eta):
    """(X, X_sigma, X_eta) of the level-sigma arc X = b + u g, with
    g = sqrt(1 - eta^2/R^2) and (b, u, R) of arc_blend, at heights below R."""
    (b, u, R), (bp, up, Rp) = arc_blend(pattern, sig)
    g = np.sqrt(1.0 - (eta / R) ** 2)
    return b + u * g, bp + up * g + u * (eta**2 * Rp / (R**3 * g)), u * (-eta / (R**2 * g))


class GridMapping:
    """Closed-form onion map of the unit square onto the lens.

    Level set sigma is the point-blend of the two arc circles at equal
    height, xi(sigma, eta) = X(sigma, eta) of level_arc.  zeta rescales eta
    by the shock height s(sigma).  The mapping lives on the nodes of its
    shock curve's lattice, which every mapping of a solve shares, and reads
    the shock only through its node arrays s, m and spp.
    """

    def __init__(self, pattern: WavePattern, shock: ShockCurve):
        self.pattern = pattern
        self.shock = shock
        self.lattice = lattice = shock.lattice
        S, Z = lattice.S, lattice.Z
        s_v, sp, spp = shock.s, shock.m, shock.spp  # at the sigma nodes, broadcast over zeta
        eta = Z * s_v

        (b, u, R), (bp, up, Rp) = arc_blend(pattern, S)
        g2 = 1.0 - (eta / R) ** 2
        if np.any(g2 <= 1e-12):
            raise MappingError("shock reaches the top of a blended arc")
        X, X_s, X_e = level_arc(pattern, S, eta)

        # second order, through g = sqrt(1 - eta^2/R^2) and its first derivatives
        g = np.sqrt(g2)
        g_e = -eta / (R**2 * g)
        g_s = eta**2 * Rp / (R**3 * g)
        g_ee = -1.0 / (R**2 * g) - eta**2 / (R**4 * g**3)
        g_se = eta * Rp * (2.0 * R**2 - eta**2) / (R**5 * g**3)
        g_ss = -3.0 * eta**2 * (Rp * Rp) / (R**4 * g) - eta**4 * (Rp * Rp) / (R**6 * g**3)
        X_ss = 2.0 * up * g_s + u * g_ss
        X_se = up * g_e + u * g_se
        X_ee = u * g_ee

        # chain rule through eta = zeta s(sigma)
        xi_s = X_s + X_e * Z * sp
        xi_z = X_e * s_v
        xi_ss = X_ss + 2.0 * X_se * Z * sp + X_ee * (Z * sp) ** 2 + X_e * Z * spp
        xi_sz = X_se * s_v + X_ee * Z * sp * s_v + X_e * sp
        xi_zz = X_ee * s_v**2
        eta_s, eta_z, eta_ss, eta_sz = Z * sp, s_v, Z * spp, sp

        det = xi_s * eta_z - xi_z * eta_s
        if np.any(det <= 0.0):
            raise MappingError("degenerate onion mapping (nonpositive Jacobian)")
        sig_x, sig_y, zet_x, zet_y = eta_z / det, -xi_z / det, -eta_s / det, xi_s / det
        self.jac_det, self.xi, self.eta = det, X, eta
        self.sig_x, self.sig_y, self.zet_x, self.zet_y = sig_x, sig_y, zet_x, zet_y

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

    def hessian_terms(self, u):
        """(u_x, u_y, u_xx, u_xy, u_yy) from one product D u: the gradient at
        every node, the Hessian entries at the interior nodes (edges meaningless)."""
        us, uz, uss, usz, uzz, _ = self.lattice.derivatives(u)

        def combine(c):
            c_ss, c_sz, c_zz, d_s, d_z = c
            return c_ss * uss + c_sz * usz + c_zz * uzz + d_s * us + d_z * uz

        ux, uy = self.sig_x * us + self.zet_x * uz, self.sig_y * us + self.zet_y * uz
        return ux, uy, combine(self.hxx), combine(self.hxy), combine(self.hyy)

    def invert(self, xi, eta):
        """(sigma, zeta) of physical points, by bracketed Newton on the sigma blend.

        Returns (sigma, zeta, inside).  Points outside the lens or above the
        shock get inside=False.  For points inside the lens, sigma solves
        X(sigma, eta) = xi (level_arc) by _sigma_by_newton, started from the
        linear interpolation between the two arcs; other points keep that
        start, clipped to [0, 1].
        """
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        # every level arc is at least as tall as the lower of the two arcs;
        # heights outside [0, min radius) are tested at eta = 0 and stay outside
        inside = (eta >= 0.0) & (eta < min(self.pattern.arc_L.radius, self.pattern.arc_R.radius))
        eta_in = np.where(inside, eta, 0.0)
        x0, x1 = (level_arc(self.pattern, sig, eta_in)[0] for sig in (0.0, 1.0))
        inside &= (xi >= x0) & (xi <= x1)
        sig = np.asarray(np.clip((xi - x0) / (x1 - x0), 0.0, 1.0))
        del eta_in, x0, x1  # lowers the peak memory of the Newton arrays
        sig[inside] = self._sigma_by_newton(xi[inside], eta[inside], sig[inside])
        s_here = self.shock.at(sig)[0]
        zet = np.where(s_here > 0, eta / np.maximum(s_here, 1e-300), np.inf)
        inside &= zet <= 1.0
        return sig, zet, inside

    def _sigma_by_newton(self, xi, eta, sig):
        """sigma in [0, 1] with X(sigma, eta) = xi, from the start sig.

        Newton falls back to the midpoint of the bracket [lo, hi] whenever
        its point leaves it, and stops when every step is at most 1e-14.
        """
        lo, hi = np.zeros_like(sig), np.ones_like(sig)
        for _ in range(64):
            f, fp, _ = level_arc(self.pattern, sig, eta)
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

    def corner(self, side: str):
        i = 0 if side == "L" else -1
        return np.array([self.xi[-1, i], self.eta[-1, i]])


def build_mapping(pattern: WavePattern, shock: ShockCurve) -> GridMapping:
    """Construct and sanity-check the onion mapping for the given shock."""
    m = GridMapping(pattern, shock)
    # wall maps exactly to zeta = 0
    if np.max(np.abs(m.eta[0, :])) != 0.0:
        raise MappingError("wall row does not sit at eta = 0")
    # shock abscissa strictly increasing (graph condition)
    if np.any(np.diff(m.xi[-1, :]) <= 0.0):
        raise MappingError("shock is not a graph over xi")
    return m


def chord_shock(pattern: WavePattern, lattice: Lattice) -> ShockCurve:
    """Initial shock between the expected corners, in shock-height form.

    A cubic Hermite graph that leaves the corners tangent to the straight
    L and R shocks (slopes tan(beta) and 0); for the straight-shock pattern
    it degenerates to the chord itself.  Matching the end slopes keeps the
    upstream potential mismatch second order at the corners, so the blended
    initial guess stays pseudo-subsonic there.  A height above the level
    arc is clamped to its top.
    """
    sig = lattice.nodes
    a, b = pattern.xi_L_star, pattern.xi_R_star
    if abs(b[1] - a[1]) < 1e-14:
        return ShockCurve(lattice, np.full(sig.size, a[1]))
    xa, xb = float(a[0]), float(b[0])

    def hermite(x):
        return _hermite(x, xa, xb - xa, a[1], b[1], math.tan(pattern.beta), 0.0)[0]

    heights = np.empty(sig.size)
    heights[0], heights[-1] = a[1], b[1]
    # the clamped top, g = 0, gives infinite slopes that f does not read
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, sig.size - 1):
            R = arc_blend(pattern, sig[k])[0][2]  # the top of level arc k

            def f(x):
                return level_arc(pattern, sig[k], min(hermite(x), R))[0] - x

            heights[k] = hermite(_bracketed_root(f, xa, xb, xtol=1e-15))
    return ShockCurve(lattice, heights)


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
    S, Z = mapping.lattice.S, mapping.lattice.Z
    W = S**2 * (3.0 - 2.0 * S)
    base = (1.0 - W) * psi_L(pts) + W * psi_R(pts)
    mism = psi_I(pts[-1, :, :]) - base[-1, :]
    return base + mism[None, :] * Z**2


@dataclass
class EllipticConfig:
    lattice_n: int  # lattice cells per direction
    tol_outer: float = 1e-6
    max_outer: int = 120  # accepted Newton steps


@dataclass(frozen=True)
class EllipticSolution:
    pattern: WavePattern
    config: EllipticConfig
    mapping: GridMapping
    psi: np.ndarray
    converged: bool
    residual_history: list
    _fields: dict | None = field(default=None, init=False, repr=False, compare=False)

    def fields(self):
        """Nodal rho, v (vx, vy), L2 = |z|^2/c^2, chi, z (zx, zy) and c2 of
        psi on the mapping: the kernel's nodal state (_nodal_state), with
        rho = pi_inverse(pi).  A solution, which is frozen, forms them once,
        as read-only arrays; a copy made by dataclasses.replace forms its own."""
        if self._fields is None:
            model = self.pattern.config.model
            vx, vy, _, _, _, chi, zx, zy, z2, pi, c2 = _nodal_state(model, self.mapping, self.psi)
            f = dict(rho=pi_inverse(model, pi), vx=vx, vy=vy, L2=z2 / c2, chi=chi, zx=zx, zy=zy, c2=c2)
            for a in f.values():
                a.flags.writeable = False
            object.__setattr__(self, "_fields", f)
        return dict(self._fields)

    @property
    def corner_L(self):
        return self.mapping.corner("L")

    @property
    def corner_R(self):
        return self.mapping.corner("R")


def _nodal_state(model, mapping, psi):
    """psi's state at every node of mapping: (vx, vy, hxx, hxy, hyy, chi,
    zx, zy, z2, pi, c2), with v = grad psi and the Hessian entries of
    hessian_terms, chi = psi - |xi|^2/2, z = grad chi, z2 = |z|^2,
    pi = -chi - |z|^2/2 and c2 = c^2 at pi (gas.c2_of_pi)."""
    vx, vy, hxx, hxy, hyy = mapping.hessian_terms(psi)
    chi = psi - 0.5 * (mapping.xi**2 + mapping.eta**2)
    zx, zy = vx - mapping.xi, vy - mapping.eta
    z2 = zx**2 + zy**2
    pi = -chi - 0.5 * z2
    return vx, vy, hxx, hxy, hyy, chi, zx, zy, z2, pi, c2_of_pi(model, pi)


def _conditions(model, pattern, mapping, psi, linearize=False):
    """The four conditions at psi on mapping, block by block, each made
    dimensionless.

    Returns (interior, arc, wall, shock, z2, c2, K): the interior operator at
    the interior nodes, the arc condition at every node (its sigma = 0 and 1
    columns are the arc rows), the wall and shock rows without their corner
    nodes, |z|^2 and c^2 at every node (_nodal_state), and K, None unless
    linearize is set.

    With linearize, K holds the derivative of the residual (_residual) with
    respect to psi on the fixed mapping, as per-node coefficient fields of
    the six operators stacked in Lattice.D, in their order (shape (6,) +
    psi.shape): the residual row at a node changes by sum_op K_op
    D_op(delta psi) there.  Interior rows carry A : H plus the derivative
    of A = c^2 I - z z^T through grad psi and through chi
    (dc^2/dpsi = 1 - g); arc rows z . grad and the arc term's derivative in
    chi; wall rows d/dy; shock rows the derivatives of rho, of the unit
    normal and of the mass flux.
    """
    gamma = model.gamma
    eps = pattern.config.epsilon
    c_r = pattern.state_R.c
    rho_I = pattern.state_I.rho
    v_I = pattern.state_I.v

    vx, vy, hxx, hxy, hyy, chi, zx, zy, z2, arg, c2 = _nodal_state(model, mapping, psi)
    xi, eta = mapping.xi, mapping.eta

    Axx = c2 - zx * zx
    Axy = -zx * zy
    Ayy = c2 - zy * zy
    interior = (
        Axx[1:-1, 1:-1] * hxx[1:-1, 1:-1]
        + 2.0 * Axy[1:-1, 1:-1] * hxy[1:-1, 1:-1]
        + Ayy[1:-1, 1:-1] * hyy[1:-1, 1:-1]
    ) / c_r**2

    # arcs: L^2 = 1 - eps solved for |z|^2/2
    arc_den = gamma + 1.0 - eps * (gamma - 1.0)
    arc = (0.5 * z2 + (1.0 - eps) * ((gamma - 1.0) * chi - model.c0**2) / arc_den) / c_r**2

    # wall: psi_eta = 0
    wall = vy[0, 1:-1] / c_r

    # shock: normal mass flux against the upstream state
    top = (-1, slice(1, -1))
    raw = arg[top]
    arg = raw if model.isothermal else np.maximum(raw, -model.c0**2 / (gamma - 1.0) * 0.999999)
    rho = pi_inverse(model, arg)
    dx, dy = v_I[0] - vx[top], v_I[1] - vy[top]
    dn = np.maximum(np.hypot(dx, dy), 1e-14 * c_r)
    nx, ny = dx / dn, dy / dn
    mx = rho * zx[top] - rho_I * (v_I[0] - xi[top])
    my = rho * zy[top] - rho_I * (v_I[1] - eta[top])
    shock = (mx * nx + my * ny) / (rho_I * c_r)
    if not linearize:
        return interior, arc, wall, shock, z2, c2, None

    K = np.zeros((6,) + psi.shape)
    K_s, K_z, K_ss, K_sz, K_zz, K_id = K
    sig_x, sig_y, zet_x, zet_y = mapping.sig_x, mapping.sig_y, mapping.zet_x, mapping.zet_y

    def grad_rows(gx, gy):
        # coefficients of d_s and d_z for the row gx d/dx + gy d/dy
        return gx * sig_x + gy * sig_y, gx * zet_x + gy * zet_y

    # interior: A : H(delta psi), then dA through dc^2 = (1-g)(delta psi + z . dz)
    # and dz = grad delta psi
    for A, coef in ((Axx, mapping.hxx), (2.0 * Axy, mapping.hxy), (Ayy, mapping.hyy)):
        for k, c in zip((2, 3, 4, 0, 1), coef):  # c_ss, c_sz, c_zz, d_s, d_z
            K[k] += A * c
    trace = (1.0 - gamma) * (hxx + hyy)
    dA_s, dA_z = grad_rows(
        trace * zx - 2.0 * (hxx * zx + hxy * zy), trace * zy - 2.0 * (hxy * zx + hyy * zy)
    )
    K_s += dA_s
    K_z += dA_z
    K_id += trace
    K /= c_r**2

    # arcs: z . grad, and the arc term through chi
    arc_s, arc_z = grad_rows(zx / c_r**2, zy / c_r**2)
    for col in (0, -1):
        K_s[:, col], K_z[:, col] = arc_s[:, col], arc_z[:, col]
        K_id[:, col] = (1.0 - eps) * (gamma - 1.0) / (arc_den * c_r**2)

    # wall: d/dy
    K_s[0, 1:-1] = sig_y[0, 1:-1] / c_r
    K_z[0, 1:-1] = zet_y[0, 1:-1] / c_r

    # shock: d(rho) = rho/c^2 d(arg) off the vacuum clamp, d(arg) = -d psi - z . dz,
    # d(normal) = -(I - n n^T) dz / dn, and the flux's own rho dz
    c2_top = c2_of_pi(model, arg)
    drho = np.where(arg == raw, rho / c2_top, 0.0)
    zn = zx[top] * nx + zy[top] * ny
    mn = mx * nx + my * ny
    scale = rho_I * c_r
    px = (-drho * zn * zx[top] + rho * nx - (mx - mn * nx) / dn) / scale
    py = (-drho * zn * zy[top] + rho * ny - (my - mn * ny) / dn) / scale
    K_s[top] = px * sig_x[top] + py * sig_y[top]
    K_z[top] = px * zet_x[top] + py * zet_y[top]
    K_id[top] = -drho * zn / scale
    return interior, arc, wall, shock, z2, c2, K


def _residual(model, pattern, mapping, psi):
    """The Newton residual: the four conditions at psi on mapping.

    Returns (F, z2, c2), with |z|^2 and c^2 at every node.
    """
    interior, arc, wall, shock, z2, c2, _ = _conditions(model, pattern, mapping, psi)
    F = np.empty_like(psi)
    F[1:-1, 1:-1] = interior
    # corner rows carry the arc condition; the shock side is enforced
    # there through the free-boundary placement, the wall side through the
    # even-reflection symmetry of the construction
    F[:, 0] = arc[:, 0]
    F[:, -1] = arc[:, -1]
    F[0, 1:-1] = wall
    F[-1, 1:-1] = shock
    return F, z2, c2


# step of the shock-sensitivity probes, relative to the R arc radius
SHOCK_PROBE = 1e-8


def _jacobian(model, pattern, mapping, psi, F):
    """Sparse Newton matrix at psi, whose residual on mapping is F.

    The unknowns are psi and the N node slopes m of the shock spline; the
    rows are F and the lattice's slope equations T m = R s (_spline_rows),
    with s = (psi_top - a0)/v_I^y.  On the fixed mapping the block is
    exactly W D, with W = [diag(K_op / scale_op)] the coefficient fields of
    _conditions side by side and D, scale the stencils of the mapping's
    lattice.
    Node (j, i) reads the shock only through (s_i, s'_i = m_i, s''_i),
    whose effects are forward differences over three probe mappings.  The
    spline carries a quadratic q exactly, so a probe shifts the curve's node
    arrays (s, m, spp) by delta (q, q', q'') for q = 1, t, t^2, t = sigma -
    1/2, and solves no curve.  Entries that vanish are left out.
    """
    *_, K = _conditions(model, pattern, mapping, psi, linearize=True)
    lattice = mapping.lattice
    n, N = psi.size, lattice.nodes.size
    # row r of W holds K_op / scale_op at node r in column op n + r
    w = (K.reshape(6, n) * (1.0 / lattice.scale)[:, None]).T.ravel()
    col = np.arange(6 * n).reshape(6, n).T.ravel()
    W = csr_matrix((w, col, np.arange(0, 6 * n + 1, 6)), shape=(n, 6 * n))
    WD = (W @ lattice.D).tocoo()

    shock = mapping.shock
    t = lattice.nodes - 0.5
    delta = SHOCK_PROBE * pattern.arc_R.radius

    def probe(q, dq, ddq):
        moved = ShockCurve(lattice, shock.s + delta * q, shock.m + delta * dq, shock.spp + delta * ddq)
        return (_residual(model, pattern, GridMapping(pattern, moved), psi)[0] - F).ravel() / delta

    # the effects a, b, c of s_i, s'_i and s''_i at every node
    d1, d2, d3 = probe(1.0, 0.0, 0.0), probe(t, 1.0, 0.0), probe(t * t, 2.0 * t, 2.0)
    column = np.tile(np.arange(N), N)  # the sigma column of each node
    t = t[column]
    a, b, c = d1, d2 - t * d1, 0.5 * (d3 - 2.0 * t * d2 + t * t * d1)

    # node rows on s_k and m_k: a and b at the node's column, c through s''
    T, R, piece, ws, wm = lattice.T, lattice.R, lattice.piece, lattice.ws, lattice.wm
    p = piece[column]
    rows = np.tile(np.arange(n), 3)
    cols = np.concatenate([column, p, p + 1])
    on_s = np.concatenate([a, c * ws[column, 0], c * ws[column, 1]])
    on_m = np.concatenate([b, c * wm[column, 0], c * wm[column, 1]])
    # s_k = (psi_k' - a0)/v_I^y at the top-row node k' = n - N + k; m_k is unknown n + k
    v_iy = float(pattern.state_I.v[1])
    J = coo_matrix((
        np.concatenate([WD.data, on_s / v_iy, on_m, T.data, -R.data / v_iy]),
        (np.concatenate([WD.row, rows, rows, n + T.row, n + R.row]),
         np.concatenate([WD.col, n - N + cols, n + cols, n + T.col, n - N + R.col])),
    ), shape=(n + N, n + N)).tocsc()
    J.eliminate_zeros()
    return J


# the Newton matrix is refactored once a step on it cuts the largest
# residual by less than this factor
CHORD_CONTRACTION = 4.0
CORNER_MARGIN = 0.995  # a corner above this fraction of its arc radius has escaped


def _factor(J):
    """Sparse LU of the Newton matrix: the 9-point stencils make J
    structurally symmetric but for the one-sided edge rows and the shock
    columns, so order on A^T + A and pivot on the diagonal."""
    try:
        return splu(
            J, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
    except RuntimeError as exc:
        raise InnerSolveError(f"singular Newton matrix: {exc}") from exc


def _record(pattern, F, z2, c2, move):
    """The residual blocks of F, the shock move over r_R (r_shock_update)
    and their sum (combined).  Wall and shock are measured on their open
    portions; at the corner nodes the arc condition, measured as
    L^2 - (1 - eps), takes precedence."""
    L2 = z2 / c2
    target = 1.0 - pattern.config.epsilon
    rec = {
        "r_interior": float(np.max(np.abs(F[1:-1, 1:-1]))),
        "r_arcL": float(np.max(np.abs(L2[1:, 0] - target))),
        "r_arcR": float(np.max(np.abs(L2[1:, -1] - target))),
        "r_wall": float(np.max(np.abs(F[0, 1:-1]))),
        "r_shock": float(np.max(np.abs(F[-1, 1:-1]))),
        "r_shock_update": move / pattern.arc_R.radius,
    }
    rec["combined"] = sum(rec.values())
    return rec


def iterate(
    pattern: WavePattern,
    config: EllipticConfig,
    shock0: ShockCurve | None = None,
) -> EllipticSolution:
    """Newton on psi for the free-boundary problem, the shock read off psi.

    At every iterate the shock heights are s = (psi_top - a0)/v_I^y, so the
    potential-matching condition holds exactly; the mapping follows s.
    Each step solves with the Newton matrix (_jacobian) of this or an
    earlier iterate: its LU is kept while a step on it cuts the largest
    residual at least CHORD_CONTRACTION-fold, and otherwise the step is
    redone from the same point on a fresh one.  A trial shock whose mapping fails, or
    whose corner passes CORNER_MARGIN of its arc radius, and a trial that
    reaches vacuum (c = 0) at a node are retried the same way; on a fresh
    matrix they raise InnerSolveError or CornerEscapeError.

    Each accepted step appends its record (_record) to the history.  The solve stops once combined is below tol_outer, or after
    max_outer accepted steps.  The returned state must keep the
    coefficients elliptic at every interior node (EllipticityLost
    otherwise).  A shock0 on a lattice of another size than
    config.lattice_n raises MappingError before any step.
    """
    if pattern.config.epsilon <= 0.0:
        raise ValueError("the free-boundary solve needs epsilon > 0")
    n = config.lattice_n if shock0 is None else shock0.lattice.nodes.size - 1
    if n != config.lattice_n:
        raise MappingError(
            f"shock0 lies on a lattice of {n} cells per direction, the solve's lattice_n is {config.lattice_n}"
        )
    model = pattern.config.model
    mapping = build_mapping(pattern, shock0 or chord_shock(pattern, Lattice(config.lattice_n)))
    lattice = mapping.lattice
    psi = initial_guess(pattern, mapping)
    F = _residual(model, pattern, mapping, psi)[0]
    _, a0 = constant_state_potential(model, pattern.state_I.rho, pattern.state_I.v)
    v_iy = float(pattern.state_I.v[1])
    history = []
    converged = False
    lu = None

    for step in range(config.max_outer):
        while True:
            fresh = lu is None
            if fresh:
                lu = _factor(_jacobian(model, pattern, mapping, psi, F))
            rhs = np.concatenate([-F.ravel(), np.zeros(lattice.nodes.size)])
            trial = psi + lu.solve(rhs)[: psi.size].reshape(psi.shape)
            s = (trial[-1, :] - a0) / v_iy
            try:
                escape = _corner_escape(pattern, s)
                if escape is not None:
                    raise CornerEscapeError(escape)
                trial_map = build_mapping(pattern, ShockCurve(lattice, s))
            except (MappingError, CornerEscapeError) as exc:
                if not fresh:
                    lu = None
                    continue
                if isinstance(exc, CornerEscapeError):
                    raise
                raise InnerSolveError(f"Newton step left the mappable shocks: {exc}") from exc
            F_trial, z2, c2 = _residual(model, pattern, trial_map, trial)
            vacuum = np.argwhere(~(c2 > 0.0))
            contracts = CHORD_CONTRACTION * np.max(np.abs(F_trial)) <= np.max(np.abs(F))
            if not vacuum.size and (fresh or contracts):
                break
            if fresh:
                zeta, sig = lattice.nodes[vacuum[0]]
                raise InnerSolveError(f"Newton step reached vacuum at node (sigma={sig:.3f}, zeta={zeta:.3f})")
            lu = None
        move = float(np.max(np.abs(s - mapping.shock.s)))
        history.append({"iter": step, **_record(pattern, F_trial, z2, c2, move)})
        psi, mapping, F = trial, trial_map, F_trial
        if history[-1]["combined"] < config.tol_outer:
            converged = True
            break

    # ellipticity check at the returned state
    ell = (c2 - z2)[1:-1, 1:-1]
    if np.any(ell <= 0.0):
        j, i = np.unravel_index(int(np.argmin(ell)), ell.shape)
        nodes = lattice.nodes
        raise EllipticityLost(
            f"coefficients lost ellipticity at node (sigma={nodes[i+1]:.3f}, zeta={nodes[j+1]:.3f})"
        )
    return EllipticSolution(
        pattern=pattern,
        config=config,
        mapping=mapping,
        psi=psi,
        converged=converged,
        residual_history=history,
    )


def _corner_escape(pattern, s):
    """The message for a corner height s[0] or s[-1] at or above
    CORNER_MARGIN of its arc radius, else None."""
    for side, idx, radius in (("L", 0, pattern.arc_L.radius), ("R", -1, pattern.arc_R.radius)):
        if s[idx] >= CORNER_MARGIN * radius:
            target = pattern.xi_L_star if side == "L" else pattern.xi_R_star
            return (
                f"{side} corner left the extended arc: height {s[idx]:.4f} "
                f"vs radius {radius:.4f}; expected height {target[1]:.4f}"
            )
    return None
