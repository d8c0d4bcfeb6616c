"""Exact shock relations of self-similar potential flow.

Across a shock the potential is continuous and the normal mass flux
rho * z_n jumps to zero, where z = v - xi is the pseudo-velocity.  With the
normal pseudo-Mach numbers L_n = z_n / c these conditions collapse, for a
polytropic gas, to a single scalar relation

    g(L_un) = g(L_dn),
    g(x) = (x^2 + 2/(gamma-1)) * x^(2(1-gamma)/(gamma+1))   (gamma > 1)
    g(x) = x^2 - 2 log x                                    (gamma = 1)

together with the jump ratios

    rho_u/rho_d = (L_dn/L_un)^(2/(gamma+1)),
    c_u / c_d   = (L_dn/L_un)^((gamma-1)/(gamma+1)).

Normals point downstream (z_un, z_dn > 0); a shock is admissible iff
L_un >= 1, equivalently rho_d >= rho_u.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .gas import ISOTHERMAL_EPS, GasModel, FlowState, WedgeError

# width of the near-sonic window in which the series branch replaces the
# root solve: g is quadratically flat at 1, so the g-equality loses half the
# working digits for |L_un - 1| below ~1e-5
SONIC_WINDOW = 1e-5


class InadmissibleShock(WedgeError, ValueError):
    """Expansion branch requested where an admissible shock is required."""


class WrongSideError(WedgeError, ValueError):
    """Upstream pseudo-velocity does not cross the shock in the normal direction."""


class NoPolarError(WedgeError, ValueError):
    """Pseudo-subsonic upstream state has no shock polar."""


class NoAttachedShock(WedgeError, ValueError):
    """Subsonic upstream flow cannot carry an attached shock."""


class NoSonicIntersection(WedgeError, ValueError):
    """Downstream sonic circle does not intersect the shock."""


class ShockSolveError(WedgeError, ArithmeticError):
    """The normal-shock relation has no root the solve reaches or can represent."""


def perp(w):
    """Counterclockwise rotation by 90 degrees."""
    return np.array([-w[1], w[0]])


def cross2(a, b) -> float:
    """Scalar cross product of plane vectors."""
    return float(a[0] * b[1] - a[1] * b[0])


def _g_shifted(gamma: float, s, xp=math):
    """h(s) = g(e^s) - 2/(gamma-1) (g itself at gamma = 1) and dh/ds.

    The constant 2/(gamma-1) of g diverges as gamma -> 1; h leaves it out
    and is written with expm1, as gas.pi_of_rho is, so h and the root of
    h(s) = h(s_u) keep their digits there.  h is convex with its minimum
    h(0) = 1 at the sonic point.  xp is math for scalars, numpy for arrays.
    """
    if gamma - 1.0 < ISOTHERMAL_EPS:
        p = xp.exp(2.0 * s)
        return p - 2.0 * s, 2.0 * (p - 1.0)
    k = 2.0 * (gamma - 1.0) / (gamma + 1.0)
    p = xp.exp((2.0 - k) * s)
    q = xp.expm1(-k * s)
    return p + 2.0 / (gamma - 1.0) * q, (2.0 - k) * (p - 1.0 - q)


def g_value(gamma: float, x):
    """The shock invariant g; both sides of a shock share its value."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("normal pseudo-Mach number must be positive")
    out = _g_shifted(gamma, np.log(x), np)[0]
    if gamma - 1.0 >= ISOTHERMAL_EPS:
        out = out + 2.0 / (gamma - 1.0)
    return float(out) if out.ndim == 0 else out


def g_prime(gamma: float, x):
    """dg/dx = 4/(gamma+1) (x - 1/x) x^(-2(gamma-1)/(gamma+1))."""
    x = np.asarray(x, dtype=float)
    out = _g_shifted(gamma, np.log(x), np)[1] / x
    return float(out) if out.ndim == 0 else out


def downstream_normal_mach(gamma: float, lun: float) -> float:
    """Nontrivial branch of g(L_dn) = g(L_un).

    Strictly decreasing, self-inverse; maps (1, inf) onto (0, 1) and back.
    Newton on h(s) = h(log L_un) in s = log L_dn (see _g_shifted), started
    beyond the root so that convexity brings it in from one side; the
    inclusive bracket [lo, hi] takes the midpoint whenever round-off throws
    a Newton point out of it.
    """
    if lun <= 0.0:
        raise ValueError("normal pseudo-Mach number must be positive")
    if abs(lun - 1.0) < SONIC_WINDOW:
        # tangent slope -1 at the sonic point plus the quadratic term of the
        # nontrivial branch: L_dn = 1 - d + (5g-3)/(3(g+1)) d^2 + O(d^3)
        d = lun - 1.0
        return 1.0 - d + (5.0 * gamma - 3.0) / (3.0 * (gamma + 1.0)) * d * d

    try:
        target = _g_shifted(gamma, math.log(lun))[0]
    except OverflowError as exc:
        raise ShockSolveError(f"g overflows at L_un = {lun}, gamma = {gamma}") from exc
    if lun > 1.0:
        # root s < 0, above lo since h >= 2/(gamma-1) expm1(-k s) (-2s at
        # gamma = 1); the map is convex with slope -1 at the sonic point, so
        # L_dn >= 2 - L_un starts Newton closer
        if gamma - 1.0 < ISOTHERMAL_EPS:
            lo = -0.5 * target
        else:
            lo = -math.log1p(0.5 * (gamma - 1.0) * target) * (gamma + 1.0) / (2.0 * (gamma - 1.0))
        hi = 0.0
        s = max(lo, math.log(2.0 - lun)) if lun < 2.0 else lo
    else:
        # root s > 0, below hi since h >= exp(m s) - m s with m = 4/(gamma+1);
        # h >= 1 + (m s)^2 / 2 starts Newton closer
        m = 4.0 / (gamma + 1.0)
        lo, hi = 0.0, math.log(2.0 * target) / m
        s = min(hi, math.sqrt(2.0 * (target - 1.0)) / m)
    for _ in range(64):
        h, dh = _g_shifted(gamma, s)
        f = h - target
        if (f > 0.0) == (lun > 1.0):
            lo = s
        else:
            hi = s
        new = s - f / dh
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        # a residual of a few ulps of the target is round-off: take that
        # last step and stop
        if abs(f) <= 4e-15 * target or abs(new - s) <= 4e-16 * abs(s):
            break
        s = new
    else:
        raise ShockSolveError(f"normal-shock solve at L_un = {lun} did not converge in 64 steps")
    ldn = math.exp(new)
    if ldn < sys.float_info.min:
        raise ShockSolveError(f"L_dn = exp({new}) underflows at L_un = {lun}, gamma = {gamma}")
    return ldn


def jump_state(model: GasModel, rho_u: float, c_u: float, lun: float, *, require_admissible=True):
    """Downstream (rho_d, c_d) across a shock with upstream normal pseudo-Mach lun."""
    if lun < 1.0 and require_admissible:
        raise InadmissibleShock(f"L_un = {lun} < 1 is an entropy-violating expansion")
    return _jump_ratios(model.gamma, rho_u, c_u, lun, downstream_normal_mach(model.gamma, lun))


def _jump_ratios(gamma: float, rho_u: float, c_u: float, lun: float, ldn: float):
    """(rho_d, c_d) from the normal pseudo-Mach numbers on both sides."""
    ratio = lun / ldn
    rho_d = rho_u * ratio ** (2.0 / (gamma + 1.0))
    c_d = c_u * ratio ** ((gamma - 1.0) / (gamma + 1.0))
    return rho_d, c_d


@dataclass(frozen=True)
class ShockSensitivities:
    """Closed-form derivatives along the normal-shock branch (L_un > 1 fixed side).

    dldn_dlun: derivative of the downstream normal pseudo-Mach (negative).
    dzdn_dzun: derivative of z_dn w.r.t. z_un at fixed (rho_u, c_u);
               bounded above by (gamma-1)/(gamma+1).
    dvdn_dsigma: derivative of v_dn w.r.t. shock speed at fixed normal and
               upstream velocity; equals 1 - dzdn_dzun > 2/(gamma+1).
    drho_d_dsigma: same variation for rho_d, in units of rho_u/c_u (negative).
    """

    dldn_dlun: float
    dzdn_dzun: float
    dvdn_dsigma: float
    dvdn_dsigma_lower_bound: float
    drho_d_dsigma: float
    drho_d_dsigma_sign: int


def sensitivities(gamma: float, lun: float) -> ShockSensitivities:
    if lun <= 1.0:
        raise ValueError("sensitivities need L_un > 1; the derivative degenerates at 1")
    ldn = downstream_normal_mach(gamma, lun)
    ratio = lun / ldn
    dldn = (lun - 1.0 / lun) / (ldn - 1.0 / ldn) * ratio ** (-2.0 * (gamma - 1.0) / (gamma + 1.0))
    dzdn = ratio ** (-2.0 / (gamma + 1.0)) * (
        2.0 / (gamma + 1.0) * ratio * dldn + (gamma - 1.0) / (gamma + 1.0)
    )
    drho_dlun = (
        (2.0 / (gamma + 1.0))
        * ratio ** (2.0 / (gamma + 1.0))
        * (1.0 / lun - dldn / ldn)
    )
    return ShockSensitivities(
        dldn_dlun=dldn,
        dzdn_dzun=dzdn,
        dvdn_dsigma=1.0 - dzdn,
        dvdn_dsigma_lower_bound=2.0 / (gamma + 1.0),
        drho_d_dsigma=-drho_dlun,
        drho_d_dsigma_sign=-1,
    )


@dataclass(frozen=True)
class ShockSolution:
    """One resolved shock point: upstream/downstream states and normal data."""

    point: np.ndarray
    n: np.ndarray
    upstream: FlowState
    downstream: FlowState
    z_t: float
    lun: float
    ldn: float
    beta: float
    sigma: float

    @property
    def tangent(self) -> np.ndarray:
        return perp(self.n)

    @property
    def admissible(self) -> bool:
        return self.lun >= 1.0

    @property
    def vanishing(self) -> bool:
        return abs(self.lun - 1.0) < 1e-12

    @property
    def downstream_mach(self) -> float:
        return self.downstream.mach

    def pseudo_normal_point(self) -> np.ndarray:
        """Point on the (straight) shock where the tangential pseudo-velocity vanishes."""
        t = self.tangent
        return self.point + (t @ (self.downstream.v - self.point)) * t


def resolve_oblique(model: GasModel, upstream: FlowState, xi, n) -> ShockSolution:
    """Downstream state across a shock through xi with downstream normal n.

    The tangential pseudo-velocity carries over; the normal component jumps
    per the g relation.  Inadmissible (expansion) data is resolved but
    flagged, never raised.
    """
    xi = np.asarray(xi, dtype=float)
    n = np.asarray(n, dtype=float)
    n = n / np.hypot(*n)
    z_u = upstream.v - xi
    z_un = float(z_u @ n)
    if z_un <= 0.0:
        raise WrongSideError(f"z_u . n = {z_un} <= 0; normal must point downstream")
    t = perp(n)
    z_t = float(z_u @ t)
    lun = z_un / upstream.c
    ldn = downstream_normal_mach(model.gamma, lun)
    rho_d, c_d = _jump_ratios(model.gamma, upstream.rho, upstream.c, lun, ldn)
    z_d = z_t * t + ldn * c_d * n
    v_d = z_d + xi
    beta = math.atan2(cross2(z_u, n), z_un)
    return ShockSolution(
        point=xi,
        n=n,
        upstream=upstream,
        downstream=FlowState(rho=rho_d, v=v_d, c=c_d),
        z_t=z_t,
        lun=lun,
        ldn=ldn,
        beta=beta,
        sigma=float(xi @ n),
    )


@dataclass(frozen=True)
class PolarSample:
    beta: float
    downstream_v: np.ndarray
    rho_d: float
    c_d: float
    L_d: float


def polar_beta_max(model: GasModel, upstream: FlowState, xi) -> float:
    """Largest |beta| with an admissible shock: L_un(beta) = 1, acos(c_u / |z_u|)."""
    zmag = float(np.hypot(*(upstream.v - np.asarray(xi, dtype=float))))
    if zmag <= upstream.c:
        raise NoPolarError(f"|z_u| = {zmag} <= c_u = {upstream.c}: no polar at this point")
    return math.acos(upstream.c / zmag)


def shock_polar(model: GasModel, upstream: FlowState, xi, beta_grid) -> list[PolarSample]:
    """Sample the downstream states over all admissible shock normals at xi.

    beta_grid may be an integer sample count (symmetric grid over
    [-beta_max, beta_max]) or an explicit array of angles.
    """
    xi = np.asarray(xi, dtype=float)
    beta_max = polar_beta_max(model, upstream, xi)
    if np.isscalar(beta_grid) and not isinstance(beta_grid, np.ndarray):
        betas = np.linspace(-beta_max, beta_max, int(beta_grid))
    else:
        betas = np.clip(np.asarray(beta_grid, dtype=float), -beta_max, beta_max)
    z_u = upstream.v - xi
    zhat = z_u / np.hypot(*z_u)
    samples = []
    for b in betas:
        cb, sb = math.cos(b), math.sin(b)
        n = np.array([cb * zhat[0] - sb * zhat[1], sb * zhat[0] + cb * zhat[1]])
        sol = resolve_oblique(model, upstream, xi, n)
        z_d = sol.downstream.v - xi
        samples.append(
            PolarSample(
                beta=float(b),
                downstream_v=sol.downstream.v,
                rho_d=sol.downstream.rho,
                c_d=sol.downstream.c,
                L_d=float(np.hypot(*z_d)) / sol.downstream.c,
            )
        )
    return samples


@dataclass(frozen=True)
class DeflectionSolutions:
    """Weak/strong attached-shock pair for a given flow deflection."""

    weak: ShockSolution
    strong: ShockSolution
    tau: float
    tau_star: float

    @property
    def weak_supersonic(self) -> bool:
        return self.weak.downstream_mach > 1.0

    @property
    def strong_supersonic(self) -> bool:
        return self.strong.downstream_mach > 1.0


def _resolve_steady_beta(model: GasModel, upstream: FlowState, beta: float) -> ShockSolution:
    vhat = upstream.v / np.hypot(*upstream.v)
    cb, sb = math.cos(beta), math.sin(beta)
    n = np.array([cb * vhat[0] - sb * vhat[1], sb * vhat[0] + cb * vhat[1]])
    return resolve_oblique(model, upstream, np.zeros(2), n)


def _steady_deflection(model: GasModel, upstream: FlowState, beta: float) -> float:
    """Counterclockwise turning angle of the velocity across a steady shock."""
    v_d = _resolve_steady_beta(model, upstream, beta).downstream.v
    return math.atan2(cross2(upstream.v, v_d), float(upstream.v @ v_d))


def _max_deflection(model: GasModel, upstream: FlowState):
    """(beta_max, beta_star, tau_star): the polar edge, and the normal angle
    and value of the largest steady deflection."""
    if upstream.mach <= 1.0:
        raise NoAttachedShock(f"M_u = {upstream.mach} <= 1")
    beta_max = polar_beta_max(model, upstream, np.zeros(2))
    res = minimize_scalar(
        lambda b: -_steady_deflection(model, upstream, b),
        bounds=(-beta_max, 0.0),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return beta_max, float(res.x), -float(res.fun)


def critical_angle(model: GasModel, upstream: FlowState) -> float:
    """Largest deflection with an attached steady shock (weak = strong there)."""
    return _max_deflection(model, upstream)[2]


def deflection_solutions(model: GasModel, upstream: FlowState, tau: float):
    """Weak and strong steady-shock solutions turning the flow by tau.

    Returns None above the critical angle.  Downstream-sonic classification
    is available on the result.  The expansion branch is never returned.
    """
    if not 0.0 <= tau < 0.5 * math.pi:
        raise ValueError(f"deflection angle must lie in [0, pi/2), got {tau}")
    beta_max, beta_star, tau_star = _max_deflection(model, upstream)
    if tau > tau_star:
        return None
    if tau == 0.0:
        weak = _resolve_steady_beta(model, upstream, -beta_max)
        strong = _resolve_steady_beta(model, upstream, -1e-14)
        return DeflectionSolutions(weak=weak, strong=strong, tau=0.0, tau_star=tau_star)

    def f(b):
        return _steady_deflection(model, upstream, b) - tau

    if tau == tau_star or f(beta_star) <= 0.0:
        b_weak = b_strong = beta_star
    else:
        b_weak = brentq(f, -beta_max, beta_star, xtol=1e-14)
        b_strong = brentq(f, beta_star, -1e-15, xtol=1e-14)
    return DeflectionSolutions(
        weak=_resolve_steady_beta(model, upstream, b_weak),
        strong=_resolve_steady_beta(model, upstream, b_strong),
        tau=tau,
        tau_star=tau_star,
    )


def horizontal_downstream_shock(model: GasModel, upstream: FlowState, beta: float):
    """Shock through (0, eta) with downstream normal (sin b, -cos b) and v_d^y = 0.

    Upstream velocity must be (0, v_uy) with v_uy < 0.  Returns the unique
    height eta_0 = v_uy + L_un c_u / cos(b) and the resolved shock there.
    """
    if abs(upstream.v[0]) > 1e-14 * max(1.0, abs(upstream.v[1])):
        raise ValueError("upstream velocity must be vertical, (0, v_uy)")
    vuy = float(upstream.v[1])
    if vuy >= 0.0:
        raise ValueError("upstream vertical velocity must be negative")
    if not -0.5 * math.pi < beta < 0.5 * math.pi:
        raise ValueError(f"beta must lie in (-pi/2, pi/2), got {beta}")
    # v_d^y = 0 is the normal velocity jump z_un - z_dn = -v_uy / cos(b); in
    # units of c_u, L_un - L_dn c_d / c_u = J.  The left side rises from 0 at
    # L_un = 1 with slope above 2/(gamma+1) (ShockSensitivities), so the root
    # lies in [1, 1 + (gamma+1) J / 2]
    cos_b = math.cos(beta)
    jump = -vuy / (upstream.c * cos_b)

    def excess(lun):
        ldn = downstream_normal_mach(model.gamma, lun)
        return lun - ldn * _jump_ratios(model.gamma, 1.0, 1.0, lun, ldn)[1] - jump

    lun = brentq(excess, 1.0, 1.0 + 0.5 * (model.gamma + 1.0) * jump, xtol=1e-15, rtol=8.9e-16)
    eta0 = vuy + lun * upstream.c / cos_b
    n = np.array([math.sin(beta), -cos_b])
    return eta0, resolve_oblique(model, upstream, np.array([0.0, eta0]), n)


def sonic_points(model: GasModel, s: ShockSolution, epsilon: float):
    """The two shock points where the downstream pseudo-Mach equals sqrt(1-eps).

    Valid for a straight shock with constant downstream data.  The points
    are symmetric about the pseudo-normal point.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    target2 = 1.0 - epsilon
    if s.ldn**2 >= target2:
        raise NoSonicIntersection(
            f"L_dn = {s.ldn} >= sqrt(1-eps) = {math.sqrt(target2)}: circle misses the shock"
        )
    xm = s.pseudo_normal_point()
    half = s.downstream.c * math.sqrt(target2 - s.ldn**2)
    t = s.tangent
    return xm - half * t, xm + half * t
