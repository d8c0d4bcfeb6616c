"""Independent checks of the shock algebra: the invariant g, 40-digit
references that solve its level sets by plain bisection, high-precision
references of the steady polar, a second normal-shock formulation (the
self-inverse map L_un -> L_dn of g's level sets, the power-law jump ratios
and the oblique resolution built on them), the closed-form normal-shock
sensitivities, the steady deflection resolved by that formulation, the jump
across a normal shock, the closed-form corner-slide sensitivities with their
finite differences, and the Bernoulli closure at a self-similar point."""

import math
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from wedgeflow.diagnostics import arc_ode_constants
from wedgeflow.gas import ISOTHERMAL_EPS, FlowState, GasModel, WedgeError, pi_inverse
from wedgeflow.shocks import (
    ShockSolution,
    ShockSolveError,
    _bracketed_root,
    _normal_mach,
    _normal_ratio,
    perp,
)

DIGITS = 40


class WrongSideError(WedgeError, ValueError):
    """Upstream pseudo-velocity does not cross the shock in the normal direction."""


def cross2(a, b) -> float:
    """Scalar cross product of plane vectors."""
    return float(a[0] * b[1] - a[1] * b[0])


def downstream_normal_mach(gamma: float, lun: float) -> float:
    """L_dn across the shock with upstream normal pseudo-Mach number lun, the
    other point of its level set of g: strictly decreasing, self-inverse.
    For lun > 1, lun e^(-(gamma+1) u/2) at the root u > 0 of L_un(u) = lun;
    for lun <= 1, by self-inversion, L_un(u) where L_dn(u) = lun (compared
    unsquared: a fed-back L_dn may be near underflow; u = 0 at lun = 1).
    """
    if lun <= 0.0:
        raise ValueError("normal pseudo-Mach number must be positive")
    gp1 = gamma + 1.0
    try:
        if lun > 1.0:
            ldn = lun * math.exp(-0.5 * gp1 * _normal_ratio(gamma, lun))
        else:
            # L_dn(u) <= sqrt(1 + 2u) e^(-u), below lun from u = 2 - 2 log lun on
            top = 2.0 - 2.0 * math.log(lun)
            u = _bracketed_root(
                lambda u: _normal_mach(gamma, u) * math.exp(-0.5 * gp1 * u) - lun, 0.0, top, xtol=0.0
            )
            ldn = _normal_mach(gamma, u)
    except OverflowError as exc:
        raise ShockSolveError(f"normal shock at L_un = {lun}, gamma = {gamma} overflows") from exc
    if ldn < sys.float_info.min:
        raise ShockSolveError(f"L_dn underflows at L_un = {lun}, gamma = {gamma}")
    return ldn


def _jump_ratios(gamma: float, rho_u: float, c_u: float, lun: float, ldn: float):
    """(rho_d, c_d) from the normal pseudo-Mach numbers on both sides:
    rho_u/rho_d = (L_dn/L_un)^(2/(gamma+1)), c_u/c_d = (L_dn/L_un)^((gamma-1)/(gamma+1))."""
    ratio = lun / ldn
    rho_d = rho_u * ratio ** (2.0 / (gamma + 1.0))
    c_d = c_u * ratio ** ((gamma - 1.0) / (gamma + 1.0))
    return rho_d, c_d


def resolve_oblique(model: GasModel, upstream: FlowState, xi, n) -> ShockSolution:
    """Downstream state across a shock through xi with downstream normal n.

    The tangential pseudo-velocity carries over; the normal component jumps
    per the normal-shock relation.  Inadmissible (expansion) data is
    resolved (L_un < 1), never raised.
    """
    xi = np.asarray(xi, dtype=float)
    n = np.asarray(n, dtype=float)
    n = n / np.hypot(*n)
    z_un = float((upstream.v - xi) @ n)
    if z_un <= 0.0:
        raise WrongSideError(f"z_u . n = {z_un} <= 0; normal must point downstream")
    lun = z_un / upstream.c
    ldn = downstream_normal_mach(model.gamma, lun)
    rho_d, c_d = _jump_ratios(model.gamma, upstream.rho, upstream.c, lun, ldn)
    t = perp(n)
    v_d = float((upstream.v - xi) @ t) * t + ldn * c_d * n + xi
    return ShockSolution(
        point=xi, n=n, upstream=upstream, downstream=FlowState(rho=rho_d, v=v_d, c=c_d), lun=lun, ldn=ldn
    )


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


def _mp_g(gamma, x):
    if gamma == 1:
        return x * x - 2 * mp.log(x)
    return (x * x + 2 / (gamma - 1)) * x ** (2 * (1 - gamma) / (gamma + 1))


def _mp_g_prime(gamma, x):
    return 4 / (gamma + 1) * (x - 1 / x) * x ** (-2 * (gamma - 1) / (gamma + 1))


def _mp_root(f, df, a, b):
    """Root of f in [a, b]: 40 bisection steps, then Newton steps, each of
    which squares the relative error of the 2^-40 bracket."""
    fa = f(a)
    for _ in range(40):
        m = (a + b) / 2
        if (f(m) < 0) == (fa < 0):
            a = m
        else:
            b = m
    x = (a + b) / 2
    for _ in range(5):
        x -= f(x) / df(x)
    return x


def mp_downstream_normal_mach(gamma: float, lun: float):
    """(L_dn, cond) at 40 digits: the other root of g(x) = g(L_un), solved
    for in log x (L_dn may be far below 1e-100), and the condition number
    L_un |dL_dn/dL_un| / L_dn = L_un |g'(L_un)| / (L_dn |g'(L_dn)|)."""
    with mp.workdps(DIGITS):
        gamma, lun = mp.mpf(gamma), mp.mpf(lun)
        target = _mp_g(gamma, lun)

        def f(s):
            return _mp_g(gamma, mp.exp(s)) - target

        # g falls on (0, 1) and rises on (1, inf): widen the far end of the
        # bracket on the other side of 1 until it crosses the level
        step = -1 if lun > 1 else 1
        end = mp.mpf(step)
        while f(end) < 0:
            end *= 2
        def df(s):
            return _mp_g_prime(gamma, mp.exp(s)) * mp.exp(s)

        ldn = mp.exp(_mp_root(f, df, min(end, 0), max(end, 0)))
        cond = abs(lun * _mp_g_prime(gamma, lun) / (ldn * _mp_g_prime(gamma, ldn)))
        return ldn, cond


def mp_horizontal_height(gamma: float, v_uy: float, beta: float, lun0: float):
    """eta_0 at 40 digits of the shock through (0, eta_0) with downstream
    normal (sin b, -cos b) and v_d^y = 0 behind the state (rho, c) = (1, 1),
    v = (0, v_uy): the L_un whose jump L_un - L_dn c_d/c_u is -v_uy / cos b,
    by the secant method from lun0 with L_dn from the g level set, and
    eta_0 = v_uy + L_un / cos b, whose cancellation costs at most 15 of the
    40 digits."""
    with mp.workdps(DIGITS):
        gamma, v_uy, beta = mp.mpf(gamma), mp.mpf(v_uy), mp.mpf(beta)
        jump = -v_uy / mp.cos(beta)

        def f(lun):
            ldn = mp_downstream_normal_mach(gamma, lun)[0]
            return lun - ldn * (lun / ldn) ** ((gamma - 1) / (gamma + 1)) - jump

        lun = mp.findroot(f, (mp.mpf(lun0), mp.mpf(lun0) * (1 + mp.mpf(1e-9))))
        return v_uy + lun / mp.cos(beta)


@dataclass(frozen=True)
class ShockSensitivities:
    """Closed-form derivatives along the normal-shock branch (L_un > 1 fixed side).

    dldn_dlun: derivative of the downstream normal pseudo-Mach (negative).
    dzdn_dzun: derivative of z_dn w.r.t. z_un at fixed (rho_u, c_u);
               bounded above by (gamma-1)/(gamma+1).
    dvdn_dsigma: derivative of v_dn w.r.t. shock speed at fixed normal and
               upstream velocity; equals 1 - dzdn_dzun > 2/(gamma+1).
    drho_d_dsigma: same variation for rho_d, in units of rho_u/c_u (negative).
    ldn: the downstream normal pseudo-Mach number they are taken at.
    """

    ldn: float
    dldn_dlun: float
    dzdn_dzun: float
    dvdn_dsigma: float
    dvdn_dsigma_lower_bound: float
    drho_d_dsigma: float


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
        ldn=ldn,
        dldn_dlun=dldn,
        dzdn_dzun=dzdn,
        dvdn_dsigma=1.0 - dzdn,
        dvdn_dsigma_lower_bound=2.0 / (gamma + 1.0),
        drho_d_dsigma=-drho_dlun,
    )


def steady_deflection(model, upstream, beta: float) -> float:
    """Counterclockwise turning angle of the velocity across the steady shock
    through the origin whose normal is the stream turned by beta, resolved
    by the normal-shock solve."""
    zhat = upstream.v / np.hypot(*upstream.v)
    cb, sb = math.cos(beta), math.sin(beta)
    n = np.array([cb * zhat[0] - sb * zhat[1], sb * zhat[0] + cb * zhat[1]])
    v_d = resolve_oblique(model, upstream, np.zeros(2), n).downstream.v
    return math.atan2(cross2(upstream.v, v_d), float(upstream.v @ v_d))


def _mp_steady(gamma, mach):
    """tan tau(u) of the steady shocks of a stream at Mach number mach, and
    the normal shock's u_n, at the working precision: L_un^2 = 2 E(u)/(1 -
    e^(-2u)) and s^2 = M^2 - L_un^2, with no rewriting for cancellation."""

    def energy(u):
        return u if gamma == 1 else mp.expm1((gamma - 1) * u) / (gamma - 1)

    def lun2(u):
        return 2 * energy(u) / -mp.expm1(-2 * u)

    def tan_tau(u):
        if u <= 0:
            return mp.mpf(0)
        p = lun2(u)
        s2 = mach * mach - p
        if s2 <= 0:
            return mp.mpf(0)
        return mp.sqrt(s2 * p) * mp.expm1(u) / (p + s2 * mp.exp(u))

    lo, hi = mp.mpf(0), mp.mpf(1)
    while lun2(hi) < mach * mach:
        hi *= 2
    for _ in range(mp.mp.prec + 20):
        mid = (lo + hi) / 2
        if lun2(mid) < mach * mach:
            lo = mid
        else:
            hi = mid
    return tan_tau, lo


def _mp_golden_max(f, a, b, steps):
    """(x, f(x)) at the maximum of a unimodal f on [a, b] by golden-section
    search, which narrows [a, b] by 0.618 a step."""
    k = (mp.sqrt(5) - 1) / 2
    c, d = b - k * (b - a), a + k * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - k * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + k * (b - a)
            fd = f(d)
    return (c, fc) if fc > fd else (d, fd)


def mp_critical_angle(gamma: float, mach: float):
    """Largest steady deflection at 50 digits: the golden-section maximum of
    tan tau(u) over [0, u_n].  At gamma 1, M 10 it sits 1e-20 below u_n =
    50, where s^2 = M^2 - L_un^2 keeps 28 of its digits at this precision,
    and 160 steps narrow [0, u_n] to 1e-32."""
    with mp.workdps(50):
        tan_tau, u_n = _mp_steady(mp.mpf(gamma), mp.mpf(mach))
        return mp.atan(_mp_golden_max(tan_tau, mp.mpf(0), u_n, 160)[1])


def mp_weak_tilt(gamma: float, mach: float, tau: float):
    """Tilt b of the weak steady shock turning the stream by tau (the shock's
    angle above the stream minus tau) at 40 digits: bisection of tan tau(u)
    on [0, u_top], then tan b = L_un e^-u / s.  Any u_top that turns the
    stream by more than tau ends the weak branch's bracket, so a short
    golden-section search finds one."""
    with mp.workdps(DIGITS):
        gamma, mach, tau = mp.mpf(gamma), mp.mpf(mach), mp.mpf(tau)
        tan_tau, u_n = _mp_steady(gamma, mach)
        u_star, top = _mp_golden_max(tan_tau, mp.mpf(0), u_n, 60)
        if mp.tan(tau) > top:
            raise ValueError("tau above the critical angle")
        lo, hi = mp.mpf(0), u_star
        for _ in range(mp.mp.prec + 20):
            mid = (lo + hi) / 2
            if tan_tau(mid) < mp.tan(tau):
                lo = mid
            else:
                hi = mid
        u = lo
        p = 2 * (u if gamma == 1 else mp.expm1((gamma - 1) * u) / (gamma - 1)) / -mp.expm1(-2 * u)
        return mp.atan(mp.sqrt(p) * mp.exp(-u) / mp.sqrt(mach * mach - p))


class InadmissibleShock(WedgeError, ValueError):
    """Expansion branch requested where an admissible shock is required."""


def jump_state(model: GasModel, rho_u: float, c_u: float, lun: float, *, require_admissible=True):
    """Downstream (rho_d, c_d) across a shock with upstream normal pseudo-Mach lun."""
    if lun < 1.0 and require_admissible:
        raise InadmissibleShock(f"L_un = {lun} < 1 is an entropy-violating expansion")
    return _jump_ratios(model.gamma, rho_u, c_u, lun, downstream_normal_mach(model.gamma, lun))


def density_sound_pseudo_mach(model: GasModel, chi: float, z):
    """Local (rho, c, L) at a self-similar point with shifted potential chi
    and pseudo-velocity z = grad(chi):

    rho = pi^-1(-chi - |z|^2/2),  c^2 = c0^2 + (gamma-1)(-chi - |z|^2/2),
    L = |z|/c.
    """
    z = np.asarray(z, dtype=float)
    zz = float(z @ z)
    a = -float(chi) - 0.5 * zz
    rho = pi_inverse(model, a)
    c = math.sqrt(model.c0**2 + (model.gamma - 1.0) * a)
    return rho, c, math.sqrt(zz) / c


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


def corner_sensitivity(pattern) -> CornerSensitivity:
    """Closed-form derivatives of the right-corner data as the corner slides
    along its arc, evaluated at the expected height eta_R_star (O(eps) terms
    dropped)."""
    model = pattern.config.model
    gamma = model.gamma
    eps = pattern.config.epsilon
    c_u = pattern.config.model.c0
    v_uy = float(pattern.state_I.v[1])
    c_r = pattern.state_R.c
    r = math.sqrt(1.0 - eps) * c_r
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


def corner_state_direct(pattern, eta: float):
    """Independent corner parameterization: the shock through the arc point
    at height eta whose downstream pseudo-Mach equals sqrt(1-eps) there.

    Solved for the normal angle with a bracketed root; returns the profile
    variables (p, h) and the downstream velocity for finite differencing.
    """
    target = math.sqrt(1.0 - pattern.config.epsilon)
    r = target * pattern.state_R.c
    xi_pt = np.array([math.sqrt(r**2 - eta**2), eta])

    def downstream(angle):
        n = np.array([math.cos(angle), math.sin(angle)])
        sol = resolve_oblique(pattern.config.model, pattern.state_I, xi_pt, n)
        return sol.downstream, sol.downstream.v - xi_pt

    def L_d(angle):
        state, z_d = downstream(angle)
        return float(np.hypot(*z_d)) / state.c - target

    state, z_d = downstream(_bracketed_root(L_d, -0.5 * math.pi - 0.6, -0.5 * math.pi + 0.35, xtol=1e-15))
    return {
        "p": float(xi_pt[0] * z_d[1] - xi_pt[1] * z_d[0]),
        "h": state.c**2,
        "v_dy": float(state.v[1]),
        "z_dy": float(z_d[1]),
    }


def corner_sensitivity_fd(pattern):
    """Central finite differences of the direct corner parameterization at
    the expected height eta_R_star, with step 1e-6 c_R."""
    model = pattern.config.model
    gamma = model.gamma
    eps = pattern.config.epsilon
    c_r = pattern.state_R.c
    r = math.sqrt(1.0 - eps) * c_r
    eta = pattern.eta_R_star
    step = 1e-6 * c_r
    a = corner_state_direct(pattern, eta - step)
    b = corner_state_direct(pattern, eta + step)
    out = {
        "p_omega": (b["p"] - a["p"]) / (2 * step),
        "dvdy_domega": (b["v_dy"] - a["v_dy"]) / (2 * step),
        "dzdy_domega": (b["z_dy"] - a["z_dy"]) / (2 * step),
    }
    if not model.isothermal:
        _, sigma_g, sigma_f, _, _ = arc_ode_constants(gamma, eps, r)
        pref = math.sqrt(-sigma_f / sigma_g)
        out["k_omega"] = pref * (b["h"] - a["h"]) / (2 * step)
    return out
