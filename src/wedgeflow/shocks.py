"""Exact shock relations of self-similar potential flow.

Across a shock the potential is continuous and the normal mass flux
rho * z_n jumps to zero, where z = v - xi is the pseudo-velocity.  With the
normal pseudo-Mach numbers L_n = z_n / c these conditions leave both sides
of a polytropic shock on one level set of the invariant

    g(x) = (x^2 + 2/(gamma-1)) * x^(2(1-gamma)/(gamma+1))   (gamma > 1)
    g(x) = x^2 - 2 log x                                    (gamma = 1),

g(L_un) = g(L_dn), with the jump ratios

    rho_u/rho_d = (L_dn/L_un)^(2/(gamma+1)),
    c_u / c_d   = (L_dn/L_un)^((gamma-1)/(gamma+1)).

Normals point downstream (z_un, z_dn > 0); a shock is admissible iff
L_un >= 1, equivalently rho_d >= rho_u.

In the log density ratio u = log(rho_d/rho_u) the relations are explicit.
With E(u) = expm1((gamma-1) u)/(gamma-1) (E(u) = u at gamma = 1), in units
of c_u:

    L_un^2 = 2 E(u) / (1 - e^(-2u)),   L_dn = L_un e^(-(gamma+1) u/2),
    c_d / c_u = e^((gamma-1) u/2),     (L_un - L_dn c_d/c_u)^2 = 2 E(u) tanh(u/2).

Every shock is solved for in u: the normal shock from the first relation
(downstream_normal_mach), the corner problem's family from the last (_family_jump).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .gas import ISOTHERMAL_EPS, GasModel, FlowState, WedgeError


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
    """A shock relation has no root the solve reaches or can represent."""


def _bracketed_root(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] to xtol + 4 eps |x| by Chandrupatla's method (Adv.
    Eng. Software 28, 1997): inverse quadratic interpolation through the
    last three points where they allow it, bisection otherwise.  An end
    where f vanishes is returned as is; a bracket without a sign change
    raises ShockSolveError."""
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ShockSolveError(f"no sign change on [{a!r}, {b!r}]: f = {fa:.3g}, {fb:.3g}")
    t = 0.5  # a is the newest point, b the end across the root, c the one dropped
    for _ in range(100):
        x = a + t * (b - a)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        best = a if abs(fa) < abs(fb) else b
        tlim = (0.5 * xtol + 2.0 * sys.float_info.epsilon * abs(best)) / abs(b - a)
        if tlim > 0.5:
            return best
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        t = min(1.0 - tlim, max(tlim, t))
    raise ShockSolveError(f"root solve on [{a!r}, {b!r}] did not converge in 100 steps")


def perp(w):
    """Counterclockwise rotation by 90 degrees."""
    return np.array([-w[1], w[0]])


def cross2(a, b) -> float:
    """Scalar cross product of plane vectors."""
    return float(a[0] * b[1] - a[1] * b[0])


def _energy(gamma: float, u: float) -> float:
    """E(u) = expm1((gamma-1) u)/(gamma-1), u at gamma = 1 (see the module docstring)."""
    gm1 = gamma - 1.0
    return u if gm1 < ISOTHERMAL_EPS else math.expm1(gm1 * u) / gm1


def _normal_mach(gamma: float, u: float) -> float:
    """L_un(u) = sqrt(2 E(u) / (1 - e^(-2u))) of the shock with log density
    ratio u (see the module docstring); 1 at u = 0."""
    if u == 0.0:
        return 1.0
    return math.sqrt(2.0 * _energy(gamma, u) / -math.expm1(-2.0 * u))


def downstream_normal_mach(gamma: float, lun: float) -> float:
    """L_dn across the shock with upstream normal pseudo-Mach number lun, the
    other point of its level set of g: strictly decreasing, self-inverse.
    For lun > 1, lun e^(-(gamma+1) u/2) at the root u > 0 of L_un(u) = lun;
    for lun <= 1, by self-inversion, L_un(u) where L_dn(u) = lun (compared
    unsquared: a fed-back L_dn may be near underflow; u = 0 at lun = 1).
    """
    if lun <= 0.0:
        raise ValueError("normal pseudo-Mach number must be positive")
    gm1, gp1 = gamma - 1.0, gamma + 1.0
    try:
        if lun > 1.0:
            # L_un^2 >= 1 + (gamma+1) u/2 (L_un^2 is convex in u) and L_un^2 >= 2 E(u),
            # so at top L_un^2 >= 2 lun^2 - 1 > lun^2 and f changes sign
            l2 = math.pow(lun, 2.0)  # raises OverflowError where lun * lun is inf
            top = min(4.0 * (l2 - 1.0) / gp1, l2 if gm1 < ISOTHERMAL_EPS else math.log1p(gm1 * l2) / gm1)
            u = _bracketed_root(lambda u: _normal_mach(gamma, u) - lun, 0.0, top, xtol=0.0)
            ldn = lun * math.exp(-0.5 * gp1 * u)
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


def jump_state(model: GasModel, rho_u: float, c_u: float, lun: float, *, require_admissible=True):
    """Downstream (rho_d, c_d) across a shock with upstream normal pseudo-Mach lun."""
    if lun < 1.0 and require_admissible:
        raise InadmissibleShock(f"L_un = {lun} < 1 is an entropy-violating expansion")
    return _jump_ratios(model.gamma, rho_u, c_u, lun, downstream_normal_mach(model.gamma, lun))


def _family_jump(gamma: float, jump: float):
    """(L_un, L_dn, c_d/c_u) of the shock with normal velocity jump
    z_un - z_dn = jump c_u > 0: the one root u of 2 E(u) tanh(u/2) = jump^2
    (see the module docstring).

    The bracket's top solves 2 E(u) = l_max^2: l_max = 1 + (gamma+1) jump/2
    bounds L_un (the jump rises with L_un at a slope above 2/(gamma+1)), and
    L_un^2 >= 2 E(u).  u -> 0 for weak shocks, so only the relative term
    stops the solve.
    """
    gm1 = gamma - 1.0
    l_max = 1.0 + 0.5 * (gamma + 1.0) * jump
    top = 0.5 * l_max * l_max if gm1 < ISOTHERMAL_EPS else math.log1p(0.5 * gm1 * l_max * l_max) / gm1
    u = _bracketed_root(
        lambda u: 2.0 * _energy(gamma, u) * math.tanh(0.5 * u) - jump * jump, 0.0, top, xtol=0.0
    )
    lun = _normal_mach(gamma, u)
    return lun, lun * math.exp(-0.5 * (gamma + 1.0) * u), math.exp(0.5 * gm1 * u)


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

    @property
    def tangent(self) -> np.ndarray:
        return perp(self.n)

    @property
    def admissible(self) -> bool:
        return self.lun >= 1.0

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
    per the normal-shock relation.  Inadmissible (expansion) data is
    resolved but flagged, never raised.
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
    return _assemble(upstream, xi, n, lun, ldn, rho_d, c_d)


def _assemble(upstream: FlowState, xi, n, lun: float, ldn: float, rho_d: float, c_d: float):
    """The shock through xi with unit downstream normal n and the given jump."""
    z_u = upstream.v - xi
    t = perp(n)
    z_t = float(z_u @ t)
    v_d = z_t * t + ldn * c_d * n + xi
    return ShockSolution(
        point=xi,
        n=n,
        upstream=upstream,
        downstream=FlowState(rho=rho_d, v=v_d, c=c_d),
        z_t=z_t,
        lun=lun,
        ldn=ldn,
        beta=math.atan2(cross2(z_u, n), float(z_u @ n)),
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


def _resolve_turned(model: GasModel, upstream: FlowState, beta: float, xi=(0.0, 0.0)):
    """The shock through xi whose normal is z_u = v_u - xi turned by beta."""
    xi = np.asarray(xi, dtype=float)
    z_u = upstream.v - xi
    zhat = z_u / np.hypot(*z_u)
    cb, sb = math.cos(beta), math.sin(beta)
    n = np.array([cb * zhat[0] - sb * zhat[1], sb * zhat[0] + cb * zhat[1]])
    return resolve_oblique(model, upstream, xi, n)


def shock_polar(model: GasModel, upstream: FlowState, xi, n: int) -> list[PolarSample]:
    """Downstream states at n shock normals evenly spread over the admissible
    range [-beta_max, beta_max] at xi."""
    xi = np.asarray(xi, dtype=float)
    beta_max = polar_beta_max(model, upstream, xi)
    samples = []
    for b in np.linspace(-beta_max, beta_max, n):
        sol = _resolve_turned(model, upstream, b, xi)
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
    strong: ShockSolution | None

    @property
    def weak_supersonic(self) -> bool:
        return self.weak.downstream_mach > 1.0

    @property
    def strong_supersonic(self) -> bool:
        return self.strong.downstream_mach > 1.0


def _steady_deflection(model: GasModel, upstream: FlowState, beta: float) -> float:
    """Counterclockwise turning angle of the velocity across a steady shock."""
    v_d = _resolve_turned(model, upstream, beta).downstream.v
    return math.atan2(cross2(upstream.v, v_d), float(upstream.v @ v_d))


def _max_deflection(model: GasModel, upstream: FlowState):
    """(beta_max, beta_star, tau_star): the polar edge, and the normal angle
    and value of the largest steady deflection.

    tau(b) = b - atan(q sin b / z_dn) with q = |v_u| and z_dn a function of
    z_un = q cos b, so dtau/db = 1 - q (z_dn cos b + q sin^2 b F') / (z_dn^2
    + q^2 sin^2 b), F' = dz_dn/dz_un: negative at b = 0, sin^2 b (1 - F') > 0
    at the polar edge, where F' = (gamma - 3)/(gamma + 1).  beta_star is its
    root.
    """
    if upstream.mach <= 1.0:
        raise NoAttachedShock(f"M_u = {upstream.mach} <= 1")
    beta_max = polar_beta_max(model, upstream, np.zeros(2))
    gamma, mach = model.gamma, upstream.mach

    def dtau(b):  # z_dn in units of c_u
        lun, ms = mach * math.cos(b), mach * math.sin(b)
        if lun <= 1.0:
            return 4.0 / (gamma + 1.0) * math.sin(b) ** 2
        sens = sensitivities(gamma, lun)
        z_dn = sens.ldn * _jump_ratios(gamma, 1.0, 1.0, lun, sens.ldn)[1]
        slope = sens.dzdn_dzun
        return 1.0 - mach * (z_dn * math.cos(b) + ms * math.sin(b) * slope) / (z_dn**2 + ms**2)

    beta_star = _bracketed_root(dtau, -beta_max, 0.0, xtol=1e-13)
    return beta_max, beta_star, _steady_deflection(model, upstream, beta_star)


def critical_angle(model: GasModel, upstream: FlowState) -> float:
    """Largest deflection with an attached steady shock (weak = strong there)."""
    return _max_deflection(model, upstream)[2]


def deflection_solutions(model: GasModel, upstream: FlowState, tau: float, strong: bool = True):
    """Weak and strong steady-shock solutions turning the flow by tau.

    Returns None above the critical angle.  Downstream-sonic classification
    is available on the result.  The expansion branch is never returned.
    With strong=False only the weak root is solved for and the strong member
    is None.  At gamma 1 or very large M_u the strong root lies within 1e-15
    rad of the normal shock; its bracket ends at the normal shock itself.
    """
    if not 0.0 <= tau < 0.5 * math.pi:
        raise ValueError(f"deflection angle must lie in [0, pi/2), got {tau}")
    beta_max, beta_star, tau_star = _max_deflection(model, upstream)
    if tau > tau_star:
        return None

    def f(b):
        return _steady_deflection(model, upstream, b) - tau

    if tau == 0.0:
        b_weak, b_strong = -beta_max, -1e-14
    elif tau == tau_star or f(beta_star) <= 0.0:
        b_weak = b_strong = beta_star
    else:
        b_weak = _bracketed_root(f, -beta_max, beta_star, xtol=1e-14)
        # the normal shock (b = 0) does not turn the flow, so f(0) = -tau < 0
        b_strong = _bracketed_root(f, beta_star, 0.0, xtol=1e-14) if strong else None
    return DeflectionSolutions(
        weak=_resolve_turned(model, upstream, b_weak),
        strong=_resolve_turned(model, upstream, b_strong) if strong else None,
    )


def horizontal_downstream_shock(model: GasModel, upstream: FlowState, beta: float):
    """Shock through (0, eta) with downstream normal (sin b, -cos b) and v_d^y = 0.

    Upstream velocity must be (0, v_uy) with v_uy < 0.  v_d^y = 0 fixes the
    normal velocity jump at -v_uy / cos(b): the member of _family_jump, built
    from its (L_un, L_dn, c_d/c_u).  Returns the unique height eta_0 = c_d L_dn
    / cos(b) - v_uy tan^2(b), two terms >= 0 that cannot cancel, and the shock.
    """
    if abs(upstream.v[0]) > 1e-14 * max(1.0, abs(upstream.v[1])):
        raise ValueError("upstream velocity must be vertical, (0, v_uy)")
    vuy = float(upstream.v[1])
    if vuy >= 0.0:
        raise ValueError("upstream vertical velocity must be negative")
    if not -0.5 * math.pi < beta < 0.5 * math.pi:
        raise ValueError(f"beta must lie in (-pi/2, pi/2), got {beta}")
    cos_b = math.cos(beta)
    lun, ldn, c_ratio = _family_jump(model.gamma, -vuy / (upstream.c * cos_b))
    c_d = upstream.c * c_ratio
    eta0 = c_d * ldn / cos_b - vuy * math.tan(beta) ** 2
    rho_d = upstream.rho * lun / (ldn * c_ratio)  # rho L_n c is the same on both sides
    n = np.array([math.sin(beta), -cos_b])
    return eta0, _assemble(upstream, np.array([0.0, eta0]), n, lun, ldn, rho_d, c_d)


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
