"""Exact shock relations of self-similar potential flow.

Across a shock the potential is continuous and the normal mass flux
rho * z_n = rho L_n c is the same on both sides, where z = v - xi is the
pseudo-velocity and L_n = z_n / c the normal pseudo-Mach number.  Normals
point downstream (z_un, z_dn > 0); a shock is admissible iff L_un >= 1,
equivalently rho_d >= rho_u.

In the log density ratio u = log(rho_d/rho_u) the relations are explicit.
With E(u) = expm1((gamma-1) u)/(gamma-1) (E(u) = u at gamma = 1), in units
of c_u:

    L_un^2 = 2 E(u) / (1 - e^(-2u)),   L_dn = L_un e^(-(gamma+1) u/2),
    c_d / c_u = e^((gamma-1) u/2),     (L_un - L_dn c_d/c_u)^2 = 2 E(u) tanh(u/2),

and rho_d = rho_u L_un / (L_dn c_d/c_u) conserves the mass flux
(_assemble_jump, the one jump formula).

A steady shock of a stream with Mach number M keeps the tangential velocity
s c_u, s^2 = M^2 - L_un^2, and divides the normal one by e^u (z_dn = z_un e^-u),
so it turns the stream by tau with

    tan tau(u) = s L_un expm1(u) / (L_un^2 + s^2 e^u),

which rises from 0 at the Mach angle (u = 0) to the critical angle and falls
to 0 at the normal shock (u = u_n, L_un(u_n) = M); the shock lies tau + b
above the stream with tan b = L_un e^-u / s.

Every shock is solved for in u: a normal shock from the first relation
(_normal_ratio, the one normal-shock root; the polar's samples at L_un =
M cos beta use it too), the corner problem's family from the last
(_family_ratio), the steady pair from tan tau(u) (deflection_solutions).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .gas import ISOTHERMAL_EPS, GasModel, FlowState, WedgeError


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
    raises ShockSolveError.

    Each iterate is formed from the newest point a as a + t (b - a), so a
    root many decades closer to one end than the bracket is wide is resolved
    only to about eps |a|.  Callers split such a bracket at the root's scale,
    as _SteadyPolar does through _split_root."""
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


def _energy(gamma: float, u: float) -> float:
    """E(u) = expm1((gamma-1) u)/(gamma-1), u at gamma = 1 (see the module docstring)."""
    gm1 = gamma - 1.0
    return u if gm1 < ISOTHERMAL_EPS else math.expm1(gm1 * u) / gm1


def _energy_inverse(gamma: float, y: float) -> float:
    """The u with E(u) = y."""
    gm1 = gamma - 1.0
    return y if gm1 < ISOTHERMAL_EPS else math.log1p(gm1 * y) / gm1


def _normal_mach(gamma: float, u: float) -> float:
    """L_un(u) = sqrt(2 E(u) / (1 - e^(-2u))) of the shock with log density
    ratio u (see the module docstring); 1 at u = 0."""
    if u == 0.0:
        return 1.0
    return math.sqrt(2.0 * _energy(gamma, u) / -math.expm1(-2.0 * u))


def _ratios(gamma: float, u: float):
    """(L_un, L_dn, c_d/c_u) of the shock with log density ratio u."""
    lun = _normal_mach(gamma, u)
    return lun, lun * math.exp(-0.5 * (gamma + 1.0) * u), math.exp(0.5 * (gamma - 1.0) * u)


def _normal_ratio(gamma: float, lun: float) -> float:
    """The normal shock's log density ratio: the root u > 0 of L_un(u) = lun > 1.

    L_un^2 >= 1 + (gamma+1) u/2 (L_un^2 is convex in u) and L_un^2 > 2 E(u),
    so u0 = 2 (lun^2 - 1)/(gamma+1) and E^-1(lun^2/2) both bound the root from
    above; the bracket ends at the smaller.  Where rounding takes the sign
    change away there, twice that end has the margin L_un^2 >= 2 lun^2 - 1.
    Raises OverflowError where lun * lun is inf.
    """
    l2 = math.pow(lun, 2.0)
    top = min(2.0 * (l2 - 1.0) / (gamma + 1.0), _energy_inverse(gamma, 0.5 * l2))

    def f(u):
        return _normal_mach(gamma, u) - lun

    try:
        return _bracketed_root(f, 0.0, top, xtol=0.0)
    except ShockSolveError:
        return _bracketed_root(f, 0.0, 2.0 * top, xtol=0.0)


def _family_ratio(gamma: float, jump: float) -> float:
    """Log density ratio of the shock with normal velocity jump
    z_un - z_dn = jump c_u > 0: the one root u of 2 E(u) tanh(u/2) = jump^2
    (see the module docstring).

    The bracket's top solves 2 E(u) = l_max^2: l_max = 1 + (gamma+1) jump/2
    bounds L_un (the jump rises with L_un at a slope above 2/(gamma+1)), and
    L_un^2 >= 2 E(u).  u -> 0 for weak shocks, so only the relative term
    stops the solve.  Raises ShockSolveError where jump^2 or the top
    overflows.
    """
    l_max = 1.0 + 0.5 * (gamma + 1.0) * jump
    top = _energy_inverse(gamma, 0.5 * l_max * l_max)
    if math.isinf(top) or math.isinf(jump * jump):
        raise ShockSolveError(f"shock family member with normal jump {jump} c_u, gamma = {gamma} overflows")
    return _bracketed_root(
        lambda u: 2.0 * _energy(gamma, u) * math.tanh(0.5 * u) - jump * jump, 0.0, top, xtol=0.0
    )


def _family_spread(gamma: float, u0: float, d: float) -> float:
    """j(u0 + d)^2 - j(u0)^2 for the squared jump j(u)^2 = 2 E(u) tanh(u/2) of
    the family, d >= 0: E(u0 + d) - E(u0) = e^((gamma-1) u0) E(d) and
    tanh(u/2) - tanh(u0/2) = sinh(d/2) / (cosh(u/2) cosh(u0/2)) leave a sum of
    non-negative terms, exact to rounding however small d is."""
    u = u0 + d
    rise = math.sinh(0.5 * d) / (math.cosh(0.5 * u) * math.cosh(0.5 * u0))
    return 2.0 * (
        _energy(gamma, u) * rise + math.exp((gamma - 1.0) * u0) * _energy(gamma, d) * math.tanh(0.5 * u0)
    )


@dataclass(frozen=True)
class ShockSolution:
    """One resolved shock point: upstream/downstream states and normal data."""

    point: np.ndarray
    n: np.ndarray
    upstream: FlowState
    downstream: FlowState
    lun: float
    ldn: float

    @property
    def tangent(self) -> np.ndarray:
        return perp(self.n)

    @property
    def downstream_mach(self) -> float:
        return self.downstream.mach

    def pseudo_normal_point(self) -> np.ndarray:
        """Point on the (straight) shock where the tangential pseudo-velocity vanishes."""
        t = self.tangent
        return self.point + (t @ (self.downstream.v - self.point)) * t


def _assemble_jump(upstream: FlowState, xi, n, lun: float, ldn: float, c_ratio: float):
    """The shock through xi with unit downstream normal n and the jump
    (L_un, L_dn, c_d/c_u) of _ratios: the tangential pseudo-velocity carries
    over, the normal one becomes L_dn c_d."""
    if ldn < sys.float_info.min:
        raise ShockSolveError(f"L_dn underflows at L_un = {lun}")
    rho_d = upstream.rho * lun / (ldn * c_ratio)  # rho L_n c is the same on both sides
    c_d = upstream.c * c_ratio
    t = perp(n)
    v_d = float((upstream.v - xi) @ t) * t + ldn * c_d * n + xi
    return ShockSolution(
        point=xi, n=n, upstream=upstream, downstream=FlowState(rho=rho_d, v=v_d, c=c_d), lun=lun, ldn=ldn
    )


@dataclass(frozen=True)
class DeflectionSolutions:
    """Weak/strong attached-shock pair for a given flow deflection."""

    weak: ShockSolution
    strong: ShockSolution

    @property
    def weak_supersonic(self) -> bool:
        return self.weak.downstream_mach > 1.0

    @property
    def strong_supersonic(self) -> bool:
        return self.strong.downstream_mach > 1.0


def _split_root(f, lo: float, split: float, hi: float) -> float:
    """Root of an f that rises through 0 once on [lo, hi], solved for on the
    side of split that holds it: a split at the root's own scale spares the
    bisections from the scale of [lo, hi] down to it."""
    split = min(split, hi)
    if f(split) > 0.0:
        return _bracketed_root(f, lo, split, xtol=0.0)
    return _bracketed_root(f, split, hi, xtol=0.0)


class _SteadyPolar:
    """The steady shocks of a stream with Mach number mach > 1, parameterized
    by r = sqrt(u_n - u) in [0, r_top]: r = 0 is the normal shock, r_top the
    Mach angle (u = 0).

    Near the normal shock s^2 = M^2 - L_un(u)^2 loses every digit to
    cancellation in u (at gamma 1, M 10 the largest deflection sits at
    s ~ 1e-10 and u_n - u ~ 1e-20), so s^2 is written as L_un(u_n)^2 -
    L_un(u)^2 in d = u_n - u, a difference without cancellation:

        s^2 = 2 d (e^((gamma-1) u) E(d)/d - (1 - e^(-2d))/d E(u)/expm1(2u)) / (1 - e^(-2 u_n)),

    which takes M as L_un(u_n), one rounding away.  In r the shocks at both
    ends are regular: tan tau grows like r from the normal shock and like
    r_top - r from the Mach angle.  At r, t = tan phi = s/L_un with phi the
    normal's angle to the stream, computed as r times a ratio so that it
    does not underflow with d, and with w = e^-u

        tan tau = (1 - w) t / (w + t^2).
    """

    def __init__(self, gamma: float, mach: float):
        if mach <= 1.0:
            raise NoAttachedShock(f"M_u = {mach} <= 1")
        self.gamma = gamma
        try:
            self.u_n = _normal_ratio(gamma, mach)
        except OverflowError as exc:
            raise ShockSolveError(f"normal shock at M = {mach}, gamma = {gamma} overflows") from exc
        if mach * math.exp(-0.5 * (gamma + 1.0) * self.u_n) < sys.float_info.min:
            raise ShockSolveError(f"L_dn underflows at the normal shock of M = {mach}, gamma = {gamma}")
        self.scale = 2.0 / -math.expm1(-2.0 * self.u_n)
        r_top = math.sqrt(self.u_n)
        self.r_top = r_top if r_top * r_top >= self.u_n else math.nextafter(r_top, math.inf)
        self.w_n, self.lam_n = math.exp(-self.u_n), self.point(0.0)[2]

    def point(self, r: float):
        """(u, t, lam) at r, t = tan phi, lam = d log L_un^2/du."""
        gamma = self.gamma
        d = r * r
        u = self.u_n - d
        if u <= 0.0:  # the Mach angle: L_un = 1, s^2 = L_un(u_n)^2 - 1
            s2 = self.scale * (_energy(gamma, self.u_n) + 0.5 * math.expm1(-2.0 * self.u_n))
            return 0.0, math.sqrt(s2), 0.5 * (gamma + 1.0)
        e_u = _energy(gamma, u)
        q2 = -math.expm1(-2.0 * u)
        k = e_u * math.exp(-2.0 * u) / q2  # E(u)/expm1(2u)
        grow = math.exp((gamma - 1.0) * u)
        e_d, q_d = (_energy(gamma, d) / d, -math.expm1(-2.0 * d) / d) if d > 0.0 else (1.0, 2.0)
        s2_d = self.scale * (grow * e_d - k * q_d)  # s^2 / d
        return u, r * math.sqrt(s2_d * q2 / (2.0 * e_u)), (grow - 2.0 * k) / e_u

    @staticmethod
    def tan_deflection(u: float, t: float) -> float:
        return -math.expm1(-u) * t / (math.exp(-u) + t * t)

    def slope(self, r: float) -> float:
        """d log tan tau/du times 2 s^2 (1 - w)/L_un^2, with b = t^2: negative
        at the normal shock (-(1 - w) lam), positive at the Mach angle (2 b),
        one root."""
        u, t, lam = self.point(r)
        b = t * t
        w = math.exp(-u)
        x = -math.expm1(-u)
        return x * (2.0 * (lam + (1.0 - lam) * w) * b / (w + b) - lam * (1.0 - b)) + 2.0 * b * w

    def critical(self):
        """(r_star, tan tau_star) of the largest deflection.

        Next to the normal shock the slope is about lam (b - w)/(b + w) with
        b = t^2 about lam r^2, so a largest deflection there sits near
        r = sqrt(w_n/lam_n): at gamma 1, M 30 that is 1e-98 of r_top.  Twice
        that r splits the bracket (_split_root).
        """
        r_star = _split_root(self.slope, 0.0, 2.0 * math.sqrt(self.w_n / self.lam_n), self.r_top)
        return r_star, self.tan_deflection(*self.point(r_star)[:2])

    def roots(self, tau: float, strong: bool):
        """(r_weak, r_strong) of the deflection tau; both None above the
        critical angle, r_strong None with strong=False."""
        r_star, tan_star = self.critical()
        tau_star = math.atan(tan_star)
        if tau > tau_star:
            return None, None
        tan_tau = math.tan(tau)

        def f(r):
            return self.tan_deflection(*self.point(r)[:2]) - tan_tau

        if tau == 0.0:
            r_weak, r_strong = self.r_top, 0.0
        elif tau == tau_star or f(r_star) <= 0.0:
            r_weak = r_strong = r_star
        else:
            r_weak = _bracketed_root(f, r_star, self.r_top, xtol=0.0)
            r_strong = None
            if strong:
                # the normal shock (r = 0) does not turn the flow, so f(0) = -tan tau
                # < 0; next to it tan tau ~ sqrt(lam_n) r / w_n
                r_strong = _split_root(f, 0.0, 2.0 * self.w_n * tan_tau / math.sqrt(self.lam_n), r_star)
        return r_weak, r_strong

    def shock(self, upstream: FlowState, r: float) -> ShockSolution:
        """The steady shock at r through the origin, its normal turned
        clockwise by phi from the stream."""
        u, t, _ = self.point(r)
        cos_p = 1.0 / math.sqrt(1.0 + t * t)
        sin_p = t * cos_p
        zhat = upstream.v / np.hypot(*upstream.v)
        n = np.array([cos_p * zhat[0] + sin_p * zhat[1], cos_p * zhat[1] - sin_p * zhat[0]])
        return _assemble_jump(upstream, np.zeros(2), n, *_ratios(self.gamma, u))


def critical_angle(model: GasModel, upstream: FlowState) -> float:
    """Largest deflection with an attached steady shock (weak = strong there)."""
    return math.atan(_SteadyPolar(model.gamma, upstream.mach).critical()[1])


def deflection_solutions(model: GasModel, upstream: FlowState, tau: float):
    """Weak and strong steady-shock solutions turning the flow by tau.

    Returns None above the critical angle.  Downstream-sonic classification
    is available on the result.  The expansion branch is never returned.
    At gamma 1 or very large M_u the strong root lies within 1e-15
    rad of the normal shock; its bracket ends at the normal shock itself.
    """
    if not 0.0 <= tau < 0.5 * math.pi:
        raise ValueError(f"deflection angle must lie in [0, pi/2), got {tau}")
    polar = _SteadyPolar(model.gamma, upstream.mach)
    r_weak, r_strong = polar.roots(tau, True)
    if r_weak is None:
        return None
    return DeflectionSolutions(weak=polar.shock(upstream, r_weak), strong=polar.shock(upstream, r_strong))


@dataclass(frozen=True)
class PolarSample:
    beta: float
    downstream_v: np.ndarray
    rho_d: float
    c_d: float
    L_d: float


def shock_polar(model: GasModel, upstream: FlowState, n: int) -> list[PolarSample]:
    """Downstream states of the steady shocks through the origin at n normals,
    the stream direction turned by beta, evenly spread over the admissible
    range [-beta_max, beta_max], cos beta_max = c_u / |v_u|.

    The sample at beta is the jump of log density ratio u = _normal_ratio(M
    cos beta), u = 0 where rounding puts M cos beta at or below 1 (the edges),
    so the one at beta = 0 is the normal shock of deflection_solutions.  The
    steady polar of M is built first for its typed errors: M <= 1, and the
    normal shock's overflow or L_dn underflow, which bound every sample's.
    """
    gamma, mach = model.gamma, upstream.mach
    _SteadyPolar(gamma, mach)
    speed = float(np.hypot(*upstream.v))
    beta_max = math.acos(upstream.c / speed)
    zhat = upstream.v / speed
    samples = []
    for b in np.linspace(-beta_max, beta_max, n):
        cb, sb = math.cos(b), math.sin(b)
        normal = np.array([cb * zhat[0] - sb * zhat[1], sb * zhat[0] + cb * zhat[1]])
        lun = mach * cb
        u = _normal_ratio(gamma, lun) if lun > 1.0 else 0.0
        sol = _assemble_jump(upstream, np.zeros(2), normal, *_ratios(gamma, u))
        samples.append(
            PolarSample(
                beta=float(b),
                downstream_v=sol.downstream.v,
                rho_d=sol.downstream.rho,
                c_d=sol.downstream.c,
                L_d=float(np.hypot(*sol.downstream.v)) / sol.downstream.c,
            )
        )
    return samples


def polar_bytes(n: int) -> int:
    """Bytes of the n samples shock_polar returns, each a PolarSample with
    its velocity array and floats: tracemalloc reads about 345 bytes per
    sample kept, and a peak of 352 to 360."""
    return 360 * n


def _horizontal_member(upstream: FlowState, gamma: float, u: float, cos_b: float, sin_b: float):
    """(eta_0, shock) of the family member with log density ratio u and
    downstream normal (sin b, -cos b) through (0, eta_0), for a jump u that
    makes v_d^y = 0: eta_0 = c_d L_dn / cos b - v_uy tan^2 b, two terms >= 0
    that cannot cancel."""
    lun, ldn, c_ratio = _ratios(gamma, u)
    eta0 = upstream.c * c_ratio * ldn / cos_b - float(upstream.v[1]) * (sin_b / cos_b) ** 2
    return eta0, _assemble_jump(upstream, np.array([0.0, eta0]), np.array([sin_b, -cos_b]), lun, ldn, c_ratio)


def horizontal_downstream_shock(model: GasModel, upstream: FlowState, beta: float):
    """Shock through (0, eta) with downstream normal (sin b, -cos b) and v_d^y = 0.

    Upstream velocity must be (0, v_uy) with v_uy < 0.  v_d^y = 0 fixes the
    normal velocity jump at -v_uy / cos(b): the member of _family_ratio.
    Returns the unique height eta_0 = c_d L_dn / cos(b) - v_uy tan^2(b) and
    the shock.
    """
    if abs(upstream.v[0]) > 1e-14 * max(1.0, abs(upstream.v[1])):
        raise ValueError("upstream velocity must be vertical, (0, v_uy)")
    vuy = float(upstream.v[1])
    if vuy >= 0.0:
        raise ValueError("upstream vertical velocity must be negative")
    if not -0.5 * math.pi < beta < 0.5 * math.pi:
        raise ValueError(f"beta must lie in (-pi/2, pi/2), got {beta}")
    cos_b = math.cos(beta)
    u = _family_ratio(model.gamma, -vuy / (upstream.c * cos_b))
    return _horizontal_member(upstream, model.gamma, u, cos_b, math.sin(beta))


def sonic_points(s: ShockSolution, epsilon: float):
    """The two shock points where the downstream pseudo-Mach equals sqrt(1-eps),
    in the order -tangent, +tangent.

    Valid for a straight shock with constant downstream data.  The points
    are symmetric about the pseudo-normal point.  For a family member, with
    downstream normal (sin b, -cos b) and |b| < pi/2, the tangent has a
    positive xi component, so the left point (the wedge tip's side) comes first.
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
