"""Wave-pattern scaffold in standard coordinates.

Standard coordinates put the state behind the wall-parallel shock at rest:
the R shock is horizontal at height eta_R_star with downstream velocity 0,
the wall is the xi axis, and the incoming state moves straight down,
v_I = (0, v_I^y) with v_I^y = M_I^y c_I < 0.

The tilted shock family of the corner problem is the set of shocks through
(0, eta_0) with normal (sin b, -cos b) and horizontal downstream velocity.
Its members are solved for by their log density ratio u, which fixes the
jump and with it the tilt b.  Picking the height eta_L_star of its
near-origin sqrt(1-eps)-sonic point selects the L shock; eta_L_star =
eta_R_star degenerates to the straight-shock pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gas import GasModel, FlowState, WedgeError
from .shocks import (
    NoAttachedShock,
    ShockSolution,
    _SteadyPolar,
    _bracketed_root,
    _energy_inverse,
    _family_ratio,
    _family_spread,
    _horizontal_member,
    _ratios,
    sonic_points,
)

class GeometryError(WedgeError, ValueError):
    """No shock in the family realizes the requested geometry, or the
    geometry has no original (wedge) picture."""


class SupersonicityViolation(WedgeError, ValueError):
    """Downstream state of the tip shock is not supersonic."""


@dataclass(frozen=True)
class ProblemConfig:
    """Upstream data plus the two pattern parameters.

    Exactly one of MIy (wall-normal upstream Mach, negative) and the
    original-picture pair (M_I, tau) must be given.  eta_L_star goes with MIy
    and defaults to the R-shock height (straight-shock pattern); the wedge
    pair fixes the L shock as its tip shock.  The upstream density and sound
    speed are the gas model's reference values rho0 and c0.
    """

    model: GasModel
    MIy: float | None = None
    M_I: float | None = None
    tau: float | None = None
    eta_L_star: float | None = None
    epsilon: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 0.25:
            raise ValueError(f"epsilon must lie in [0, 0.25], got {self.epsilon}")
        if self.MIy is None and (self.M_I is None or self.tau is None):
            raise ValueError("either MIy or the pair (M_I, tau) is required")
        if self.MIy is not None and (self.M_I is not None or self.tau is not None):
            raise ValueError("MIy and the wedge pair (M_I, tau) both given; give one or the other")
        if self.MIy is not None and self.MIy >= 0:
            raise ValueError(f"MIy must be negative (flow onto the wall), got {self.MIy}")
        if self.tau is not None and not 0.0 < self.tau < 0.5 * math.pi:
            raise ValueError(f"tau must lie in (0, pi/2), got {self.tau}")
        if self.M_I is not None and self.M_I <= 1.0:
            raise ValueError(f"M_I must exceed 1, got {self.M_I}")
        if self.eta_L_star is not None and (self.M_I is not None or self.tau is not None):
            raise ValueError("eta_L_star and the wedge pair (M_I, tau) both given; eta_L_star goes with MIy")

    @property
    def miy(self) -> float:
        """Wall-normal upstream Mach number (negative)."""
        if self.MIy is not None:
            return self.MIy
        return -self.M_I * math.sin(self.tau)

    def upstream(self) -> FlowState:
        return FlowState.from_model(self.model, self.model.rho0, (0.0, self.miy * self.model.c0))

    def upstream_original(self) -> FlowState:
        """The incoming state of the original picture: speed M_I c_I along the xi axis."""
        if self.tau is None:
            raise GeometryError("the original picture needs the wedge pair (M_I, tau)")
        return FlowState.from_model(self.model, self.model.rho0, (self.M_I * self.model.c0, 0.0))


@dataclass(frozen=True)
class Arc:
    """Circular arc, counterclockwise from angle lo to angle hi."""

    center: np.ndarray
    radius: float
    angle_lo: float
    angle_hi: float

    def point(self, angle):
        angle = np.asarray(angle, dtype=float)
        return np.stack(
            [self.center[0] + self.radius * np.cos(angle), self.center[1] + self.radius * np.sin(angle)],
            axis=-1,
        )


@dataclass(frozen=True)
class WavePattern:
    """States, shocks, sonic corners, arcs and wall of the self-similar pattern."""

    config: ProblemConfig
    state_I: FlowState
    state_L: FlowState
    state_R: FlowState
    shock_L: ShockSolution
    shock_R: ShockSolution
    eta_R_star: float
    eta_L_star: float
    beta: float
    xi_L_star: np.ndarray
    xi_R_star: np.ndarray
    xi_BL: np.ndarray
    xi_BR: np.ndarray
    arc_L: Arc
    arc_R: Arc
    # wall speed of the original picture, |v_R| there; infinite for the
    # unperturbed pattern whose corner sits at xi = -infinity
    wall_speed: float

    @property
    def mach_L(self) -> float:
        """Tip-frame Mach number of the L state (original coordinates)."""
        return abs(self.wall_speed + self.state_L.v[0]) / self.state_L.c

    @property
    def mach_R(self) -> float:
        return self.wall_speed / self.state_R.c

    @property
    def tau(self) -> float:
        """Wedge angle of the original picture."""
        if not math.isfinite(self.wall_speed):
            raise GeometryError("unperturbed pattern has no original picture (tip at -infinity)")
        return math.atan2(-self.config.miy * self.config.model.c0, self.wall_speed)

    @property
    def M_I(self) -> float:
        c0 = self.config.model.c0
        return math.hypot(self.wall_speed, self.config.miy * c0) / c0

    def to_original(self, w):
        """Standard to original coordinates: the wedge tip (-wall_speed, 0)
        to the origin, then the wall rotated up by tau, so that the incoming
        stream is horizontal with speed M_I c_I.  Points and velocities map
        alike (a shift of the similarity coordinate is a Galilean boost);
        rho, c and pseudo-Mach data are invariant."""
        w = np.asarray(w, dtype=float)
        c, s = math.cos(self.tau), math.sin(self.tau)
        x = w[..., 0] + self.wall_speed
        y = w[..., 1]
        return np.stack([c * x - s * y, s * x + c * y], axis=-1)


def build(
    config: ProblemConfig, *, validate_supersonic: bool = True, beta_hint: float | None = None
) -> WavePattern:
    """Construct the pattern for the given config.

    The R shock is the horizontal member of the shock family.  The L shock
    is the member whose log density ratio u comes from one root: for a wedge
    pair (M_I, tau) the weak steady tip shock's (_tip_tilt), for a requested
    height eta_L_star the u that puts the tip-side sonic point there
    (_tilt_from_eta_L).  Each gives the tilt in closed form, and the member
    is assembled from u with no second family solve.  validate_supersonic=False
    skips the tip-frame Mach check (used by geometric sweeps over the whole
    parameter range).  beta_hint, the tilt of a nearby member, is accepted
    and not read: the eta_L_star root starts from a closed-form bracket, and
    turning a tilt into a bracket in u would cost a family root per end.
    """
    model = config.model
    upstream = config.upstream()

    u_R = _family_ratio(model.gamma, -config.miy)
    eta_R_star, shock_R = _horizontal_member(upstream, model.gamma, u_R, 1.0, 0.0)
    if shock_R.ldn**2 >= 1.0 - config.epsilon:
        raise GeometryError(
            f"R shock has L_dn = {shock_R.ldn}; needs < sqrt(1-eps) for sonic corners"
        )
    _, xi_R_star = sonic_points(shock_R, config.epsilon)

    if config.tau is not None:
        u, cos_b, sin_b = _tip_tilt(config)
    else:
        target = config.eta_L_star if config.eta_L_star is not None else eta_R_star
        if not 0.0 < target <= eta_R_star:
            raise GeometryError(
                f"eta_L_star must lie in (0, eta_R_star = {eta_R_star}], got {target}"
            )
        u, cos_b, sin_b = _tilt_from_eta_L(config, upstream, u_R, target, shock_R)
    beta = math.atan2(sin_b, cos_b)
    eta0_L, shock_L = _horizontal_member(upstream, model.gamma, u, cos_b, sin_b)
    xi_L_star, _ = sonic_points(shock_L, config.epsilon)
    eta_L_star = float(xi_L_star[1])
    if eta_L_star <= 0.0:
        raise SupersonicityViolation(
            f"tip shock sonic corner lies below the wall (eta_L_star = {eta_L_star}): "
            "supersonic-subsonic configuration"
        )

    state_L = shock_L.downstream
    state_R = shock_R.downstream
    r_L = math.sqrt(1.0 - config.epsilon) * state_L.c
    r_R = math.sqrt(1.0 - config.epsilon) * state_R.c
    v_L = state_L.v

    arc_R = Arc(
        center=np.zeros(2),
        radius=r_R,
        angle_lo=0.0,
        angle_hi=math.atan2(xi_R_star[1], xi_R_star[0]),
    )
    rel = xi_L_star - v_L
    arc_L = Arc(
        center=v_L.copy(),
        radius=r_L,
        angle_lo=math.atan2(rel[1], rel[0]),
        angle_hi=math.pi,
    )

    wall_speed = eta0_L / math.tan(beta) if beta > 1e-14 else math.inf

    pattern = WavePattern(
        config=config,
        state_I=upstream,
        state_L=state_L,
        state_R=state_R,
        shock_L=shock_L,
        shock_R=shock_R,
        eta_R_star=eta_R_star,
        eta_L_star=eta_L_star,
        beta=beta,
        xi_L_star=xi_L_star,
        xi_R_star=xi_R_star,
        xi_BL=np.array([v_L[0] - state_L.c, 0.0]),
        xi_BR=np.array([state_R.c, 0.0]),
        arc_L=arc_L,
        arc_R=arc_R,
        wall_speed=wall_speed,
    )
    if validate_supersonic and beta > 1e-14 and pattern.mach_L <= 1.0:
        raise SupersonicityViolation(
            f"tip shock downstream is not supersonic: M_L = {pattern.mach_L}"
        )
    return pattern


def _sonic_height(config, upstream, u_R, t):
    """(height, u, cos b, sin b) of the family member with log density ratio
    u = u_R + t^2, u_R the R shock's; the height is its tip-side sonic
    point's, c_d (L_dn cos b - sqrt(1 - eps - L_dn^2) sin b).

    The member's jump j fixes the tilt, cos b = m / j with m = -M_I^y, and
    j^2 - m^2 = j^2 sin^2 b is the family's spread from u_R
    (shocks._family_spread), exact to rounding as b -> 0.  In t the height
    is regular at b = 0, where it falls like t.
    """
    d = t * t
    u = u_R + d
    m = -config.miy
    spread = _family_spread(config.model.gamma, u_R, d)
    jump = math.sqrt(m * m + spread)
    cos_b, sin_b = m / jump, math.sqrt(spread) / jump
    _, ldn, c_ratio = _ratios(config.model.gamma, u)
    half = math.sqrt(1.0 - config.epsilon - ldn * ldn)
    return upstream.c * c_ratio * (ldn * cos_b - half * sin_b), u, cos_b, sin_b


def _tilt_from_eta_L(config, upstream, u_R, target, shock_R):
    """(u, cos b, sin b) of the member whose tip-side sonic point sits at the
    target height: one root in t = sqrt(u - u_R) of _sonic_height.

    L_dn falls from the R shock's as u grows, so the height is < 0 once
    tan b >= L_dn / sqrt(1 - eps - L_dn^2) of the R shock, where the spread
    is m^2 L_dn^2 / (1 - eps - L_dn^2).  The spread's second term alone,
    2 e^((gamma-1) u_R) E(d) tanh(u_R/2), reaches that at a closed-form d:
    the bracket's top.
    """
    if target >= shock_R.point[1]:  # eta_R_star
        return u_R, 1.0, 0.0
    gamma = config.model.gamma
    ldn2 = shock_R.ldn * shock_R.ldn
    spread_top = config.miy**2 * ldn2 / (1.0 - config.epsilon - ldn2)
    d_top = _energy_inverse(
        gamma, spread_top / (2.0 * math.exp((gamma - 1.0) * u_R) * math.tanh(0.5 * u_R))
    )
    t = _bracketed_root(
        lambda t: _sonic_height(config, upstream, u_R, t)[0] - target, 0.0, math.sqrt(d_top), xtol=0.0
    )
    return _sonic_height(config, upstream, u_R, t)[1:]


def _tip_tilt(config):
    """(u, cos b, sin b) of the tip shock for the original wedge pair (M_I, tau).

    The tip shock is steady through the wedge tip with deflection tau: the
    weak root of the steady polar.  Its angle above the incoming stream
    exceeds tau by the tilt b, the angle between the shock and the
    downstream velocity: tan b = e^-u / tan phi with phi the normal's angle
    to the stream.  The L member at that u and tilt meets the tip-incidence
    relation eta_0(b) = M_I c_I cos(tau) tan(b) of the shock family to
    rounding.  A tilt at rounding level would put the tip at xi = -infinity
    and raises GeometryError.
    """
    polar = _SteadyPolar(config.model.gamma, config.M_I)
    r_weak, _ = polar.roots(config.tau, strong=False)
    if r_weak is None:
        raise NoAttachedShock(
            f"tau = {config.tau} exceeds the critical angle for M_I = {config.M_I}"
        )
    u, tan_phi, _ = polar.point(r_weak)
    w = math.exp(-u)
    beta0 = math.atan2(w, tan_phi)
    if beta0 <= 1e-12:
        raise GeometryError(
            f"tip-shock tilt {beta0:.3g} rad at M_I = {config.M_I}, tau = {config.tau}: "
            "below rounding level, the wedge tip would lie at xi = -infinity"
        )
    scale = math.hypot(w, tan_phi)
    return u, tan_phi / scale, w / scale


def _dist_point_segment(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.hypot(*(a + t * ab - p)))


def separation_check(pattern: WavePattern) -> float:
    """Signed distance between the corner chord and the upstream sonic disk.

    Positive iff the segment from the L corner to the R corner stays clear
    of the closed disk around v_I with radius c_I.
    """
    v_I = pattern.state_I.v
    return (
        _dist_point_segment(v_I, pattern.xi_L_star, pattern.xi_R_star) - pattern.config.model.c0
    )
