"""Wave-pattern scaffold in standard coordinates.

Standard coordinates put the state behind the wall-parallel shock at rest:
the R shock is horizontal at height eta_R_star with downstream velocity 0,
the wall is the xi axis, and the incoming state moves straight down,
v_I = (0, v_I^y) with v_I^y = M_I^y c_I < 0.

The tilted shock family of the corner problem is parameterized by the
downstream-normal angle b: the shock through (0, eta_0(b)) with normal
(sin b, -cos b) and horizontal downstream velocity.  Picking the height
eta_L_star of its near-origin sqrt(1-eps)-sonic point selects the L shock;
eta_L_star = eta_R_star degenerates to the straight-shock pattern.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .gas import GasModel, FlowState, WedgeError
from .shocks import (
    NoAttachedShock,
    ShockSolution,
    horizontal_downstream_shock,
    sonic_points,
)

ETA_MARGIN_COEFF = 2.0  # heuristic eta_L_star headroom, in units of sqrt(eps) c_R


class GeometryError(WedgeError, ValueError):
    """No shock in the family realizes the requested geometry."""


class SupersonicityViolation(WedgeError, ValueError):
    """Downstream state of the tip shock is not supersonic."""


@dataclass(frozen=True)
class ProblemConfig:
    """Upstream data plus the two pattern parameters.

    Either MIy (wall-normal upstream Mach, negative) or the original-picture
    pair (M_I, tau) must be given; eta_L_star defaults to the R-shock height
    (straight-shock pattern).
    """

    model: GasModel
    rho_I: float = 1.0
    c_I: float = 1.0
    MIy: float | None = None
    M_I: float | None = None
    tau: float | None = None
    eta_L_star: float | None = None
    epsilon: float = 0.01

    def __post_init__(self):
        if self.rho_I <= 0 or self.c_I <= 0:
            raise ValueError("upstream density and sound speed must be positive")
        if not 0.0 <= self.epsilon <= 0.25:
            raise ValueError(f"epsilon must lie in [0, 0.25], got {self.epsilon}")
        if self.MIy is None and (self.M_I is None or self.tau is None):
            raise ValueError("either MIy or the pair (M_I, tau) is required")
        if self.MIy is not None and self.MIy >= 0:
            raise ValueError(f"MIy must be negative (flow onto the wall), got {self.MIy}")
        if self.tau is not None and not 0.0 < self.tau < 0.5 * math.pi:
            raise ValueError(f"tau must lie in (0, pi/2), got {self.tau}")
        if self.M_I is not None and self.M_I <= 1.0:
            raise ValueError(f"M_I must exceed 1, got {self.M_I}")
        c_model = float(self.model.sound_speed(self.rho_I))
        if abs(c_model - self.c_I) > 1e-12 * self.c_I:
            raise ValueError(
                f"c_I = {self.c_I} inconsistent with the gas model: "
                f"sound_speed(rho_I) = {c_model}"
            )

    @property
    def miy(self) -> float:
        """Wall-normal upstream Mach number (negative)."""
        if self.MIy is not None:
            return self.MIy
        return -self.M_I * math.sin(self.tau)

    def upstream(self) -> FlowState:
        return FlowState.from_model(self.model, self.rho_I, (0.0, self.miy * self.c_I))


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

    def tangent(self, angle) -> np.ndarray:
        return np.array([-math.sin(angle), math.cos(angle)])

    @property
    def span(self) -> float:
        return self.angle_hi - self.angle_lo


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
    epsilon: float
    # wall speed of the original picture, |v_R| there; infinite for the
    # unperturbed pattern whose corner sits at xi = -infinity
    wall_speed: float

    @property
    def wall(self):
        return self.xi_BL, self.xi_BR

    @property
    def within_eta_margin(self) -> bool:
        """Heuristic headroom check for gamma > 1: eta_L_star at least
        ETA_MARGIN_COEFF sqrt(eps) c_R below eta_R_star (the analytic
        construction needs an unquantified margin there; the coefficient is
        a heuristic, not a derived constant)."""
        if self.config.model.gamma <= 1.0 + 1e-12 or self.beta == 0.0:
            return True
        margin = ETA_MARGIN_COEFF * math.sqrt(max(self.epsilon, 0.0)) * self.state_R.c
        return self.eta_L_star <= self.eta_R_star - margin

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
        return math.atan2(-self.config.miy * self.config.c_I, self.wall_speed)

    @property
    def M_I(self) -> float:
        vy = self.config.miy * self.config.c_I
        return math.hypot(self.wall_speed, vy) / self.config.c_I

    @property
    def tip(self) -> np.ndarray:
        return np.array([-self.wall_speed, 0.0])

    def shock_L_height(self, xi_x: float) -> float:
        """Height of the (straight) L shock above abscissa xi_x."""
        p = self.shock_L.point
        return p[1] + (xi_x - p[0]) * math.tan(self.beta)


def _sonic_pair(model, sol, epsilon):
    """Sonic points ordered left-to-right; the left one faces the wedge tip."""
    a, b = sonic_points(model, sol, epsilon)
    return (a, b) if a[0] <= b[0] else (b, a)


def _eta_L_of_beta(config, upstream, beta):
    eta0, sol = horizontal_downstream_shock(config.model, upstream, beta)
    left, _ = _sonic_pair(config.model, sol, config.epsilon)
    return float(left[1]), eta0, sol


def build(
    config: ProblemConfig, *, validate_supersonic: bool = True, beta_hint: float | None = None
) -> WavePattern:
    """Construct the pattern for the given config.

    The R shock comes from the horizontal member of the shock family; the L
    shock is found by solving for the tilt whose tip-side sonic point sits
    at height eta_L_star.  Tilt is monotone in that height, so the solve
    brackets cleanly.  validate_supersonic=False skips the tip-frame Mach
    check (used by geometric sweeps over the whole parameter range);
    beta_hint narrows the tilt bracket when sweeping nearby heights.
    """
    model = config.model
    upstream = config.upstream()

    eta_R_star, shock_R = horizontal_downstream_shock(model, upstream, 0.0)
    if shock_R.ldn**2 >= 1.0 - config.epsilon:
        raise GeometryError(
            f"R shock has L_dn = {shock_R.ldn}; needs < sqrt(1-eps) for sonic corners"
        )
    _, xi_R_star = _sonic_pair(model, shock_R, config.epsilon)

    if config.tau is not None and config.eta_L_star is None:
        beta = _beta_from_tau(config, upstream, eta_R_star)
        eta_L_star, eta0_L, shock_L = _eta_L_of_beta(config, upstream, beta)
        if eta_L_star <= 0.0:
            raise SupersonicityViolation(
                f"tip shock sonic corner lies below the wall (eta_L_star = {eta_L_star}): "
                "supersonic-subsonic configuration"
            )
    else:
        eta_L_star = config.eta_L_star if config.eta_L_star is not None else eta_R_star
        if not 0.0 < eta_L_star <= eta_R_star:
            raise GeometryError(
                f"eta_L_star must lie in (0, eta_R_star = {eta_R_star}], got {eta_L_star}"
            )
        beta = _beta_from_eta_L(config, upstream, eta_L_star, eta_R_star, beta_hint)
        eta_L_star, eta0_L, shock_L = _eta_L_of_beta(config, upstream, beta)

    xi_L_star, _ = _sonic_pair(model, shock_L, config.epsilon)

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
        epsilon=config.epsilon,
        wall_speed=wall_speed,
    )
    if validate_supersonic and beta > 1e-14 and pattern.mach_L <= 1.0:
        raise SupersonicityViolation(
            f"tip shock downstream is not supersonic: M_L = {pattern.mach_L}"
        )
    return pattern


def _beta_from_eta_L(config, upstream, target, eta_R_star, beta_hint=None):
    """Tilt angle whose tip-side sonic point sits at the target height."""
    if target >= eta_R_star:
        return 0.0

    def f(beta):
        return _eta_L_of_beta(config, upstream, beta)[0] - target

    if beta_hint is not None and beta_hint > 1e-12:
        lo, hi = 0.8 * beta_hint, min(1.25 * beta_hint, 0.5 * math.pi - 1e-9)
        for _ in range(30):
            flo, fhi = f(lo), f(hi)
            if flo > 0.0 >= fhi:
                return brentq(f, lo, hi, xtol=1e-14)
            if flo <= 0.0:
                lo *= 0.7
            if fhi > 0.0:
                hi = min(hi * 1.3, 0.5 * math.pi - 1e-9)
    hi = 0.1
    while f(hi) > 0.0:
        hi = min(hi * 1.6, 0.5 * math.pi - 1e-9)
        if hi >= 0.5 * math.pi - 1e-9 and f(hi) > 0.0:
            raise GeometryError(f"no shock tilt reaches eta_L_star = {target}")
    return brentq(f, 0.0, hi, xtol=1e-14)


def _beta_from_tau(config, upstream, eta_R_star):
    """Tilt angle of the tip shock for the original wedge pair (M_I, tau).

    The tip shock is steady through the wedge tip with deflection tau: the
    weak branch of the deflection pair.  Its angle above the incoming
    stream exceeds tau by exactly the tilt, which seeds a local polish of
    the tip-incidence relation eta_0(b) = M_I c_I cos(tau) tan(b) so the
    tilt is consistent with the shock-family solve.
    """
    from .shocks import deflection_solutions

    model = config.model
    up_orig = FlowState.from_model(model, config.rho_I, (config.M_I * config.c_I, 0.0))
    sols = deflection_solutions(model, up_orig, config.tau)
    if sols is None:
        raise NoAttachedShock(
            f"tau = {config.tau} exceeds the critical angle for M_I = {config.M_I}"
        )
    t = sols.weak.tangent
    theta_s = math.atan2(abs(t[1]), abs(t[0]))
    beta0 = theta_s - config.tau
    if beta0 <= 1e-12:
        return 0.0

    v_wall = config.M_I * config.c_I * math.cos(config.tau)

    def f(beta):
        eta0, _ = horizontal_downstream_shock(config.model, upstream, beta)
        return eta0 - v_wall * math.tan(beta)

    lo, hi = 0.5 * beta0, min(1.5 * beta0, 0.5 * math.pi - 1e-9)
    for _ in range(40):
        if f(lo) > 0.0 >= f(hi):
            break
        lo = 0.5 * lo
        hi = min(1.2 * hi, 0.5 * math.pi - 1e-9)
    else:
        raise GeometryError(f"could not bracket the tip shock tilt near {beta0}")
    return brentq(f, lo, hi, xtol=1e-14)


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
        _dist_point_segment(v_I, pattern.xi_L_star, pattern.xi_R_star) - pattern.config.c_I
    )


def eta_L_cross(config: ProblemConfig) -> float:
    """Largest eta_L_star at which the corner chord touches the upstream disk.

    Returns 0 when the separation condition holds for every
    eta_L_star in (0, eta_R_star].  The distance decreases as eta_L_star
    decreases, which the bisection verifies on its trace.
    """
    base = replace(config, eta_L_star=None, M_I=None, tau=None, MIy=config.miy)
    upstream = base.upstream()
    eta_R_star, _ = horizontal_downstream_shock(base.model, upstream, 0.0)

    def sep(eta):
        return separation_check(build(replace(base, eta_L_star=eta), validate_supersonic=False))

    floor = 1e-7 * eta_R_star
    if sep(floor) > 0.0:
        return 0.0
    lo, hi = floor, eta_R_star
    trace = []
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s = sep(mid)
        trace.append((mid, s))
        if s > 0.0:
            hi = mid
        else:
            lo = mid
    # monotone claim along the trace: larger eta_L_star, larger distance
    pts = sorted(trace)
    vals = [s for _, s in pts]
    if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
        raise ArithmeticError("separation distance not monotone along bisection trace")
    return 0.5 * (lo + hi)


# --- picture transforms ----------------------------------------------------


@dataclass(frozen=True)
class FrameMap:
    """Isometry plus change of inertial frame: w -> reflect(R(rot)(w - shift)).

    Points and velocities transform by the same formula (a shift of the
    similarity coordinate is a Galilean boost); rho, c and pseudo-Mach data
    are invariant.
    """

    shift: np.ndarray
    rot: float
    reflect_x: bool = False

    def apply(self, w):
        w = np.asarray(w, dtype=float)
        c, s = math.cos(self.rot), math.sin(self.rot)
        x = w[..., 0] - self.shift[0]
        y = w[..., 1] - self.shift[1]
        out = np.stack([c * x - s * y, s * x + c * y], axis=-1)
        if self.reflect_x:
            out[..., 0] = -out[..., 0]
        return out

    def invert(self, w):
        w = np.asarray(w, dtype=float).copy()
        if self.reflect_x:
            w = w * np.array([-1.0, 1.0])
        c, s = math.cos(-self.rot), math.sin(-self.rot)
        return np.stack(
            [
                c * w[..., 0] - s * w[..., 1] + self.shift[0],
                s * w[..., 0] + c * w[..., 1] + self.shift[1],
            ],
            axis=-1,
        )

    def direction(self, d):
        """Transform a free direction vector (rotation/reflection only)."""
        return self.apply(np.asarray(d, dtype=float) + self.shift)


def picture_map(pattern: WavePattern, target: str) -> FrameMap:
    """Frame map from standard coordinates to the requested picture."""
    if target == "standard":
        return FrameMap(shift=np.zeros(2), rot=0.0)
    if target == "original":
        # tip to the origin, wall rotated up by tau; the incoming stream
        # becomes horizontal with speed M_I c_I
        return FrameMap(shift=pattern.tip.copy(), rot=pattern.tau)
    if target == "L_picture":
        # velocities relative to the L state, L shock rotated to horizontal,
        # then everything reflected across the vertical axis
        return FrameMap(shift=pattern.state_L.v.copy(), rot=-pattern.beta, reflect_x=True)
    raise ValueError(f"unknown picture {target!r}")


def picture_transform(pattern: WavePattern, target: str):
    """States/corners of the pattern in another picture."""
    m = picture_map(pattern, target)
    return {
        "map": m,
        "xi_L_star": m.apply(pattern.xi_L_star),
        "xi_R_star": m.apply(pattern.xi_R_star),
        "xi_BL": m.apply(pattern.xi_BL),
        "xi_BR": m.apply(pattern.xi_BR),
        "v_I": m.apply(pattern.state_I.v),
        "v_L": m.apply(pattern.state_L.v),
        "v_R": m.apply(pattern.state_R.v),
        "shock_L_point": m.apply(pattern.shock_L.point),
        "shock_L_dir": m.direction(pattern.shock_L.tangent),
        "rho_L": pattern.state_L.rho,
        "rho_R": pattern.state_R.rho,
    }


def export_csv(pattern: WavePattern, path) -> None:
    """One row per geometric entity for plotting scripts."""
    rows = [
        ("state_I", *pattern.state_I.v, pattern.state_I.rho, pattern.state_I.c, ""),
        ("state_L", *pattern.state_L.v, pattern.state_L.rho, pattern.state_L.c, ""),
        ("state_R", *pattern.state_R.v, pattern.state_R.rho, pattern.state_R.c, ""),
        ("shock_L", *pattern.shock_L.point, *pattern.shock_L.n, pattern.beta),
        ("shock_R", *pattern.shock_R.point, *pattern.shock_R.n, 0.0),
        ("corner_L", *pattern.xi_L_star, "", "", ""),
        ("corner_R", *pattern.xi_R_star, "", "", ""),
        (
            "arc_L",
            *pattern.arc_L.center,
            pattern.arc_L.radius,
            pattern.arc_L.angle_lo,
            pattern.arc_L.angle_hi,
        ),
        (
            "arc_R",
            *pattern.arc_R.center,
            pattern.arc_R.radius,
            pattern.arc_R.angle_lo,
            pattern.arc_R.angle_hi,
        ),
        ("wall", *pattern.xi_BL, *pattern.xi_BR, ""),
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["entity", "a", "b", "c", "d", "e"])
        w.writerows(rows)
