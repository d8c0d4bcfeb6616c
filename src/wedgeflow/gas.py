"""Polytropic-gas thermodynamics for self-similar potential flow.

All quantities are dimensional only through the reference density rho0 and
reference sound speed c0 of the gas model; no unit system is imposed.

The enthalpy-like integral pi satisfies pi_rho = p_rho / rho:

    pi(rho) = c0^2 * ((rho/rho0)^(gamma-1) - 1) / (gamma-1)   (gamma > 1)
    pi(rho) = c0^2 * log(rho/rho0)                            (gamma = 1)

The isothermal branch is taken whenever gamma - 1 < ISOTHERMAL_EPS to avoid
the 0/0 of the generic formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# gamma - 1 below this is treated as isothermal (explicit log branch)
ISOTHERMAL_EPS = 1e-12


class WedgeError(Exception):
    """Base of every error the package raises on purpose; the ``wedge``
    command turns it into one stderr line and a documented exit code."""


class VacuumError(WedgeError, ValueError):
    """Raised when a state reaches or passes the vacuum bound."""


@dataclass(frozen=True)
class GasModel:
    """Polytropic gas: p(rho) = c0^2 rho0 / gamma * (rho/rho0)^gamma."""

    gamma: float
    rho0: float = 1.0
    c0: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "rho0", "c0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.rho0 <= 0.0 or self.c0 <= 0.0:
            raise ValueError("reference density and sound speed must be positive")

    @property
    def isothermal(self) -> bool:
        return self.gamma - 1.0 < ISOTHERMAL_EPS

    def sound_speed(self, rho):
        """c(rho) = sqrt(p_rho) = c0 * (rho/rho0)^((gamma-1)/2)."""
        rho = _check_density(rho)
        return self.c0 * (rho / self.rho0) ** (0.0 if self.isothermal else 0.5 * (self.gamma - 1.0))


def _check_density(rho):
    """rho unchanged; VacuumError naming the first value that is not positive and finite."""
    if isinstance(rho, float):  # one comparison; a NaN fails it too
        if not 0.0 < rho < math.inf:
            raise VacuumError(f"density must be positive and finite, got {rho}")
        return rho
    arr = np.asarray(rho)
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):  # a NaN minimum fails too
        if arr.ndim == 0:
            raise VacuumError(f"density must be positive and finite, got {rho}")
        first = np.argmax((arr <= 0.0) | ~np.isfinite(arr))
        idx = tuple(int(k) for k in np.unravel_index(first, arr.shape))
        raise VacuumError(f"density must be positive and finite, got {arr[idx]} at index {idx}")
    return rho


def pi_of_rho(model: GasModel, rho):
    """Evaluate pi(rho); continuous in gamma at gamma = 1.

    Written via expm1 to keep full precision for rho far from rho0.  Every
    operation of the expression works in place on the one result array, in
    the expression's order; a scalar density gives a float.
    """
    rho = _check_density(rho)
    out = np.divide(rho, model.rho0, out=np.empty(np.shape(rho)))
    np.log(out, out=out)
    if model.isothermal:
        out *= model.c0**2
    else:
        gm1 = model.gamma - 1.0
        out *= gm1
        np.expm1(out, out=out)
        out *= model.c0**2
        out /= gm1
    return out if out.ndim else float(out)


def c2_of_pi(model: GasModel, a):
    """c^2 = c0^2 + (gamma - 1) a at pi = a (pi' = p'/rho), clamped at 0;
    c0^2 for an isothermal gas.  One result array; a scalar gives a float.

    Near vacuum the sum can round to -1e-16 c0^2; the clamp keeps c real and
    lets a NaN through.  Below rho0 the sum cancels (1e-7 relative off
    sound_speed**2 at gamma 10, rho = 0.1 rho0); for rho0 <= rho <= 1e3 rho0
    it is within 1e-14 (3e-15 up to gamma 3).  The march stays above rho_I.
    """
    gm1 = 0.0 if model.isothermal else model.gamma - 1.0
    out = np.multiply(a, gm1, out=np.empty(np.shape(a)))
    out += model.c0**2
    np.maximum(out, 0.0, out=out)
    return out if out.ndim else float(out)


def pi_inverse(model: GasModel, a):
    """Invert pi: returns rho with pi(rho) = a.

    For gamma > 1 the argument must stay above the vacuum bound
    -c0^2/(gamma-1); at or below it (within round-off) VacuumError is
    raised.
    """
    a = np.asarray(a, dtype=float)
    if model.isothermal:
        out = model.rho0 * np.exp(a / model.c0**2)
    else:
        gm1 = model.gamma - 1.0
        arg = gm1 * a / model.c0**2
        # 1 + arg <= ~eps means a is at the vacuum bound to working precision
        if np.any(arg <= -1.0 + 1e-14):
            raise VacuumError(
                f"pi argument at/below vacuum bound -c0^2/(gamma-1) = {-model.c0**2 / gm1}"
            )
        out = model.rho0 * np.exp(np.log1p(arg) / gm1)
    return float(out) if a.ndim == 0 else out


@dataclass(frozen=True)
class FlowState:
    """Constant thermodynamic/kinematic state: density, velocity, sound speed."""

    rho: float
    v: np.ndarray
    c: float

    @classmethod
    def from_model(cls, model: GasModel, rho: float, v) -> "FlowState":
        if rho <= 0.0:
            raise VacuumError(f"density must be positive, got {rho}")
        return cls(rho=float(rho), v=np.asarray(v, dtype=float), c=float(model.sound_speed(rho)))

    @property
    def mach(self) -> float:
        return float(np.hypot(*self.v)) / self.c


def constant_state_potential(model: GasModel, rho: float, v):
    """Affine potential of a constant state under the global Bernoulli gauge.

    psi(xi) = -pi(rho) - |v|^2/2 + v . xi reproduces the given density
    through the closure rho = pi^-1(-chi - |grad chi|^2 / 2).
    """
    v = np.asarray(v, dtype=float)
    a0 = -pi_of_rho(model, rho) - 0.5 * float(v @ v)

    def psi(xi):
        xi = np.asarray(xi, dtype=float)
        return a0 + xi @ v

    return psi, a0
