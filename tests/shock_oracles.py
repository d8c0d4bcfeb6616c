"""Independent checks of the shock algebra: the invariant g, and 40-digit
references that solve its level sets by plain bisection."""

import math

import mpmath as mp
import numpy as np

from wedgeflow.gas import ISOTHERMAL_EPS

DIGITS = 40


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
