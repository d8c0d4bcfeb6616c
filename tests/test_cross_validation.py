"""The two independent solution routes must agree.

The time-marched finite-volume run (started from uniform data, first-order,
shock-capturing) and the free-boundary fixed-point solve (sharp shock,
regularized arcs) discretize the same flow in entirely different ways;
their densities inside the subsonic lens are compared pointwise.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from wedgeflow.gas import GasModel
from wedgeflow.pattern import ProblemConfig, build
from wedgeflow.elliptic import EllipticConfig, iterate, level_arc
from wedgeflow.diagnostics import CompositeField
from wedgeflow.unsteady import bilinear

AIR = GasModel(gamma=1.4)
DESK = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)


def lens_probes(sol):
    """400 probes inside the lens (seed 11, sigma and zeta in [0.15, 0.85]):
    their (sigma, zeta) and their standard-coordinate points."""
    rng = np.random.default_rng(11)
    lattice, pts_std = [], []
    for _ in range(400):
        sig, zet = rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85)
        eta = zet * sol.mapping.shock.at(sig)[0]
        lattice.append([sig, zet])
        pts_std.append([level_arc(sol.pattern, sig, eta)[0], eta])
    return np.array(lattice), np.array(pts_std)


def marched_density(res, sol, pts_std):
    """The march's final sampled density at standard-coordinate points, NaN
    outside its sample window."""
    pts_orig = sol.pattern.to_original(pts_std)
    f = res.sample_final
    interp = RegularGridInterpolator((f.xi_y, f.xi_x), f.rho, bounds_error=False)
    return interp(np.stack([pts_orig[:, 1], pts_orig[:, 0]], axis=-1))


@pytest.mark.slow
def test_unsteady_and_elliptic_agree_in_the_lens(desk_march):
    res, _ = desk_march  # the same problem marched at grid_n 400 to t = 1
    sol = iterate(build(DESK), EllipticConfig(lattice_n=64))
    assert sol.converged

    comp = CompositeField(sol)
    _, pts_std = lens_probes(sol)
    rho_ell, _, _, region = comp.evaluate(pts_std[:, 0], pts_std[:, 1])
    assert np.all(region == 0)  # all probes inside the lens

    rho_uns = marched_density(res, sol, pts_std)
    ok = np.isfinite(rho_uns)
    assert np.sum(ok) > 350
    rel = np.abs(rho_uns[ok] - rho_ell[ok]) / rho_ell[ok]
    assert float(np.mean(rel)) < 0.015
    assert float(np.percentile(rel, 95)) < 0.03


@pytest.mark.slow
def test_lens_gap_converges_under_march_refinement(desk_march_100, desk_march_200, desk_march):
    """Grid refinement of the mean lens gap between the routes (Roache,
    J. Fluids Eng. 116 (1994) 405-413): it falls at each march refinement
    with observed order at least 1, and its Richardson limit lies within
    the grid-convergence band 1.25 |G_400 - G_lim| of 0.  The lattice is
    held at 48, since the march sets the gap."""
    sol = iterate(build(DESK), EllipticConfig(lattice_n=48))
    assert sol.converged
    # the elliptic density read bilinearly at the probes' own (sigma, zeta)
    lattice, pts_std = lens_probes(sol)
    h = sol.mapping.lattice.h
    rho_ell = bilinear(sol.fields()["rho"], lattice[:, 0] / h, lattice[:, 1] / h)
    gaps = []
    for res, _ in (desk_march_100, desk_march_200, desk_march):
        rho_uns = marched_density(res, sol, pts_std)
        ok = np.isfinite(rho_uns)
        assert np.sum(ok) > 350
        gaps.append(float(np.mean(np.abs(rho_uns[ok] - rho_ell[ok]) / rho_ell[ok])))
    g100, g200, g400 = gaps
    assert g100 > g200 > g400
    assert math.log2(g100 / g200) >= 1.0 and math.log2(g200 / g400) >= 1.0
    order = math.log2((g100 - g200) / (g200 - g400))
    limit = g400 + (g400 - g200) / (2.0**order - 1.0)
    band = 1.25 * abs(g400 - limit)
    assert abs(limit) <= band, (gaps, order, limit, band)
