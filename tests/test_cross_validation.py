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
from wedgeflow.elliptic import EllipticConfig, iterate
from wedgeflow.diagnostics import CompositeField

AIR = GasModel(gamma=1.4)


@pytest.mark.slow
def test_unsteady_and_elliptic_agree_in_the_lens(desk_march):
    prob = ProblemConfig(model=AIR, M_I=2.94, tau=math.radians(10.0), epsilon=0.01)
    res, _ = desk_march  # the same problem marched at grid_n 400 to t = 1
    sol = iterate(build(prob), EllipticConfig(lattice_n=64))
    assert sol.converged

    comp = CompositeField(sol)
    m = sol.mapping
    rng = np.random.default_rng(11)
    pts_std = []
    for _ in range(400):
        sig, zet = rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85)
        eta = zet * sol.shock.value(sig)
        pts_std.append([m.x_of(sig, eta), eta])
    pts_std = np.array(pts_std)
    rho_ell, _, _, region = comp.evaluate(pts_std[:, 0], pts_std[:, 1])
    assert np.all(region == 0)  # all probes inside the lens

    pts_orig = sol.pattern.to_original(pts_std)
    f = res.sample_final
    interp = RegularGridInterpolator((f.xi_y, f.xi_x), f.rho, bounds_error=False)
    rho_uns = interp(np.stack([pts_orig[:, 1], pts_orig[:, 0]], axis=-1))
    ok = np.isfinite(rho_uns)
    assert np.sum(ok) > 350
    rel = np.abs(rho_uns[ok] - rho_ell[ok]) / rho_ell[ok]
    assert float(np.mean(rel)) < 0.015
    assert float(np.percentile(rel, 95)) < 0.03
