"""Independent checks of the elliptic solver's linear algebra and nodal
fields, and the shifted shock curves the tests start the solver from."""

import numpy as np
from scipy.sparse import coo_matrix

from wedgeflow.elliptic import ShockCurve
from wedgeflow.gas import c2_of_pi, pi_inverse


def nodal_fields(sol):
    """The nodal (rho, vx, vy, L2, chi, zx, zy) of an elliptic solution by
    their formulas alone, with their own derivatives of psi, as
    EllipticSolution.fields formed them before it read the residual
    kernel's nodal state."""
    model = sol.pattern.config.model
    m = sol.mapping
    vx, vy = m.hessian_terms(sol.psi)[:2]
    chi = sol.psi - 0.5 * (m.xi**2 + m.eta**2)
    zx, zy = vx - m.xi, vy - m.eta
    arg = -chi - 0.5 * (zx**2 + zy**2)
    rho = pi_inverse(model, arg)
    c2 = c2_of_pi(model, arg)
    L2 = (zx**2 + zy**2) / c2
    return {"rho": rho, "vx": vx, "vy": vy, "L2": L2, "chi": chi, "zx": zx, "zy": zy}


def bumped(shock: ShockCurve, amount) -> ShockCurve:
    """The shock curve with every height raised by amount."""
    return ShockCurve(shock.lattice, shock.s + amount)


def fd_jacobian(resid, psi, F, delta_fd):
    """Sparse finite-difference Jacobian of resid at psi (F = resid(psi)).

    Below the top row, grouped differences over a 5x5 node coloring: the
    perturbed nodes of one color are 5 apart in each direction and every
    stencil, the one-sided boundary stencils included, reaches at most 2
    nodes, so each row sees at most one perturbed node.  A top-row node
    sets the shock height of its column, which the shock spline spreads
    over the whole lattice, so those nodes are perturbed one at a time.
    Entries whose difference is exactly 0 are left out.
    """
    nz, ns = psi.shape
    rows, cols, vals = [], [], []
    for ci in range(5):
        for cj in range(5):
            mask = np.zeros_like(psi, dtype=bool)
            mask[cj:-1:5, ci::5] = True
            Fp = resid(psi + delta_fd * mask)
            dF = (Fp - F) / delta_fd
            rj, ri = np.nonzero(np.abs(dF) > 0.0)
            # unique perturbed node within distance 2 of each row
            off_i = (ci - ri) % 5
            off_i = np.where(off_i > 2, off_i - 5, off_i)
            off_j = (cj - rj) % 5
            off_j = np.where(off_j > 2, off_j - 5, off_j)
            src_i = ri + off_i
            src_j = rj + off_j
            ok = (src_i >= 0) & (src_i < ns) & (src_j >= 0) & (src_j < nz - 1)
            rows.append(rj[ok] * ns + ri[ok])
            cols.append(src_j[ok] * ns + src_i[ok])
            vals.append(dF[rj[ok], ri[ok]])
    for i in range(ns):
        bump = np.zeros_like(psi)
        bump[-1, i] = delta_fd
        dF = ((resid(psi + bump) - F) / delta_fd).ravel()
        (r,) = np.nonzero(dF)
        rows.append(r)
        cols.append(np.full(r.size, (nz - 1) * ns + i))
        vals.append(dF[r])
    return coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nz * ns, nz * ns),
    ).tocsc()
