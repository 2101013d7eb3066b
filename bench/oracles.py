"""Reference values computed without the package's solvers.

Each oracle here is a closed form or a one-dimensional quadrature written from
the equations, so the checks in `workloads.py` compare the program against
something it did not compute itself.
"""

from __future__ import annotations

import math

import numpy as np

# Discrete monitoring of an Euler scheme behaves, to leading order, like
# moving the absorbing boundary outward by GM_SHIFT * sigma * sqrt(dt)
# (Gobet & Menozzi 2010, SPA 120; the constant is -zeta(1/2)/sqrt(2*pi)).
GM_SHIFT = 0.5826


def monitoring_shift(sigma: float, dt: float) -> float:
    """Effective outward boundary shift of discretely monitored paths."""
    return GM_SHIFT * sigma * math.sqrt(dt)


def ruin_exit_series(x0: float, std: float, t: float, sigma: float = 1.0, n_terms: int = 4000):
    """Masses absorbed at 0 and at 1 by time t, Brownian motion on (0, 1).

    The start is N(x0, std^2). With eigenfunctions sin(n pi x), the flux out
    of the left end integrates to
        q_left(t) = sum_n 2/(n pi) E[sin(n pi X0)] (1 - exp(-(n pi sigma)^2 t / 2)),
    and E[sin(n pi X0)] = sin(n pi x0) exp(-(n pi std)^2 / 2). The right end
    is the mirror image x0 -> 1 - x0.
    """
    k = np.pi * np.arange(1, n_terms + 1)
    weight = (2.0 / k) * np.exp(-0.5 * (k * std) ** 2) * -np.expm1(-0.5 * (k * sigma) ** 2 * t)
    left = float(np.sum(weight * np.sin(k * x0)))
    right = float(np.sum(weight * np.sin(k * (1.0 - x0))))
    return left, right


def ruin_left_monitoring_bias(x0: float, sigma: float, dt: float) -> float:
    """Shift of P(exit left) when both ends move outward by the monitoring shift."""
    delta = monitoring_shift(sigma, dt)
    return abs((1.0 + delta - x0) / (1.0 + 2.0 * delta) - (1.0 - x0))


def _segment_profile(x, potential, h, zero_at_left: bool):
    """Density on one segment with p = 0 at one end and p = 1 at the other.

    On a segment the current J is constant, so (a/2) p' = b p - J with
    b = -(a/2) U'. With p = 0 at the far end the solution is
        p(x) ∝ e^{-U(x)} ∫_{far end}^{x} e^{U(s)} ds,
    accumulated from the far end so that no tail is a difference of two
    nearly equal sums. Returns the profile scaled to 1 at the image point
    and the integral ∫ e^{U(s) - U(c)} ds over the segment (c the image
    point), from which the current per unit p(c) is a / (2 * integral).
    """
    top = float(np.max(potential))
    e = np.exp(potential - top)
    trap = 0.5 * (e[1:] + e[:-1]) * h
    if zero_at_left:
        cum = np.concatenate(([0.0], np.cumsum(trap)))
        c_idx = -1
    else:
        cum = np.concatenate((np.cumsum(trap[::-1])[::-1], [0.0]))
        c_idx = 0
    profile = np.exp(top - potential) * cum
    integral = cum[c_idx] * math.exp(top - potential[c_idx])
    return profile / profile[c_idx], integral


def thermostat_stationary_cell_masses(params, dx: float, sub: int = 200):
    """Cell masses of the stationary law of the 1D thermostat on a dx grid.

    Mode q lives on [lo_q, hi_q] with drift rate (theta_q - x) and a = gamma^2.
    It is absorbed at both ends (the reset face and the truncation face), so
    its density vanishes there, and it receives the other mode's reset
    outflux at the image point c_q. The density is continuous at c_q and the
    current jumps there by the reinjected flux. Between the ends and c_q the
    current is constant, so each mode is two segments of `_segment_profile`
    joined at p(c_q). The two values p(c_0), p(c_1) balance the reset fluxes
    between the modes; the truncation faces leak at a relative rate returned
    as `leak` (about 1e-82 for the default parameters), which the balance
    ignores. Cell masses come from trapezoid quadrature with `sub` nodes per
    cell, and sum to one.
    """
    if params.dimension != 1:
        raise ValueError("the quadrature oracle covers the 1D thermostat")
    gamma = float(np.asarray(params.gamma, dtype=float).reshape(-1)[0])
    alpha = float(np.asarray(params.alpha, dtype=float).reshape(-1)[0])
    a = gamma * gamma
    modes = (
        # lo, hi, drift target, image point (entry from the other mode)
        (params.psi_min / alpha, (params.psi_max + params.box_margin) / alpha,
         params.theta_off, params.psi_max / alpha),
        ((params.psi_min - params.box_margin) / alpha, params.psi_max / alpha,
         params.theta_on, params.psi_min / alpha),
    )
    masses, currents = [], []
    for lo, hi, theta, c in modes:
        n_cells = int(round((hi - lo) / dx))
        h = dx / sub
        x = lo + h * np.arange(n_cells * sub + 1)
        potential = (params.rate / a) * (x - theta) ** 2
        jc = int(round((c - lo) / h))
        p = np.empty_like(x)
        p[: jc + 1], int_lo = _segment_profile(x[: jc + 1], potential[: jc + 1], h, True)
        p[jc:], int_hi = _segment_profile(x[jc:], potential[jc:], h, False)
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * h)))
        masses.append(np.diff(cum[::sub]))
        # outflux per unit p(c) at the lower and the upper end of the mode
        currents.append((0.5 * a / int_lo, 0.5 * a / int_hi))
    # mode 0 resets through its lower face, mode 1 through its upper face
    out0, out1 = currents[0][0], currents[1][1]
    weights = (1.0, out0 / out1)
    leak = (currents[0][1] * weights[0] + currents[1][0] * weights[1]) / out0
    cells = [m * w for m, w in zip(masses, weights)]
    total = sum(float(np.sum(m)) for m in cells)
    return [m / total for m in cells], leak
