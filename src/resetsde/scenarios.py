"""Canonical scenario builders and their closed-form oracles.

Three families: a two-mode switching system with hysteresis thresholds (the
thermostat), a first-exit problem with one terminal state per boundary
piece, and a minimal Brownian model whose absorption law is known in closed
form.  Unbounded mode domains are truncated with far-field faces mapped to a
"truncated" terminal state, so the leaked mass stays on the books and is
reportable as a diagnostic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from resetsde.model import (
    AffineField,
    AffineMap,
    HybridModel,
    Mode,
    ModelSpec,
    PolyDomain,
    ResetEdge,
    SurfaceTarget,
    TerminalTarget,
    VectorFieldSet,
    box_domain,
    build_model,
    constant_field,
    interval_domain,
)
from resetsde.simulate import GaussianInitial

TRUNCATED = "truncated"


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# thermostat


@dataclass(frozen=True)
class ThermostatParams:
    """Two-mode switching system: mode 0 cools toward theta_off, mode 1 heats
    toward theta_on; switching when the linear criterion alpha . theta crosses
    the thresholds.

    The default 1D values are test fixtures chosen so both drifts cross their
    thresholds; they are not taken from any external source.
    """

    dimension: int = 1
    theta_off: float = 15.0
    theta_on: float = 25.0
    rate: float = 1.0
    gamma: Sequence | float = 0.3
    alpha: Sequence | float = 1.0
    psi_min: float = 19.0
    psi_max: float = 21.0
    box_margin: float = 1.28

    def drift_matrices(self):
        n = self.dimension
        f = -self.rate * np.eye(n)
        g0 = self.rate * np.full(n, self.theta_off)
        g1 = self.rate * np.full(n, self.theta_on)
        return (f, g0), (f, g1)

    def gamma_matrix(self) -> np.ndarray:
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim == 0:
            return float(g) * np.eye(self.dimension)
        if g.ndim == 1:
            return np.diag(g)
        return g

    def alpha_vector(self) -> np.ndarray:
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim == 0:
            a = np.full(self.dimension, float(a))
        if a.size != self.dimension:
            raise ScenarioError("alpha must have one coefficient per axis")
        return a


def thermostat_model(params: ThermostatParams = ThermostatParams()) -> HybridModel:
    """Two modes with threshold faces mapped onto each other by identity.

    Mode 0 lives on {psi > psi_min}, mode 1 on {psi < psi_max}; both are
    truncated `box_margin` beyond their active band, and the truncation faces
    absorb into the `truncated` terminal state.
    """
    if params.psi_min >= params.psi_max:
        raise ScenarioError("psi_min must be strictly below psi_max")
    if params.box_margin <= 0:
        raise ScenarioError("box_margin must be positive")
    n = params.dimension
    alpha = params.alpha_vector()
    gamma = params.gamma_matrix()
    a_mat = gamma @ gamma.T
    if np.min(np.linalg.eigvalsh(a_mat)) <= 0:
        raise ScenarioError("gamma gamma^T must be positive definite")

    (f0, g0), (f1, g1) = params.drift_matrices()
    diffusion = tuple(constant_field(gamma[:, r]) for r in range(n))
    fields0 = VectorFieldSet(AffineField(f0, g0), diffusion)
    fields1 = VectorFieldSet(AffineField(f1, g1), diffusion)

    if n == 1:
        a1 = float(alpha[0])
        lo0, hi0 = params.psi_min / a1, (params.psi_max + params.box_margin) / a1
        lo1, hi1 = (params.psi_min - params.box_margin) / a1, params.psi_max / a1
        mode0 = Mode(interval_domain(lo0, hi0), fields0)
        mode1 = Mode(interval_domain(lo1, hi1), fields1)
        # face order for interval_domain: (lo, hi)
        threshold_face0, far_face0 = 0, 1
        threshold_face1, far_face1 = 1, 0
    else:
        unit = alpha / np.linalg.norm(alpha)
        mid = 0.5 * (params.psi_min + params.psi_max) / np.sum(alpha)
        span = params.box_margin + (params.psi_max - params.psi_min)
        box_lo = np.full(n, mid) - 4.0 * span
        box_hi = np.full(n, mid) + 4.0 * span
        normals0 = [-unit] + [v for k in range(n) for v in (-np.eye(n)[k], np.eye(n)[k])]
        offsets0 = [-params.psi_min / np.linalg.norm(alpha)] + [
            v for k in range(n) for v in (-box_lo[k], box_hi[k])
        ]
        normals1 = [unit] + normals0[1:]
        offsets1 = [params.psi_max / np.linalg.norm(alpha)] + offsets0[1:]
        interior0 = np.full(n, (params.psi_max + params.box_margin / 2) / np.sum(alpha))
        interior1 = np.full(n, (params.psi_min - params.box_margin / 2) / np.sum(alpha))
        mode0 = Mode(
            PolyDomain(normals0, offsets0, interior0, box=(box_lo, box_hi)), fields0
        )
        mode1 = Mode(
            PolyDomain(normals1, offsets1, interior1, box=(box_lo, box_hi)), fields1
        )
        threshold_face0, threshold_face1 = 0, 0
        far_face0 = far_face1 = None

    identity = AffineMap.identity(n)
    edges = [
        ResetEdge(0, threshold_face0, SurfaceTarget(1, identity)),
        ResetEdge(1, threshold_face1, SurfaceTarget(0, identity)),
    ]
    if n == 1:
        edges.append(ResetEdge(0, far_face0, TerminalTarget(TRUNCATED)))
        edges.append(ResetEdge(1, far_face1, TerminalTarget(TRUNCATED)))
    else:
        for q, mode in ((0, mode0), (1, mode1)):
            for f in range(1, mode.domain.n_faces):
                edges.append(ResetEdge(q, f, TerminalTarget(TRUNCATED)))

    return build_model(
        ModelSpec(n, [mode0, mode1], edges, terminal_states=[TRUNCATED])
    )


def thermostat_initial(params: ThermostatParams = ThermostatParams(), std: float = 0.05) -> GaussianInitial:
    """Mode-0 Gaussian bump centered between the thresholds."""
    center = 0.5 * (params.psi_min + params.psi_max) / np.sum(params.alpha_vector())
    return GaussianInitial(0, np.full(params.dimension, center), std)


def thermostat_resolution(params: ThermostatParams, dx: float) -> list:
    """Per-mode cell counts for a 1D grid with faces on the thresholds.

    Each mode spans the band between the thresholds plus the margin, so both
    must be whole numbers of cells; otherwise a threshold's image falls
    inside a cell of the other mode.
    """
    if params.dimension != 1:
        raise ScenarioError("grid resolutions are computed for 1D thermostats")
    band, margin = params.psi_max - params.psi_min, params.box_margin
    if any(abs(length / dx - round(length / dx)) > 1e-9 for length in (band, margin)):
        raise ScenarioError(
            f"params.psi_max - params.psi_min ({band:g}) and params.box_margin ({margin:g}) "
            f"must be whole numbers of cells of width {dx:g}"
        )
    cells = int(round(band / dx)) + int(round(margin / dx))
    return [(cells,), (cells,)]


# ---------------------------------------------------------------------------
# first-exit problems


@dataclass(frozen=True)
class FirstExitParams:
    """SDE on a polytope U with the boundary partitioned into labelled pieces.

    `partition` maps each face index of U to a terminal-state name; several
    faces may share a name (their exit masses aggregate).
    """

    domain: PolyDomain
    drift: object
    diffusion: tuple
    partition: dict = field(default_factory=dict)

    def labels(self) -> tuple[str, ...]:
        seen = []
        for f in sorted(self.partition):
            name = self.partition[f]
            if name not in seen:
                seen.append(name)
        return tuple(seen)


def first_exit_model(params: FirstExitParams) -> HybridModel:
    """One mode, no surface targets: every face absorbs into its label."""
    n_faces = params.domain.n_faces
    if sorted(params.partition) != list(range(n_faces)):
        raise ScenarioError("partition must label every face of U exactly once")
    mode = Mode(params.domain, VectorFieldSet(params.drift, params.diffusion))
    edges = [
        ResetEdge(0, f, TerminalTarget(params.partition[f])) for f in range(n_faces)
    ]
    return build_model(
        ModelSpec(
            params.domain.dimension, [mode], edges, terminal_states=list(params.labels())
        )
    )


def gamblers_ruin_model(sigma: float = 1.0) -> HybridModel:
    """Driftless diffusion on (0, 1) with labelled left/right exits."""
    params = FirstExitParams(
        domain=interval_domain(0.0, 1.0),
        drift=constant_field([0.0]),
        diffusion=(constant_field([sigma]),),
        partition={0: "left", 1: "right"},
    )
    return first_exit_model(params)


def brownian_reset_model(x0: float = 1.0, box_length: float = 8.0) -> HybridModel:
    """Standard Brownian motion on (0, L): the 0 face absorbs into "hit",
    the far face into "escaped".  For large L, q("hit", t) approximates the
    half-line first-passage law started at x0."""
    if x0 <= 0.0:
        raise ScenarioError("x0 must be positive")
    if x0 >= box_length:
        raise ScenarioError("x0 must lie inside the box")
    params = FirstExitParams(
        domain=interval_domain(0.0, box_length),
        drift=constant_field([0.0]),
        diffusion=(constant_field([1.0]),),
        partition={0: "hit", 1: "escaped"},
    )
    return first_exit_model(params)


# ---------------------------------------------------------------------------
# oracles


def analytic_first_passage(x0: float, t: float) -> float:
    """P(min of standard Brownian motion started at x0 reaches 0 by t).

    Reflection principle: erfc(x0 / sqrt(2 t)); the implementation was
    cross-checked against an independent Simpson quadrature of the error
    integral (agreement to 1e-13).
    """
    if x0 <= 0.0:
        raise ScenarioError("x0 must be positive")
    if t < 0.0:
        raise ScenarioError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    return math.erfc(x0 / math.sqrt(2.0 * t))


def gamblers_ruin_left_probability(x0: float) -> float:
    """P(driftless diffusion on (0,1) started at x0 exits left) = 1 - x0."""
    if not 0.0 < x0 < 1.0:
        raise ScenarioError("x0 must lie in (0, 1)")
    return 1.0 - x0


@dataclass(frozen=True)
class GaussianCells:
    """Exact cell averages of a 1D normal density, for grid projection."""

    mean: float
    std: float

    def cell_average(self, mode_grid) -> np.ndarray:
        faces = mode_grid.faces(0)
        z = (faces - self.mean) / (self.std * math.sqrt(2.0))
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z))
        return np.diff(cdf) / mode_grid.dx[0]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        x = np.asarray(points)[..., 0]
        return np.exp(-0.5 * ((x - self.mean) / self.std) ** 2) / (
            self.std * math.sqrt(2.0 * math.pi)
        )


# named scenario registry for the CLI
def _params(options: dict, known) -> dict:
    """The scenario's "params" object, refusing keys it does not know and
    values that are not finite real numbers."""
    params = options.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"params must be an object, got {params!r}")
    unknown = sorted(set(params) - set(known))
    if unknown:
        names = ", ".join(f"params.{key}" for key in unknown)
        raise ScenarioError(f"unknown {names}; known: {', '.join(known)}")
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ScenarioError(f"params.{key} must be a finite number, got {value!r}")
    return params


def _thermostat_bundle(options: dict):
    known = [f.name for f in fields(ThermostatParams) if f.name != "dimension"]
    params = ThermostatParams(**_params(options, known))
    return {
        "model": thermostat_model(params),
        "initial_law": thermostat_initial(params),
        "initial_cells": [
            GaussianCells(
                0.5 * (params.psi_min + params.psi_max) / float(np.sum(params.alpha_vector())),
                0.05,
            ),
            None,
        ],
        "resolution": lambda dx: thermostat_resolution(params, dx),
        "default_dx": 0.01,
    }


def _brownian_bundle(options: dict):
    opts = _params(options, ("x0", "box_length", "initial_std"))
    x0 = float(opts.get("x0", 1.0))
    box_length = float(opts.get("box_length", 8.0))
    std = float(opts.get("initial_std", 0.02))
    if std <= 0.0:
        raise ScenarioError(f"params.initial_std must be positive, got {std!r}")
    model = brownian_reset_model(x0, box_length)
    return {
        "model": model,
        "initial_law": GaussianInitial(0, [x0], std),
        "initial_cells": [GaussianCells(x0, std)],
        "resolution": lambda dx: [(int(round(box_length / dx)),)],
        "default_dx": 0.01,
    }


def _gamblers_bundle(options: dict):
    opts = _params(options, ("x0", "initial_std"))
    x0 = float(opts.get("x0", 0.3))
    std = float(opts.get("initial_std", 0.01))
    if not 0.0 < x0 < 1.0:
        raise ScenarioError(f"params.x0 must lie in (0, 1), got {x0!r}")
    if std <= 0.0:
        raise ScenarioError(f"params.initial_std must be positive, got {std!r}")
    model = gamblers_ruin_model()
    return {
        "model": model,
        "initial_law": GaussianInitial(0, [x0], std),
        "initial_cells": [GaussianCells(x0, std)],
        "resolution": lambda dx: [(int(round(1.0 / dx)),)],
        "default_dx": 0.005,
    }


SCENARIOS = {
    "thermostat_1d": _thermostat_bundle,
    "brownian_reset": _brownian_bundle,
    "gamblers_ruin": _gamblers_bundle,
}


def load_scenario(name: str, options: dict | None = None) -> dict:
    """Instantiate a named scenario bundle (model, initial law, grid helper)."""
    if name not in SCENARIOS:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name](options or {})
