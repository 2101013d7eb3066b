"""Cross-validation machinery: expectation-identity residuals, mass balance,
the discrete divergence identity with interior-surface jumps, Monte-Carlo vs
PDE distances, and the flux-continuity residual at reset-image faces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from resetsde.fpk import DensityState, GridLayout, total_mass
from resetsde.model import HybridModel, SurfaceTarget
from resetsde.simulate import EmpiricalMeasure


class ValidationError(ValueError):
    pass


class MissingPathIntegrals(ValidationError):
    """The ensemble was not run with this test function registered."""


class GridMismatch(ValidationError):
    """Measure and density disagree on grid or output time."""


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Observable phi(mode, theta) with its generator image and support box.

    `evaluator` and `generator` take (mode, points) with points of shape
    (k, d); `generator` may be omitted, in which case a central-difference
    approximation of A0 phi + 1/2 sum_r A_r^2 phi is built from the model.
    Terminal states evaluate to `terminal_values` (default 0).
    """

    __test__ = False  # not a pytest collectible

    def __init__(
        self,
        evaluator: Callable,
        generator: Callable | None = None,
        terminal_values: dict | None = None,
        support: tuple | None = None,
        compatible_with_resets: bool = False,
        model: HybridModel | None = None,
        fd_step: float = 1e-5,
    ):
        self._eval = evaluator
        self._gen = generator
        self.terminal_values = dict(terminal_values or {})
        self.support = support
        self.compatible_with_resets = compatible_with_resets
        self._model = model
        self._fd_step = fd_step
        if generator is None and model is None:
            raise ValidationError("a generator callable or a model (for finite differences) is required")

    def evaluate(self, mode: int, points: np.ndarray) -> np.ndarray:
        return np.asarray(self._eval(mode, np.atleast_2d(points)), dtype=float)

    def generator(self, mode: int, points: np.ndarray) -> np.ndarray:
        if self._gen is not None:
            return np.asarray(self._gen(mode, np.atleast_2d(points)), dtype=float)
        return self._fd_generator(mode, np.atleast_2d(points))

    def terminal_value(self, terminal: str) -> float:
        return self.terminal_values.get(terminal, 0.0)

    def _fd_generator(self, mode: int, points: np.ndarray) -> np.ndarray:
        """A0 phi + 1/2 sum_r (A_r . grad)^2 phi by directional differences."""
        fields = self._model.modes[mode].fields
        h = self._fd_step
        out = np.zeros(points.shape[0])
        a0 = fields.drift(points)
        d = points.shape[1]
        for j in range(d):
            stepv = np.zeros(d)
            stepv[j] = h
            dphi = (
                self.evaluate(mode, points + stepv) - self.evaluate(mode, points - stepv)
            ) / (2 * h)
            out += a0[:, j] * dphi
        for a_field in fields.diffusion:
            val = a_field(points)
            phi_p = self.evaluate(mode, points + h * val)
            phi_m = self.evaluate(mode, points - h * val)
            phi_0 = self.evaluate(mode, points)
            # (A . grad)^2 phi from a directional second difference, plus the
            # ((grad A) A) . grad phi transport term of A^2 phi
            jac = a_field.jacobian(points)
            w = np.einsum("kji,ki->kj", jac, val)
            grad = np.zeros_like(out)
            for j in range(d):
                stepv = np.zeros(d)
                stepv[j] = h
                dphi = (
                    self.evaluate(mode, points + stepv) - self.evaluate(mode, points - stepv)
                ) / (2 * h)
                grad += w[:, j] * dphi
            out += 0.5 * ((phi_p - 2 * phi_0 + phi_m) / h**2 + grad)
        return out

    def check_support(self, probes: np.ndarray, mode: int = 0, tol: float = 0.0) -> bool:
        """phi must vanish at probe points outside the declared support box."""
        if self.support is None:
            return True
        lo, hi = self.support
        outside = np.any((probes < lo) | (probes > hi), axis=-1)
        vals = self.evaluate(mode, probes)
        return bool(np.all(np.abs(vals[outside]) <= tol))

    def check_reset_compatibility(self, model: HybridModel, tol: float = 0.0) -> bool:
        """For compatible phi, (phi o Phi - phi) must vanish on source patches."""
        for edge in model.reset_edges:
            if not isinstance(edge.target, SurfaceTarget):
                continue
            pts = model.modes[edge.source_mode].domain.face_points(edge.source_face)
            images = edge.target.map(pts)
            diff = self.evaluate(edge.target.mode, images) - self.evaluate(edge.source_mode, pts)
            if np.any(np.abs(diff) > tol):
                return False
        return True


class SmoothBump:
    """C-infinity bump exp(-1/(1-u^2)) on |u| < 1, u = (x - center)/width."""

    def __init__(self, center: float, width: float):
        self.center = center
        self.width = width

    def _u(self, x):
        return (np.asarray(x, dtype=float) - self.center) / self.width

    def value(self, x):
        u = self._u(x)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    def first_derivative(self, x):
        u = self._u(x)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = (
            np.exp(-1.0 / (1.0 - ui**2)) * (-2.0 * ui / (1.0 - ui**2) ** 2) / self.width
        )
        return out

    def second_derivative(self, x):
        u = self._u(x)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        g1 = -2.0 * ui / (1.0 - ui**2) ** 2
        g2 = -2.0 * (1.0 + 3.0 * ui**2) / (1.0 - ui**2) ** 3
        out[inside] = np.exp(-1.0 / (1.0 - ui**2)) * (g2 + g1**2) / self.width**2
        return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class Metric:
    name: str
    value: float
    tolerance: float
    passed: bool
    provenance: dict = field(default_factory=dict)


@dataclass
class ValidationReport:
    """Named metrics with tolerances, pass flags, and oracle provenance."""

    metrics: list = field(default_factory=list)

    def add(self, name: str, value: float, tolerance: float, provenance: dict | None = None) -> Metric:
        metric = Metric(name, float(value), float(tolerance), bool(abs(value) <= tolerance), dict(provenance or {}))
        self.metrics.append(metric)
        return metric

    def add_bounded(self, name: str, value: float, bound: float, provenance: dict | None = None) -> Metric:
        """Metric that must not exceed a one-sided bound."""
        metric = Metric(name, float(value), float(bound), bool(value <= bound), dict(provenance or {}))
        self.metrics.append(metric)
        return metric

    @property
    def all_passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_dict(self) -> dict:
        return {
            "passed": self.all_passed,
            "metrics": [
                {
                    "name": m.name,
                    "value": m.value,
                    "tolerance": m.tolerance,
                    "passed": m.passed,
                    "provenance": m.provenance,
                }
                for m in self.metrics
            ],
        }


# ---------------------------------------------------------------------------
# operations


def dynkin_residual(model: HybridModel, measure: EmpiricalMeasure, phi: TestFunction, t: float):
    """Monte-Carlo residual of the expectation identity at time t.

    residual = mean over paths of
        phi(X_t) - phi(X_0) - int_0^t L phi(X_s) ds - sum_jumps (phi o Phi - phi),
    with the standard error of that per-path combination.  Zeno-flagged paths
    are excluded.
    """
    record = next((rec for rec in measure.dynkin if rec.phi is phi), None)
    if record is None:
        if len(measure.dynkin) == 0:
            raise MissingPathIntegrals(
                "the ensemble was not run with test functions registered"
            )
        raise MissingPathIntegrals("this test function was not registered with the ensemble")
    k_t = measure.time_index(t)
    alive = record.alive[k_t]
    if not np.any(alive):
        raise ValidationError("no live paths at the requested time")
    d_i = (
        record.phi_t[k_t][alive]
        - record.phi0[alive]
        - record.int_generator[k_t][alive]
        - record.jump_sum[k_t][alive]
    )
    n = d_i.size
    residual = float(np.mean(d_i))
    stderr = float(np.std(d_i, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return residual, stderr


def mass_balance(grid: GridLayout, density: DensityState) -> float:
    """Total mass: cell masses plus terminal masses, fixed summation order."""
    return total_mass(grid, density)


@dataclass
class StokesField:
    """Face-sampled vector field for the discrete divergence identity.

    `vector(mode, points) -> (k, d)` samples the field, `divergence(mode,
    points) -> (k,)` its analytic divergence at cell centers.  A field with a
    jump across reset-image faces supplies `side_vector(mode, points, side)`
    with side 1 (lower) or 2 (upper); it defaults to the two-sided `vector`.
    """

    vector: Callable
    divergence: Callable
    side_vector: Callable | None = None

    def side(self, mode, points, side):
        if self.side_vector is None:
            return self.vector(mode, points)
        return self.side_vector(mode, points, side)


def discrete_stokes_check(grid: GridLayout, a_field: StokesField, include_h_term: bool = True) -> float:
    """| sum_cells div A vol  -  sum_boundary <A, nu> area  +  sum_H <A2 - A1, nu12> area |.

    All three integrals are midpoint sums on the grid.  For fields with a
    prescribed jump the identity is exact when the interior-surface term is
    included; omitting it leaves exactly the jump flux.
    """
    term_div = 0.0
    for q, mg in enumerate(grid.mode_grids):
        centers = mg.cell_center_points().reshape(-1, mg.dimension)
        term_div += float(np.sum(a_field.divergence(q, centers))) * mg.cell_volume

    term_bdry = 0.0
    for q, mg in enumerate(grid.mode_grids):
        d = mg.dimension
        for axis in range(d):
            for side, sign in ((0, -1.0), (1, 1.0)):
                pts = _boundary_face_points(mg, axis, side)
                vals = np.atleast_2d(a_field.vector(q, pts))[:, axis]
                term_bdry += sign * float(np.sum(vals)) * mg.face_area(axis)

    term_h = 0.0
    if include_h_term:
        for tab in grid.surface_tables:
            mg = grid.mode_grids[tab.target_mode]
            pts = _h_face_points(mg, tab)
            v1 = np.atleast_2d(a_field.side(tab.target_mode, pts, 1))[:, tab.h_axis]
            v2 = np.atleast_2d(a_field.side(tab.target_mode, pts, 2))[:, tab.h_axis]
            term_h += float(np.sum(v2 - v1)) * mg.face_area(tab.h_axis)

    return abs(term_div - term_bdry + term_h)


def _boundary_face_points(mg, axis, side):
    coord = mg.lo[axis] if side == 0 else mg.hi[axis]
    if mg.dimension == 1:
        return np.array([[coord]])
    other = 1 - axis
    pts = np.zeros((mg.shape[other], 2))
    pts[:, axis] = coord
    pts[:, other] = mg.centers(other)
    return pts


def _h_face_points(mg, tab):
    coord = mg.lo[tab.h_axis] + tab.h_face_index * mg.dx[tab.h_axis]
    if mg.dimension == 1:
        return np.array([[coord]])
    other = 1 - tab.h_axis
    pts = np.zeros((tab.tgt_tangential.size, 2))
    pts[:, tab.h_axis] = coord
    pts[:, other] = mg.lo[other] + (tab.tgt_tangential + 0.5) * mg.dx[other]
    return pts


def compare_mc_pde(grid: GridLayout, measure: EmpiricalMeasure, density: DensityState, t: float):
    """L1 distance between the histogrammed ensemble and the cell densities,
    plus the largest terminal-mass discrepancy.

    Zeno-flagged paths carry no weight, so their missing mass surfaces here.
    """
    try:
        k_t = measure.time_index(t)
    except KeyError as exc:
        raise GridMismatch(str(exc)) from None
    if abs(density.t - t) > 1e-9 * max(1.0, abs(t)):
        raise GridMismatch(f"density is at t={density.t}, requested {t}")
    if len(measure.mode_clouds[k_t]) != len(grid.mode_grids):
        raise GridMismatch("measure and grid disagree on the mode count")

    n = measure.size
    l1 = 0.0
    for q, mg in enumerate(grid.mode_grids):
        cloud = measure.mode_clouds[k_t][q]
        if cloud.size and (
            np.any(cloud < mg.lo - 1e-12) or np.any(cloud > mg.hi + 1e-12)
        ):
            raise GridMismatch(f"mode {q} cloud leaves the grid box")
        edges = [mg.faces(axis) for axis in range(mg.dimension)]
        counts, _ = np.histogramdd(cloud, bins=edges)
        p_hat = counts / (n * mg.cell_volume)
        l1 += float(np.sum(np.abs(p_hat - density.p[q]))) * mg.cell_volume

    dq = 0.0
    for name in grid.model.terminal_states:
        q_hat = measure.terminal_counts[k_t].get(name, 0) / n
        dq = max(dq, abs(q_hat - density.q.get(name, 0.0)))
    return l1, dq


def flux_continuity_residual(model: HybridModel, grid: GridLayout, density: DensityState) -> float:
    """max over paired faces of |J_out - h * (J_in o Phi)| in discrete terms.

    The interface condition: the density is continuous across the image
    face and the current jumps there by h times the paired source outflux.
    J_in is that jump, the upper minus the lower one-sided row of the forward
    operator's face currents (exponentially fitted fluxes on the faces next
    to the image face); J_out is the raw outflux of the paired source face.
    """
    op = grid.forward_operator()
    flat = op.flatten(density.p)
    out = op.boundary_outflux(flat)
    currents = op.face_currents(flat)
    worst = 0.0
    for tab in grid.surface_tables:
        # both are in source-face order, so entry i of each refers to one
        # paired face couple
        lower, upper = op.image_rows[tab.edge_index]
        j_in = currents[upper] - currents[lower]
        residual = np.abs(out[op.outflux_edge == tab.edge_index] - tab.h * j_in)
        worst = max(worst, float(np.max(residual)))
    return worst
