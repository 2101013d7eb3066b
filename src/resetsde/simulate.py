"""Pathwise Monte-Carlo engine for diffusions with boundary-hitting resets.

Paths follow an Euler-Maruyama update of the Ito form inside a mode; straight
segments are tested against the mode's faces, the earliest crossing is
projected onto its face, and the reset edge decides whether the path re-enters
a mode or is absorbed in a terminal state.  A cap on the jump count guards
against reset accumulation; capped paths are flagged and excluded from the
empirical measures they would otherwise enter.

Every trajectory draws from its own numpy PCG64 stream, seeded as
`SeedSequence([base_seed, trajectory_index])`, so ensembles reproduce
bit-for-bit for any number of paths in flight; the streams admitted together
take their seed words from one shared seed object.  A stream's draws are
laid out as follows: the initial law draws first, then step j uses normals
[j*d, (j+1)*d).  Paths run through one working set of at most W rows, by
default as many as a 12 MiB noise buffer holds (about 24,000 in 1D).
Normals are drawn in chunks of 64 steps for the rows in flight, into a
buffer allocated once whose rows follow the state rows, so a step reads one
column block; a path's initial-law normals share one draw call with its
first chunk.  The hot loop advances all rows in lockstep: one proposal per
iteration, landing exactly on the next time-grid point unless a boundary
crossing truncates it.  Rows on the grid read the step length and its root
from per-checkpoint tables; only a row that a jump left between checkpoints
computes its own.  Dead paths stay in the state arrays, marked by a negative
mode and parked at a NaN position so that they never cross or arrive again,
until the chunk is used up; at the refill they fill their remaining output
slots in one record and are dropped with their streams, and the next queued
paths, in index order, take the free rows.  Memory is thus set by W; only
the output slots grow with the paths.

A path's stream and output columns depend on its index alone, so a range of
indices is an independent job.  An ensemble of N paths of S grid steps
runs as min(usable cores, 2, floor(N / W), floor(N S / 1e7)) contiguous
ranges, so only where a split was measured to pay: the calling process runs
the first, and a spawned worker process runs the other, into a recorder of
its own whose slots are copied into the caller's columns; it is kept for
later splits.  The outputs are those of one process, byte for byte.

One stepping kernel proposes steps, tests face gaps and looks up resets on
per-path rows of per-mode tables: every model's face geometry and reset
targets, plus the drift and noise coefficients when every drift is affine
and every noise column constant; other fields are stepped mode by mode.
Every crossing takes its post-jump mode and terminal code from the reset
tables in one pass.  A terminal exit needs no jump count, and no hit point
or jump time unless the recorder reads them; surface images go by (mode,
face) group.  The loop only steps: one recorder per run owns every path's
output slots, the terms of the expectation identity (phi(X_0), phi(X_t),
the integral of L phi and the jump sums) and the jump events, one column
per path.  The single-state `step`, `detect_hit` and `apply_reset` share
the engine's batched implementations on a batch of one, and
`simulate_path` runs the engine on one path whose output times are all its
checkpoints.
"""

from __future__ import annotations

import os
import sys
import threading
from itertools import compress
from types import ModuleType
from typing import NamedTuple, Sequence

import numpy as np

from resetsde.model import (
    AffineField,
    HybridModel,
    TerminalTarget,
    ito_drift,
)

_CHUNK_STEPS = 64  # steps of noise drawn per refill
_NOISE_BUDGET = 12 * 2**20  # bytes of noise buffer that set the default paths in flight
_MODE_TERMINAL = -1
_MODE_ZENO = -2
_MODE_UNSET = -3
_SNAP_REL = 1e-9
DEFAULT_ZENO_RATE = 10_000  # jump budget per unit of time horizon


class SimulationError(RuntimeError):
    """Base class for path-engine errors."""


class StartOnBoundary(SimulationError):
    """Hit detection requires a strictly interior start point."""


class CharacteristicFaceHit(SimulationError):
    """A path reached a face declared characteristic; the model is inconsistent."""


# ---------------------------------------------------------------------------
# states, trajectories, measures


class PathState(NamedTuple):
    """Mode-or-terminal tag with position (absent when terminal) and time."""

    mode: int | None
    terminal: str | None
    position: np.ndarray | None
    time: float

    @staticmethod
    def in_mode(mode: int, position, time: float = 0.0) -> "PathState":
        return PathState(mode, None, np.asarray(position, dtype=float).reshape(-1), time)

    @staticmethod
    def at_terminal(terminal: str, time: float = 0.0) -> "PathState":
        return PathState(None, terminal, None, time)


class JumpEvent(NamedTuple):
    time: float
    mode: int
    face: int
    point: np.ndarray
    post: PathState


class Trajectory(NamedTuple):
    """One sample path on a fixed time grid plus its ordered jump events."""

    times: np.ndarray
    modes: np.ndarray            # >= 0 in-mode, -1 terminal, -2 zeno-truncated
    positions: np.ndarray        # NaN rows when not in a mode
    jumps: list
    terminal_id: str | None = None
    terminal_time: float | None = None
    zeno_flag: bool = False


class EmpiricalMeasure(NamedTuple):
    """Per-output-time mode point clouds, terminal counts, and zeno exclusions."""

    times: np.ndarray
    mode_clouds: list            # [time][mode] -> (n_i, d) positions
    terminal_counts: list        # [time] -> {terminal: count}
    zeno_counts: np.ndarray
    size: int
    base_seed: int
    dynkin: Sequence = ()

    def time_index(self, t: float, tol: float = 1e-9) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[idx]) - t) > tol:
            raise KeyError(f"time {t} is not an output time of this measure")
        return idx

    def terminal_fraction(self, t: float, terminal: str) -> float:
        return self.terminal_counts[self.time_index(t)].get(terminal, 0) / self.size


class DynkinRecord(NamedTuple):
    """Per-path ingredients of the expectation identity, per output time."""

    phi0: np.ndarray             # (N,)
    phi_t: np.ndarray            # (K, N)
    int_generator: np.ndarray    # (K, N) accumulated integral of L phi
    jump_sum: np.ndarray         # (K, N) accumulated (phi o Phi - phi) terms
    alive: np.ndarray            # (K, N) False where the path was zeno-dropped
    phi: object = None           # the registered test function


# ---------------------------------------------------------------------------
# initial laws


class PointMass:
    """Deterministic initial state; consumes no randomness."""

    def __init__(self, mode: int, position):
        self.mode = mode
        self.position = np.asarray(position, dtype=float).reshape(-1)


class GaussianInitial:
    """Isotropic or per-axis normal initial position inside one mode."""

    def __init__(self, mode: int, mean, std):
        self.mode = mode
        self.mean = np.asarray(mean, dtype=float).reshape(-1)
        std_in = np.asarray(std, dtype=float)
        try:
            self.std = np.broadcast_to(std_in, self.mean.shape).copy()
        except ValueError:
            message = f"initial std {std!r} does not broadcast to the mean's shape {self.mean.shape}"
            raise SimulationError(message) from None
        if not np.all(np.isfinite(self.std) & (self.std >= 0.0)):
            raise SimulationError(f"initial std must be finite and >= 0, got {std!r}")


# ---------------------------------------------------------------------------
# path operations: each works on a batch of rows; the single-state API below
# calls it on a batch of one


def _first_crossing(gs, ge):
    """Earliest face crossing of straight segments, one segment per row.

    gs and ge are the (rows, faces) gaps at the segment ends; a face is
    crossed where its end gap is >= 0.  Returns each row's segment fraction
    (inf when no face is crossed) and face.
    """
    crossing = ge >= 0.0
    frac = np.where(crossing, 0.0, np.inf)
    # a face crossed from inside has gs < 0 <= ge, so gs - ge < 0 there
    np.divide(gs, gs - ge, out=frac, where=crossing & (gs < 0.0))
    return np.min(frac, axis=1), np.argmin(frac, axis=1)


def _onto_face(domain, face: int, pts: np.ndarray) -> np.ndarray:
    """Project points exactly onto one face hyperplane."""
    nrm = domain.normals[face]
    return pts - (pts @ nrm - domain.offsets[face])[:, None] * nrm


def _nudge_interior(domain, points: np.ndarray) -> np.ndarray:
    """Push image points a hair inside when they touch a face numerically."""
    eps = 1e-12 * domain.diameter()
    out = points
    gaps = domain.gaps(out)
    for k in range(domain.n_faces):
        close = gaps[..., k] > -eps
        if np.any(close):
            out = out.copy()
            out[close] -= (gaps[close][..., k] + eps)[:, None] * domain.normals[k]
            gaps = domain.gaps(out)
    return out


def _reset(model: HybridModel, q: int, f: int, pts: np.ndarray):
    """The reset target of face f of mode q, and the image of the hit points
    pts under a surface reset (None for a terminal exit)."""
    if model.is_characteristic(q, f):
        raise CharacteristicFaceHit(f"path reached declared-characteristic face ({q}, {f})")
    target = model.edge_for_face(q, f).target
    if isinstance(target, TerminalTarget):
        return target, None
    return target, _nudge_interior(model.modes[target.mode].domain, target.map(pts))


def _by_mode(fn, modes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """fn(q, points of mode q) for each mode present, in row order; 0 elsewhere."""
    out = np.zeros(modes.shape[0])
    for q in np.unique(modes[modes >= 0]):
        sel = modes == q
        out[sel] = fn(int(q), points[sel])
    return out


def step(model: HybridModel, state: PathState, dt: float, noise) -> PathState:
    """One Euler-Maruyama update from N(0, dt) increments.

    The result may leave the mode's domain; hit detection is separate.
    """
    if state.mode is None:
        raise SimulationError("step requires an in-mode state")
    _check_start(model, state.mode, state.position)
    if dt <= 0.0:
        raise SimulationError("dt must be positive")
    increments = np.asarray(noise, dtype=float).reshape(-1)
    xi = np.zeros((1, max(model.dimension, increments.size)))
    xi[0, : increments.size] = increments
    modes = np.array([state.mode])
    kernel = _Kernel(model)
    kernel.admit(np.zeros(0, dtype=bool), modes)
    # the increments already carry the sqrt(dt) scale
    new = kernel.propose(modes, state.position[None, :], np.array([dt]), np.ones(1), xi)
    return PathState(state.mode, None, new[0], state.time + dt)


def detect_hit(domain, start, end):
    """First face crossing of the straight segment start -> end, if any.

    Returns (fraction, face, point) with the point projected exactly onto the
    face hyperplane, or None when the segment stays inside.
    """
    start = np.asarray(start, dtype=float).reshape(1, -1)
    end = np.asarray(end, dtype=float).reshape(1, -1)
    for name, point in (("start", start), ("end", end)):
        if point.size != domain.dimension:
            raise SimulationError(f"segment {name} must have {domain.dimension} coordinates, got {point.size}")
    gs = domain.gaps(start)
    if np.any(gs >= 0.0):
        raise StartOnBoundary("segment start is not strictly inside the domain")
    s, face = _first_crossing(gs, domain.gaps(end))
    if np.isinf(s[0]):
        return None
    point = _onto_face(domain, int(face[0]), start + s[0] * (end - start))
    return float(s[0]), int(face[0]), point[0]


def apply_reset(model: HybridModel, hit: tuple[int, int, np.ndarray], time: float = 0.0) -> PathState:
    """Map a boundary hit through its reset edge."""
    mode, face, point = hit
    target, image = _reset(model, mode, face, np.asarray(point, dtype=float).reshape(1, -1))
    if image is None:
        return PathState.at_terminal(target.terminal, time)
    return PathState.in_mode(target.mode, image[0], time)


def default_zeno_cap(horizon: float) -> int:
    return max(1, int(np.ceil(DEFAULT_ZENO_RATE * horizon)))


# ---------------------------------------------------------------------------
# stepping kernel


class _Kernel:
    """Per-path rows of per-mode tables for the proposal and the face-gap test.

    Every model's face normals and offsets are padded to the widest mode;
    padded faces report gap -1 (strictly inside), never crossing.  When every
    drift is affine and every noise column constant, the drift correction
    vanishes, so the tables also hold the drift and noise coefficients and
    one gathered expression advances a mixed-mode batch; other fields have no
    row form and are stepped mode by mode.  Tables and rows keep the path
    axis last, so gaps come face by face over contiguous rows.  A path's rows
    are refreshed only when it changes mode; with one mode, the rows are the
    tables themselves, broadcast along the path axis.  The reset tables,
    indexed by mode * f_max + face, hold the post-jump mode (_MODE_TERMINAL
    for an exit, _MODE_UNSET for a characteristic or padded face) and
    terminal index (-1 for none).
    """

    def __init__(self, model: HybridModel):
        self.model = model
        self.d = d = model.dimension
        self.f_max = f_max = max(m.domain.n_faces for m in model.modes)
        self.affine = all(
            isinstance(m.fields.drift, AffineField)
            and all(isinstance(a, AffineField) and not np.any(a.matrix != 0.0) for a in m.fields.diffusion)
            for m in model.modes
        )
        per_mode = []
        for m in model.modes:
            nf = m.domain.n_faces
            row = {"normals": np.zeros((f_max, d)), "offsets": np.ones(f_max)}
            row["normals"][:nf], row["offsets"][:nf] = m.domain.normals, m.domain.offsets
            if self.affine:
                noise = np.column_stack([a_field.offset for a_field in m.fields.diffusion])
                row.update(b_mat=m.fields.drift.matrix, b_off=m.fields.drift.offset, noise=noise)
            per_mode.append(row)
        self.tables = {key: np.stack([row[key] for row in per_mode], axis=-1).astype(float) for key in per_mode[0]}
        self.one_mode = len(model.modes) == 1
        self.rows = self.tables if self.one_mode else {key: table[..., :0] for key, table in self.tables.items()}
        self.post_mode = np.full(len(model.modes) * f_max, _MODE_UNSET, dtype=np.int64)
        self.post_term = np.full(self.post_mode.size, -1, dtype=np.int64)
        for (q, f), i in model.face_edges.items():
            target = model.reset_edges[i].target
            terminal = isinstance(target, TerminalTarget)
            self.post_mode[q * f_max + f] = _MODE_TERMINAL if terminal else target.mode
            self.post_term[q * f_max + f] = model.terminal_states.index(target.terminal) if terminal else -1

    def admit(self, keep: np.ndarray, modes: np.ndarray) -> None:
        """Keep the rows where keep is set and append rows for paths in modes
        (take and compress keep the path axis contiguous, as gaps reads it)."""
        if self.one_mode:
            return
        self.rows = {key: np.concatenate([self.rows[key].compress(keep, axis=-1), table.take(modes, axis=-1)], axis=-1)
                     for key, table in self.tables.items()}

    def update_rows(self, rows: np.ndarray, modes: np.ndarray) -> None:
        if self.one_mode:
            return
        for key, table in self.tables.items():
            self.rows[key][..., rows] = table[..., modes]

    def propose(self, modes, theta, delta, sqrt_delta, xi):
        if not self.affine:
            # dead rows keep their NaN positions, so they never cross
            out = theta.copy()
            for q in np.unique(modes[modes >= 0]).tolist():
                sel = modes == q
                pts = theta[sel]
                b, values = ito_drift(self.model, q, pts)
                move = b * delta[sel, None]
                for r, val in enumerate(values):
                    move = move + val * (xi[sel, r] * sqrt_delta[sel])[:, None]
                out[sel] = pts + move
            return out
        b_mat, b_off, noise = self.rows["b_mat"], self.rows["b_off"], self.rows["noise"]
        # in place, summing b_off + b_mat[i, 0] theta_0 + ... and then each
        # noise term in that order, which fixes every rounding
        out = np.empty_like(theta)
        for i in range(self.d):
            acc = b_mat[i, 0] * theta[:, 0]
            acc += b_off[i]
            for j in range(1, self.d):
                acc += b_mat[i, j] * theta[:, j]
            acc *= delta
            for r in range(self.d):
                kick = xi[:, r] * sqrt_delta
                kick *= noise[i, r]
                acc += kick
            np.add(theta[:, i], acc, out=out[:, i])
        return out

    def gaps(self, points, rows=slice(None)):
        """(faces, points) gaps of each point to the faces of its row."""
        if self.one_mode:
            rows = slice(None)
        normals = self.rows["normals"][..., rows]
        g = normals[:, 0] * points[:, 0]
        for j in range(1, self.d):
            g += normals[:, j] * points[:, j]
        g -= self.rows["offsets"][:, rows]
        return g


# ---------------------------------------------------------------------------
# recording


def _code_type(n_codes: int) -> np.dtype:
    """The smallest signed integer type that holds the codes _MODE_UNSET .. n_codes - 1."""
    return np.min_scalar_type(-max(n_codes, -_MODE_UNSET))


class _Recorder:
    """A run's output slots and expectation-identity terms, one column per path.

    The mode, position and terminal slots, phi(X_0), and per output time
    phi(X_t), the integral of L phi and the jump sum, for every registered
    test function.  The running integrals have one entry per row in flight
    and follow the engine's rows through `admit`.  Jump events are collected
    when `events` is set.

    The slots are the only memory that grows with the paths, so the codes
    take the narrowest types that hold them: mode and terminal codes are
    int8 unless the model has more than 128 modes or terminal states, and
    each path's output cursor is uint8 up to 255 output times.  Per path
    that is n_out * (8d + 2) + 1 bytes at those widths.
    """

    def __init__(self, model, n_out, n_paths, test_functions=(), events=False):
        self.model, self.n_out = model, n_out
        self.phis = list(test_functions)
        self.jumps = [] if events else None
        self.mode_at = np.full((n_out, n_paths), _MODE_UNSET, dtype=_code_type(len(model.modes)))
        self.pos_at = np.full((n_out, n_paths, model.dimension), np.nan)
        self.term_at = np.full((n_out, n_paths), -1, dtype=_code_type(len(model.terminal_states)))
        self.out_pos = np.zeros(n_paths, dtype=np.min_scalar_type(n_out))
        self.phi0 = np.zeros((len(self.phis), n_paths))
        self.phi_t, self.intL_at, self.jsum_at = np.zeros((3, len(self.phis), n_out, n_paths))
        self.cols = np.zeros(0, dtype=np.int64)
        self.intL = self.jsum = np.zeros((len(self.phis), 0))

    def _value(self, k, modes, positions, terminals):
        """phi_k evaluated on a mixed batch of in-mode and terminal states."""
        phi = self.phis[k]
        vals = _by_mode(phi.evaluate, modes, positions)
        term_sel = modes == _MODE_TERMINAL
        vals[term_sel] = [phi.terminal_value(self.model.terminal_states[t]) for t in terminals[term_sel]]
        return vals

    def admit(self, keep, cols, mode, pos, term):
        """Keep the rows where keep is set and append rows for the paths of columns cols."""
        fresh = np.zeros((len(self.phis), cols.size))
        self.cols = np.concatenate([self.cols[keep], cols])
        self.intL, self.jsum = (np.concatenate([a[:, keep], fresh], axis=1) for a in (self.intL, self.jsum))
        for k in range(len(self.phis)):
            self.phi0[k, cols] = self._value(k, mode, pos, term)

    def segments(self, mode, start, end, length, crossed, frac, hit_pts):
        """Trapezoid rule for the integral of L phi over each row's step,
        truncated at the hit point on crossing rows."""
        if not self.phis:
            return
        if crossed.size:
            end, length = end.copy(), length.copy()
            end[crossed] = hit_pts
            length[crossed] = frac * length[crossed]
        for k, phi in enumerate(self.phis):
            seg_L = _by_mode(phi.generator, mode, start) + _by_mode(phi.generator, mode, end)
            self.intL[k] += 0.5 * seg_L * length

    def reset(self, rows, q, f, pts, tau, target, image):
        """Jump sums and jump events of one (mode, face) group of resets at
        hit points pts and times tau; image is None for a terminal exit."""
        for k, phi in enumerate(self.phis):
            after = phi.terminal_value(target.terminal) if image is None else phi.evaluate(target.mode, image)
            self.jsum[k, rows] += after - phi.evaluate(q, pts)
        if self.jumps is not None:
            for j, tau_j in enumerate(tau.tolist()):
                state = (PathState.at_terminal(target.terminal, tau_j) if image is None
                         else PathState.in_mode(target.mode, image[j], tau_j))
                self.jumps.append(JumpEvent(tau_j, q, f, pts[j].copy(), state))

    def record(self, rows, mode, pos, term, to_end=False):
        """Fill the next output slot of the given batch rows.

        With to_end, fill every remaining slot instead: dead paths keep their
        state for every remaining output time.
        """
        cols = self.cols[rows]
        # the cursor is stored narrow; the slot arithmetic below must not wrap
        first = self.out_pos[cols].astype(np.int64)
        counts = self.n_out - first if to_end else np.ones_like(first)
        # one entry per (row, slot): row i fills slots first[i] .. first[i] + counts[i] - 1
        rep = np.repeat(np.arange(first.size), counts)
        slots = np.arange(rep.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        at, at_cols = rows[rep], cols[rep]
        self.mode_at[slots, at_cols] = mode[at]
        self.pos_at[slots, at_cols] = pos[at]
        self.term_at[slots, at_cols] = term[at]
        for k in range(len(self.phis)):
            self.phi_t[k, slots, at_cols] = self._value(k, mode[rows], pos[rows], term[rows])[rep]
            self.intL_at[k, slots, at_cols] = self.intL[k, at]
            self.jsum_at[k, slots, at_cols] = self.jsum[k, at]
        self.out_pos[cols] = first + counts

    def blocks(self, lo: int, hi: int) -> list:
        """Contiguous views that together hold columns lo .. hi - 1 of every
        output slot, in the same order for any recorder of the run: one view
        per row of each slot array, seen as rows of paths."""
        n, d = self.out_pos.size, self.pos_at.shape[2]
        views = []
        for arr, w in ((self.pos_at, d), (self.mode_at, 1), (self.term_at, 1), (self.phi0, 1),
                       (self.phi_t, 1), (self.intL_at, 1), (self.jsum_at, 1)):
            views += list(arr.reshape(-1, n * w)[:, lo * w : hi * w])
        return views


def _check_time_grid(horizon: float, dt: float):
    if not 0.0 < dt < np.inf:
        raise SimulationError(f"dt must be positive and finite, got {dt}")
    if not 0.0 < horizon < np.inf:
        raise SimulationError(f"horizon must be positive and finite, got {horizon}")


def _check_start(model: HybridModel, mode, point) -> None:
    """A start mode of the model and a point of its dimension."""
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)) or not 0 <= mode < len(model.modes):
        raise SimulationError(f"start mode must be an integer in [0, {len(model.modes)}), got {mode!r}")
    if point.size != model.dimension:
        raise SimulationError(f"start point must have {model.dimension} coordinates, got {point.size}")


def _checkpoints(horizon: float, dt: float, output_times: Sequence[float]):
    """Sorted checkpoints: the step grid k*dt, the output times and the horizon.

    An output time within _SNAP_REL * dt of a grid point or of the horizon is
    snapped onto the nearest of them, and a grid point other than t = 0 that
    close to the horizon is dropped, so no two checkpoints are a
    rounding-sized step apart unless the horizon itself is that short; t = 0
    stays at 0 however short the horizon.  Returns the checkpoints (the
    first is t = 0) and the checkpoint index of each output time.
    """
    times = np.asarray(output_times, dtype=float)
    if not np.all((times >= 0.0) & (times <= horizon + 1e-12)):
        raise SimulationError("output times must lie inside [0, horizon]")
    snap = _SNAP_REL * dt
    grid = np.arange(0.0, horizon, dt)
    grid = grid[(grid < horizon - snap) | (grid == 0.0)]
    ends = np.append(grid, horizon)
    k = np.clip(np.searchsorted(ends, times), 1, grid.size)   # times lie between ends[k - 1] and ends[k]
    nearest = np.where(times - ends[k - 1] <= ends[k] - times, ends[k - 1], ends[k])
    times = np.where(np.abs(times - nearest) <= snap, nearest, times)
    points = np.unique(np.concatenate([grid, times, [horizon]]))
    return points, np.searchsorted(points, times)


# ---------------------------------------------------------------------------
# per-path streams: numpy's SeedSequence([base_seed, i]) hashing, vectorised
# over the path indices i (constants from numpy/random/bit_generator.pyx)

_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """numpy's hashmix on uint32 word arrays, with its running constant."""

    def hashmix(words):
        nonlocal const
        words = words ^ np.uint32(const)
        const = const * mult & _MASK32
        words = words * np.uint32(const)
        return words ^ (words >> np.uint32(16))

    return hashmix


def _mix(x, y):
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> np.uint32(16))


def _pcg_seeds(base_seed: int, idx: np.ndarray) -> np.ndarray:
    """`SeedSequence([base_seed, i]).generate_state(4, np.uint64)` for each i in idx.

    numpy's 4-word entropy pool, hashed in uint32 arithmetic over all indices
    at once: base_seed enters as its little-endian 32-bit words, each index
    (below 2**32) as one word.
    """
    base_seed = int(base_seed)
    shifts = range(0, max(base_seed.bit_length(), 1), 32)
    entropy = [np.full(idx.size, base_seed >> s & _MASK32, dtype=np.uint32) for s in shifts]
    entropy.append(idx.astype(np.uint32))
    entropy += [np.zeros(idx.size, dtype=np.uint32)] * (4 - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashout = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashout(pool[k % 4]) for k in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _streams(base_seed: int, idx: np.ndarray) -> list:
    """`default_rng(SeedSequence([base_seed, i]))` for each i in idx, seeded in one pass."""
    # numpy.random loads here rather than at package import
    from numpy.random.bit_generator import ISeedSequence

    class Seeds(ISeedSequence):  # numpy's protocol for handing a bit generator its seed words
        __slots__ = ("rows", "taken")

        def __init__(self, rows):
            self.rows, self.taken = rows, 0

        def generate_state(self, n_words, dtype=np.uint32):
            # each PCG64 asks once, so the streams take the rows in order
            self.taken += 1
            return self.rows[self.taken - 1]

    seeds = Seeds(_pcg_seeds(base_seed, idx))
    gens = [np.random.Generator(np.random.PCG64(seeds)) for _ in range(idx.size)]
    seeds.rows = None  # each stream holds seeds but has taken its words
    return gens


def _check_counts(base_seed, first_index, n_paths, zeno_cap, batch_size=1) -> None:
    """Integer run inputs, bools refused: stream keys (seed >= 0, path indices
    first_index .. first_index + n_paths - 1 below 2**32), jump cap and batch size >= 1."""
    for name, value, lo in (("seed", base_seed, 0), ("path index", first_index, 0), ("n_paths", n_paths, 0),
                            ("zeno_cap", zeno_cap, 1), ("batch_size", batch_size, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
            raise SimulationError(f"{name} must be an integer >= {lo}, got {value!r}")
    last = int(first_index) + int(n_paths) - 1
    if last >= 2**32:
        raise SimulationError(f"path index must be below 2**32, got {last}")


# ---------------------------------------------------------------------------
# the path engine


def _width(initial_law, d: int, width) -> int:
    """Paths in flight: width, or by default as many rows (the initial law's
    normals and one chunk of steps) as _NOISE_BUDGET holds."""
    n_init = initial_law.mean.size if isinstance(initial_law, GaussianInitial) else 0
    return width or _NOISE_BUDGET // (8 * (n_init + _CHUNK_STEPS * d))


def _run(model: HybridModel, initial_law, paths, base_seed, checkpoints, out_of_cp, zeno_cap,
         rec: _Recorder, width):
    """Advance the paths of the index range paths into rec's columns 0, 1, ...,
    at most width in flight (None: as many as _NOISE_BUDGET holds) and admitted
    in index order as rows die.

    out_of_cp maps each checkpoint to its output slot (-1 for none).  A row
    that dies (a terminal exit, the jump cap, or the horizon) takes a negative
    mode and a NaN position, so it never crosses or arrives again.  Its state,
    codes, running integral and jump sum are then final, so the rows that died
    since the last refill fill their remaining output slots in one record at
    the next refill, and once more at the end.  A terminal exit takes its
    terminal code from the reset tables and counts no jump; its hit point and
    time are computed only when the recorder reads them (test functions or
    jump events).
    """
    d = model.dimension
    lo_idx, hi_idx = paths
    gaussian = isinstance(initial_law, GaussianInitial)
    _check_start(model, initial_law.mode, initial_law.mean if gaussian else initial_law.position)
    n_init = initial_law.mean.size if gaussian else 0
    # a path's initial-law normals and its first noise chunk come from one
    # draw call; split draws concatenate, so the stream layout is unchanged
    width = min(_width(initial_law, d, width), hi_idx - lo_idx)
    draws = np.zeros((width, n_init + _CHUNK_STEPS * d))
    kernel = _Kernel(model)
    reads = bool(rec.phis) or rec.jumps is not None   # hit points and times of every crossing

    # path state per row; a dead row stays until the next refill
    gens, queued = [], lo_idx
    mode, pos = np.zeros(0, dtype=np.int64), np.zeros((0, d))
    term, n_jumps, next_cp = mode, mode, mode
    # rows that a jump left between checkpoints, and their times; every other
    # live row sits on checkpoint next_cp - 1 (or at t = 0 when next_cp is 1)
    off, off_t = mode, np.zeros(0)

    n_cp = len(checkpoints)
    # tables by next checkpoint c, padded for dead rows, which step on past the
    # horizon until the refill: stop_at[c], whether an arrival at checkpoint
    # c - 1 does work (an output time or the horizon); ahead[c], the checkpoint
    # a row steps to; steps[c] and roots[c], the length of a step from the grid
    # and its square root
    n_tab = n_cp + _CHUNK_STEPS + 1
    stop_at = np.zeros(n_tab, dtype=bool)
    stop_at[1 : n_cp + 1] = out_of_cp >= 0
    stop_at[n_cp] = True
    ahead = checkpoints[np.minimum(np.arange(n_tab), n_cp - 1)]
    steps = ahead - np.concatenate([[0.0, 0.0], ahead[1:-1]])
    roots = np.sqrt(steps)
    cursor = n_dead = 0

    while queued < hi_idx or n_dead < mode.size:
        if cursor == _CHUNK_STEPS * d or n_dead == mode.size:
            # no live row holds unread noise, so the dead rows go now, the live
            # rows move to the front and the next queued paths take the free rows
            keep = mode >= 0
            if n_dead:
                rec.record(np.flatnonzero(~keep), mode, pos, term, to_end=True)
            if off.size:
                off = np.cumsum(keep)[off] - 1
            gens = list(compress(gens, keep))
            live = len(gens)
            for row, gen in zip(draws[:, n_init:], gens):
                gen.standard_normal(out=row)
            new = np.arange(queued, min(queued + width - live, hi_idx))
            queued += new.size
            gens += _streams(base_seed, new)
            for row, gen in zip(draws[live:], gens[live:]):
                gen.standard_normal(out=row)
            new_mode = np.full(new.size, initial_law.mode, dtype=np.int64)
            if gaussian:
                new_pos = initial_law.mean + initial_law.std * draws[live : live + new.size, :n_init]
            else:
                new_pos = np.tile(initial_law.position, (new.size, 1))
            if not np.all(model.modes[initial_law.mode].domain.gaps(new_pos) < 0.0):
                raise StartOnBoundary(f"initial law produced points not strictly inside mode {initial_law.mode}")
            zero = np.zeros(new.size, dtype=np.int64)
            mode, pos, term, n_jumps, next_cp = (
                np.concatenate([row[keep], add]) for row, add in zip(
                    (mode, pos, term, n_jumps, next_cp), (new_mode, new_pos, zero - 1, zero, zero + 1),
                )
            )
            kernel.admit(keep, new_mode)
            rec.admit(keep, new - lo_idx, new_mode, new_pos, term[live:])
            if out_of_cp[0] >= 0:
                rec.record(np.arange(live, mode.size), mode, pos, term)
            buf = draws[: mode.size, n_init:]  # noise chunk, one row per state row
            cursor = n_dead = 0
        xi = buf[:, cursor : cursor + d]
        cursor += d

        delta, sqrt_delta = steps[next_cp], roots[next_cp]
        if off.size:
            delta[off] = ahead[next_cp[off]] - off_t
            sqrt_delta[off] = np.sqrt(delta[off])
        start_pos = pos
        theta_new = kernel.propose(mode, start_pos, delta, sqrt_delta, xi)

        # crossing fractions only for the paths that left the domain; a dead
        # row steps from NaN, so it never crosses
        ge = kernel.gaps(theta_new)
        crossed = np.flatnonzero(np.logical_or.reduce(ge >= 0.0, axis=0))
        rows, s, hit_pts = crossed, None, None
        if crossed.size:
            start = start_pos[crossed]
            s, faces = _first_crossing(kernel.gaps(start, crossed).T, ge[:, crossed].T)
            keys = mode[crossed] * kernel.f_max + faces
            post = kernel.post_mode[keys]
            exits = post == _MODE_TERMINAL
            any_exit = exits.any()
            if any_exit:
                gone, gone_term = crossed[exits], kernel.post_term[keys[exits]]
            # hit points and jump times of the surface hits, and of the terminal
            # exits when the recorder reads them
            if any_exit and not reads:
                jumped = ~exits
                rows = crossed[jumped]
                if rows.size:
                    s, start, keys = s[jumped], start[jumped], keys[jumped]
            if rows.size:
                length, landing = delta[rows], ahead[next_cp[rows]]
                hit_pts = start + s[:, None] * (theta_new[rows] - start)
                tau = (landing - length) + s * length
        rec.segments(mode, start_pos, theta_new, delta, rows, s, hit_pts)

        # commit the common case: land exactly on the next checkpoint
        pos = theta_new
        next_cp += 1

        off = crossed[:0]
        if crossed.size:
            mode[crossed] = post
            n_dead += crossed.size   # less the surface hits that stay live, below
            if any_exit:
                term[gone] = gone_term
                pos[gone] = np.nan
        if rows.size:
            # images, jump sums and jump events go by (mode, face) group, in that order
            for key in np.unique(keys).tolist():
                q, f = divmod(key, kernel.f_max)
                sel = np.flatnonzero(keys == key)
                pts = _onto_face(model.modes[q].domain, f, hit_pts[sel])
                target, image = _reset(model, q, f, pts)
                if image is not None:
                    pos[rows[sel]] = image
                rec.reset(rows[sel], q, f, pts, tau[sel], target, image)
            hits, hit_tau = rows, tau
            if any_exit and reads:
                surface = ~exits
                hits, hit_tau, landing = rows[surface], tau[surface], landing[surface]
            # zeno guard: paths that exhausted their jump budget are parked
            n_jumps[hits] += 1
            capped = n_jumps[hits] >= zeno_cap
            if capped.any():
                mode[hits[capped]] = _MODE_ZENO
                pos[hits[capped]] = np.nan
                kept = ~capped
                hits, hit_tau, landing = hits[kept], hit_tau[kept], landing[kept]
            kernel.update_rows(hits, mode[hits])
            n_dead -= hits.size
            # a jump landing on (or an ulp past) its checkpoint arrives there;
            # the others stay between checkpoints for one step
            early = hit_tau < landing
            off, off_t = hits[early], hit_tau[early]
            next_cp[off] -= 1

        # checkpoint arrivals: every live row whose step was not cut short; rows
        # admitted at different refills sit at different checkpoints, so only
        # the rows arriving at a stop checkpoint are read
        arr_mask = stop_at[next_cp]
        if np.any(arr_mask):
            arr_mask &= mode >= 0
            arr_mask[off] = False
            arrivals = np.flatnonzero(arr_mask)
            arrived = next_cp[arrivals] - 1
            with_out = arrivals[out_of_cp[arrived] >= 0]
            if with_out.size:
                rec.record(with_out, mode, pos, term)
            done = arrivals[arrived == n_cp - 1]
            mode[done] = _MODE_UNSET
            pos[done] = np.nan
            n_dead += done.size
    rec.record(np.arange(mode.size), mode, pos, term, to_end=True)


# ---------------------------------------------------------------------------
# path ranges in separate processes


# A split is held to what was measured on two cores: a spawned worker takes
# about 0.3 s and 72 MB to start, so it pays only on ranges of at least one
# working set and _MIN_RANGE_STEPS nominal path-steps (paths x grid steps),
# twice the break-even of about 5e6 measured on the ruin and thermostat
# ensembles; more than _MAX_RANGES processes have not been measured.  The
# threshold still guards a process's first split, which pays that start; a
# lower one for a started worker would need measuring of its own.
_MAX_RANGES = 2
_MIN_RANGE_STEPS = 10_000_000


def _read_words(*names: str) -> list | None:
    """The whitespace-separated words of the named files, None if one cannot be read."""
    words = []
    try:
        for name in names:
            with open(name) as f:
                words += f.read().split()
    except OSError:
        return None
    return words


def _usable_cores() -> int:
    """CPUs this process may use: its affinity set, bounded by the CPU quota
    of its cgroup (v2 `cpu.max`, else v1 `cpu.cfs_quota_us`), read in the
    process's own group and else at the root of the mount, which is the
    group a container sees as its own."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    groups = {}
    for line in _read_words("/proc/self/cgroup") or ():   # "id:controllers:path"
        _, names, path = line.split(":", 2)
        groups.update(dict.fromkeys(names.split(","), path))
    v2 = [(f"/sys/fs/cgroup{p}/cpu.max",) for p in (groups.get(""), "") if p is not None]
    v1 = [(f"/sys/fs/cgroup/cpu{p}/cpu.cfs_quota_us", f"/sys/fs/cgroup/cpu{p}/cpu.cfs_period_us")
          for p in (groups.get("cpu"), "") if p is not None]
    for files in v2 + v1:
        words = _read_words(*files)
        if words:
            if words[0] not in ("max", "-1"):   # quota and period, in microseconds
                cores = min(cores, max(1, int(words[0]) // int(words[1])))
            break
    return cores


def _range_count(n_paths: int, width: int, n_steps: int) -> int:
    """How many contiguous ranges an ensemble of n_paths paths of n_steps
    grid steps, with a working set of width rows, runs as."""
    return max(1, min(_usable_cores(), _MAX_RANGES, n_paths // width, n_paths * n_steps // _MIN_RANGE_STEPS))


def _run_part(job: tuple, lo: int, hi: int, base_seed: int) -> _Recorder:
    """Run paths lo .. hi - 1 of job into a recorder of their own."""
    model, initial_law, checkpoints, out_of_cp, zeno_cap, phis, width = job
    rec = _Recorder(model, int(np.count_nonzero(out_of_cp >= 0)), hi - lo, phis)
    _run(model, initial_law, (lo, hi), base_seed, checkpoints, out_of_cp, zeno_cap, rec, width)
    return rec


def _run_ranges(job: tuple, n_paths: int, base_seed: int, rec: _Recorder, n_parts: int) -> None:
    """Run paths 0 .. n_paths - 1 of job into rec as n_parts contiguous index ranges.

    job is (model, initial law, checkpoints, out_of_cp, zeno_cap, test
    functions, width).  This process runs the first range into rec; each
    other range runs in a worker process of `_workers`, whose output slots
    arrive block by block in rec's columns of that range.  A job that does
    not pickle (a lambda in a field or test function), an ensemble in a
    daemon process, or one while another thread holds the workers, runs
    here as one range; a range whose worker cannot load the job (functions
    of an interactive `__main__`) runs here after the first.  A worker's
    exception is raised here.  A run that fails in any way drops the
    workers, so no reply of it reaches a later run.
    """
    model, initial_law, checkpoints, out_of_cp, zeno_cap, _, width = job
    bounds = [0, n_paths]
    if n_parts > 1:
        import multiprocessing
        import pickle

        try:
            blob = pickle.dumps(job)
        except (pickle.PicklingError, AttributeError, TypeError):
            blob = None
        # a daemon process may not start processes of its own, and another thread may hold the workers
        if blob is not None and not multiprocessing.current_process().daemon and _workers_lock.acquire(blocking=False):
            bounds = [n_paths * i // n_parts for i in range(n_parts + 1)]
    if len(bounds) == 2:
        _run(model, initial_law, (0, n_paths), base_seed, checkpoints, out_of_cp, zeno_cap, rec, width)
        return
    try:
        # a worker keeps the code it unpickled: a module reloaded since the last split has a new
        # spec, read from the module's dict so that a lazily loaded module is not loaded here
        specs = {name: object.__getattribute__(module, "__dict__").get("__spec__")
                 for name, module in list(sys.modules.items()) if isinstance(module, ModuleType)}
        reloaded = any(_specs.get(name, spec) is not spec for name, spec in specs.items())
        if reloaded or not all(proc.is_alive() for proc, _ in _workers):
            _drop_workers()
        _specs.update(specs)
        ctx = multiprocessing.get_context("spawn")
        while len(_workers) < n_parts - 1:
            conn, child_end = ctx.Pipe()
            proc = ctx.Process(target=_range_worker, args=(child_end,), daemon=True)
            with child_end:   # the worker holds the only other copy, so it sees this process exit
                proc.start()
            _workers.append((proc, conn))
        ranges = list(zip(_workers, bounds[1:-1], bounds[2:]))
        for (_, conn), lo, hi in ranges:
            try:
                conn.send((blob, lo, hi, base_seed))
            except ConnectionError:   # a worker that died is named below, when its reply is read
                pass
        _run(model, initial_law, (0, bounds[1]), base_seed, checkpoints, out_of_cp, zeno_cap, rec, width)
        for (proc, conn), lo, hi in ranges:
            try:
                reply = conn.recv()
                if reply is None:
                    for block in rec.blocks(lo, hi):
                        conn.recv_bytes_into(block)
            except (EOFError, ConnectionError):   # reset if it died before it read the job
                proc.join()
                raise SimulationError(
                    f"the worker for paths {lo} .. {hi - 1} exited with code {proc.exitcode} before it replied"
                ) from None
            if reply == _UNLOADED:
                part = _run_part(job, lo, hi, base_seed)
                for mine, its in zip(rec.blocks(lo, hi), part.blocks(0, hi - lo)):
                    mine[...] = its
            elif reply is not None:
                raise _worker_error(*reply, lo, hi)
    except BaseException:
        _drop_workers()
        raise
    finally:
        _workers_lock.release()


# This process's idle range workers, (process, connection) pairs, and the
# module specs at the last split; the split that holds the lock runs its n
# ranges on the first n - 1.
_workers: list = []
_specs: dict = {}
_workers_lock = threading.Lock()


def _drop_workers() -> None:
    """Terminate, join and forget this process's range workers."""
    for proc, conn in _workers:
        proc.terminate()
        proc.join()
        conn.close()
    _workers.clear()


def _forget_workers() -> None:
    """In a forked child: close the pipes of the parent's range workers and
    forget them, without stopping them."""
    global _workers, _workers_lock
    if _workers:
        # the child's exit terminates the daemons in this private set (tested
        # on Python 3.11; without it the parent's next split starts a new one)
        children = getattr(sys.modules["multiprocessing.process"], "_children", set())
        for proc, conn in _workers:
            children.discard(proc)
            conn.close()
    _workers, _workers_lock = [], threading.Lock()   # a thread of the parent may have held the lock


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


_UNLOADED = "job not loaded"  # a worker's reply when it cannot unpickle the job


def _worker_error(blob: bytes | None, text: str, lo: int, hi: int) -> BaseException:
    """The exception a worker raised, rebuilt from its pickle with the
    worker's traceback as its cause; a SimulationError carrying that
    traceback when it did not pickle or does not rebuild here."""
    import pickle

    where = f"the worker for paths {lo} .. {hi - 1}"
    try:
        exc = pickle.loads(blob)
    except Exception:  # noqa: BLE001 - any failure to rebuild falls back to the text
        return SimulationError(f"{where} raised an exception that cannot be rebuilt here:\n{text}")
    exc.__cause__ = SimulationError(f"traceback in {where}:\n{text}")
    return exc


def _range_worker(conn) -> None:
    """Worker process: until the caller's end of conn closes, run paths
    lo .. hi - 1 of each pickled job (blob, lo, hi, base_seed) it sends,
    then send None and the output blocks, (the pickled exception that
    stopped the run or None if it does not pickle, its formatted
    traceback), or _UNLOADED when the job does not unpickle here."""
    import pickle
    import traceback

    with conn:
        while True:
            blob = job = rec = block = None   # nothing of a job is kept while the next is awaited
            try:
                blob, lo, hi, base_seed = conn.recv()
            except (EOFError, KeyboardInterrupt):   # a Ctrl-C reaches the whole process group
                return
            try:
                job = pickle.loads(blob)
            except Exception:  # noqa: BLE001 - the caller runs the range instead
                conn.send(_UNLOADED)
                continue
            try:
                rec = _run_part(job, lo, hi, base_seed)
            except Exception as exc:  # noqa: BLE001 - raised again by the caller
                try:
                    raised = pickle.dumps(exc)
                except Exception:  # noqa: BLE001 - the caller raises the traceback instead
                    raised = None
                conn.send((raised, traceback.format_exc()))
                continue
            conn.send(None)
            for block in rec.blocks(0, hi - lo):
                conn.send_bytes(block)


# ---------------------------------------------------------------------------
# public entry points


def simulate_path(
    model: HybridModel,
    initial: PathState,
    horizon: float,
    dt: float,
    rng_seed: int,
    zeno_cap: int | None = None,
    path_index: int = 0,
) -> Trajectory:
    """One trajectory sampled on the dt grid, with its jump events.

    The RNG stream is the one trajectory `path_index` would receive inside
    `ensemble(base_seed=rng_seed, ...)`.
    """
    _check_time_grid(horizon, dt)
    if zeno_cap is None:
        zeno_cap = default_zeno_cap(horizon)
    _check_counts(rng_seed, path_index, 1, zeno_cap)

    checkpoints, _ = _checkpoints(horizon, dt, [])
    n_cp = len(checkpoints)

    if initial.terminal is not None:
        # terminal initial states stay put (no dynamics, no jumps)
        modes = np.full(n_cp, _MODE_TERMINAL, dtype=np.int64)
        positions = np.full((n_cp, model.dimension), np.nan)
        return Trajectory(checkpoints, modes, positions, [], initial.terminal, initial.time)

    rec = _Recorder(model, n_cp, 1, events=True)
    _run(
        model, PointMass(initial.mode, initial.position), (path_index, path_index + 1), rng_seed,
        checkpoints, np.arange(n_cp), zeno_cap, rec, 1,
    )
    modes = rec.mode_at[:, 0].astype(np.int64)
    positions = rec.pos_at[:, 0]
    positions[modes < 0] = np.nan
    # the last jump tells how the path was absorbed, if it was
    end = rec.jumps[-1].post if rec.jumps else initial
    return Trajectory(
        checkpoints, modes, positions, rec.jumps, terminal_id=end.terminal,
        terminal_time=end.time if end.terminal is not None else None,
        zeno_flag=bool(modes[-1] == _MODE_ZENO),
    )


def ensemble(
    model: HybridModel,
    initial_law,
    n_paths: int,
    horizon: float,
    dt: float,
    output_times: Sequence[float],
    base_seed: int,
    zeno_cap: int | None = None,
    test_functions: Sequence = (),
    batch_size: int | None = None,
) -> EmpiricalMeasure:
    """Independent trajectories with per-path streams, admitted in index order
    into a working set of at most batch_size paths in flight (by default as
    many as the noise budget holds, about 24,000 in 1D).

    An ensemble that holds, per range, at least one working set and 1e7
    nominal path-steps (paths x grid steps) is split into
    min(usable cores, 2, floor(n_paths / batch_size),
    floor(n_paths * steps / 1e7)) contiguous path ranges: this process runs
    the first and a worker process (the `spawn` start method) runs the
    other, so a script that calls this at top level needs the
    `if __name__ == "__main__":` guard.  The worker is started by the
    first split and kept, idle, for later ones until this process exits or
    an ensemble fails; after `importlib.reload` of a module here the next
    split starts a new one, which runs the reloaded code.  Usable cores
    are the affinity set bounded by the cgroup CPU quota.  When the model,
    initial law or test functions do not pickle (a lambda, say), every
    range runs here.  A worker's exception is raised here with its type
    and message and the worker's traceback as its cause.

    Identical inputs give bit-identical measures for any batch size and any
    number of processes.  Zeno-flagged paths are counted separately and
    excluded from the mode clouds and terminal counts.
    """
    _check_time_grid(horizon, dt)
    if zeno_cap is None:
        zeno_cap = default_zeno_cap(horizon)
    _check_counts(base_seed, 0, n_paths, zeno_cap, 1 if batch_size is None else batch_size)
    out_times = np.asarray(sorted(output_times), dtype=float)
    if out_times.size == 0:
        raise SimulationError("at least one output time is required")

    checkpoints, out_idx = _checkpoints(horizon, dt, out_times)
    if np.unique(out_idx).size < out_idx.size:
        raise SimulationError("output times must be distinct")
    out_of_cp = np.full(len(checkpoints), -1, dtype=np.int64)
    out_of_cp[out_idx] = np.arange(out_idx.size)
    n_out = out_times.size

    rec = _Recorder(model, n_out, n_paths, test_functions)
    if n_paths:
        width = _width(initial_law, model.dimension, batch_size)
        job = (model, initial_law, checkpoints, out_of_cp, zeno_cap, rec.phis, width)
        _run_ranges(job, n_paths, base_seed, rec, _range_count(n_paths, width, len(checkpoints) - 1))

    mode_at, names = rec.mode_at, model.terminal_states
    mode_clouds, terminal_counts = [], []
    for k in range(n_out):
        # boolean indexing copies, so no cloud holds on to the slots
        mode_clouds.append([rec.pos_at[k][mode_at[k] == q] for q in range(len(model.modes))])
        binc = np.bincount(rec.term_at[k][mode_at[k] == _MODE_TERMINAL], minlength=len(names))
        terminal_counts.append({names[i]: int(c) for i, c in enumerate(binc) if c > 0})
    zeno_counts = np.count_nonzero(mode_at == _MODE_ZENO, axis=1)

    dynkin = [
        DynkinRecord(rec.phi0[k], rec.phi_t[k], rec.intL_at[k], rec.jsum_at[k], mode_at != _MODE_ZENO, phi)
        for k, phi in enumerate(rec.phis)
    ]

    return EmpiricalMeasure(
        out_times, mode_clouds, terminal_counts, zeno_counts, n_paths, base_seed, dynkin
    )
