"""Pathwise Monte-Carlo engine for diffusions with boundary-hitting resets.

Paths follow an Euler-Maruyama update of the Ito form inside a mode; straight
segments are tested against the mode's faces, the earliest crossing is
projected onto its face, and the reset edge decides whether the path re-enters
a mode or is absorbed in a terminal state.  A cap on the jump count guards
against reset accumulation; capped paths are flagged and excluded from the
empirical measures they would otherwise enter.

Every trajectory draws from its own numpy PCG64 stream, seeded as
`SeedSequence([base_seed, trajectory_index])`, so ensembles reproduce
bit-for-bit regardless of batch size; the streams of a batch take their seed
words from one shared seed object.  A stream's draws are laid out as
follows: the initial law draws first, then step j uses normals
[j*d, (j+1)*d).  Normals are drawn in chunks of 64 steps for the live paths
only, into a buffer whose rows follow the state rows, so a step reads one
column block and noise memory is O(batch * 64 * d); a path's initial-law
normals share one draw call with its first chunk.  The hot loop advances all
live paths in lockstep: one proposal per iteration, landing exactly on the
next time-grid point unless a boundary crossing truncates it.  Dead paths
stay in the state arrays, marked by a negative mode, until the chunk is used
up; at the refill they are dropped with their streams, and the buffer
shrinks to a view of its first rows, never copied.  A 5,000-path gamblers'
ruin batch peaks at about 1.34 kB per path (tracemalloc).

One stepping kernel proposes steps, tests face gaps and looks up resets on
per-path rows of per-mode tables: every model's face geometry and reset
targets, plus the drift and noise coefficients when every drift is affine
and every noise column constant; other fields are stepped mode by mode.
Terminal exits apply in one pass; surface images go by (mode, face) group.
The loop only steps: one recorder per run owns every path's output slots,
the terms of the expectation identity (phi(X_0), phi(X_t), the integral of
L phi and the jump sums) and the jump events, and each batch writes into
its own columns of it.  The single-state `step`, `detect_hit` and
`apply_reset` share the engine's batched implementations on a batch of one,
and `simulate_path` runs the engine on a batch of one whose output times are
all its checkpoints.
"""

from __future__ import annotations

import ctypes
import mmap
import weakref
from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

import numpy as np

from resetsde.model import (
    AffineField,
    HybridModel,
    TerminalTarget,
    ito_drift,
)

_CHUNK_STEPS = 64  # steps of noise drawn per refill
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


@dataclass(frozen=True)
class PathState:
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


@dataclass(frozen=True)
class JumpEvent:
    time: float
    mode: int
    face: int
    point: np.ndarray
    post: PathState


@dataclass
class Trajectory:
    """One sample path on a fixed time grid plus its ordered jump events."""

    times: np.ndarray
    modes: np.ndarray            # >= 0 in-mode, -1 terminal, -2 zeno-truncated
    positions: np.ndarray        # NaN rows when not in a mode
    jumps: list
    terminal_id: str | None = None
    terminal_time: float | None = None
    zeno_flag: bool = False


@dataclass
class EmpiricalMeasure:
    """Per-output-time mode point clouds, terminal counts, and zeno exclusions."""

    times: np.ndarray
    mode_clouds: list            # [time][mode] -> (n_i, d) positions
    terminal_counts: list        # [time] -> {terminal: count}
    zeno_counts: np.ndarray
    size: int
    base_seed: int
    dynkin: list = field(default_factory=list)

    def time_index(self, t: float, tol: float = 1e-9) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[idx]) - t) > tol:
            raise KeyError(f"time {t} is not an output time of this measure")
        return idx

    def terminal_fraction(self, t: float, terminal: str) -> float:
        return self.terminal_counts[self.time_index(t)].get(terminal, 0) / self.size


@dataclass
class DynkinRecord:
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
        self.std = np.broadcast_to(np.asarray(std, dtype=float), self.mean.shape).copy()


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
    denom = np.where(crossing, gs - ge, 1.0)
    denom = np.where(denom == 0.0, 1.0, denom)
    frac = np.where(crossing, np.where(gs < 0.0, gs / denom, 0.0), np.inf)
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
    if dt <= 0.0:
        raise SimulationError("dt must be positive")
    increments = np.asarray(noise, dtype=float).reshape(-1)
    xi = np.zeros((1, max(model.dimension, increments.size)))
    xi[0, : increments.size] = increments
    modes = np.array([state.mode])
    kernel = _Kernel(model)
    kernel.attach(modes)
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
    row form and are stepped mode by mode.  A path's rows are refreshed only
    when it changes mode.  The reset tables, indexed by mode * f_max + face,
    hold the post-jump mode (_MODE_TERMINAL for an exit, _MODE_UNSET for a
    characteristic or padded face) and terminal index (-1 for none).
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
        self.tables = {key: np.array([row[key] for row in per_mode], dtype=float) for key in per_mode[0]}
        self.post_mode = np.full(len(model.modes) * f_max, _MODE_UNSET, dtype=np.int64)
        self.post_term = np.full(self.post_mode.size, -1, dtype=np.int64)
        for (q, f), i in model.face_edges.items():
            target = model.reset_edges[i].target
            terminal = isinstance(target, TerminalTarget)
            self.post_mode[q * f_max + f] = _MODE_TERMINAL if terminal else target.mode
            self.post_term[q * f_max + f] = model.terminal_states.index(target.terminal) if terminal else -1

    def attach(self, modes: np.ndarray) -> None:
        self.rows = {key: table[modes] for key, table in self.tables.items()}

    def update_rows(self, rows: np.ndarray, modes: np.ndarray) -> None:
        for key, table in self.tables.items():
            self.rows[key][rows] = table[modes]

    def compact(self, keep: np.ndarray) -> None:
        self.rows = {key: row[keep] for key, row in self.rows.items()}

    def propose(self, modes, theta, delta, sqrt_delta, xi):
        if not self.affine:
            # dead rows keep their positions, so the gap test reads no garbage
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
        out = np.empty_like(theta)
        for i in range(self.d):
            acc = b_off[:, i]
            for j in range(self.d):
                acc = acc + b_mat[:, i, j] * theta[:, j]
            acc = acc * delta
            for r in range(self.d):
                acc = acc + noise[:, i, r] * (xi[:, r] * sqrt_delta)
            out[:, i] = theta[:, i] + acc
        return out

    def gaps(self, points, rows=slice(None)):
        normals = self.rows["normals"][rows]
        g = normals[:, :, 0] * points[:, 0, None]
        for j in range(1, self.d):
            g += normals[:, :, j] * points[:, j, None]
        g -= self.rows["offsets"][rows]
        return g


# ---------------------------------------------------------------------------
# recording


class _Recorder:
    """A run's output slots and expectation-identity terms, one column per path.

    The mode, position and terminal slots, phi(X_0), and per output time
    phi(X_t), the integral of L phi and the jump sum, for every registered
    test function.  A batch opens with `start` at its first column; its
    running integrals have one entry per batch row and are compacted with
    the rows.  Jump events are collected when `events` is set.
    """

    def __init__(self, model, n_out, n_paths, test_functions=(), events=False):
        self.model, self.n_out = model, n_out
        self.phis = list(test_functions)
        self.jumps = [] if events else None
        self.mode_at = np.full((n_out, n_paths), _MODE_UNSET, dtype=np.int64)
        self.pos_at = np.full((n_out, n_paths, model.dimension), np.nan)
        self.term_at = np.full((n_out, n_paths), -1, dtype=np.int64)
        self.out_pos = np.zeros(n_paths, dtype=np.int64)
        self.phi0 = np.zeros((len(self.phis), n_paths))
        self.phi_t, self.intL_at, self.jsum_at = np.zeros((3, len(self.phis), n_out, n_paths))

    def _value(self, k, modes, positions, terminals):
        """phi_k evaluated on a mixed batch of in-mode and terminal states."""
        phi = self.phis[k]
        vals = _by_mode(phi.evaluate, modes, positions)
        term_sel = modes == _MODE_TERMINAL
        vals[term_sel] = [phi.terminal_value(self.model.terminal_states[t]) for t in terminals[term_sel]]
        return vals

    def start(self, col, mode, pos, term):
        """Open a batch whose rows fill columns col, col + 1, ..."""
        self.cols = col + np.arange(mode.size)
        self.intL, self.jsum = np.zeros((2, len(self.phis), mode.size))
        for k in range(len(self.phis)):
            self.phi0[k, self.cols] = self._value(k, mode, pos, term)

    def compact(self, keep):
        self.cols, self.intL, self.jsum = self.cols[keep], self.intL[:, keep], self.jsum[:, keep]

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
        first = self.out_pos[cols]
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


def _check_time_grid(horizon: float, dt: float):
    if not 0.0 < dt < np.inf:
        raise SimulationError(f"dt must be positive and finite, got {dt}")
    if not np.isfinite(horizon):
        raise SimulationError(f"horizon must be finite, got {horizon}")


def _checkpoints(horizon: float, dt: float, output_times: Sequence[float]):
    """Sorted checkpoints: the step grid k*dt, the output times and the horizon.

    An output time within _SNAP_REL * dt of a grid point or of the horizon is
    snapped onto it, and a grid point that close to the horizon is dropped,
    so no two checkpoints are a rounding-sized step apart.  Returns the
    checkpoints and the checkpoint index of each output time.
    """
    times = np.asarray(output_times, dtype=float)
    if not np.all((times >= 0.0) & (times <= horizon + 1e-12)):
        raise SimulationError("output times must lie inside [0, horizon]")
    snap = _SNAP_REL * dt
    grid = np.arange(0.0, horizon, dt)
    grid = grid[grid < horizon - snap]
    if grid.size:
        nearest = grid[np.minimum(np.rint(times / dt).astype(np.int64), grid.size - 1)]
        times = np.where(np.abs(times - nearest) <= snap, nearest, times)
    times = np.where(np.abs(times - horizon) <= snap, horizon, times)
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
    return [np.random.Generator(np.random.PCG64(seeds)) for _ in range(idx.size)]


def _own_pages(rows: int, cols: int) -> np.ndarray:
    """Zeroed floats on a mapping of their own, off the malloc heap (README: the noise
    buffer); while tracemalloc traces (Track returns 0), reported as numpy reports its buffers."""
    pages = mmap.mmap(-1, rows * cols * 8, flags=mmap.MAP_PRIVATE)
    out = np.frombuffer(pages).reshape(rows, cols)
    domain, addr = ctypes.c_uint(np.lib.tracemalloc_domain), ctypes.c_size_t(out.ctypes.data)
    if ctypes.pythonapi.PyTraceMalloc_Track(domain, addr, ctypes.c_size_t(out.nbytes)) == 0:
        weakref.finalize(pages, ctypes.pythonapi.PyTraceMalloc_Untrack, domain, addr)
    return out


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
# the batched engine


def _run_batch(model: HybridModel, initial_law, index_range, base_seed, checkpoints, out_of_cp, dt,
               zeno_cap, rec: _Recorder, col: int):
    """Advance the paths of index_range in lockstep into rec's columns col, col + 1, ...

    out_of_cp maps each checkpoint to its output slot (-1 for none).
    """
    d = model.dimension
    lo_idx, hi_idx = index_range
    batch = hi_idx - lo_idx
    gens = _streams(base_seed, np.arange(lo_idx, hi_idx))
    kernel = _Kernel(model)

    # a path's initial-law normals and its first noise chunk come from one
    # draw call; split draws concatenate, so the stream layout is unchanged
    gaussian = isinstance(initial_law, GaussianInitial)
    n_init = initial_law.mean.size if gaussian else 0
    draws = _own_pages(batch, n_init + _CHUNK_STEPS * d)
    for row, gen in zip(draws, gens):
        gen.standard_normal(out=row)
    buf = draws[:, n_init:]  # noise chunk, one row per state row
    cursor = 0

    # path state per row; a dead row has a negative mode until it is compacted away
    mode = np.full(batch, initial_law.mode, dtype=np.int64)
    pos = np.zeros((batch, d))
    if gaussian:
        pos[:] = initial_law.mean + initial_law.std * draws[:, :n_init]
    else:
        pos[:] = initial_law.position
    if not np.all(model.modes[initial_law.mode].domain.contains(pos)):
        raise SimulationError(f"initial law produced points outside mode {initial_law.mode}")
    kernel.attach(mode)

    t = np.zeros(batch)
    term = np.full(batch, -1, dtype=np.int64)
    n_jumps = np.zeros(batch, dtype=np.int64)
    next_cp = np.ones(batch, dtype=np.int64)

    rec.start(col, mode, pos, term)
    if out_of_cp[0] >= 0:
        rec.record(np.arange(batch), mode, pos, term)

    n_cp = len(checkpoints)
    # checkpoints where an arrival does work: output times and the horizon
    is_stop = out_of_cp >= 0
    is_stop[-1] = True
    n_dead = 0

    while n_dead < mode.size:
        if cursor == buf.shape[1]:
            if n_dead:
                # the buffer holds no unread noise, so the dead rows go now: the
                # live rows move to the front and the buffer shrinks to a view
                keep = mode >= 0
                gens = list(compress(gens, keep))
                buf = buf[: len(gens)]
                n_dead = 0
                mode, pos, t, term, n_jumps, next_cp = (
                    row[keep] for row in (mode, pos, t, term, n_jumps, next_cp)
                )
                kernel.compact(keep)
                rec.compact(keep)
            for row, gen in zip(buf, gens):
                gen.standard_normal(out=row)
            cursor = 0
        xi = buf[:, cursor : cursor + d]
        cursor += d

        # dead rows step too, but never cross or arrive; past the horizon
        # they stay on the last checkpoint
        cps = checkpoints[np.minimum(next_cp, n_cp - 1)]
        delta = cps - t
        sqrt_delta = np.sqrt(delta)
        start_pos = pos
        theta_new = kernel.propose(mode, start_pos, delta, sqrt_delta, xi)

        # crossing fractions only for the paths that actually left the domain
        ge = kernel.gaps(theta_new)
        # a loop over the few face columns is ~5x faster than np.any(axis=1)
        hit = ge[:, 0] >= 0.0
        for k in range(1, ge.shape[1]):
            hit |= ge[:, k] >= 0.0
        crossed = np.flatnonzero(hit & (mode >= 0))
        s = hit_pts = None
        if crossed.size:
            gs = kernel.gaps(start_pos[crossed], crossed)
            s, faces = _first_crossing(gs, ge[crossed])
            hit_pts = start_pos[crossed] + s[:, None] * (theta_new[crossed] - start_pos[crossed])
        rec.segments(mode, start_pos, theta_new, delta, crossed, s, hit_pts)

        # commit the common case: land exactly on the next checkpoint
        pos = theta_new
        t = cps
        next_cp += 1

        resync = np.empty(0, dtype=np.int64)
        if crossed.size:
            tau = (t[crossed] - delta[crossed]) + s * delta[crossed]
            t[crossed] = tau
            next_cp[crossed] -= 1
            n_jumps[crossed] += 1

            # the reset tables apply every crossing at once; surface images go
            # by (mode, face) group, in that order, and so do terminal exits
            # when the recorder reads their hit points for jump sums or events
            keys = mode[crossed] * kernel.f_max + faces
            post = kernel.post_mode[keys]
            term[crossed] = kernel.post_term[keys]
            pos[crossed[post == _MODE_TERMINAL]] = np.nan
            grouped = keys if rec.phis or rec.jumps is not None else keys[post != _MODE_TERMINAL]
            for key in np.unique(grouped).tolist():
                q, f = divmod(key, kernel.f_max)
                sel = np.flatnonzero(keys == key)
                pts = _onto_face(model.modes[q].domain, f, hit_pts[sel])
                target, image = _reset(model, q, f, pts)
                if image is not None:
                    pos[crossed[sel]] = image
                rec.reset(crossed[sel], q, f, pts, tau[sel], target, image)

            # zeno guard: flag paths that exhausted their jump budget
            post[(n_jumps[crossed] >= zeno_cap) & (post >= 0)] = _MODE_ZENO
            mode[crossed] = post
            live = post >= 0

            newly_dead = crossed[~live]
            if newly_dead.size:
                rec.record(newly_dead, mode, pos, term, to_end=True)
                n_dead += newly_dead.size

            live_hits = crossed[live]
            if live_hits.size:
                kernel.update_rows(live_hits, post[live])
                # a jump landing on (or an ulp past) a checkpoint arrives there
                resync = live_hits[t[live_hits] >= checkpoints[next_cp[live_hits]]]
                if resync.size:
                    t[resync] = checkpoints[next_cp[resync]]
                    next_cp[resync] += 1

        # checkpoint arrivals: every non-crossing live path, plus resyncs; an
        # arrival at index next_cp - 1 only does work at a stop checkpoint
        if np.any(is_stop[next_cp.min() - 1 : next_cp.max()]):
            arr_mask = mode >= 0
            if crossed.size:
                arr_mask[crossed] = False
                arr_mask[resync] = True
            arrivals = np.flatnonzero(arr_mask)
            arrived = next_cp[arrivals] - 1
            slots = out_of_cp[arrived]
            with_out = arrivals[slots >= 0]
            if with_out.size:
                rec.record(with_out, mode, pos, term)
            done = arrivals[arrived == n_cp - 1]
            mode[done] = _MODE_UNSET
            n_dead += done.size


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
    _run_batch(
        model, PointMass(initial.mode, initial.position), (path_index, path_index + 1), rng_seed,
        checkpoints, np.arange(n_cp), dt, zeno_cap, rec, 0,
    )
    modes = rec.mode_at[:, 0]
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
    batch_size: int = 100_000,
) -> EmpiricalMeasure:
    """Independent trajectories with per-path streams, run batch by batch in
    index order.

    Identical inputs give bit-identical measures for any batch size.
    Zeno-flagged paths are counted separately and excluded from the mode
    clouds and terminal counts.
    """
    _check_time_grid(horizon, dt)
    if zeno_cap is None:
        zeno_cap = default_zeno_cap(horizon)
    _check_counts(base_seed, 0, n_paths, zeno_cap, batch_size)
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
    for lo in range(0, n_paths, batch_size):
        _run_batch(
            model, initial_law, (lo, min(lo + batch_size, n_paths)), base_seed, checkpoints,
            out_of_cp, dt, zeno_cap, rec, lo,
        )

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
