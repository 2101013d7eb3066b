"""Pathwise Monte-Carlo engine for diffusions with boundary-hitting resets.

Paths follow an Euler-Maruyama update of the Ito form inside a mode; straight
segments are tested against the mode's faces, the earliest crossing is
projected onto its face, and the reset edge decides whether the path re-enters
a mode or is absorbed in a terminal state.  A cap on the jump count guards
against reset accumulation; capped paths are flagged and excluded from the
empirical measures they would otherwise enter.

Every trajectory draws from its own numpy PCG64 stream, seeded as
`SeedSequence([base_seed, trajectory_index])`, so ensembles reproduce
bit-for-bit regardless of batch size.  A stream's draws are
laid out as follows: the initial law draws first, then step j uses normals
[j*d, (j+1)*d).  Normals are drawn in chunks of 64 steps for the live paths
only, so noise memory is O(batch * 64 * d); a path's initial-law normals
share one draw call with its first chunk.  The hot loop advances all live
paths in lockstep: one proposal per iteration, landing exactly on the next
time-grid point unless a boundary crossing truncates it.  Dead paths stay in
the state arrays, marked by a negative mode, until they make up a quarter of
the rows and are compacted away.

The step, crossing test, face projection and reset map each have one
batched implementation, used by the engine; the single-state `step`,
`detect_hit` and `apply_reset` call them on a batch of one, and
`simulate_path` runs the engine on a batch of one whose output times are all
its checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from resetsde.model import (
    AffineField,
    HybridModel,
    TerminalTarget,
    ito_coefficients,
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
    """Map hits on face f of mode q through the face's reset edge.

    Returns per-point (modes, positions, terminal_idx): a surface reset gives
    the target mode, the image point and -1; a terminal exit gives
    _MODE_TERMINAL, NaN and the terminal's index.
    """
    if model.is_characteristic(q, f):
        raise CharacteristicFaceHit(f"path reached declared-characteristic face ({q}, {f})")
    target = model.edge_for_face(q, f).target
    n = pts.shape[0]
    if isinstance(target, TerminalTarget):
        term = model.terminal_states.index(target.terminal)
        return np.full(n, _MODE_TERMINAL), np.full(pts.shape, np.nan), np.full(n, term)
    image = _nudge_interior(model.modes[target.mode].domain, target.map(pts))
    return np.full(n, target.mode), image, np.full(n, -1)


def _by_mode(fn, modes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """fn(q, points of mode q) for each mode present, in row order; 0 elsewhere."""
    out = np.zeros(modes.shape[0])
    for q in np.unique(modes[modes >= 0]):
        sel = modes == q
        out[sel] = fn(int(q), points[sel])
    return out


def _state(model: HybridModel, mode: int, position, term: int, time: float) -> PathState:
    if mode == _MODE_TERMINAL:
        return PathState.at_terminal(model.terminal_states[term], time)
    return PathState.in_mode(int(mode), position, time)


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
    kernel = _make_kernel(model)
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
    point = np.asarray(point, dtype=float).reshape(1, -1)
    modes, positions, terms = _reset(model, mode, face, point)
    return _state(model, modes[0], positions[0], terms[0], time)


def default_zeno_cap(horizon: float) -> int:
    return max(1, int(np.ceil(DEFAULT_ZENO_RATE * horizon)))


# ---------------------------------------------------------------------------
# stepping kernels


class _AffineKernel:
    """Per-path coefficient rows for affine drift and constant noise columns.

    The drift-correction term vanishes for constant diffusion fields, so the
    Ito drift is the affine drift itself; one gathered expression then
    advances a mixed-mode batch, with rows cached per path and refreshed only
    when a path changes mode.
    """

    def __init__(self, model: HybridModel):
        d = model.dimension
        n_modes = len(model.modes)
        self.f_max = max(m.domain.n_faces for m in model.modes)
        self.d = d
        self.b_mat = np.zeros((n_modes, d, d))
        self.b_off = np.zeros((n_modes, d))
        self.noise_cols = np.zeros((n_modes, d, d))
        self.normals = np.zeros((n_modes, self.f_max, d))
        # padded faces report gap -1 (strictly inside), never crossing
        self.offsets = np.full((n_modes, self.f_max), 1.0)
        for q, m in enumerate(model.modes):
            self.b_mat[q] = m.fields.drift.matrix
            self.b_off[q] = m.fields.drift.offset
            for r, a_field in enumerate(m.fields.diffusion):
                self.noise_cols[q, :, r] = a_field.offset
            nf = m.domain.n_faces
            self.normals[q, :nf] = m.domain.normals
            self.offsets[q, :nf] = m.domain.offsets

    @staticmethod
    def supports(model: HybridModel) -> bool:
        for m in model.modes:
            if not isinstance(m.fields.drift, AffineField):
                return False
            for a_field in m.fields.diffusion:
                if not isinstance(a_field, AffineField) or np.any(a_field.matrix != 0.0):
                    return False
        return True

    def attach(self, modes: np.ndarray) -> None:
        self.row_b_mat = self.b_mat[modes]
        self.row_b_off = self.b_off[modes]
        self.row_noise = self.noise_cols[modes]
        self.row_normals = self.normals[modes]
        self.row_offsets = self.offsets[modes]

    def update_rows(self, rows: np.ndarray, modes: np.ndarray) -> None:
        self.row_b_mat[rows] = self.b_mat[modes]
        self.row_b_off[rows] = self.b_off[modes]
        self.row_noise[rows] = self.noise_cols[modes]
        self.row_normals[rows] = self.normals[modes]
        self.row_offsets[rows] = self.offsets[modes]

    def compact(self, keep: np.ndarray) -> None:
        self.row_b_mat = self.row_b_mat[keep]
        self.row_b_off = self.row_b_off[keep]
        self.row_noise = self.row_noise[keep]
        self.row_normals = self.row_normals[keep]
        self.row_offsets = self.row_offsets[keep]

    def propose(self, modes, theta, delta, sqrt_delta, xi):
        d = self.d
        out = np.empty_like(theta)
        for i in range(d):
            acc = self.row_b_off[:, i]
            for j in range(d):
                acc = acc + self.row_b_mat[:, i, j] * theta[:, j]
            acc = acc * delta
            for r in range(d):
                acc = acc + self.row_noise[:, i, r] * (xi[:, r] * sqrt_delta)
            out[:, i] = theta[:, i] + acc
        return out

    def gaps(self, modes, points, rows=slice(None)):
        normals = self.row_normals[rows]
        g = normals[:, :, 0] * points[:, 0, None]
        for j in range(1, self.d):
            g += normals[:, :, j] * points[:, j, None]
        g -= self.row_offsets[rows]
        return g


class _GeneralKernel:
    """Per-mode fallback for arbitrary field objects."""

    def __init__(self, model: HybridModel):
        self.model = model
        self.f_max = max(m.domain.n_faces for m in model.modes)

    def attach(self, modes):
        pass

    def update_rows(self, rows, modes):
        pass

    def compact(self, keep):
        pass

    def propose(self, modes, theta, delta, sqrt_delta, xi):
        out = np.empty_like(theta)
        for q in range(len(self.model.modes)):
            sel = modes == q
            if not np.any(sel):
                continue
            pts = theta[sel]
            move = ito_coefficients(self.model, q, pts)[0] * delta[sel, None]
            for r, a_field in enumerate(self.model.modes[q].fields.diffusion):
                move = move + a_field(pts) * (xi[sel, r] * sqrt_delta[sel])[:, None]
            out[sel] = pts + move
        return out

    def gaps(self, modes, points, rows=slice(None)):
        modes = modes[rows]
        g = np.full((points.shape[0], self.f_max), -1.0)
        for q in range(len(self.model.modes)):
            sel = modes == q
            if not np.any(sel):
                continue
            domain = self.model.modes[q].domain
            g[np.ix_(sel, np.arange(domain.n_faces))] = domain.gaps(points[sel])
        return g


def _make_kernel(model: HybridModel):
    if _AffineKernel.supports(model):
        return _AffineKernel(model)
    return _GeneralKernel(model)


# ---------------------------------------------------------------------------
# recording


class _BatchRecorder:
    """Output-time slots for one batch, indexed by original path position."""

    def __init__(self, n_out, batch, dim, model, test_functions):
        self.n_out = n_out
        self.mode_at = np.full((n_out, batch), _MODE_UNSET, dtype=np.int64)
        self.pos_at = np.full((n_out, batch, dim), np.nan)
        self.term_at = np.full((n_out, batch), -1, dtype=np.int64)
        self.out_pos = np.zeros(batch, dtype=np.int64)
        self.model = model
        self.phis = list(test_functions)
        if self.phis:
            self.phi0 = np.zeros((len(self.phis), batch))
            self.phi_t = np.zeros((len(self.phis), n_out, batch))
            self.intL_at = np.zeros((len(self.phis), n_out, batch))
            self.jsum_at = np.zeros((len(self.phis), n_out, batch))

    def phi_value(self, k, modes, positions, terminals):
        """phi evaluated on a mixed batch of in-mode and terminal states."""
        phi = self.phis[k]
        vals = _by_mode(phi.evaluate, modes, positions)
        names = self.model.terminal_states
        term_sel = modes == _MODE_TERMINAL
        vals[term_sel] = [phi.terminal_value(names[t]) for t in terminals[term_sel]]
        return vals

    def record(self, orig_idx, modes, positions, terminals, intL_vals, jsum_vals, to_end=False):
        """Fill the next output slot of the given (original) paths.

        With to_end, fill every remaining slot instead: dead paths keep their
        state for every remaining output time.
        """
        first = self.out_pos[orig_idx]
        counts = self.n_out - first if to_end else np.ones_like(first)
        # one entry per (path, slot): path i fills slots first[i] .. first[i] + counts[i] - 1
        rows = np.repeat(np.arange(first.size), counts)
        slots = np.arange(rows.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        cols = orig_idx[rows]
        self.mode_at[slots, cols] = modes[rows]
        self.pos_at[slots, cols] = positions[rows]
        self.term_at[slots, cols] = terminals[rows]
        for k in range(len(self.phis)):
            self.phi_t[k, slots, cols] = self.phi_value(k, modes, positions, terminals)[rows]
            self.intL_at[k, slots, cols] = intL_vals[k][rows]
            self.jsum_at[k, slots, cols] = jsum_vals[k][rows]
        self.out_pos[orig_idx] = first + counts


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

    class Seed(ISeedSequence):  # numpy's protocol for handing a bit generator its seed words
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return [np.random.Generator(np.random.PCG64(Seed(words))) for words in _pcg_seeds(base_seed, idx)]


def _check_counts(base_seed, last_index, zeno_cap, batch_size=1) -> None:
    """Integer run inputs: stream keys (seed >= 0, path index < 2**32), jump cap and batch size >= 1."""
    for name, value, lo, hi in (
        ("seed", base_seed, 0, np.inf),
        ("path index", last_index, 0, 2**32),
        ("zeno_cap", zeno_cap, 1, np.inf),
        ("batch_size", batch_size, 1, np.inf),
    ):
        if not isinstance(value, (int, np.integer)) or not lo <= value < hi:
            raise SimulationError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")


# ---------------------------------------------------------------------------
# the batched engine


def _run_batch(
    model: HybridModel,
    initial_law,
    index_range,
    base_seed,
    checkpoints,
    out_of_cp,
    n_out,
    dt,
    zeno_cap,
    test_functions,
    jumps=None,
):
    """Advance paths index_range in lockstep and fill the output slots.

    out_of_cp maps each checkpoint to its output slot (-1 for none); jump
    events are appended to `jumps` unless it is None.
    """
    d = model.dimension
    lo_idx, hi_idx = index_range
    batch = hi_idx - lo_idx
    gens = _streams(base_seed, np.arange(lo_idx, hi_idx))
    kernel = _make_kernel(model)
    n_phi = len(test_functions)

    # a path's initial-law normals and its first noise chunk come from one
    # draw call; split draws concatenate, so the stream layout is unchanged
    gaussian = isinstance(initial_law, GaussianInitial)
    n_init = initial_law.mean.size if gaussian else 0
    draws = np.empty((batch, n_init + _CHUNK_STEPS * d))
    for i, gen in enumerate(gens):
        gen.standard_normal(out=draws[i])
    buf = draws[:, n_init:]  # noise chunk, indexed by original position
    cursor = 0

    # path state per row; a dead row has a negative mode until it is compacted away
    orig = np.arange(batch, dtype=np.int64)
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
    intL = np.zeros((n_phi, batch))
    jsum = np.zeros((n_phi, batch))

    rec = _BatchRecorder(n_out, batch, d, model, test_functions)
    for k in range(n_phi):
        rec.phi0[k] = rec.phi_value(k, mode, pos, term)
    if out_of_cp[0] >= 0:
        rec.record(orig, mode, pos, term, intL, jsum)

    n_cp = len(checkpoints)
    # checkpoints where an arrival does work: output times and the horizon
    is_stop = out_of_cp >= 0
    is_stop[-1] = True
    n_dead = 0

    while n_dead < orig.size:
        if cursor == buf.shape[1]:
            for i in orig[mode >= 0].tolist():
                gens[i].standard_normal(out=buf[i])
            cursor = 0
        xi = buf[orig, cursor : cursor + d]
        cursor += d

        # dead rows step too, but never cross or arrive; past the horizon
        # they stay on the last checkpoint
        cps = checkpoints[np.minimum(next_cp, n_cp - 1)]
        delta = cps - t
        sqrt_delta = np.sqrt(delta)
        start_pos = pos
        theta_new = kernel.propose(mode, start_pos, delta, sqrt_delta, xi)

        # crossing fractions only for the paths that actually left the domain
        ge = kernel.gaps(mode, theta_new)
        # a loop over the few face columns is ~5x faster than np.any(axis=1)
        hit = ge[:, 0] >= 0.0
        for k in range(1, ge.shape[1]):
            hit |= ge[:, k] >= 0.0
        crossed = np.flatnonzero(hit & (mode >= 0))
        if crossed.size:
            gs = kernel.gaps(mode, start_pos[crossed], crossed)
            s, faces = _first_crossing(gs, ge[crossed])
            hit_pts = start_pos[crossed] + s[:, None] * (theta_new[crossed] - start_pos[crossed])

        if n_phi:
            # trapezoid rule for the integral of L phi over the step,
            # truncated at the hit point on crossing paths
            seg_end, seg_len = theta_new.copy(), delta.copy()
            if crossed.size:
                seg_end[crossed] = hit_pts
                seg_len[crossed] = s * delta[crossed]
            for k, phi in enumerate(test_functions):
                seg_L = _by_mode(phi.generator, mode, start_pos) + _by_mode(phi.generator, mode, seg_end)
                intL[k] += 0.5 * seg_L * seg_len

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

            # one reset group per (mode, face), in that order
            keys = mode[crossed] * kernel.f_max + faces
            for key in np.unique(keys).tolist():
                q, f = divmod(key, kernel.f_max)
                sel = np.flatnonzero(keys == key)
                rows = crossed[sel]
                pts = _onto_face(model.modes[q].domain, f, hit_pts[sel])
                post_mode, post_pos, post_term = _reset(model, q, f, pts)
                mode[rows] = post_mode
                pos[rows] = post_pos
                term[rows] = post_term
                for k, phi in enumerate(test_functions):
                    jsum[k, rows] += (
                        rec.phi_value(k, post_mode, post_pos, post_term) - phi.evaluate(q, pts)
                    )
                if jumps is not None:
                    for j, tau_j in enumerate(tau[sel].tolist()):
                        post = _state(model, post_mode[j], post_pos[j], post_term[j], tau_j)
                        jumps.append(JumpEvent(tau_j, q, f, pts[j].copy(), post))

            # zeno guard: flag paths that exhausted their jump budget
            post = mode[crossed]
            post[(n_jumps[crossed] >= zeno_cap) & (post >= 0)] = _MODE_ZENO
            mode[crossed] = post
            live = post >= 0

            newly_dead = crossed[~live]
            if newly_dead.size:
                rec.record(
                    orig[newly_dead], post[~live], pos[newly_dead], term[newly_dead],
                    intL[:, newly_dead], jsum[:, newly_dead], to_end=True,
                )
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
                rec.record(
                    orig[with_out], mode[with_out], pos[with_out], term[with_out],
                    intL[:, with_out], jsum[:, with_out],
                )
            done = arrivals[arrived == n_cp - 1]
            mode[done] = _MODE_UNSET
            n_dead += done.size

        # compaction re-indexes every row array, so it waits for a quarter of them to be dead
        if 4 * n_dead >= orig.size > n_dead:
            keep = mode >= 0
            n_dead = 0
            orig = orig[keep]
            mode = mode[keep]
            pos = pos[keep]
            t = t[keep]
            term = term[keep]
            n_jumps = n_jumps[keep]
            next_cp = next_cp[keep]
            intL = intL[:, keep]
            jsum = jsum[:, keep]
            kernel.compact(keep)

    return {
        "mode_at": rec.mode_at,
        "pos_at": rec.pos_at,
        "term_at": rec.term_at,
        "phi0": rec.phi0 if n_phi else None,
        "phi_t": rec.phi_t if n_phi else None,
        "intL_at": rec.intL_at if n_phi else None,
        "jsum_at": rec.jsum_at if n_phi else None,
    }


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
    _check_counts(rng_seed, path_index, zeno_cap)

    checkpoints, _ = _checkpoints(horizon, dt, [])
    n_cp = len(checkpoints)

    if initial.terminal is not None:
        # terminal initial states stay put (no dynamics, no jumps)
        modes = np.full(n_cp, _MODE_TERMINAL, dtype=np.int64)
        positions = np.full((n_cp, model.dimension), np.nan)
        return Trajectory(
            checkpoints, modes, positions, [], terminal_id=initial.terminal,
            terminal_time=initial.time, zeno_flag=False,
        )

    jumps: list = []
    res = _run_batch(
        model, PointMass(initial.mode, initial.position), (path_index, path_index + 1), rng_seed,
        checkpoints, np.arange(n_cp), n_cp, dt, zeno_cap, (), jumps,
    )
    modes = res["mode_at"][:, 0]
    positions = res["pos_at"][:, 0]
    positions[modes < 0] = np.nan
    # the last jump tells how the path was absorbed, if it was
    end = jumps[-1].post if jumps else initial
    return Trajectory(
        checkpoints, modes, positions, jumps, terminal_id=end.terminal,
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
    if n_paths < 0:
        raise SimulationError("n_paths must be >= 0")
    _check_time_grid(horizon, dt)
    if zeno_cap is None:
        zeno_cap = default_zeno_cap(horizon)
    _check_counts(base_seed, max(n_paths - 1, 0), zeno_cap, batch_size)
    out_times = np.asarray(sorted(output_times), dtype=float)
    if out_times.size == 0:
        raise SimulationError("at least one output time is required")

    checkpoints, out_idx = _checkpoints(horizon, dt, out_times)
    if np.unique(out_idx).size < out_idx.size:
        raise SimulationError("output times must be distinct")
    out_of_cp = np.full(len(checkpoints), -1, dtype=np.int64)
    for k, idx in enumerate(out_idx):
        out_of_cp[idx] = k
    n_out = out_times.size

    if n_paths == 0:
        return EmpiricalMeasure(
            out_times,
            [[np.zeros((0, model.dimension)) for _ in model.modes] for _ in range(n_out)],
            [dict() for _ in range(n_out)],
            np.zeros(n_out, dtype=np.int64),
            0,
            base_seed,
        )

    results = [
        _run_batch(
            model, initial_law, (lo, min(lo + batch_size, n_paths)), base_seed, checkpoints,
            out_of_cp, n_out, dt, zeno_cap, tuple(test_functions),
        )
        for lo in range(0, n_paths, batch_size)
    ]

    mode_at = np.concatenate([r["mode_at"] for r in results], axis=1)
    pos_at = np.concatenate([r["pos_at"] for r in results], axis=1)
    term_at = np.concatenate([r["term_at"] for r in results], axis=1)

    mode_clouds = []
    terminal_counts = []
    zeno_counts = np.zeros(n_out, dtype=np.int64)
    names = model.terminal_states
    for k in range(n_out):
        clouds = [
            pos_at[k][mode_at[k] == q].copy() for q in range(len(model.modes))
        ]
        mode_clouds.append(clouds)
        counts = {}
        t_sel = mode_at[k] == _MODE_TERMINAL
        if np.any(t_sel):
            binc = np.bincount(term_at[k][t_sel], minlength=len(names))
            counts = {names[i]: int(c) for i, c in enumerate(binc) if c > 0}
        terminal_counts.append(counts)
        zeno_counts[k] = int(np.sum(mode_at[k] == _MODE_ZENO))

    dynkin = []
    for k_phi in range(len(test_functions)):
        dynkin.append(
            DynkinRecord(
                phi0=np.concatenate([r["phi0"][k_phi] for r in results]),
                phi_t=np.concatenate([r["phi_t"][k_phi] for r in results], axis=1),
                int_generator=np.concatenate([r["intL_at"][k_phi] for r in results], axis=1),
                jump_sum=np.concatenate([r["jsum_at"][k_phi] for r in results], axis=1),
                alive=mode_at != _MODE_ZENO,
                phi=test_functions[k_phi],
            )
        )

    return EmpiricalMeasure(
        out_times, mode_clouds, terminal_counts, zeno_counts, n_paths, base_seed, dynkin
    )
