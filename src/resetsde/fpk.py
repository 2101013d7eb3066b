"""Conservative finite-volume solver for the forward equations of a reset model.

The density evolves in flux form: per cell, dp/dt is the negative divergence
of the probability current J = p A0 - 1/2 sum_r div(p A_r) A_r, assembled
from face-normal flux values.  A reset-image face is an ordinary face of this
operator, so the density is continuous across it; the mass that leaves
through a source boundary face re-enters half in each of the two cells beside
its image face, which makes the current jump there by h times the source
outflux, and total mass is conserved structurally rather than asymptotically.
Terminal states accumulate the outflux of their boundary faces.  Every
boundary face absorbs: its current is the exponentially fitted flux from
its edge cell to p = 0 at the face, half a cell away (Scharfetter & Gummel
1969), so its outflux is a nonnegative multiple of the edge cell.  Centred
tangential differences beside a box side read a ghost cell beyond it equal
to the negated edge cell; `_stencil_term` is the only place that rule is
applied.

The whole update is linear, so each grid assembles it once, on first use, as
one sparse forward operator (`GridLayout.forward_operator`): face currents F,
boundary outflux B >= 0 (the boundary rows of F, signed outward), cell rates
L_h = div F + R B and terminal rates T, where R routes each boundary face's
outflux from its edge cell to its terminal or the two cells beside its image
face.  It is the only implementation of the update: `evolve` steps by its
banded form (full diagonals as shifted slices); `stationary_density` is a
sparse LU solve and the only place that loads scipy;
`validate.flux_continuity_residual` reads B p and the one-sided rows of F p.

Assembly also certifies positivity once per grid (Chang & Cooper 1970): when
every off-diagonal entry of L_h is nonnegative, the step matrix I + dt L_h
is entrywise nonnegative for dt up to `positivity_dt` =
(1 - 1e-9) / max|diag L_h|, a Markov chain on cells; T, the terminal rows
of R B, is nonnegative by construction.  In floating point each cell's step
p_i + dt (L_h p)_i is then at least p_i (1 - (1 - 1e-9)(1 + u)^2) >= 0,
since the rounded row sum never falls below its diagonal product; so
`evolve` skips its per-step check there with bit-identical output.
Operators with cross-diffusion or cell Peclet numbers above 2 get
`positivity_dt` = 0 and keep it.  The explicit stability bound behind
`stable_dt`, 0.45 min(dx^2 / max|a|, dx / max|b|), is capped at that
diagonal limit (1 - 1e-9) / max|diag L_h|, so no step `evolve` accepts has
a negative diagonal; the cap binds at absorbing corner cells of 2D boxes,
which have two boundary faces.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from resetsde.model import (
    HybridModel,
    TerminalTarget,
    _Record,
    classify_boundary,
    ito_coefficients,
)

_ALIGN_REL_TOL = 1e-9
_NEG_DENSITY_REL_TOL = 1e-12
_STABILITY_SAFETY = 0.45
_POSITIVITY_MARGIN = 1e-9
_BAND_MIN_ROWS = 512   # shorter diagonals step faster by bincount (BENCH_14.json)


class SolverError(ValueError):
    """Base class for grid construction and evolution errors."""


class MisalignedH(SolverError):
    """A reset-image hypersurface does not coincide with grid faces."""


class UnsupportedDimension(SolverError):
    """The PDE grid supports d in {1, 2} only."""


class UnsupportedDomain(SolverError):
    """Mode domains must be axis-aligned boxes for the PDE grid."""


class CharacteristicFacePresent(SolverError):
    """The solver refuses models with characteristic boundary faces."""


class StabilityViolation(SolverError):
    """The requested dt exceeds the explicit stability bound."""


class NegativeDensity(SolverError):
    """A cell density undershot beyond the tolerated rounding band."""


# ---------------------------------------------------------------------------
# grid layout


class ModeGrid(NamedTuple):
    lo: np.ndarray
    hi: np.ndarray
    shape: tuple[int, ...]
    dx: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    def face_area(self, axis: int) -> float:
        # 1D boundaries carry the counting measure, area 1.
        return float(np.prod(np.delete(self.dx, axis))) if self.dimension > 1 else 1.0

    def centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return self.lo[axis] + (np.arange(n) + 0.5) * self.dx[axis]

    def faces(self, axis: int) -> np.ndarray:
        return self.lo[axis] + np.arange(self.shape[axis] + 1) * self.dx[axis]

    def cell_center_points(self) -> np.ndarray:
        """All cell centers, shape self.shape + (d,)."""
        axes = [self.centers(k) for k in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)


class TransferTable(NamedTuple):
    """Precomputed face correspondence of one surface-target edge."""

    edge_index: int
    source_mode: int
    src_axis: int
    src_side: int                      # 0 = lo, 1 = hi
    target_mode: int
    h_axis: int
    h_face_index: int                  # grid face index along h_axis
    tgt_tangential: np.ndarray | None  # (m,) target cells paired with the source faces, None in 1D
    h: float
    source_area: float


class TerminalTable(NamedTuple):
    edge_index: int
    source_mode: int
    src_axis: int
    src_side: int
    terminal: str


class GridLayout(_Record):
    """Per-mode uniform grids plus boundary and reset correspondence tables,
    and the caches of what is built once per grid."""

    __slots__ = ("model", "mode_grids", "surface_tables", "terminal_tables", "_caches")

    def __init__(self, model: HybridModel, mode_grids: tuple[ModeGrid, ...],
                 surface_tables: tuple[TransferTable, ...], terminal_tables: tuple[TerminalTable, ...]):
        self.model, self.mode_grids = model, mode_grids
        self.surface_tables, self.terminal_tables = surface_tables, terminal_tables
        self._caches = {}

    @property
    def dimension(self) -> int:
        return self.model.dimension

    def stability_bound(self) -> float:
        if "stability" not in self._caches:
            self._caches["stability"] = _stability_bound(self)
        return self._caches["stability"]

    def forward_operator(self) -> "ForwardOperator":
        if "operator" not in self._caches:
            self._caches["operator"] = _assemble_operator(self)
        return self._caches["operator"]


def build_grid(model: HybridModel, resolution) -> GridLayout:
    """Build per-mode grids and tabulate the reset face correspondences.

    `resolution` is the cell count per axis: an int applied everywhere, or a
    sequence with one entry (int or per-axis tuple) per mode.
    """
    d = model.dimension
    if d not in (1, 2):
        raise UnsupportedDimension(f"PDE grids support d in {{1, 2}}, got {d}")

    for q in range(len(model.modes)):
        for f in range(model.modes[q].domain.n_faces):
            if model.is_characteristic(q, f) or classify_boundary(model, q, f) == "characteristic":
                raise CharacteristicFacePresent(
                    f"face ({q}, {f}) is characteristic; the solver has no boundary "
                    "condition there"
                )

    resolutions = _normalize_resolution(resolution, len(model.modes), d)
    mode_grids = []
    face_map = {}
    for q, mode in enumerate(model.modes):
        grid, fmap = _mode_grid(mode, q, resolutions[q])
        mode_grids.append(grid)
        face_map.update(fmap)

    surface_tables = []
    terminal_tables = []
    for edge in model.reset_edges:
        axis, side = face_map[(edge.source_mode, edge.source_face)]
        if isinstance(edge.target, TerminalTarget):
            terminal_tables.append(
                TerminalTable(edge.index, edge.source_mode, axis, side, edge.target.terminal)
            )
        else:
            surface_tables.append(_transfer_table(mode_grids, edge, axis, side))

    return GridLayout(
        model=model,
        mode_grids=tuple(mode_grids),
        surface_tables=tuple(surface_tables),
        terminal_tables=tuple(terminal_tables),
    )


def _normalize_resolution(resolution, n_modes, d):
    if isinstance(resolution, (int, np.integer)):
        return [(int(resolution),) * d] * n_modes
    entries = list(resolution)
    if len(entries) != n_modes:
        raise SolverError(f"resolution must have one entry per mode ({n_modes})")
    out = []
    for entry in entries:
        if isinstance(entry, (int, np.integer)):
            out.append((int(entry),) * d)
        else:
            tup = tuple(int(v) for v in entry)
            if len(tup) != d:
                raise SolverError("per-axis resolution does not match the dimension")
            out.append(tup)
    return out


def _mode_grid(mode, q, cells):
    domain = mode.domain
    if domain.box is None:
        raise UnsupportedDomain(f"mode {q} has no bounding box")
    lo, hi = domain.box
    d = lo.size
    if any(n < 4 for n in cells):
        raise SolverError(f"mode {q} needs at least 4 cells per axis")
    dx = (hi - lo) / np.asarray(cells, dtype=float)

    # Every polytope face must coincide with a box side: the grid covers the
    # whole domain and boundary faces are axis-parallel.
    fmap = {}
    tol = _ALIGN_REL_TOL * domain.scale()
    for f in range(domain.n_faces):
        nrm = domain.normals[f]
        axis = int(np.argmax(np.abs(nrm)))
        unit = np.zeros(d)
        unit[axis] = np.sign(nrm[axis])
        if np.max(np.abs(nrm - unit)) > _ALIGN_REL_TOL:
            raise UnsupportedDomain(f"mode {q} face {f} is not axis-parallel")
        coord = domain.offsets[f] * nrm[axis]
        bound = lo[axis] if nrm[axis] < 0 else hi[axis]
        if abs(coord - bound) > tol:
            raise UnsupportedDomain(
                f"mode {q} face {f} does not coincide with the bounding box"
            )
        fmap[(q, f)] = (axis, 0 if nrm[axis] < 0 else 1)
    if len({v for v in fmap.values()}) != 2 * d:
        raise UnsupportedDomain(f"mode {q} does not cover all {2 * d} box sides")
    return ModeGrid(lo=lo.copy(), hi=hi.copy(), shape=tuple(cells), dx=dx), fmap


def _face_index_of(coord, lo, dx, n, what):
    u = (coord - lo) / dx
    j = int(round(u))
    if abs(u - j) > _ALIGN_REL_TOL * max(1.0, abs(u)) * 10.0:
        raise MisalignedH(
            f"{what} at coordinate {coord} does not fall on a cell face "
            f"(offset {u - j:.3e} faces)"
        )
    if not (0 <= j <= n):
        raise MisalignedH(f"{what} lies outside the target grid")
    return j


def _transfer_table(mode_grids, edge, axis, side):
    tgt_mode = edge.target.mode
    amap = edge.target.map
    src_grid = mode_grids[edge.source_mode]
    tgt_grid = mode_grids[tgt_mode]
    src_coord = src_grid.lo[axis] if side == 0 else src_grid.hi[axis]

    if src_grid.dimension == 1:
        image = amap(np.array([src_coord]))
        h_axis = 0
        c_h = float(image[0])
        tgt_tang = None
    else:
        tang_axis = 1 - axis
        p0 = np.zeros(2)
        p0[axis] = src_coord
        p0[tang_axis] = src_grid.lo[tang_axis]
        p1 = p0.copy()
        p1[tang_axis] = src_grid.hi[tang_axis]
        i0, i1 = amap(p0), amap(p1)
        delta = i1 - i0
        # The image line must be axis-parallel: one coordinate stays constant.
        if abs(delta[0]) <= _ALIGN_REL_TOL * max(1.0, np.max(np.abs(delta))):
            h_axis = 0
        elif abs(delta[1]) <= _ALIGN_REL_TOL * max(1.0, np.max(np.abs(delta))):
            h_axis = 1
        else:
            raise MisalignedH(
                f"edge {edge.index}: image hypersurface is not axis-parallel"
            )
        c_h = float(i0[h_axis])
        tang_tgt_axis = 1 - h_axis
        # Pair each source boundary face with the target face its image covers.
        n_src = src_grid.shape[tang_axis]
        src_faces = src_grid.lo[tang_axis] + np.arange(n_src + 1) * src_grid.dx[tang_axis]
        pts = np.zeros((n_src + 1, 2))
        pts[:, axis] = src_coord
        pts[:, tang_axis] = src_faces
        img = amap(pts)[:, tang_tgt_axis]
        jt = np.array(
            [
                _face_index_of(
                    v,
                    tgt_grid.lo[tang_tgt_axis],
                    tgt_grid.dx[tang_tgt_axis],
                    tgt_grid.shape[tang_tgt_axis],
                    f"edge {edge.index} image endpoint",
                )
                for v in img
            ]
        )
        steps = np.diff(jt)
        if not (np.all(steps == 1) or np.all(steps == -1)):
            raise MisalignedH(
                f"edge {edge.index}: source and target resolutions are not "
                "face-bijective under the reset map"
            )
        tgt_tang = np.minimum(jt[:-1], jt[1:])

    n_h = tgt_grid.shape[h_axis]
    j_h = _face_index_of(
        c_h, tgt_grid.lo[h_axis], tgt_grid.dx[h_axis], n_h, f"edge {edge.index} image"
    )
    if j_h < 2 or j_h > n_h - 2:
        raise MisalignedH(
            f"edge {edge.index}: image face {j_h} is too close to the target "
            "boundary for the one-sided fluxes at this resolution"
        )

    src_area = src_grid.face_area(axis)
    tgt_area = tgt_grid.face_area(h_axis)
    h = edge.jacobian_value
    if abs(src_area * h - tgt_area) > 1e-9 * max(tgt_area, 1e-300):
        raise MisalignedH(
            f"edge {edge.index}: face areas are inconsistent with the Jacobian "
            f"factor (source {src_area} * h {h} != target {tgt_area})"
        )

    return TransferTable(
        edge_index=edge.index,
        source_mode=edge.source_mode,
        src_axis=axis,
        src_side=side,
        target_mode=tgt_mode,
        h_axis=h_axis,
        h_face_index=j_h,
        tgt_tangential=tgt_tang,
        h=h,
        source_area=src_area,
    )


# ---------------------------------------------------------------------------
# density state


class DensityState(_Record):
    """Cell-averaged mode densities, terminal masses, and the current time."""

    __slots__ = ("p", "q", "t")

    def __init__(self, p: list, q: dict, t: float = 0.0):
        self.p, self.q, self.t = p, q, t

    def copy(self) -> "DensityState":
        return DensityState([arr.copy() for arr in self.p], dict(self.q), self.t)


def total_mass(grid: GridLayout, density: DensityState) -> float:
    """Sum of cell masses plus terminal masses, in fixed summation order."""
    _check_cells(grid, density)
    total = 0.0
    for q_idx, arr in enumerate(density.p):
        total += float(np.sum(arr)) * grid.mode_grids[q_idx].cell_volume
    for name in grid.model.terminal_states:
        total += density.q.get(name, 0.0)
    return total


def _check_cells(grid: GridLayout, density: DensityState):
    """Refuse a density whose mode arrays do not match the grid's cell counts,
    or whose cells or terminal masses are not finite."""
    if len(density.p) != len(grid.mode_grids):
        raise SolverError(
            f"density has {len(density.p)} mode arrays, the grid has {len(grid.mode_grids)} modes"
        )
    for q_idx, (arr, mg) in enumerate(zip(density.p, grid.mode_grids)):
        cells = int(np.prod(mg.shape))
        if np.size(arr) != cells:
            raise SolverError(f"mode {q_idx} density has {np.size(arr)} cells, the grid has {cells}")
        if not np.all(np.isfinite(arr)):
            raise SolverError(f"mode {q_idx} density has non-finite cells")
    for name in grid.model.terminal_states:
        if not np.isfinite(density.q.get(name, 0.0)):
            raise SolverError(f"terminal {name!r} mass is not finite")


def project_density(grid: GridLayout, mode_fns: Sequence[Callable | None]) -> DensityState:
    """Cell-average the supplied mode densities and renormalise to mass one.

    Each entry is a callable over points of shape (..., d) (evaluated at cell
    centers, an O(dx^2) average) or an object with a `cell_average(mode_grid)`
    method for exact averages; None means an empty mode.
    """
    arrays = []
    for q_idx, fn in enumerate(mode_fns):
        mg = grid.mode_grids[q_idx]
        if fn is None:
            arrays.append(np.zeros(mg.shape))
            continue
        if hasattr(fn, "cell_average"):
            vals = fn.cell_average(mg)
        else:
            vals = np.asarray(fn(mg.cell_center_points()), dtype=float)
        if vals.shape != mg.shape:
            raise SolverError(f"initial density for mode {q_idx} has shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise SolverError(f"initial density for mode {q_idx} is not finite")
        arrays.append(np.maximum(vals, 0.0))
    mass = sum(float(np.sum(a)) * grid.mode_grids[i].cell_volume for i, a in enumerate(arrays))
    if mass <= 0.0:
        raise SolverError("initial density has no mass")
    q0 = {name: 0.0 for name in grid.model.terminal_states}
    return DensityState([a / mass for a in arrays], q0, 0.0)


# ---------------------------------------------------------------------------
# assembled forward operator


def _field_samples(model, mg: ModeGrid, mode: int) -> dict:
    """Field samples at one mode's faces and cells."""
    fields = model.modes[mode].fields
    cell_pts = mg.cell_center_points()
    samples = {"A_cell": [np.asarray(a(cell_pts), dtype=float) for a in fields.diffusion]}
    for axis in range(mg.dimension):
        face_pts = _face_points(mg, axis)
        samples[("A0f", axis)] = np.asarray(fields.drift(face_pts), dtype=float)[..., axis]
        samples[("Af", axis)] = [
            np.asarray(a(face_pts), dtype=float)[..., axis] for a in fields.diffusion
        ]
    return samples


def _face_points(mg: ModeGrid, axis: int) -> np.ndarray:
    comps = []
    for k in range(mg.dimension):
        comps.append(mg.faces(k) if k == axis else mg.centers(k))
    mesh = np.meshgrid(*comps, indexing="ij")
    return np.stack(mesh, axis=-1)


class ForwardOperator(NamedTuple):
    """The linear forward operator of a grid as (rows, cols, vals) triplets.

    Cells are numbered mode by mode in C order; mode q starts at
    `offsets[q]`.  `current` is F, with J.e_axis = F p on every face: first
    the faces of each mode and axis in C order, then for each reset edge the
    one-sided currents below and above its image faces, whose rows are
    `image_rows[edge]`.  F is not coalesced (`_matvec` sums duplicates).
    `outflux` is B, the outflux J.nu of every boundary face, table by table,
    with `outflux_edge` naming the reset edge of each row; a row's one
    entry, if any, is on its edge cell and nonnegative.  `rate` is
    L_h = div F + R B over cells, where the divergence skips boundary faces,
    image faces are ordinary inner faces, and R sends a unit of outflux from
    its edge cell to its terminal or, half in each, the two cells beside its
    image face; `terminal` is T, the terminal rows of R B, in the model's
    terminal order.  Each face coefficient enters its two cells, or
    its source cell and its target cells or terminal, with opposite signs,
    so the volume-weighted column sums of [L_h; T] vanish up to rounding.
    `positivity_dt` is the largest step certified to keep the density
    nonnegative without checks (module docstring), 0.0 when none is.
    """

    shapes: tuple
    offsets: np.ndarray
    n_faces: int
    current: tuple
    image_rows: dict
    outflux: tuple
    outflux_edge: np.ndarray
    rate: tuple
    terminal: tuple
    positivity_dt: float

    @property
    def n_cells(self) -> int:
        return int(self.offsets[-1])

    def split(self, flat: np.ndarray) -> list:
        """Per-mode views of a flat cell vector."""
        return [
            flat[self.offsets[m] : self.offsets[m + 1]].reshape(shape)
            for m, shape in enumerate(self.shapes)
        ]

    def flatten(self, arrays) -> np.ndarray:
        """One flat cell vector from per-mode arrays, the inverse of `split`."""
        return np.concatenate([np.asarray(a, dtype=float).reshape(-1) for a in arrays])

    def face_currents(self, flat: np.ndarray) -> np.ndarray:
        return _matvec(self.current, flat, self.n_faces)

    def boundary_outflux(self, flat: np.ndarray) -> np.ndarray:
        return _matvec(self.outflux, flat, self.outflux_edge.size)


def _matvec(triplets, p: np.ndarray, n_rows: int) -> np.ndarray:
    rows, cols, vals = triplets
    return np.bincount(rows, vals * p[cols], minlength=n_rows)


class _BandedStep:
    """`_matvec` of row-sorted, coalesced triplets, their full diagonals as bands (see `evolve`)."""

    def __init__(self, rows, cols, size):
        shift = cols - rows
        offsets, counts = np.unique(shift, return_counts=True)
        bands = offsets[counts >= _BAND_MIN_ROWS]
        self.size, self.lo = size, max(0, -int(bands.min(initial=0)))
        self.rows = np.unique(rows[~np.isin(shift, bands)]) if bands.size else np.arange(size)
        own = np.isin(rows, self.rows)
        self.own, self.local = np.flatnonzero(own), np.searchsorted(self.rows, rows[own])
        self.cols = cols[own] + self.lo
        # a band row gathers its entry's value, or the 0.0 that `bind` appends
        self.gather = np.full((bands.size, size), rows.size)
        self.gather[np.searchsorted(bands, shift[~own]), rows[~own]] = np.flatnonzero(~own)
        self.bands = bands.tolist()

    def bind(self, vals):
        """A zero vector at [lo, lo + size) of a new zero-padded buffer, and the matvec of it."""
        lo, size = self.lo, self.size
        buffer = np.zeros(lo + size + max([0] + self.bands))
        coefs = np.append(vals, 0.0)[self.gather]
        terms = [(c, buffer[lo + k : lo + k + size]) for c, k in zip(coefs, self.bands)]
        own, local, cols, rows = vals[self.own], self.local, self.cols, self.rows

        def matvec():
            part = np.bincount(local, own * buffer[cols], minlength=rows.size)
            if not terms:
                return part
            out = np.zeros(size)
            for coef, view in terms:
                out += coef * view
            out[rows] = part
            return out

        return buffer[lo : lo + size], matvec


def _assemble_operator(grid: GridLayout) -> ForwardOperator:
    """F from the sampled face coefficients; B, div F and R B from its terms."""
    model = grid.model
    shapes = tuple(mg.shape for mg in grid.mode_grids)
    offsets = np.concatenate(([0], np.cumsum([int(np.prod(s)) for s in shapes])))
    n_cells = int(offsets[-1])
    # every boundary side has exactly one table; B numbers its faces in order
    boundary = {}
    outflux_edge = []
    for tab in grid.surface_tables + grid.terminal_tables:
        mg = grid.mode_grids[tab.source_mode]
        m = 1 if mg.dimension == 1 else mg.shape[1 - tab.src_axis]
        boundary[(tab.source_mode, tab.src_axis, tab.src_side)] = (tab, len(outflux_edge))
        outflux_edge += [tab.edge_index] * m
    terminal_row = {name: n_cells + i for i, name in enumerate(model.terminal_states)}

    # field samples at each mode's faces and cells, taken once per grid
    samples = [_field_samples(model, mg, q) for q, mg in enumerate(grid.mode_grids)]
    current, rate, outflux, routed = [], [], [], []
    n_faces = 0
    for q, mg in enumerate(grid.mode_grids):
        d = mg.dimension
        for axis in range(d):
            n = mg.shape[axis]
            face_shape = tuple(s + (k == axis) for k, s in enumerate(mg.shape))
            face, cell, w = _face_current_terms(mg, samples[q], axis)
            col = offsets[q] + cell
            current.append((n_faces + face, col, w))
            fidx = np.unravel_index(face, face_shape)
            fk = fidx[axis]
            ft = fidx[1 - axis] if d == 2 else np.zeros_like(fk)
            coef = w * (mg.face_area(axis) / mg.cell_volume)
            # what crosses an inner face leaves its lower cell and enters its upper one
            inner = (fk >= 1) & (fk < n)
            for k_cell, sign in ((fk - 1, -1.0), (fk, 1.0)):
                ridx = _index(axis, k_cell[inner], ft[inner] if d == 2 else None)
                rows = offsets[q] + np.ravel_multi_index(ridx, mg.shape)
                rate.append((rows, col[inner], sign * coef[inner]))
            # a boundary face has one term, on its edge cell, in tangential
            # order; R sends its outflux from that cell to its terminal or,
            # half in each, to the two cells beside its image face
            for side, at in ((0, fk == 0), (1, fk == n)):
                tab, start = boundary[(q, axis, side)]
                edge, b = col[at], (w[at] if side else -w[at])
                outflux.append((start + ft[at], edge, b))
                routed.append((edge, edge, -mg.face_area(axis) / mg.cell_volume * b))
                if isinstance(tab, TransferTable):
                    tg = grid.mode_grids[tab.target_mode]
                    for k_cell in (tab.h_face_index - 1, tab.h_face_index):
                        tidx = _index(tab.h_axis, np.full(b.size, k_cell), tab.tgt_tangential)
                        cells = offsets[tab.target_mode] + np.ravel_multi_index(tidx, tg.shape)
                        routed.append((cells, edge, 0.5 * tab.source_area / tg.cell_volume * b))
                else:
                    routed.append((np.full(b.size, terminal_row[tab.terminal]), edge, mg.face_area(axis) * b))
            n_faces += int(np.prod(face_shape))

    image_rows = {}
    for tab in grid.surface_tables:
        q = tab.target_mode
        m = 1 if tab.tgt_tangential is None else tab.tgt_tangential.size
        face, cell, w = _one_sided_terms(grid.mode_grids[q], samples[q], tab)
        current.append((n_faces + face, offsets[q] + cell, w))
        image_rows[tab.edge_index] = (n_faces + np.arange(m), n_faces + m + np.arange(m))
        n_faces += 2 * m

    outflux, routed = _join(outflux), _join(routed)
    to_cell = routed[0] < n_cells
    rate = _join(rate + [[x[to_cell] for x in routed]])
    terminal = [x[~to_cell] for x in routed]
    terminal[0] = terminal[0] - n_cells
    rate, outflux, terminal = (_coalesce(x, n_cells) for x in (rate, outflux, terminal))
    return ForwardOperator(
        shapes=shapes,
        offsets=offsets,
        n_faces=n_faces,
        current=_join(current),
        image_rows=image_rows,
        outflux=outflux,
        outflux_edge=np.asarray(outflux_edge, dtype=int),
        rate=rate,
        terminal=terminal,
        positivity_dt=_positivity_dt(rate),
    )


def _positivity_dt(rate) -> float:
    """Largest dt for which I + dt L_h is certified entrywise nonnegative.

    (1 - 1e-9) / max|diag L_h| when every off-diagonal entry of L_h is
    nonnegative, else 0: no dt is certified.
    """
    rows, cols, vals = rate
    if np.min(vals[rows != cols], initial=0.0) < 0.0:
        return 0.0
    return _diagonal_limit(rate)


def _diagonal_limit(rate) -> float:
    """(1 - 1e-9) / max|diag L_h|: below it every diagonal entry of I + dt L_h is positive."""
    rows, cols, vals = rate
    worst = float(np.max(np.abs(vals[rows == cols]), initial=0.0))
    return (1.0 - _POSITIVITY_MARGIN) / worst if worst > 0.0 else np.inf


def _index(axis: int, along, tangential) -> tuple:
    """Grid index from the coordinate along `axis` and, in 2D, the other one."""
    if tangential is None:
        return (along,)
    return (along, tangential) if axis == 0 else (tangential, along)


def _stencil_term(mg: ModeGrid, axis: int, rows, coef, ik, it, sample=None):
    """(row, cell, weight) for coef * sample * p at cell (ik, it) along `axis`.

    At most one index lies one cell outside the grid: that absorbing ghost is
    the negated edge cell, for p and for p times a cell sample alike.
    """
    idx = _index(axis, ik, it)
    ghost = False
    for i, n in zip(idx, mg.shape):
        ghost = ghost | (i < 0) | (i >= n)
    cell = np.ravel_multi_index(idx, mg.shape, mode="clip")
    w = np.where(ghost, -coef, coef)
    if sample is not None:
        w = w * sample.reshape(-1)[cell]
    return rows, cell, w


def _face_current_terms(mg: ModeGrid, samples: dict, axis: int):
    """(face, cell, weight) with J.e_axis = sum weight * p[cell] on every face.

    Inner faces take centred face values and normal differences, and in 2D
    the face mean of centred tangential differences, ghosted along the
    tangent.  A boundary face takes the fitted half-cell flux from its edge
    cell to p = 0 at the face, h = dx/2 away: J = -(D/h) B(v h/D) p_edge on
    the lower face and (D/h) B(-v h/D) p_edge on the upper one, with v and D
    as in `_one_sided_terms`.  Its outflux is therefore never negative for a
    nonnegative edge cell.
    """
    d = mg.dimension
    tax = 1 - axis
    n = mg.shape[axis]
    face_shape = tuple(s + (k == axis) for k, s in enumerate(mg.shape))
    fidx = np.indices(face_shape).reshape(d, -1)
    inner = (fidx[axis] >= 1) & (fidx[axis] < n)
    face = np.flatnonzero(inner)
    fk = fidx[axis][inner]
    ft = fidx[tax][inner] if d == 2 else None
    terms = []

    def emit(coef, ik, it, sample=None):
        terms.append(_stencil_term(mg, axis, face, coef, ik, it, sample))

    half_a0 = 0.5 * samples[("A0f", axis)].reshape(-1)[inner]
    emit(half_a0, fk - 1, ft)
    emit(half_a0, fk, ft)
    for a_cell, a_face in zip(samples["A_cell"], samples[("Af", axis)]):
        c = -0.5 * a_face.reshape(-1)[inner]
        emit(c / mg.dx[axis], fk, ft, a_cell[..., axis])
        emit(-c / mg.dx[axis], fk - 1, ft, a_cell[..., axis])
        if d == 2:
            ct = 0.25 * c / mg.dx[tax]
            for ik in (fk - 1, fk):
                emit(ct, ik, ft + 1, a_cell[..., tax])
                emit(-ct, ik, ft - 1, a_cell[..., tax])

    tang, h = (None if d == 1 else np.arange(mg.shape[tax])), 0.5 * mg.dx[axis]
    for side, sign in ((0, -1.0), (1, 1.0)):
        along = np.full(1 if d == 1 else tang.size, side * n)
        at, edge = _index(axis, along, tang), _index(axis, along - side, tang)
        on_face = [a[at] for a in samples[("Af", axis)]]
        in_cell = [a[..., axis][edge] for a in samples["A_cell"]]
        below, above = (on_face, in_cell) if side == 0 else (in_cell, on_face)
        v, diff = _drift_and_diffusion(samples, axis, at, below, above, h)
        w = sign * _fitted(-sign * v, diff, h)
        terms.append((np.ravel_multi_index(at, face_shape), np.ravel_multi_index(edge, mg.shape), w))
    return _join(terms)


def _one_sided_terms(mg: ModeGrid, samples: dict, tab: TransferTable):
    """(row, cell, weight) of the one-sided currents beside an image face H.

    Rows 0..m-1 hold the current on the face below H and rows m..2m-1 the
    one on the face above it (faces j_h - 1 and j_h + 1), so neither sees the
    jump at H.  Each is the exponentially fitted flux of the two cells beside
    its face (Scharfetter & Gummel 1969), J = (D/dx) (B(-Pe) p_lo - B(Pe) p_hi)
    with B(x) = x / expm1(x) and Pe = v dx / D (`_drift_and_diffusion`).  It
    is exact for a constant current under constant coefficients, so the
    boundary layer behind H does not spoil it.  In 2D the centred tangential
    difference along the cell column next to H is added, ghosted at its ends.
    """
    k, t = tab.h_axis, tab.tgt_tangential
    dx = mg.dx[k]
    m = 1 if t is None else t.size
    jh = np.full(m, tab.h_face_index)
    rows = np.arange(2 * m)
    tt = None if t is None else np.tile(t, 2)
    fk = np.concatenate([jh - 1, jh + 1])
    # the face sits between cells fk - 1 and fk, so `at` also names the upper cell
    at, lo = _index(k, fk, tt), _index(k, fk - 1, tt)
    below = [a[..., k][lo] for a in samples["A_cell"]]
    above = [a[..., k][at] for a in samples["A_cell"]]
    v, d = _drift_and_diffusion(samples, k, at, below, above, dx)
    terms = [
        _stencil_term(mg, k, rows, _fitted(-v, d, dx), fk - 1, tt),
        _stencil_term(mg, k, rows, -_fitted(v, d, dx), fk, tt),
    ]
    if mg.dimension == 2:
        at_h = _index(k, tab.h_face_index, t)
        near = np.concatenate([jh - 1, jh])
        for a_cell, a_face in zip(samples["A_cell"], samples[("Af", k)]):
            ct = np.tile(-0.25 * a_face[at_h] / mg.dx[1 - k], 2)
            terms.append(_stencil_term(mg, k, rows, ct, near, tt + 1, a_cell[..., 1 - k]))
            terms.append(_stencil_term(mg, k, rows, -ct, near, tt - 1, a_cell[..., 1 - k]))
    return _join(terms)


def _drift_and_diffusion(samples: dict, k: int, at, below, above, dist):
    """v and D of the fitted flux at the faces `at` normal to axis k.

    D = 1/2 sum_r A_r.e_k^2 and v is the drift less the Ito correction
    1/2 sum_r A_r.e_k d_k A_r.e_k, with d_k A_r.e_k the difference of the
    samples `above` and `below` the face (one array per r), `dist` apart.
    """
    v = samples[("A0f", k)][at]
    d = 0.0
    for a_face, a_lo, a_hi in zip(samples[("Af", k)], below, above):
        af = a_face[at]
        d = d + 0.5 * af * af
        v = v - 0.5 * af * (a_hi - a_lo) / dist
    return v, d


def _fitted(v, d, dx):
    """(d/dx) B(v dx / d) with B(x) = x / expm1(x), B(0) = 1; max(-v, 0) where d = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v == 0.0, d / dx, v / np.expm1(v * dx / d))


def _join(parts):
    """One (rows, cols, vals) triplet from a list of them."""
    return tuple(np.concatenate(x) for x in zip(*parts))


def _coalesce(triplets, n_cols: int):
    """Sum duplicate (row, col) entries, drop exact zeros, sort by row."""
    rows, cols, vals = triplets
    keys, inverse = np.unique(rows.astype(np.int64) * n_cols + cols, return_inverse=True)
    summed = np.bincount(inverse, vals, minlength=keys.size)
    nz = summed != 0.0
    keys = keys[nz]
    return ((keys // n_cols).astype(np.intp), (keys % n_cols).astype(np.intp), summed[nz])


def _stability_bound(grid: GridLayout) -> float:
    """0.45 min(dx^2 / max|a|, dx / max|b|), capped at the operator's diagonal limit."""
    a_max = 0.0
    b_max = 0.0
    dx_min = np.inf
    for q_idx, mg in enumerate(grid.mode_grids):
        pts = mg.cell_center_points().reshape(-1, grid.dimension)
        b, a = ito_coefficients(grid.model, q_idx, pts)
        # infinity norm bounds the spectral radius of the symmetric a
        a_max = max(a_max, float(np.max(np.sum(np.abs(a), axis=-1))))
        b_max = max(b_max, float(np.max(np.abs(b))))
        dx_min = min(dx_min, float(np.min(mg.dx)))
    bound = np.inf
    if a_max > 0:
        bound = min(bound, dx_min * dx_min / a_max)
    if b_max > 0:
        bound = min(bound, dx_min / b_max)
    return min(_STABILITY_SAFETY * bound, _diagonal_limit(grid.forward_operator().rate))


def stable_dt(grid: GridLayout, fraction: float = 1.0) -> float:
    """A time step at `fraction` of the advertised explicit stability bound."""
    return fraction * grid.stability_bound()


def evolve(model: HybridModel, grid: GridLayout, density: DensityState, dt: float, n_steps: int) -> DensityState:
    """Advance the density n_steps explicit Euler steps of size dt.

    Each step applies the grid's assembled forward operator to the pre-step
    density: the cell rates L_h p (image-face sources included) and the
    terminal rates T p, as one matvec of the stacked operator [dt T; dt L_h],
    added to one state vector [q | p].  Mass is conserved after every step up
    to rounding.  The matvec is banded, its layout built on a grid's first
    evolve: each diagonal col - row with >= 512 entries multiplies a shifted
    slice of the zero-padded state, added in ascending offset order into
    zeros, and bincount sums the rows with other entries (T, cells beside
    image faces).  Rows add their products in column order from +0.0, which
    a missing entry's zero product cannot change, so the bytes are those of
    one bincount.

    A start density with a cell below the rounding band, -1e-12 max p,
    raises NegativeDensity before the first step.  When dt <=
    `ForwardOperator.positivity_dt` and the start density is nonnegative, the
    step matrix is certified entrywise nonnegative, so no check could fire
    (module docstring), and the step is the matvec and the add alone.
    Operators with cross-diffusion or cell Peclet numbers above 2, and start
    densities with negative cells inside the band, keep the per-step check:
    a density undershooting the rounding band raises NegativeDensity.  A
    negative or non-integer n_steps, or mode arrays whose sizes differ from
    the grid's cell counts, raise SolverError.
    """
    _check_count("n_steps", n_steps)
    if not dt > 0.0:
        raise SolverError(f"dt must be positive, got {dt}")
    bound = grid.stability_bound()
    if dt > bound * (1.0 + 1e-12):
        raise StabilityViolation(f"dt {dt} exceeds the stability bound {bound:.6e}")
    _check_cells(grid, density)

    op = grid.forward_operator()
    names = model.terminal_states
    n_t = len(names)
    step = grid._caches.get("step")
    if step is None:
        # rows [0, n_t) are T, then L_h, over the state [q | p]
        rows = np.concatenate((op.terminal[0], op.rate[0] + n_t))
        cols = np.concatenate((op.terminal[1], op.rate[1])) + n_t
        step = grid._caches["step"] = _BandedStep(rows, cols, n_t + op.n_cells)
    state, matvec = step.bind(dt * np.concatenate((op.terminal[2], op.rate[2])))
    q, p = state[:n_t], state[n_t:]
    q[:], p[:] = [density.q.get(name, 0.0) for name in names], op.flatten(density.p)
    t = density.t
    _check_density(op, p, t)
    checked = not (dt <= op.positivity_dt and p.min(initial=0.0) >= 0.0)
    for _ in range(n_steps):
        state += matvec()
        t += dt
        if checked:
            _check_density(op, p, t)
    terms = dict(density.q)
    terms.update(zip(names, q.tolist()))
    return DensityState(op.split(p), terms, t)


def _check_count(name: str, value, low: int = 0):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise SolverError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_density(op: ForwardOperator, p: np.ndarray, t: float):
    """Refuse a density with a cell below the rounding band, -1e-12 max p."""
    if p.min() < 0.0:
        tol = _NEG_DENSITY_REL_TOL * max(float(p.max()), 1e-300)
        for q_idx, arr in enumerate(op.split(p)):
            worst = float(np.min(arr))
            if worst < -tol:
                raise NegativeDensity(f"mode {q_idx} density undershot to {worst:.3e} at t={t:.6g}")


def stationary_density(model: HybridModel, grid: GridLayout) -> DensityState:
    """Stationary mode densities by a sparse direct solve.

    The one-step update is linear in the density, so the stationary
    profile solves L_h p = 0 for the assembled operator on all cells.  The equation of one
    cell, redundant when no terminal drains the model, is replaced by p = 1
    there: the reset-fed cell above the first image face, or the last cell
    when the model has no image face.  The system is solved by sparse LU, tiny
    negative entries are clipped, and the profile is normalised to unit
    mass.  A profile that sends more than 1e-12 of its mass to terminals per
    stable step is not stationary, since terminals drain the model, and
    raises SolverError.  scipy is imported here, so only callers of this
    function load it.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    op = grid.forward_operator()
    n = op.n_cells
    pin = n - 1
    if grid.surface_tables:
        tab = grid.surface_tables[0]
        tang = None if tab.tgt_tangential is None else tab.tgt_tangential[0]
        idx = _index(tab.h_axis, tab.h_face_index, tang)
        pin = op.offsets[tab.target_mode] + np.ravel_multi_index(idx, grid.mode_grids[tab.target_mode].shape)
    rows, cols, vals = op.rate
    sel = rows != pin
    matrix = csc_matrix(
        (np.append(vals[sel], 1.0), (np.append(rows[sel], pin), np.append(cols[sel], pin))),
        shape=(n, n),
    )
    rhs = np.zeros(n)
    rhs[pin] = 1.0
    solution = np.maximum(splu(matrix).solve(rhs), 0.0)
    vol = np.concatenate(
        [np.full(int(np.prod(mg.shape)), mg.cell_volume) for mg in grid.mode_grids]
    )
    solution /= float(solution @ vol)
    drained = float(np.sum(_matvec(op.terminal, solution, len(model.terminal_states)))) * stable_dt(grid)
    if drained > 1e-12:
        raise SolverError(f"no stationary density: terminals drain {drained:.3e} of the mass per stable step")
    return DensityState(op.split(solution), {name: 0.0 for name in model.terminal_states}, 0.0)


def run_to_stationarity(
    model: HybridModel,
    grid: GridLayout,
    density: DensityState,
    dt: float,
    l1_tol: float = 1e-6,
    check_every: int = 200,
    max_steps: int = 2_000_000,
):
    """Evolve until the one-step L1 change drops below l1_tol.

    Returns (density, info) with the number of steps taken and the final
    per-step L1 change.  Malformed controls raise SolverError naming them.
    """
    real = isinstance(l1_tol, (int, float, np.integer, np.floating)) and not isinstance(l1_tol, bool)
    if not (real and 0 < l1_tol < np.inf):
        raise SolverError(f"l1_tol must be a finite number > 0, got {l1_tol!r}")
    _check_count("check_every", check_every)
    _check_count("max_steps", max_steps)
    state = density
    steps = 0
    l1 = np.inf
    while steps < max_steps:
        chunk = min(check_every, max_steps - steps)
        state = evolve(model, grid, state, dt, chunk)
        steps += chunk
        probe = evolve(model, grid, state, dt, 1)
        steps += 1
        l1 = sum(
            float(np.sum(np.abs(probe.p[i] - state.p[i]))) * grid.mode_grids[i].cell_volume
            for i in range(len(state.p))
        )
        state = probe
        if l1 < l1_tol:
            break
    return state, {"steps": steps, "l1_change": l1, "converged": l1 < l1_tol}


def coarsen(model: HybridModel, grid: GridLayout, density: DensityState, factor: int):
    """Aggregate to a factor-coarser grid by conservative block averaging."""
    _check_count("factor", factor, 1)
    new_res = []
    for mg in grid.mode_grids:
        if any(n % factor for n in mg.shape):
            raise SolverError(f"grid shape {mg.shape} is not divisible by {factor}")
        new_res.append(tuple(n // factor for n in mg.shape))
    coarse_grid = build_grid(model, new_res)
    # each axis splits into (blocks, factor); the means run over the factor axes
    arrays = [
        a.reshape([m for n in a.shape for m in (n // factor, factor)]).mean(axis=(1, 3)[: a.ndim])
        for a in density.p
    ]
    return coarse_grid, DensityState(arrays, dict(density.q), density.t)
