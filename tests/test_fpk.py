import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resetsde import fpk
from resetsde.fpk import (
    CharacteristicFacePresent,
    MisalignedH,
    NegativeDensity,
    SolverError,
    StabilityViolation,
    UnsupportedDimension,
    _matvec,
    build_grid,
    coarsen,
    evolve,
    project_density,
    run_to_stationarity,
    stable_dt,
    stationary_density,
    total_mass,
    DensityState,
)
from resetsde.model import (
    AffineField,
    AffineMap,
    Mode,
    ModelSpec,
    ResetEdge,
    SurfaceTarget,
    TerminalTarget,
    VectorFieldSet,
    box_domain,
    build_model,
    constant_field,
    interval_domain,
    ito_coefficients,
    zero_field,
)
from resetsde.scenarios import gamblers_ruin_model

THERMO_SPANS = ((19.0, 22.28), (17.72, 21.0))


def thermostat_1d(sigma=0.3):
    """Two-mode 1D switching fixture with far-field terminal truncation."""
    drift0 = AffineField([[-1.0]], [15.0])
    drift1 = AffineField([[-1.0]], [25.0])
    diff = constant_field([sigma])
    mode0 = Mode(interval_domain(*THERMO_SPANS[0]), VectorFieldSet(drift0, (diff,)))
    mode1 = Mode(interval_domain(*THERMO_SPANS[1]), VectorFieldSet(drift1, (diff,)))
    edges = [
        ResetEdge(0, 0, SurfaceTarget(1, AffineMap.identity(1))),
        ResetEdge(1, 1, SurfaceTarget(0, AffineMap.identity(1))),
        ResetEdge(0, 1, TerminalTarget("truncated")),
        ResetEdge(1, 0, TerminalTarget("truncated")),
    ]
    return build_model(ModelSpec(1, [mode0, mode1], edges, terminal_states=["truncated"]))


def thermostat_resolution(dx):
    return [
        (int(round((hi - lo) / dx)),) for lo, hi in THERMO_SPANS
    ]


def brownian_interval(lo=0.0, hi=8.0, sigma=1.0):
    mode = Mode(
        interval_domain(lo, hi),
        VectorFieldSet(zero_field(1), (constant_field([sigma]),)),
    )
    edges = [
        ResetEdge(0, 0, TerminalTarget("hit")),
        ResetEdge(0, 1, TerminalTarget("escaped")),
    ]
    return build_model(ModelSpec(1, [mode], edges, terminal_states=["hit", "escaped"]))


def ou_interval(kappa=1.0, sigma=1.0, half_width=6.0):
    mode = Mode(
        interval_domain(-half_width, half_width),
        VectorFieldSet(AffineField([[-kappa]], [0.0]), (constant_field([sigma]),)),
    )
    edges = [
        ResetEdge(0, 0, TerminalTarget("escaped")),
        ResetEdge(0, 1, TerminalTarget("escaped")),
    ]
    return build_model(ModelSpec(1, [mode], edges, terminal_states=["escaped"]))


def gaussian_cells(grid, mode, mean, std):
    """Exact cell averages of a normal density via the error function."""
    mg = grid.mode_grids[mode]
    faces = mg.faces(0)
    cdf = np.array([0.5 * (1.0 + math.erf((x - mean) / (std * math.sqrt(2.0)))) for x in faces])
    return np.diff(cdf) / mg.dx[0]


def point_density(grid, mode, mean, std):
    arrays = [np.zeros(mg.shape) for mg in grid.mode_grids]
    arrays[mode] = gaussian_cells(grid, mode, mean, std)
    mass = sum(float(np.sum(a)) * grid.mode_grids[i].cell_volume for i, a in enumerate(arrays))
    q0 = {name: 0.0 for name in grid.model.terminal_states}
    return DensityState([a / mass for a in arrays], q0, 0.0)


def face_currents_1d(grid, arrays):
    """J.e_x on the n + 1 faces of a one-mode 1D grid: the first rows of F p."""
    op = grid.forward_operator()
    return op.face_currents(op.flatten(arrays))[: grid.mode_grids[0].shape[0] + 1]


def cell_rates(grid, arrays):
    """L_h p per mode."""
    op = grid.forward_operator()
    return op.split(_matvec(op.rate, op.flatten(arrays), op.n_cells))


def beside_image(tab, k_cell):
    """Index of the target cells at along-index k_cell paired with the source faces."""
    along = np.full(1 if tab.tgt_tangential is None else tab.tgt_tangential.size, k_cell)
    return fpk._index(tab.h_axis, along, tab.tgt_tangential)


def inner_divergence(grid, flat):
    """-div F p over the inner faces: L_h p without the routing of the outflux B p."""
    op = grid.forward_operator()
    currents = op.face_currents(flat)
    start, out = 0, []
    for mg in grid.mode_grids:
        div = np.zeros(mg.shape)
        for k in range(mg.dimension):
            face_shape = tuple(s + (i == k) for i, s in enumerate(mg.shape))
            size = int(np.prod(face_shape))
            j = np.moveaxis(currents[start : start + size].reshape(face_shape), k, 0).copy()
            start += size
            j[0] = j[-1] = 0.0
            div -= np.moveaxis(np.diff(j, axis=0), 0, k) * mg.face_area(k) / mg.cell_volume
        out.append(div)
    return op.flatten(out)


def assert_half_split(grid, tab):
    """Each source face's outflux enters the two cells beside its image face, half in each.

    The density sits on the table's source edge cells alone, and what L_h p
    adds to the inner-face divergence of F p is the routed outflux.
    """
    op = grid.forward_operator()
    arrays = [np.zeros(mg.shape) for mg in grid.mode_grids]
    sg = grid.mode_grids[tab.source_mode]
    m = 1 if sg.dimension == 1 else sg.shape[1 - tab.src_axis]
    along = np.full(m, 0 if tab.src_side == 0 else sg.shape[tab.src_axis] - 1)
    tang = None if sg.dimension == 1 else np.arange(m)
    arrays[tab.source_mode][fpk._index(tab.src_axis, along, tang)] = np.linspace(1.0, 2.0, m)
    flat = op.flatten(arrays)
    rates = _matvec(op.rate, flat, op.n_cells)
    out = op.boundary_outflux(flat)[op.outflux_edge == tab.edge_index]
    assert np.all(out > 0.0)
    tg = grid.mode_grids[tab.target_mode]
    received = op.split(rates - inner_divergence(grid, flat))[tab.target_mode] * tg.cell_volume
    expected = np.zeros(tg.shape)
    for k_cell in (tab.h_face_index - 1, tab.h_face_index):
        expected[beside_image(tab, k_cell)] = 0.5 * out * tab.source_area
    # the source edge cells lose the outflux; any of them in the target mode is negative
    tol = 1e-12 * float(np.max(np.abs(rates))) * tg.cell_volume
    assert np.max(np.abs(np.maximum(received, 0.0) - expected)) <= tol


def three_point_response(grid, flat):
    """[cell rates; terminal rates] of a flat density, written out face by face.

    Along each axis J = b p_f - 1/2 sum_r A_r (A_r p)' on a three-point
    stencil: p_f is the mean of the two cells; image faces are ordinary faces.
    A boundary face carries the fitted flux from its edge cell to p = 0 half a
    cell away, J = -/+ (D/h) B(-/+ v h/D) p_edge on the lower / upper face,
    with B(x) = x / expm1(x), D = 1/2 sum_r A_r^2 and v = b - 1/2 sum_r A_r
    dA_r/dx taken between the face and the edge cell.  The outflux of each
    boundary face leaves its edge cell and enters its terminal or, half in
    each, the two cells beside its image face.  The diffusion vectors must be
    axis-aligned: there are no tangential terms.
    """
    model = grid.model
    op = grid.forward_operator()

    def ghosted(v):
        return np.concatenate([-v[:1], v, -v[-1:]])

    def fitted(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x == 0.0, 1.0, x / np.expm1(x))

    rates, outflux = [], {}
    for q, (mg, p) in enumerate(zip(grid.mode_grids, op.split(flat))):
        fields = model.modes[q].fields
        centers = mg.cell_center_points()
        rate = np.zeros(mg.shape)
        for k in range(mg.dimension):
            comps = [mg.faces(i) if i == k else mg.centers(i) for i in range(mg.dimension)]
            faces = np.stack(np.meshgrid(*comps, indexing="ij"), axis=-1)

            def along(field, pts):
                # component k of a field, with axis k first
                return np.moveaxis(np.asarray(field(pts), dtype=float)[..., k], k, 0)

            pk = np.moveaxis(p, k, 0)
            pg = ghosted(pk)
            j = 0.5 * (pg[1:] + pg[:-1]) * along(fields.drift, faces)
            for a in fields.diffusion:
                apg = ghosted(pk * along(a, centers))
                j -= 0.5 * along(a, faces) * np.diff(apg, axis=0) / mg.dx[k]
            h = 0.5 * mg.dx[k]
            for end, sign in ((0, -1.0), (-1, 1.0)):
                a_face = [along(a, faces)[end] for a in fields.diffusion]
                a_cell = [along(a, centers)[end] for a in fields.diffusion]
                big_d = sum(0.5 * af * af for af in a_face)
                v = along(fields.drift, faces)[end] - sign * sum(
                    0.5 * af * (af - ac) / h for af, ac in zip(a_face, a_cell)
                )
                j[end] = sign * (big_d / h) * fitted(-sign * v * h / big_d) * pk[end]
            outflux[(q, k, 0)], outflux[(q, k, 1)] = -j[0], j[-1].copy()
            rate -= np.moveaxis(np.diff(j, axis=0), 0, k) * mg.face_area(k) / mg.cell_volume
        rates.append(rate)
    terminal = dict.fromkeys(model.terminal_states, 0.0)
    for tab in grid.surface_tables:
        out = outflux[(tab.source_mode, tab.src_axis, tab.src_side)]
        tg = grid.mode_grids[tab.target_mode]
        for k_cell in (tab.h_face_index - 1, tab.h_face_index):
            idx = beside_image(tab, k_cell)
            np.add.at(rates[tab.target_mode], idx, 0.5 * out * tab.source_area / tg.cell_volume)
    for tab in grid.terminal_tables:
        out = outflux[(tab.source_mode, tab.src_axis, tab.src_side)]
        area = grid.mode_grids[tab.source_mode].face_area(tab.src_axis)
        terminal[tab.terminal] += float(np.sum(out)) * area
    return np.concatenate([r.reshape(-1) for r in rates] + [list(terminal.values())])


class TestBuildGrid:
    def test_unit_interval(self):
        model = brownian_interval(0.0, 1.0)
        grid = build_grid(model, 100)
        mg = grid.mode_grids[0]
        assert mg.shape == (100,)
        assert mg.faces(0)[0] == 0.0 and mg.faces(0)[-1] == 1.0
        assert len(grid.terminal_tables) == 2

    def test_thermostat_h_faces_tagged_and_paired(self):
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(0.02))
        assert len(grid.surface_tables) == 2
        into_mode1 = next(t for t in grid.surface_tables if t.target_mode == 1)
        assert into_mode1.h_face_index == 64        # 19.0 on mode 1's grid
        into_mode0 = next(t for t in grid.surface_tables if t.target_mode == 0)
        assert into_mode0.h_face_index == 100       # 21.0 on mode 0's grid
        for tab in grid.surface_tables:
            assert_half_split(grid, tab)

    def test_misaligned_h_rejected(self):
        model = thermostat_1d()
        # 3.28 / 40 cells leaves the image hyperplanes off the face lattice
        with pytest.raises(MisalignedH):
            build_grid(model, [(40,), (40,)])

    def test_dimension_guard(self):
        mode = Mode(
            box_domain([0.0] * 3, [1.0] * 3),
            VectorFieldSet(
                zero_field(3),
                tuple(constant_field(np.eye(3)[i]) for i in range(3)),
            ),
        )
        edges = [ResetEdge(0, f, TerminalTarget("out")) for f in range(6)]
        model = build_model(ModelSpec(3, [mode], edges, terminal_states=["out"]))
        with pytest.raises(UnsupportedDimension):
            build_grid(model, 8)

    def test_characteristic_face_refused(self):
        drift = constant_field([0.0, -1.0])
        diff_x = constant_field([1.0, 0.0])
        mode = Mode(
            box_domain([0.0, 0.0], [1.0, 1.0]),
            VectorFieldSet(drift, (diff_x, zero_field(2))),
        )
        edges = [
            ResetEdge(0, 0, TerminalTarget("out")),
            ResetEdge(0, 1, TerminalTarget("out")),
        ]
        model = build_model(
            ModelSpec(2, [mode], edges, terminal_states=["out"], characteristic_faces=[(0, 2), (0, 3)])
        )
        with pytest.raises(CharacteristicFacePresent):
            build_grid(model, 16)


class TestAbsorbingBC:
    def test_boundary_rows_see_a_face_density_of_zero(self):
        # a boundary face's current is the fitted flux from its edge cell to
        # p = 0 at the face, so its row holds only the edge cell; without
        # drift that is twice an interior face's diffusive weight, the
        # one-sided difference over half a cell
        model = brownian_interval(0.0, 1.0)
        grid = build_grid(model, 50)
        op = grid.forward_operator()
        rows, cols, vals = fpk._coalesce(op.current, op.n_cells)

        def row(face):
            return cols[rows == face].tolist(), vals[rows == face].tolist()

        inner = row(1)[1]
        assert inner[0] == -inner[1] > 0.0
        assert row(0) == ([0], [2 * inner[1]])
        assert row(50) == ([49], [2 * inner[0]])
        # each boundary row of B has one entry
        assert np.array_equal(np.bincount(op.outflux[0]), [1, 1])

    def test_linear_profile_current_is_the_half_cell_difference_to_zero(self):
        model = brownian_interval(0.0, 1.0)
        grid = build_grid(model, 10)
        p = np.linspace(0.1, 1.0, 10)
        currents = face_currents_1d(grid, [p])
        # J = -1/2 dp/dx, from the edge cell to p = 0 half a cell away
        assert currents[0] == pytest.approx(-0.5 * 0.1 / 0.05, rel=1e-14)
        assert currents[-1] == pytest.approx(0.5 * 1.0 / 0.05, rel=1e-14)

    def test_sine_mode_decay_matches_separation_of_variables(self):
        # heat equation on [0, 1] with absorbing ends: the sine mode decays
        # at rate pi^2 sigma^2 / 2
        sigma = 1.0
        model = brownian_interval(0.0, 1.0, sigma)
        n = 200
        grid = build_grid(model, n)
        mg = grid.mode_grids[0]
        xs = mg.centers(0)
        p0 = (np.pi / 2.0) * np.sin(np.pi * xs)
        density = DensityState([p0.copy()], {"hit": 0.0, "escaped": 0.0}, 0.0)
        dt = stable_dt(grid, 0.9)
        t_end = 0.05
        steps = int(round(t_end / dt))
        out = evolve(model, grid, density, dt, steps)
        expected = (np.pi / 2.0) * np.sin(np.pi * xs) * math.exp(
            -0.5 * np.pi**2 * sigma**2 * steps * dt
        )
        assert np.max(np.abs(out.p[0] - expected)) < 2e-3


    def test_sine_mode_decay_on_an_absorbing_2d_box(self):
        # the product sine mode decays at rate pi^2 sigma^2 (half of it per
        # axis); on the grid it is an exact eigenvector, with eigenvalue
        # (sigma^2 / 2) (4 / dx^2) sin^2(pi dx / 2) per axis
        sigma, n = 1.0, 48
        mode = Mode(
            box_domain([0.0, 0.0], [1.0, 1.0]),
            VectorFieldSet(zero_field(2), (constant_field([sigma, 0.0]), constant_field([0.0, sigma]))),
        )
        edges = [ResetEdge(0, f, TerminalTarget("out")) for f in range(4)]
        model = build_model(ModelSpec(2, [mode], edges, terminal_states=["out"]))
        grid = build_grid(model, n)
        pts = grid.mode_grids[0].cell_center_points()
        p0 = (np.pi**2 / 4.0) * np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        dt = stable_dt(grid, 0.9)
        steps = int(round(0.05 / dt))
        density = DensityState([p0], {"out": 0.0}, 0.0)
        out = evolve(model, grid, density, dt, steps)
        rate_h = sigma**2 * (4.0 * n * n) * np.sin(np.pi / (2 * n)) ** 2
        discrete = p0 * (1.0 - dt * rate_h) ** steps
        assert np.max(np.abs(out.p[0] - discrete)) <= 1e-12 * np.max(p0)
        exact = p0 * math.exp(-np.pi**2 * sigma**2 * steps * dt)
        assert np.max(np.abs(out.p[0] - exact)) < 2e-3
        assert total_mass(grid, out) == pytest.approx(total_mass(grid, density), abs=1e-12)


class TestProbabilityCurrent:
    def test_constant_density_constant_fields_advective_only(self):
        v = 0.7
        mode = Mode(
            interval_domain(0.0, 1.0),
            VectorFieldSet(constant_field([v]), (constant_field([0.5]),)),
        )
        edges = [
            ResetEdge(0, 0, TerminalTarget("out")),
            ResetEdge(0, 1, TerminalTarget("out")),
        ]
        model = build_model(ModelSpec(1, [mode], edges, terminal_states=["out"]))
        grid = build_grid(model, 20)
        j = face_currents_1d(grid, [np.full(20, 2.0)])
        # interior faces: p_bar v exactly, no divergence contribution
        assert np.allclose(j[1:-1], 2.0 * v)

    def test_gaussian_diffusive_current_matches_gradient(self):
        sigma = 1.0
        model = brownian_interval(-6.0, 6.0, sigma)
        errs = []
        for n in (150, 300):
            grid = build_grid(model, n)
            mg = grid.mode_grids[0]
            std = 1.0
            density = point_density(grid, 0, 0.0, std)
            j = face_currents_1d(grid, density.p)
            faces = mg.faces(0)[1:-1]
            analytic = -0.5 * sigma**2 * (
                -(faces / std**2)
                * np.exp(-0.5 * faces**2 / std**2)
                / math.sqrt(2 * math.pi * std**2)
            )
            errs.append(np.max(np.abs(j[1:-1] - analytic)))
        assert errs[0] < 2e-4
        assert errs[0] / errs[1] > 3.0   # second-order interior stencils

    def test_ou_stationary_current_vanishes_under_refinement(self):
        kappa, sigma = 1.0, 1.0
        model = ou_interval(kappa, sigma, half_width=6.0)
        maxjs = []
        for n in (100, 200):
            grid = build_grid(model, n)
            std = sigma / math.sqrt(2.0 * kappa)
            density = point_density(grid, 0, 0.0, std)
            maxjs.append(np.max(np.abs(face_currents_1d(grid, density.p)[1:-1])))
        assert maxjs[0] / maxjs[1] > 3.0
        assert maxjs[1] < 5e-4


class TestAdjointApply:
    def test_constant_density_zero_drift_interior_rate_zero(self):
        model = brownian_interval(0.0, 1.0, sigma=0.8)
        grid = build_grid(model, 40)
        rates = cell_rates(grid, [np.ones(40)])
        assert np.allclose(rates[0][2:-2], 0.0, atol=1e-14)

    def test_linear_density_constant_advection(self):
        # constant sigma adds exactly zero on a linear profile, so the rate
        # is the pure advective -v alpha on interior cells
        v, alpha, sigma = 0.6, 0.9, 0.2
        mode = Mode(
            interval_domain(0.0, 1.0),
            VectorFieldSet(constant_field([v]), (constant_field([sigma]),)),
        )
        edges = [
            ResetEdge(0, 0, TerminalTarget("out")),
            ResetEdge(0, 1, TerminalTarget("out")),
        ]
        model = build_model(ModelSpec(1, [mode], edges, terminal_states=["out"]))
        grid = build_grid(model, 50)
        xs = grid.mode_grids[0].centers(0)
        rates = cell_rates(grid, [alpha * xs + 0.3])
        assert np.allclose(rates[0][2:-2], -v * alpha, atol=1e-12)

    def test_heat_kernel_evolution_interior(self):
        sigma = 1.0
        model = brownian_interval(-4.0, 4.0, sigma)
        grid = build_grid(model, 400)
        mg = grid.mode_grids[0]
        w0 = 0.25
        density = point_density(grid, 0, 0.0, w0)
        dt = stable_dt(grid, 0.9)
        t_end = 0.1
        steps = int(round(t_end / dt))
        out = evolve(model, grid, density, dt, steps)
        var = w0**2 + sigma**2 * steps * dt
        xs = mg.centers(0)
        analytic = np.exp(-0.5 * xs**2 / var) / math.sqrt(2 * math.pi * var)
        interior = slice(20, -20)
        assert np.max(np.abs(out.p[0][interior] - analytic[interior])) < 2e-3


class TestTransferFlux:
    def test_zero_density_all_zero(self):
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(0.04))
        op = grid.forward_operator()
        zero = np.zeros(op.n_cells)
        assert np.all(op.face_currents(zero) == 0.0)
        assert np.all(op.boundary_outflux(zero) == 0.0)
        assert np.all(_matvec(op.rate, zero, op.n_cells) == 0.0)
        assert np.all(_matvec(op.terminal, zero, 1) == 0.0)

    def test_thermostat_sink_equals_source_exactly(self):
        # read from the [L_h; T] column of each boundary face's edge cell: a
        # reset face's outflux enters the two cells beside its image face,
        # half in each, a terminal face's enters its terminal, and the edge
        # cell loses what its column hands to every other row
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(0.01))
        op = grid.forward_operator()
        dense = dense_operator(grid)
        vol = np.concatenate([np.full(mg.shape, mg.cell_volume) for mg in grid.mode_grids] + [[1.0]])
        for tab in grid.surface_tables + grid.terminal_tables:
            n_src = grid.mode_grids[tab.source_mode].shape[0]
            edge_cell = op.offsets[tab.source_mode] + (0 if tab.src_side == 0 else n_src - 1)
            unit = np.zeros(op.n_cells)
            unit[edge_cell] = 1.0
            out = float(op.boundary_outflux(unit)[op.outflux_edge == tab.edge_index][0])
            assert out > 0.0
            column = dense[:, edge_cell] * vol
            if isinstance(tab, fpk.TransferTable):
                for k_cell in (tab.h_face_index - 1, tab.h_face_index):
                    assert column[op.offsets[tab.target_mode] + k_cell] == pytest.approx(out / 2, rel=1e-15)
            else:
                assert column[-1] == pytest.approx(out, rel=1e-15)
            assert abs(float(np.sum(column))) <= 1e-15 * float(np.sum(np.abs(column)))

    def test_brownian_terminal_rate_is_boundary_outflux(self):
        model = brownian_interval(0.0, 8.0)
        grid = build_grid(model, 200)
        density = point_density(grid, 0, 1.0, 0.2)
        dt = stable_dt(grid, 0.9)
        state = evolve(model, grid, density, dt, 200)
        op = grid.forward_operator()
        flat = op.flatten(state.p)
        rates = _matvec(op.terminal, flat, 2)
        tab = next(t for t in grid.terminal_tables if t.terminal == "hit")
        out0 = op.boundary_outflux(flat)[op.outflux_edge == tab.edge_index]
        assert rates[model.terminal_states.index("hit")] == pytest.approx(float(out0[0]), abs=1e-18)

    def test_negative_start_density_refused(self):
        model = brownian_interval(0.0, 1.0)
        grid = build_grid(model, 20)
        # an adversarial density with a negative cell next to the boundary,
        # whose outflux would be negative
        arr = np.full(20, 0.1)
        arr[0] = -0.5
        op = grid.forward_operator()
        assert float(np.min(op.boundary_outflux(op.flatten([arr])))) < 0.0
        density = DensityState([arr], {"hit": 0.0, "escaped": 0.0}, 0.0)
        for n_steps in (1, 0):
            with pytest.raises(NegativeDensity, match="mode 0 density undershot to -5.000e-01 at t=0"):
                evolve(model, grid, density, stable_dt(grid, 0.9), n_steps)


class TestEvolve:
    def test_zero_steps_identity(self):
        model = brownian_interval()
        grid = build_grid(model, 100)
        density = point_density(grid, 0, 1.0, 0.1)
        out = evolve(model, grid, density, stable_dt(grid, 0.5), 0)
        assert np.array_equal(out.p[0], density.p[0])
        assert out.t == density.t

    @pytest.mark.parametrize(
        "model, resolution, start, n_cells",
        [
            (thermostat_1d, thermostat_resolution(0.005), lambda g: point_density(g, 0, 20.0, 0.05), 1312),
            (gamblers_ruin_model, 50, lambda g: point_density(g, 0, 0.3, 0.05), 50),
            (lambda: recurrent_two_mode_2d(), 8, lambda g: project_density(g, [blob_2d, None]), 128),
            # large enough for the banded step
            (lambda: recurrent_two_mode_2d(), 32, lambda g: project_density(g, [blob_2d, None]), 2048),
            (gamblers_ruin_model, 1000, lambda g: point_density(g, 0, 0.02, 0.01), 1000),
        ],
        ids=["thermostat_1d", "gamblers_ruin", "recurrent_2d", "recurrent_2d_32", "gamblers_ruin_1000"],
    )
    def test_stacked_step_equals_separate_matvecs(self, model, resolution, start, n_cells):
        # reference: B, dt T and dt L_h applied one at a time to the pre-step
        # density; the step matrix is certified, so evolve runs no check
        model = model()
        grid = build_grid(model, resolution)
        density = start(grid)
        op = grid.forward_operator()
        assert op.n_cells == n_cells
        dt, n_steps = stable_dt(grid, 0.9), 2000
        assert stable_dt(grid, 1.0) <= op.positivity_dt
        names = model.terminal_states

        def matvec(triplets, p, n_rows, scale=None):
            rows, cols, vals = triplets
            vals = vals if scale is None else scale * vals
            return np.bincount(rows, vals * p[cols], minlength=n_rows)

        p = op.flatten(density.p)
        q = np.zeros(len(names))
        for _ in range(n_steps):
            assert matvec(op.outflux, p, op.outflux_edge.size).min() >= 0.0
            q += matvec(op.terminal, p, len(names), dt)
            p += matvec(op.rate, p, n_cells, dt)
        out = evolve(model, grid, density, dt, n_steps)
        assert op.flatten(out.p).tobytes() == p.tobytes()
        assert [out.q[name] for name in names] == q.tolist()
        # mass left the start mode through a boundary: the B, T and reset rows all acted
        assert np.sum(out.p[0]) * grid.mode_grids[0].cell_volume < 0.99

    @pytest.mark.parametrize(
        "model, resolution, mean, bands, n_mixed",
        [
            # 1 T row and the 4 cells beside the two image faces
            (thermostat_1d, thermostat_resolution(0.005), 20.0, [-1, 0, 1], 5),
            # 52 rows: every diagonal is too short, so the step is one bincount
            (gamblers_ruin_model, 50, 0.3, [], 52),
        ],
        ids=["thermostat_1d", "gamblers_ruin"],
    )
    def test_row_rule_picks_the_bands(self, model, resolution, mean, bands, n_mixed):
        model = model()
        grid = build_grid(model, resolution)
        evolve(model, grid, point_density(grid, 0, mean, 0.05), stable_dt(grid, 0.9), 1)
        step = grid._caches["step"]
        assert step.bands == bands
        assert step.rows.size == n_mixed

    def test_mismatched_cell_counts_refused(self):
        model = gamblers_ruin_model()
        grid = build_grid(model, 50)
        for arrays, match in (([np.ones(40)], "mode 0 density has 40 cells"), ([], "0 mode arrays")):
            density = DensityState(arrays, {"left": 0.0, "right": 0.0}, 0.0)
            with pytest.raises(SolverError, match=match):
                evolve(model, grid, density, stable_dt(grid, 0.9), 1)
            with pytest.raises(SolverError, match=match):
                total_mass(grid, density)

    def test_non_finite_cell_refused(self):
        # one NaN cell used to spread to 11 cells in 5 steps without an error
        model = gamblers_ruin_model()
        grid = build_grid(model, 50)
        density = point_density(grid, 0, 0.3, 0.05)
        density.p[0].flat[20] = np.nan
        with pytest.raises(SolverError, match="mode 0 density has non-finite cells"):
            evolve(model, grid, density, stable_dt(grid, 0.9), 5)
        with pytest.raises(SolverError, match="mode 0 density has non-finite cells"):
            total_mass(grid, density)

    def test_non_finite_terminal_mass_refused(self):
        model = gamblers_ruin_model()
        grid = build_grid(model, 50)
        density = point_density(grid, 0, 0.3, 0.05)
        density.q["left"] = np.inf
        with pytest.raises(SolverError, match="terminal 'left' mass is not finite"):
            evolve(model, grid, density, stable_dt(grid, 0.9), 5)
        with pytest.raises(SolverError, match="terminal 'left' mass is not finite"):
            total_mass(grid, density)

    def test_non_integer_n_steps_refused(self):
        model = gamblers_ruin_model()
        grid = build_grid(model, 50)
        density = point_density(grid, 0, 0.3, 0.05)
        for n_steps in (2.0, "2", True):
            with pytest.raises(SolverError, match="n_steps must be an integer"):
                evolve(model, grid, density, stable_dt(grid, 0.9), n_steps)

    def test_stability_violation_raises(self):
        model = brownian_interval()
        grid = build_grid(model, 100)
        density = point_density(grid, 0, 1.0, 0.1)
        with pytest.raises(StabilityViolation):
            evolve(model, grid, density, 10.0 * stable_dt(grid), 1)

    def test_negative_density_detected_on_under_resolved_advection(self):
        # with cell face Peclet above 2 the centered advective flux loses
        # positivity just upstream of the mass injected beside an image face;
        # the solver refuses rather than returning an oscillating density
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(0.04))
        state = point_density(grid, 0, 20.0, 0.3)
        dt = stable_dt(grid, 0.9)
        with pytest.raises(NegativeDensity):
            evolve(model, grid, state, dt, 2000)

    def test_mass_conserved_every_step(self):
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(0.01))
        state = point_density(grid, 0, 20.0, 0.3)
        dt = stable_dt(grid, 0.9)
        worst = 0.0
        for _ in range(50):
            state = evolve(model, grid, state, dt, 20)
            worst = max(worst, abs(total_mass(grid, state) - 1.0))
        assert worst < 1e-10

    def test_per_step_mass_drift_tiny(self):
        model = brownian_interval()
        grid = build_grid(model, 200)
        state = point_density(grid, 0, 1.0, 0.2)
        dt = stable_dt(grid, 0.9)
        state = evolve(model, grid, state, dt, 100)
        m0 = total_mass(grid, state)
        state = evolve(model, grid, state, dt, 1)
        m1 = total_mass(grid, state)
        assert abs(m1 - m0) < 1e-12

    def test_positivity_at_half_stability_bound(self):
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(0.01))
        state = point_density(grid, 0, 20.0, 0.3)
        dt = stable_dt(grid, 0.5)
        state = evolve(model, grid, state, dt, 2000)
        max_p = max(float(np.max(p)) for p in state.p)
        for p in state.p:
            assert float(np.min(p)) >= -1e-12 * max_p

    def test_flux_form_matches_direct_stencil_interior(self):
        # flux-form rate vs a direct second-order stencil of the adjoint
        # operator -d(bp)/dx + 1/2 d2(ap)/dx2 on a smooth density
        kappa, sigma = 0.8, 0.9
        model = ou_interval(kappa, sigma, half_width=5.0)
        grid = build_grid(model, 250)
        mg = grid.mode_grids[0]
        xs = mg.centers(0)
        dx = mg.dx[0]
        p = np.exp(-0.5 * (xs - 0.4) ** 2 / 0.6)
        p /= np.sum(p) * dx
        rates = cell_rates(grid, [p])
        bp = -kappa * xs * p
        ap = sigma**2 * p
        direct = np.empty_like(p)
        direct[1:-1] = -(bp[2:] - bp[:-2]) / (2 * dx) + 0.5 * (
            ap[2:] - 2 * ap[1:-1] + ap[:-2]
        ) / dx**2
        interior = slice(3, -3)
        scale = np.max(np.abs(direct[interior]))
        assert np.max(np.abs(rates[0][interior] - direct[interior])) < 2e-3 * scale

    def test_non_finite_dt_refused(self):
        model = brownian_interval()
        grid = build_grid(model, 100)
        density = point_density(grid, 0, 1.0, 0.1)
        for dt in (float("nan"), -1.0, 0.0):
            with pytest.raises(SolverError, match="dt must be positive"):
                evolve(model, grid, density, dt, 1)


class TestStationaryAndCoarsen:
    @pytest.mark.parametrize("gamma", [0.3, 0.8])
    def test_direct_stationary_profile_is_a_fixed_point(self, gamma):
        model = thermostat_1d(gamma)
        grid = build_grid(model, thermostat_resolution(0.01))
        state = stationary_density(model, grid)
        assert total_mass(grid, state) == pytest.approx(1.0, abs=1e-10)
        # both switching faces carry flux in the stationary cycle
        op = grid.forward_operator()
        raw = op.boundary_outflux(op.flatten(state.p))
        for tab in grid.surface_tables:
            assert float(raw[op.outflux_edge == tab.edge_index][0]) > 1e-2
        # evolving from the stationary profile barely moves it
        dt = stable_dt(grid, 0.9)
        evolved = evolve(model, grid, state.copy(), dt, 400)
        drift = sum(
            float(np.sum(np.abs(evolved.p[i] - state.p[i]))) * grid.mode_grids[i].cell_volume
            for i in range(2)
        )
        assert drift < 1e-8

    @pytest.mark.parametrize("dx", [0.005, 0.0025])
    def test_stationary_mass_beyond_the_image_points(self, dx):
        # the density is continuous across each image point, so mass spreads
        # past it: mode 0 above x = 21, mode 1 below x = 19; the quadrature
        # oracle of the interface condition puts 1.545e-3 there per mode
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(dx))
        state = stationary_density(model, grid)
        mg0, mg1 = grid.mode_grids
        above = float(np.sum(state.p[0][mg0.centers(0) > 21.0])) * mg0.cell_volume
        below = float(np.sum(state.p[1][mg1.centers(0) < 19.0])) * mg1.cell_volume
        assert 1.50e-3 <= above <= 1.60e-3
        assert 1.50e-3 <= below <= 1.60e-3

    def test_draining_model_has_no_stationary_density(self):
        # both faces of the ruin interval absorb, so the pinned solve gave a
        # unit-mass ramp with max|L_h p| = 5,000 instead of failing
        model = gamblers_ruin_model()
        grid = build_grid(model, 50)
        with pytest.raises(SolverError, match="terminals drain"):
            stationary_density(model, grid)

    def test_run_to_stationarity_terminates_on_draining_density(self):
        model = brownian_interval(0.0, 2.0)
        grid = build_grid(model, 100)
        density = point_density(grid, 0, 1.0, 0.2)
        dt = stable_dt(grid, 0.9)
        state, info = run_to_stationarity(
            model, grid, density, dt, l1_tol=1e-6, check_every=500, max_steps=100000
        )
        assert info["converged"]
        assert info["l1_change"] < 1e-6
        # nearly everything was absorbed at the ends by the time the
        # per-step change dropped below tolerance
        assert state.q["hit"] + state.q["escaped"] > 0.99

    @pytest.mark.parametrize("factor", [2.0, True, "2", 1.5, None, 0, -2])
    def test_coarsen_refuses_a_factor_that_is_not_a_positive_integer(self, factor):
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(0.01))
        with pytest.raises(SolverError, match="factor"):
            coarsen(model, grid, point_density(grid, 0, 20.0, 0.3), factor)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("l1_tol", float("nan")),
            ("l1_tol", float("inf")),
            ("l1_tol", 0.0),
            ("l1_tol", -1e-6),
            ("l1_tol", True),
            ("l1_tol", "1e-6"),
            ("check_every", -1),
            ("check_every", 2.5),
            ("check_every", True),
            ("max_steps", -1),
            ("max_steps", 1e5),
            ("max_steps", "100"),
        ],
    )
    def test_run_to_stationarity_refuses_bad_controls(self, name, value):
        # a NaN l1_tol used to run silently to max_steps
        model = brownian_interval(0.0, 2.0)
        grid = build_grid(model, 100)
        density = point_density(grid, 0, 1.0, 0.2)
        with pytest.raises(SolverError, match=name):
            run_to_stationarity(model, grid, density, stable_dt(grid, 0.9), **{name: value})

    def test_coarsen_preserves_mass(self):
        model = thermostat_1d()
        grid = build_grid(model, thermostat_resolution(0.01))
        density = point_density(grid, 0, 20.0, 0.3)
        coarse_grid, coarse = coarsen(model, grid, density, 4)
        assert coarse_grid.mode_grids[0].shape == (82,)
        assert total_mass(coarse_grid, coarse) == pytest.approx(
            total_mass(grid, density), abs=1e-12
        )

    def test_project_density_normalises(self):
        model = brownian_interval(0.0, 1.0)
        grid = build_grid(model, 64)
        density = project_density(grid, [lambda pts: np.exp(-pts[..., 0])])
        assert total_mass(grid, density) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_project_density_refuses_non_finite_values(self, bad):
        model = brownian_interval(0.0, 1.0)
        grid = build_grid(model, 64)
        with pytest.raises(SolverError, match="not finite"):
            project_density(grid, [lambda pts: np.where(pts[..., 0] > 0.5, bad, 1.0)])


class Test2DTransfer:
    def build_two_box_model(self, drift_right=(0.4, 0.0), matrix=np.eye(2)):
        """Left box feeds its right face into the line x = 2 inside the right box.

        By default the right box's drift continues rightward past that line
        and the reset is a shift by one.
        """
        diff = (constant_field([0.6, 0.0]), constant_field([0.0, 0.6]))
        drift_left = constant_field([0.4, 0.0])     # pushes mass toward the shared face
        mode_a = Mode(box_domain([0.0, 0.0], [1.0, 1.0]), VectorFieldSet(drift_left, diff))
        mode_b = Mode(
            box_domain([1.5, 0.0], [3.5, 1.0]), VectorFieldSet(constant_field(drift_right), diff)
        )
        # the x = 1 face lands on x = 2 for the identity and for [[0, 0], [0, 1]]
        reset = AffineMap(matrix, [2.0, 0.0] - np.asarray(matrix) @ [1.0, 0.0])
        edges = [
            ResetEdge(0, 1, SurfaceTarget(1, reset)),
            ResetEdge(0, 0, TerminalTarget("out")),
            ResetEdge(0, 2, TerminalTarget("out")),
            ResetEdge(0, 3, TerminalTarget("out")),
            ResetEdge(1, 0, TerminalTarget("out")),
            ResetEdge(1, 1, TerminalTarget("out")),
            ResetEdge(1, 2, TerminalTarget("out")),
            ResetEdge(1, 3, TerminalTarget("out")),
        ]
        return build_model(ModelSpec(2, [mode_a, mode_b], edges, terminal_states=["out"]))

    def test_grid_pairs_faces_one_to_one(self):
        model = self.build_two_box_model()
        grid = build_grid(model, [(20, 20), (40, 20)])
        tab = grid.surface_tables[0]
        assert tab.h_axis == 0
        assert tab.h_face_index == 10     # x = 2.0 on mode b's grid
        assert np.array_equal(tab.tgt_tangential, np.arange(20))
        assert_half_split(grid, tab)

    def blob_in_left_box(self, grid):
        mga = grid.mode_grids[0]
        pts = mga.cell_center_points()
        blob = np.exp(
            -((pts[..., 0] - 0.6) ** 2 + (pts[..., 1] - 0.5) ** 2) / (2 * 0.15**2)
        )
        mass = float(np.sum(blob)) * mga.cell_volume
        return DensityState([blob / mass, np.zeros(grid.mode_grids[1].shape)], {"out": 0.0}, 0.0)

    def test_mass_conserved_through_2d_transfer(self):
        model = self.build_two_box_model()
        grid = build_grid(model, [(20, 20), (40, 20)])
        dt = stable_dt(grid, 0.9)
        state = evolve(model, grid, self.blob_in_left_box(grid), dt, 400)
        assert abs(total_mass(grid, state) - 1.0) < 1e-10
        # mass actually crossed into the second mode
        assert float(np.sum(state.p[1])) * grid.mode_grids[1].cell_volume > 1e-3

    def test_tangential_target_drift_and_a_degenerate_reset_map(self):
        # the map sends the source normal to zero and the target drift runs
        # along H, so nothing picks a side of H: the outflux enters both
        model = self.build_two_box_model(drift_right=(0.0, 0.3), matrix=[[0.0, 0.0], [0.0, 1.0]])
        grid = build_grid(model, [(20, 20), (40, 20)])
        assert_half_split(grid, grid.surface_tables[0])
        dt = stable_dt(grid, 0.9)
        state = evolve(model, grid, self.blob_in_left_box(grid), dt, 500)
        assert abs(total_mass(grid, state) - 1.0) <= 1e-12
        assert float(np.sum(state.p[1])) * grid.mode_grids[1].cell_volume > 1e-2


def recurrent_two_mode_2d():
    """Two unit squares with no terminal: every face resets by a translation.

    The x faces of both modes land on the line x = 0.5 of mode 1 and the y
    faces on the line y = 0.5 of mode 0, tangential to the drifts there, so
    the reset mass enters both sides of each line.
    """
    mode_a = Mode(
        box_domain([0.0, 0.0], [1.0, 1.0]),
        VectorFieldSet(
            constant_field([0.3, 0.0]), (constant_field([0.5, 0.0]), constant_field([0.0, 0.4]))
        ),
    )
    mode_b = Mode(
        box_domain([0.0, 0.0], [1.0, 1.0]),
        VectorFieldSet(
            constant_field([0.0, -0.2]), (constant_field([0.4, 0.0]), constant_field([0.0, 0.6]))
        ),
    )
    to_x = {0: (1, [0.5, 0.0]), 1: (1, [-0.5, 0.0])}
    to_y = {2: (0, [0.0, 0.5]), 3: (0, [0.0, -0.5])}
    edges = [
        ResetEdge(q, face, SurfaceTarget(tgt, AffineMap(np.eye(2), shift)))
        for q in (0, 1)
        for face, (tgt, shift) in {**to_x, **to_y}.items()
    ]
    return build_model(ModelSpec(2, [mode_a, mode_b], edges, terminal_states=[]))


def variable_noise_interval():
    """Affine drift and noise 0.2 + 0.3 x on (0, 1), so the fitted faces see
    an Ito correction; the upper end resets onto x = 1/2."""
    mode = Mode(
        interval_domain(0.0, 1.0),
        VectorFieldSet(AffineField([[-1.0]], [0.4]), (AffineField([[0.3]], [0.2]),)),
    )
    edges = [
        ResetEdge(0, 0, TerminalTarget("out")),
        ResetEdge(0, 1, SurfaceTarget(0, AffineMap([[1.0]], [-0.5]))),
    ]
    return build_model(ModelSpec(1, [mode], edges, terminal_states=["out"]))


OPERATOR_CASES = {
    "thermostat_1d": lambda: (thermostat_1d(), thermostat_resolution(0.04)),
    "variable_noise_1d": lambda: (variable_noise_interval(), 20),
    "gamblers_ruin": lambda: (gamblers_ruin_model(), 40),
    "two_box_2d": lambda: (Test2DTransfer().build_two_box_model(), [(8, 8), (16, 8)]),
    "recurrent_2d": lambda: (recurrent_two_mode_2d(), 8),
}


def blob_2d(x):
    return np.exp(-((x[..., 0] - 0.3) ** 2 + (x[..., 1] - 0.6) ** 2) / (2 * 0.15**2))


# (model and resolution, dt as a fraction of the stability bound, certified)
CERTIFICATE_CASES = {
    "thermostat_1d dx 0.01": (lambda: (thermostat_1d(), thermostat_resolution(0.01)), 1.0, True),
    "thermostat_1d dx 0.005": (lambda: (thermostat_1d(), thermostat_resolution(0.005)), 1.0, True),
    "gamblers_ruin": (lambda: (gamblers_ruin_model(), 50), 1.0, True),
    "recurrent_2d": (lambda: (recurrent_two_mode_2d(), 8), 1.0, True),
    # cell Peclet number above 2
    "thermostat_1d dx 0.02": (lambda: (thermostat_1d(), thermostat_resolution(0.02)), 1.0, False),
    # cross-diffusion: negative off-diagonal entries of L_h
    "sheared_box_2d": (lambda: (sheared_box_2d(), [(16, 24)]), 0.9, False),
    # absorbing corner cells: the diagonal limit caps the stability bound
    "two_box_2d": (lambda: (Test2DTransfer().build_two_box_model(), [(20, 20), (40, 20)]), 0.9, True),
}


def sheared_box_2d():
    """One box with cross-diffusion, so the tangential stencil terms are nonzero.

    The x = 1 face resets onto the line x = 0.5, where the drift's x
    component changes sign along the line.
    """
    mode = Mode(
        box_domain([0.0, 0.0], [1.0, 2.0]),
        VectorFieldSet(
            AffineField([[-0.5, 0.1], [0.0, -0.3]], [0.2, 0.3]),
            (AffineField([[0.1, 0.0], [0.05, 0.0]], [0.5, 0.2]), constant_field([0.1, 0.4])),
        ),
    )
    edges = [ResetEdge(0, 1, SurfaceTarget(0, AffineMap(np.eye(2), [-0.5, 0.0])))]
    edges += [ResetEdge(0, f, TerminalTarget("out")) for f in (0, 2, 3)]
    return build_model(ModelSpec(2, [mode], edges, terminal_states=["out"]))


def dense_operator(grid):
    """[L_h; T] as a dense array: cell rates, then terminal rates."""
    op = grid.forward_operator()
    n, n_term = op.n_cells, len(grid.model.terminal_states)
    dense = np.zeros((n + n_term, n))
    rows, cols, vals = op.rate
    np.add.at(dense, (rows, cols), vals)
    rows, cols, vals = op.terminal
    np.add.at(dense, (n + rows, cols), vals)
    return dense


def forward_rates(model, pts, p, h=1e-3):
    """-d_i(b_i p) + 1/2 d_i d_j(a_ij p) at points, by central differences in h."""
    d = pts.shape[-1]
    shifts = np.eye(d) * h

    def ba(x):
        b, a = ito_coefficients(model, 0, x)
        return b * p(x)[:, None], a * p(x)[:, None, None]

    out = np.zeros(len(pts))
    for i in range(d):
        out -= (ba(pts + shifts[i])[0][:, i] - ba(pts - shifts[i])[0][:, i]) / (2 * h)
        for j in range(d):
            corners = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
            mixed = sum(
                si * sj * ba(pts + si * shifts[i] + sj * shifts[j])[1][:, i, j]
                for si, sj in corners
            )
            out += 0.5 * mixed / (4 * h * h)
    return out


class TestForwardOperator:
    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
    def test_columns_match_the_face_current_path(self, case):
        model, resolution = OPERATOR_CASES[case]()
        grid = build_grid(model, resolution)
        dense = dense_operator(grid)
        n = grid.forward_operator().n_cells
        for c in range(n):
            unit = np.zeros(n)
            unit[c] = 1.0
            expected = three_point_response(grid, unit)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(dense[:, c] - expected)) <= 1e-12 * scale, c

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
    def test_column_sums_cancel(self, case):
        model, resolution = OPERATOR_CASES[case]()
        grid = build_grid(model, resolution)
        dense = dense_operator(grid)
        n = grid.forward_operator().n_cells
        vol = np.concatenate(
            [np.full(int(np.prod(mg.shape)), mg.cell_volume) for mg in grid.mode_grids]
        )
        weighted = dense * np.concatenate([vol, np.ones(dense.shape[0] - n)])[:, None]
        sums = np.sum(weighted, axis=0)
        assert np.max(np.abs(sums)) <= 1e-13 * np.max(np.abs(weighted))

    def test_cross_diffusion_rates_converge_at_second_order(self):
        # L_h on point values of a smooth density against the forward
        # operator of the Ito coefficients, away from the boundary and from
        # the image line x = 0.5, whose cells receive the reset source
        model = sheared_box_2d()
        errors = []
        for cells in ((16, 32), (32, 64), (64, 128)):
            grid = build_grid(model, [cells])
            assert_half_split(grid, grid.surface_tables[0])
            pts = grid.mode_grids[0].cell_center_points().reshape(-1, 2)

            def density(x):
                return np.exp(-((x[:, 0] - 0.3) ** 2) / 0.08 - (x[:, 1] - 1.0) ** 2 / 0.3)

            x, y = pts[:, 0], pts[:, 1]
            inside = (np.abs(x - 0.25) < 0.15) | (np.abs(x - 0.75) < 0.15)
            inside &= np.abs(y - 1.0) < 0.8
            got = cell_rates(grid, [density(pts).reshape(cells)])[0].reshape(-1)
            expected = forward_rates(model, pts, density)
            errors.append(np.max(np.abs(got - expected)[inside]) / np.max(np.abs(expected)))
        assert errors[0] < 0.05
        assert errors[0] / errors[1] > 3.5 and errors[1] / errors[2] > 3.5

    @pytest.mark.parametrize("b", [0.8, -2.0])
    def test_fitted_image_face_fluxes_are_exact_for_a_constant_current(self, b):
        # with constant b and D = sigma^2 / 2, p = c1 + c2 exp(b (x - 1/2) / D)
        # carries the constant current J = b p - D p' = b c1; the fitted
        # fluxes beside the image face x = 1/2 reproduce it to rounding, the
        # centred ones do not
        sigma, c1, c2 = 0.5, 0.3, 0.2
        mode = Mode(
            interval_domain(0.0, 1.0),
            VectorFieldSet(constant_field([b]), (constant_field([sigma]),)),
        )
        edges = [
            ResetEdge(0, 0, TerminalTarget("out")),
            ResetEdge(0, 1, SurfaceTarget(0, AffineMap([[1.0]], [-0.5]))),
        ]
        model = build_model(ModelSpec(1, [mode], edges, terminal_states=["out"]))
        grid = build_grid(model, 20)
        x = grid.mode_grids[0].centers(0)
        p = c1 + c2 * np.exp(b * (x - 0.5) / (0.5 * sigma**2))
        op = grid.forward_operator()
        currents = op.face_currents(p)
        tab = grid.surface_tables[0]
        rows = np.concatenate(op.image_rows[tab.edge_index])
        assert np.max(np.abs(currents[rows] - b * c1)) <= 1e-14 * (c1 + c2)
        centred = currents[[tab.h_face_index - 1, tab.h_face_index + 1]]
        assert np.min(np.abs(centred - b * c1)) > 1e-3 * c2

    def test_build_grid_assembles_nothing(self):
        grid = build_grid(thermostat_1d(), thermostat_resolution(0.04))
        assert "operator" not in grid._caches
        op = grid.forward_operator()
        assert grid.forward_operator() is op

    def test_evolve_and_import_do_not_load_scipy(self):
        # importing scipy.sparse costs about 23 MB of resident memory
        code = (
            "import sys, resetsde\n"
            "from resetsde.fpk import build_grid, evolve, project_density, stable_dt\n"
            "from resetsde.scenarios import gamblers_ruin_model\n"
            "from resetsde.simulate import GaussianInitial, ensemble\n"
            "model = gamblers_ruin_model()\n"
            "grid = build_grid(model, 20)\n"
            "state = project_density(grid, [lambda x: 1.0 + 0.0 * x[..., 0]])\n"
            "evolve(model, grid, state, stable_dt(grid, 0.9), 5)\n"
            "ensemble(model, GaussianInitial(0, [0.3], 0.01), 50, 0.1, 1e-2, [0.1], base_seed=1)\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules), 'scipy loaded'\n"
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures loaded'\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_import_loads_every_module_without_dataclasses(self):
        # records are NamedTuples or __slots__ classes; as dataclasses they
        # took about 15 ms of a fresh import.  multiprocessing loads only when
        # an ensemble is split across processes
        code = (
            "import sys, resetsde\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses loaded'\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing loaded'\n"
            "names = ('model', 'simulate', 'fpk', 'validate', 'scenarios')\n"
            "missing = [n for n in names if 'resetsde.' + n not in sys.modules]\n"
            "assert not missing, f'not loaded: {missing}'\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("case", list(CERTIFICATE_CASES))
    def test_positivity_certificate(self, case):
        build, fraction, certified = CERTIFICATE_CASES[case]
        model, resolution = build()
        grid = build_grid(model, resolution)
        op = grid.forward_operator()
        assert (stable_dt(grid, fraction) <= op.positivity_dt) == certified
        # fitted boundary faces: the outflux of a nonnegative density is nonnegative
        assert np.all(op.outflux[2] >= 0.0) and np.all(op.terminal[2] >= 0.0)

    @pytest.mark.parametrize("case", list(CERTIFICATE_CASES))
    def test_stable_dt_keeps_the_diagonal_of_the_step_positive(self, case):
        model, resolution = CERTIFICATE_CASES[case][0]()
        grid = build_grid(model, resolution)
        rows, cols, vals = grid.forward_operator().rate
        assert stable_dt(grid, 1.0) * np.max(np.abs(vals[rows == cols])) < 1.0

    def test_uncertified_cross_diffusion_keeps_the_density_check(self):
        # the tangential stencil terms give L_h negative off-diagonal entries,
        # so the step is not certified and a centred Gaussian undershoots
        model = sheared_box_2d()
        grid = build_grid(model, [(16, 24)])
        assert grid.forward_operator().positivity_dt == 0.0
        std = np.array([1.0, 2.0]) / 6.0
        density = project_density(
            grid, [lambda x: np.exp(-0.5 * np.sum(((x - [0.5, 1.0]) / std) ** 2, axis=-1))]
        )
        with pytest.raises(NegativeDensity, match=r"mode 0 density undershot to .* at t=0\.0228"):
            evolve(model, grid, density, stable_dt(grid, 0.9), 400)

    def test_start_density_below_the_rounding_band_refused_by_evolve(self):
        # the band is 1e-12 of the largest cell: a cell inside it starts the
        # checked steps, one below it is refused before the first step
        model = brownian_interval(0.0, 1.0)
        grid = build_grid(model, 20)
        arr = np.full(20, 0.1)
        arr[0] = -0.5e-13
        density = DensityState([arr], {"hit": 0.0, "escaped": 0.0}, 0.0)
        out = evolve(model, grid, density, stable_dt(grid, 0.9), 5)
        assert float(np.min(out.p[0])) > 0.0
        arr[0] = -2e-13
        with pytest.raises(NegativeDensity, match="at t=0"):
            evolve(model, grid, density, stable_dt(grid, 0.9), 5)


@st.composite
def constant_coefficient_boxes(draw):
    """A 1D box with constant drift and diffusion; each end absorbs or resets.

    The face Peclet number |b| dx / (sigma^2 / 2) stays at most 1.
    """
    n = draw(st.integers(16, 40))
    length = draw(st.floats(0.5, 2.0))
    sigma = draw(st.floats(0.5, 1.5))
    drift = draw(st.floats(-1.0, 1.0))
    mode = Mode(
        interval_domain(0.0, length),
        VectorFieldSet(constant_field([drift]), (constant_field([sigma]),)),
    )
    edges = []
    for face in (0, 1):
        if draw(st.booleans()):
            k = draw(st.integers(2, n - 2))
            shift = k * length / n - (0.0 if face == 0 else length)
            edges.append(ResetEdge(0, face, SurfaceTarget(0, AffineMap([[1.0]], [shift]))))
        else:
            edges.append(ResetEdge(0, face, TerminalTarget("out")))
    model = build_model(ModelSpec(1, [mode], edges, terminal_states=["out"]))
    center = draw(st.floats(0.3, 0.7)) * length
    return model, n, center


class TestEvolveProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(constant_coefficient_boxes(), st.floats(0.2, 1.0))
    def test_matvec_matches_the_reference_loop_and_conserves_mass(self, case, fraction):
        model, n, center = case
        grid = build_grid(model, n)
        width = grid.mode_grids[0].hi[0] / 8.0
        density = project_density(
            grid, [lambda x: np.exp(-0.5 * ((x[..., 0] - center) / width) ** 2)]
        )
        dt = stable_dt(grid, fraction)
        state = density
        reference = np.concatenate([density.p[0], [0.0]])
        for _ in range(30):
            state = evolve(model, grid, state, dt, 1)
            reference += dt * three_point_response(grid, reference[:-1])
            assert abs(total_mass(grid, state) - 1.0) <= 1e-12
            scale = float(np.max(np.abs(reference[:-1])))
            assert np.max(np.abs(state.p[0] - reference[:-1])) <= 1e-12 * scale
            assert state.q["out"] == pytest.approx(reference[-1], abs=1e-12)
        batched = evolve(model, grid, density, dt, 30)
        assert np.array_equal(batched.p[0], state.p[0])


@st.composite
def banded_triplets(draw):
    """Row-sorted, coalesced triplets: diagonals with gaps plus scattered entries
    on either side of them, and a state with signed zeros and negative cells."""
    size = draw(st.integers(1, 60))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3, width=64))
    entries = {}
    for k in draw(st.sets(st.integers(-3, 3), max_size=4)):
        rows = np.arange(max(0, -k), min(size, size - k))
        keep = draw(st.lists(st.integers(0, 9), min_size=rows.size, max_size=rows.size))
        for r, w in zip(rows.tolist(), keep):
            if w:   # one entry in ten is missing
                entries[(r, r + k)] = draw(value)
    index = st.integers(0, size - 1)
    for r, c, v in draw(st.lists(st.tuples(index, index, value), max_size=12)):
        entries[(r, c)] = v
    keys = sorted(entries)
    rows = np.array([r for r, _ in keys], dtype=np.intp)
    cols = np.array([c for _, c in keys], dtype=np.intp)
    vals = np.array([entries[key] for key in keys], dtype=float)
    x = np.array(draw(st.lists(value, min_size=size, max_size=size)), dtype=float)
    return rows, cols, vals, x, size


class TestBandedStep:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(banded_triplets(), st.sampled_from([1, 2, 8, 30, 10**9]))
    def test_banded_matvec_is_the_bincount_byte_for_byte(self, case, min_rows):
        rows, cols, vals, x, size = case
        with mock.patch.object(fpk, "_BAND_MIN_ROWS", min_rows):
            step = fpk._BandedStep(rows, cols, size)
        counts = np.bincount(cols - rows + size, minlength=2 * size)
        assert step.bands == [k - size for k in np.flatnonzero(counts >= min_rows).tolist()]
        state, matvec = step.bind(vals)
        state[:] = x
        expected = np.bincount(rows, vals * x[cols], minlength=size)
        assert matvec().tobytes() == expected.tobytes()
        assert matvec().tobytes() == expected.tobytes()   # the step leaves its buffer as it was


class TestSparseStationary:
    def test_recurrent_2d_box_at_128_squared_cells_per_mode(self):
        model = recurrent_two_mode_2d()
        grid = build_grid(model, 128)
        state = stationary_density(model, grid)
        op = grid.forward_operator()
        assert op.n_cells == 2 * 128**2
        assert total_mass(grid, state) == pytest.approx(1.0, abs=1e-12)
        flat = np.concatenate([p.reshape(-1) for p in state.p])
        assert float(np.min(flat)) >= 0.0
        residual = np.max(np.abs(_matvec(op.rate, flat, op.n_cells)))
        assert residual <= 1e-12 * np.max(np.abs(op.rate[2])) * np.max(flat)
        # every half-box is reset-fed, so the profile spreads over both modes
        for p in state.p:
            assert float(np.sum(p)) * grid.mode_grids[0].cell_volume > 0.05
