"""Acceptance gate: end-to-end criteria at fixed tolerances.

Each test prints one `[criterion N] ... -> PASS/FAIL` line (visible with
`pytest -s`).  Tolerances are pinned here; nothing is calibrated at run time.
"""

import functools
import math
import time

import numpy as np
import pytest

from resetsde.fpk import (
    _coalesce,
    build_grid,
    coarsen,
    evolve,
    project_density,
    run_to_stationarity,
    stable_dt,
    stationary_density,
    total_mass,
)
from resetsde.model import (
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
    jacobian_factor,
    zero_field,
)
from resetsde.scenarios import (
    GaussianCells,
    ThermostatParams,
    analytic_first_passage,
    brownian_reset_model,
    gamblers_ruin_model,
    thermostat_initial,
    thermostat_model,
    thermostat_resolution,
)
from resetsde.simulate import GaussianInitial, PointMass, ensemble
from resetsde.validate import (
    SmoothBump,
    StokesField,
    TestFunction,
    compare_mc_pde,
    discrete_stokes_check,
    dynkin_residual,
    flux_continuity_residual,
)

PARAMS = ThermostatParams()


def report(number: int, label: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {label}: {detail} -> {verdict}")


BUMP = SmoothBump(20.0, 1.4)


def bump_value(scales, mode, pts):
    return scales[mode] * BUMP.value(pts[:, 0])


def bump_generator(scales, mode, pts):
    x = pts[:, 0]
    target = (PARAMS.theta_off, PARAMS.theta_on)[mode]
    return scales[mode] * (
        -(x - target) * BUMP.first_derivative(x) + 0.5 * PARAMS.gamma**2 * BUMP.second_derivative(x)
    )


def thermostat_phi(scale0: float, scale1: float, model) -> TestFunction:
    """The bump scaled by mode, from module-level functions, so that an
    ensemble can send it to a range worker, which imports this module."""
    scales = (scale0, scale1)
    return TestFunction(
        functools.partial(bump_value, scales),
        functools.partial(bump_generator, scales),
        terminal_values={"truncated": 0.0},
        support=(np.array([18.6]), np.array([21.4])),
        compatible_with_resets=(scale0 == scale1),
        model=model,
    )


def test_criterion_01_first_passage_law():
    """Forward system end-to-end against the reflection-principle law."""
    started = time.perf_counter()
    model = brownian_reset_model(1.0, 8.0)
    dx = 0.01
    grid = build_grid(model, int(round(8.0 / dx)))
    dt = 0.45 * dx * dx
    density = project_density(grid, [GaussianCells(1.0, 0.02)])
    times = (0.25, 0.5, 1.0)
    pde_errors = []
    t_now = 0.0
    for t_target in times:
        steps = int(round((t_target - t_now) / dt))
        density = evolve(model, grid, density, dt, steps)
        t_now += steps * dt
        pde_errors.append(abs(density.q["hit"] - analytic_first_passage(1.0, t_target)))

    n = 100_000
    measure = ensemble(
        model, GaussianInitial(0, [1.0], 0.02), n, 1.0, 1e-3, list(times), base_seed=1234
    )
    mc_ok = True
    mc_detail = []
    for t in times:
        exact = analytic_first_passage(1.0, t)
        err = abs(measure.terminal_fraction(t, "hit") - exact)
        bound = 3.0 * math.sqrt(exact * (1.0 - exact) / n) + 2e-2
        mc_detail.append(err)
        mc_ok = mc_ok and err <= bound
    elapsed = time.perf_counter() - started

    passed = max(pde_errors) <= 5e-3 and mc_ok and elapsed <= 60.0
    report(
        1,
        "first-passage law",
        passed,
        f"pde err max={max(pde_errors):.2e} (tol 5e-3), mc err max={max(mc_detail):.2e}, "
        f"runtime {elapsed:.1f}s (cap 60s)",
    )
    assert max(pde_errors) <= 5e-3
    assert mc_ok
    assert elapsed <= 60.0


def test_criterion_02_mass_conservation_every_step():
    """|total mass - 1| <= 1e-8 after every one of 10^4 explicit steps."""
    scenarios = [
        ("brownian_reset", brownian_reset_model(1.0, 8.0), [GaussianCells(1.0, 0.02)], 400),
        (
            "thermostat_1d",
            thermostat_model(PARAMS),
            [GaussianCells(20.0, 0.05), None],
            thermostat_resolution(PARAMS, 0.01),
        ),
        ("gamblers_ruin", gamblers_ruin_model(), [GaussianCells(0.3, 0.01)], 200),
    ]
    worst = 0.0
    for name, model, cells, resolution in scenarios:
        grid = build_grid(model, resolution)
        state = project_density(grid, cells)
        dt = stable_dt(grid, 0.9)
        for _ in range(10_000):
            state = evolve(model, grid, state, dt, 1)
            worst = max(worst, abs(total_mass(grid, state) - 1.0))
        if worst > 1e-8:
            break
    passed = worst <= 1e-8
    report(2, "mass conservation", passed, f"max |mass-1| over 3x10^4 steps = {worst:.2e} (tol 1e-8)")
    assert passed


def test_criterion_03_thermostat_cross_validation():
    """PDE evolved to stationarity vs the t=50 Monte-Carlo histogram."""
    model = thermostat_model(PARAMS)
    grid = build_grid(model, thermostat_resolution(PARAMS, 0.01))
    density = project_density(grid, [GaussianCells(20.0, 0.05), None])
    dt = stable_dt(grid, 0.9)
    state, info = run_to_stationarity(
        model, grid, density, dt, l1_tol=1e-6, check_every=2000, max_steps=400_000
    )
    assert info["converged"], "stationarity loop did not converge"

    # compare on 0.08-wide cells: the PDE profile is aggregated conservatively
    # so the finite-ensemble histogram noise does not dominate the distance
    coarse_grid, coarse = coarsen(model, grid, state, 8)
    coarse.t = 50.0
    measure = ensemble(
        model, thermostat_initial(PARAMS), 100_000, 50.0, 2e-3, [50.0], base_seed=2025
    )
    l1, _ = compare_mc_pde(coarse_grid, measure, coarse, 50.0)
    passed = l1 <= 0.05
    report(
        3,
        "thermostat cross-validation",
        passed,
        f"stationary after {info['steps']} steps, L1(MC,PDE)={l1:.4f} (tol 0.05)",
    )
    assert passed


def test_criterion_04_flux_continuity_refinement():
    """Image-face flux-continuity residual drops at ratio >= 1.5 per halving."""
    model = thermostat_model(PARAMS)
    residuals = []
    for dx in (0.01, 0.005, 0.0025):
        grid = build_grid(model, thermostat_resolution(PARAMS, dx))
        state = stationary_density(model, grid)
        residuals.append(flux_continuity_residual(model, grid, state))
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    passed = r1 >= 1.5 and r2 >= 1.5
    report(
        4,
        "flux continuity",
        passed,
        f"residuals {residuals[0]:.2e} / {residuals[1]:.2e} / {residuals[2]:.2e}, "
        f"ratios {r1:.2f}, {r2:.2f} (need >= 1.5)",
    )
    assert passed


def test_criterion_05_absorbing_condition():
    """The solver's boundary currents see a face density of exactly 0;
    adjacent cells scale like C dx with C stable under refinement."""
    model = brownian_reset_model(1.0, 8.0)
    constants = []
    face_zero = True
    for dx in (0.04, 0.02, 0.01):
        n = int(round(8.0 / dx))
        grid = build_grid(model, n)
        # face value 0: a boundary face's current is the fitted flux from
        # its edge cell to p = 0 half a cell away, so its row holds only the
        # edge cell, without drift at twice an interior face's diffusive
        # weight, and each boundary row of the outflux B has one entry
        op = grid.forward_operator()
        rows, cols, vals = _coalesce(op.current, n)
        row = {f: (cols[rows == f].tolist(), vals[rows == f].tolist()) for f in (0, 1, n)}
        inner = row[1][1]
        face_zero = face_zero and row[0] == ([0], [2 * inner[1]]) and row[n] == ([n - 1], [2 * inner[0]])
        face_zero = face_zero and np.bincount(op.outflux[0]).tolist() == [1, 1]
        state = project_density(grid, [GaussianCells(1.0, 0.02)])
        dt = stable_dt(grid, 0.9)
        steps = int(round(0.5 / dt))
        state = evolve(model, grid, state, 0.5 / steps, steps)
        constants.append(float(state.p[0][0]) / (dx * float(np.max(state.p[0]))))
    spread = max(constants) / min(constants)
    passed = face_zero and spread <= 1.5 and max(constants) <= 2.0
    report(
        5,
        "absorbing condition",
        passed,
        f"face density exactly 0: {face_zero}; C = "
        + "/".join(f"{c:.3f}" for c in constants)
        + f" (spread {spread:.3f} <= 1.5)",
    )
    assert passed


def test_criterion_06_expectation_identity():
    """Statistical residual within 3 SE + 1e-2; exact zero jump sums for
    reset-compatible observables.

    The ensemble has 10^8 nominal path-steps, so where two cores are usable
    it runs as two path ranges, the second in a range worker that imports
    this module for the test functions.  Its residual and SE are those of a
    one-process run (`simulate._range_count` forced to 1) byte for byte;
    like the golden artifacts of `tests/test_cli.py`, these bytes hold for
    numpy 2.4.6.
    """
    model = thermostat_model(PARAMS)
    phi_jump = thermostat_phi(1.0, 1.3, model)
    phi_flat = thermostat_phi(1.0, 1.0, model)
    measure = ensemble(
        model,
        thermostat_initial(PARAMS),
        100_000,
        1.0,
        1e-3,
        [1.0],
        base_seed=314,
        test_functions=[phi_jump, phi_flat],
    )
    residual, se = dynkin_residual(model, measure, phi_jump, 1.0)
    bound = 3.0 * se + 1e-2
    flat_record = measure.dynkin[1]
    zero_jumps = bool(np.all(flat_record.jump_sum[0] == 0.0))
    jumps_fired = bool(np.any(measure.dynkin[0].jump_sum[0] != 0.0))
    passed = abs(residual) <= bound and zero_jumps and jumps_fired
    one_process = (residual.hex(), se.hex()) == ("0x1.cd5b5b847e7cbp-8", "0x1.433c255c125c7p-12")
    report(
        6,
        "expectation identity",
        passed,
        f"residual={residual:.2e} (bound {bound:.2e}); compatible-phi jump sums "
        f"exactly zero: {zero_jumps}; one-process bytes: {one_process}",
    )
    assert abs(residual) <= bound
    assert zero_jumps
    assert jumps_fired
    assert one_process


def test_criterion_07_discrete_divergence_identity():
    """Smooth-field residual refines at ratio >= 3.5; prescribed interior
    jumps are reproduced exactly."""
    mode = Mode(
        box_domain([0.0, 0.0], [1.0, 1.0]),
        VectorFieldSet(
            zero_field(2), (constant_field([1.0, 0.0]), constant_field([0.0, 1.0]))
        ),
    )
    edges = [ResetEdge(0, f, TerminalTarget("out")) for f in range(4)]
    box_model = build_model(ModelSpec(2, [mode], edges, terminal_states=["out"]))

    def vec(q, pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([np.sin(2 * x) * y**2, np.cos(x + y)], axis=-1)

    def div(q, pts):
        x, y = pts[:, 0], pts[:, 1]
        return 2 * np.cos(2 * x) * y**2 - np.sin(x + y)

    smooth = StokesField(vector=vec, divergence=div)
    residuals = [
        discrete_stokes_check(build_grid(box_model, n), smooth) for n in (16, 32, 64)
    ]
    ratio1 = residuals[0] / residuals[1]
    ratio2 = residuals[1] / residuals[2]

    model = thermostat_model(PARAMS)
    grid = build_grid(model, thermostat_resolution(PARAMS, 0.04))
    c1, c2 = 0.3, 1.1
    h_coords = {
        (tab.target_mode, tab.h_axis): grid.mode_grids[tab.target_mode].lo[tab.h_axis]
        + tab.h_face_index * grid.mode_grids[tab.target_mode].dx[tab.h_axis]
        for tab in grid.surface_tables
    }

    jump_field = StokesField(
        vector=lambda q, pts: np.where(pts[:, :1] < h_coords[(q, 0)], c1, c2),
        divergence=lambda q, pts: np.zeros(pts.shape[0]),
        side_vector=lambda q, pts, side: np.full((pts.shape[0], 1), c1 if side == 1 else c2),
    )
    with_term = discrete_stokes_check(grid, jump_field, include_h_term=True)
    without = discrete_stokes_check(grid, jump_field, include_h_term=False)
    expected_jump = 2 * (c2 - c1)   # two image faces, unit 1D face measure

    passed = (
        ratio1 >= 3.5
        and ratio2 >= 3.5
        and with_term <= 1e-13
        and abs(without - expected_jump) <= 1e-12
    )
    report(
        7,
        "discrete divergence identity",
        passed,
        f"smooth ratios {ratio1:.2f}, {ratio2:.2f} (need >= 3.5); jump term "
        f"residual {with_term:.1e} / omitted {without:.6f} vs {expected_jump:.6f}",
    )
    assert passed


def test_criterion_08_jacobian_factor():
    """Affine scaling map in d=2: |h - c| <= 1e-6 against the quadrature oracle."""
    c = 1.7
    diff = (constant_field([1.0, 0.0]), constant_field([0.0, 1.0]))
    mode_a = Mode(box_domain([0.0, 0.0], [1.0, 1.0]), VectorFieldSet(zero_field(2), diff))
    mode_b = Mode(box_domain([-1.0, -1.0], [4.0, 4.0]), VectorFieldSet(zero_field(2), diff))
    scale = AffineMap(c * np.eye(2), [0.0, 1.0])
    edges = [ResetEdge(0, 2, SurfaceTarget(1, scale))]
    edges += [ResetEdge(0, f, TerminalTarget("out")) for f in (0, 1, 3)]
    edges += [ResetEdge(1, f, TerminalTarget("out")) for f in range(4)]
    model = build_model(ModelSpec(2, [mode_a, mode_b], edges, terminal_states=["out"]))
    edge = model.reset_edges[0]
    h = jacobian_factor(edge, np.array([0.5, 0.0]))

    # quadrature oracle for the change-of-variable identity on a partition of
    # the source face: image length over source length
    n_panels = 200_000
    xs = np.linspace(0.2, 0.8, n_panels + 1)
    src = np.stack([xs, np.zeros_like(xs)], axis=-1)
    img = scale(src)
    image_len = float(np.sum(np.linalg.norm(np.diff(img, axis=0), axis=1)))
    source_len = float(xs[-1] - xs[0])
    oracle = image_len / source_len

    err_exact = abs(h - c)
    err_oracle = abs(h - oracle)
    passed = err_exact <= 1e-6 and err_oracle <= 1e-6
    report(
        8,
        "jacobian factor",
        passed,
        f"h={h:.9f}, |h-c|={err_exact:.1e}, |h-oracle|={err_oracle:.1e} (tol 1e-6)",
    )
    assert passed


def test_criterion_09_gamblers_ruin():
    """Left-exit mass from x0=0.3 equals 0.7 for both routes."""
    model = gamblers_ruin_model()
    grid = build_grid(model, 200)
    state = project_density(grid, [GaussianCells(0.3, 0.01)])
    dt = stable_dt(grid, 1.0)
    horizon = 3.0
    steps = int(round(horizon / dt))
    state = evolve(model, grid, state, horizon / steps, steps)
    pde_err = abs(state.q["left"] - 0.7)

    n = 40_000
    measure = ensemble(
        model, GaussianInitial(0, [0.3], 0.01), n, horizon, 2.5e-4, [horizon], base_seed=77
    )
    mc_err = abs(measure.terminal_fraction(horizon, "left") - 0.7)
    mc_bound = 3.0 * math.sqrt(0.7 * 0.3 / n)
    passed = pde_err <= 1e-2 and mc_err <= mc_bound
    report(
        9,
        "gambler's ruin",
        passed,
        f"pde err={pde_err:.2e} (tol 1e-2), mc err={mc_err:.2e} (3se={mc_bound:.2e})",
    )
    assert passed


def test_criterion_10_zeno_guard():
    """Reset accumulation is flagged on >= 99% of paths, deterministically."""
    mode = Mode(
        interval_domain(0.0, 1.0),
        VectorFieldSet(constant_field([-5.0]), (constant_field([0.02]),)),
    )
    edges = [
        ResetEdge(0, 0, SurfaceTarget(0, AffineMap([[1.0]], [1e-3]))),
        ResetEdge(0, 1, TerminalTarget("far")),
    ]
    model = build_model(ModelSpec(1, [mode], edges, terminal_states=["far"]))
    n, cap = 500, 50
    runs = [
        ensemble(
            model, PointMass(0, [0.5]), n, 1.0, 1e-3, [1.0], base_seed=4242, zeno_cap=cap
        )
        for _ in range(2)
    ]
    fractions = [float(r.zeno_counts[0]) / n for r in runs]
    accounted = all(
        sum(c.shape[0] for c in r.mode_clouds[0])
        + sum(r.terminal_counts[0].values())
        + int(r.zeno_counts[0])
        == n
        for r in runs
    )
    deterministic = fractions[0] == fractions[1]
    passed = fractions[0] >= 0.99 and accounted and deterministic
    report(
        10,
        "zeno guard",
        passed,
        f"flagged fraction={fractions[0]:.3f} (need >= 0.99), deterministic={deterministic}, "
        f"accounting holds={accounted}",
    )
    assert passed
