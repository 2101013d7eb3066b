import numpy as np
import pytest

from resetsde.fpk import (
    DensityState,
    _matvec,
    build_grid,
    evolve,
    stable_dt,
    stationary_density,
    total_mass,
)
from resetsde.model import (
    AffineField,
    Mode,
    ModelSpec,
    ResetEdge,
    TerminalTarget,
    VectorFieldSet,
    build_model,
    interval_domain,
)
from resetsde.scenarios import (
    GaussianCells,
    ThermostatParams,
    brownian_reset_model,
    thermostat_initial,
    thermostat_model,
    thermostat_resolution,
)
from resetsde.simulate import EmpiricalMeasure, GaussianInitial, ensemble
from resetsde.validate import (
    GridMismatch,
    MissingPathIntegrals,
    SmoothBump,
    StokesField,
    TestFunction,
    ValidationReport,
    compare_mc_pde,
    discrete_stokes_check,
    dynkin_residual,
    flux_continuity_residual,
    mass_balance,
)

PARAMS = ThermostatParams()


def thermostat_test_function(model, scale0=1.0, scale1=1.0):
    """Mode-weighted smooth bump covering both switching thresholds."""
    bump = SmoothBump(center=20.0, width=1.4)
    scales = (scale0, scale1)
    drift_targets = (PARAMS.theta_off, PARAMS.theta_on)
    gamma = 0.3

    def evaluator(mode, pts):
        return scales[mode] * bump.value(pts[:, 0])

    def generator(mode, pts):
        x = pts[:, 0]
        drift = -(x - drift_targets[mode])
        return scales[mode] * (
            drift * bump.first_derivative(x) + 0.5 * gamma**2 * bump.second_derivative(x)
        )

    return TestFunction(
        evaluator,
        generator,
        terminal_values={"truncated": 0.0},
        support=(np.array([18.6]), np.array([21.4])),
        compatible_with_resets=(scale0 == scale1),
        model=model,
    )


class TestTestFunction:
    def test_support_certificate(self):
        model = thermostat_model()
        phi = thermostat_test_function(model)
        probes = np.array([[17.0], [18.0], [22.0], [23.0]])
        assert phi.check_support(probes)

    def test_reset_compatibility_detection(self):
        model = thermostat_model()
        assert thermostat_test_function(model).check_reset_compatibility(model)
        assert not thermostat_test_function(model, 1.0, 1.3).check_reset_compatibility(model)

    def test_fd_generator_matches_analytic(self):
        model = thermostat_model()
        analytic = thermostat_test_function(model)
        numeric = TestFunction(
            analytic._eval, generator=None, model=model,
            terminal_values={"truncated": 0.0},
        )
        pts = np.array([[19.3], [19.9], [20.6], [21.1]])
        for mode in (0, 1):
            ref = analytic.generator(mode, pts)
            fd = numeric.generator(mode, pts)
            assert np.max(np.abs(ref - fd)) < 1e-4 * max(1.0, np.max(np.abs(ref)))

    def test_fd_generator_takes_the_ito_drift_of_state_dependent_noise(self):
        # dX = (0.5 - X) dt + A(X) o dW with A(x) = 0.2 + 0.3 x, so the Ito
        # drift is b = 0.5 - x + 1/2 A A' = 0.5 - x + 0.15 A; for phi = e^x
        # the generator is (b + 1/2 A^2) e^x
        mode = Mode(
            interval_domain(0.0, 2.0),
            VectorFieldSet(AffineField([[-1.0]], [0.5]), (AffineField([[0.3]], [0.2]),)),
        )
        edges = [ResetEdge(0, f, TerminalTarget("out")) for f in (0, 1)]
        model = build_model(ModelSpec(1, [mode], edges, terminal_states=["out"]))
        numeric = TestFunction(lambda mode, pts: np.exp(pts[:, 0]), model=model)
        x = np.array([0.3, 0.9, 1.5, 1.8])
        a = 0.2 + 0.3 * x
        ref = (0.5 - x + 0.15 * a + 0.5 * a**2) * np.exp(x)
        fd = numeric.generator(0, x[:, None])
        assert np.max(np.abs(ref - fd)) < 1e-4 * np.max(np.abs(ref))


class TestDynkinResidual:
    def test_time_zero_residual_is_exactly_zero(self):
        model = thermostat_model()
        phi = thermostat_test_function(model)
        measure = ensemble(
            model, thermostat_initial(), 500, 0.5, 1e-2, [0.0, 0.5],
            base_seed=3, test_functions=[phi],
        )
        residual, _ = dynkin_residual(model, measure, phi, 0.0)
        assert residual == 0.0

    def test_constant_phi_residual_is_zero(self):
        model = thermostat_model()
        phi = TestFunction(
            lambda mode, pts: np.ones(pts.shape[0]),
            lambda mode, pts: np.zeros(pts.shape[0]),
            terminal_values={"truncated": 1.0},
        )
        measure = ensemble(
            model, thermostat_initial(), 500, 1.0, 1e-2, [1.0],
            base_seed=4, test_functions=[phi],
        )
        residual, _ = dynkin_residual(model, measure, phi, 1.0)
        assert residual == 0.0

    def test_statistical_identity_with_jumps(self):
        model = thermostat_model()
        phi = thermostat_test_function(model, 1.0, 1.3)   # jump terms active
        measure = ensemble(
            model, thermostat_initial(), 20_000, 1.0, 1e-3, [1.0],
            base_seed=11, test_functions=[phi],
        )
        residual, se = dynkin_residual(model, measure, phi, 1.0)
        assert abs(residual) < 3 * se + 1e-2
        # the jump terms really fired
        rec = measure.dynkin[0]
        assert np.any(rec.jump_sum[0] != 0.0)

    def test_compatible_phi_jump_sums_exactly_zero(self):
        model = thermostat_model()
        phi = thermostat_test_function(model, 1.0, 1.0)
        measure = ensemble(
            model, thermostat_initial(), 2000, 1.0, 1e-3, [1.0],
            base_seed=12, test_functions=[phi],
        )
        rec = measure.dynkin[0]
        assert np.all(rec.jump_sum[0] == 0.0)

    def test_missing_integrals_raises(self):
        model = thermostat_model()
        phi = thermostat_test_function(model)
        measure = ensemble(model, thermostat_initial(), 100, 0.2, 1e-2, [0.2], base_seed=5)
        with pytest.raises(MissingPathIntegrals):
            dynkin_residual(model, measure, phi, 0.2)


class TestMassBalance:
    def test_zero_state(self):
        model = brownian_reset_model()
        grid = build_grid(model, 100)
        density = DensityState(
            [np.zeros(mg.shape) for mg in grid.mode_grids],
            {"hit": 0.0, "escaped": 0.0},
            0.0,
        )
        assert mass_balance(grid, density) == 0.0

    def test_normalized_initial(self):
        model = brownian_reset_model()
        grid = build_grid(model, 200)
        from resetsde.fpk import project_density

        density = project_density(grid, [GaussianCells(1.0, 0.02)])
        assert mass_balance(grid, density) == pytest.approx(1.0, abs=1e-12)

    def test_long_run_conservation(self):
        model = thermostat_model()
        grid = build_grid(model, thermostat_resolution(PARAMS, 0.01))
        from resetsde.fpk import project_density

        density = project_density(grid, [GaussianCells(20.0, 0.3), None])
        dt = stable_dt(grid, 0.45)
        state = evolve(model, grid, density, dt, 10_000)
        assert abs(mass_balance(grid, state) - 1.0) < 1e-8


class TestDiscreteStokes:
    def test_constant_field_is_exact(self):
        model = brownian_reset_model()
        grid = build_grid(model, 64)
        f = StokesField(
            vector=lambda q, pts: np.full((pts.shape[0], 1), 0.7),
            divergence=lambda q, pts: np.zeros(pts.shape[0]),
        )
        assert discrete_stokes_check(grid, f) == 0.0

    def test_smooth_field_second_order(self):
        # 2D box, analytic divergence; midpoint sums converge at order 2
        from resetsde.model import (
            Mode, ModelSpec, ResetEdge, TerminalTarget, VectorFieldSet,
            box_domain, build_model, constant_field, zero_field,
        )

        mode = Mode(
            box_domain([0.0, 0.0], [1.0, 1.0]),
            VectorFieldSet(
                zero_field(2), (constant_field([1.0, 0.0]), constant_field([0.0, 1.0]))
            ),
        )
        edges = [ResetEdge(0, f, TerminalTarget("out")) for f in range(4)]
        model = build_model(ModelSpec(2, [mode], edges, terminal_states=["out"]))

        def vec(q, pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack([np.sin(2 * x) * y**2, np.cos(x + y)], axis=-1)

        def div(q, pts):
            x, y = pts[:, 0], pts[:, 1]
            return 2 * np.cos(2 * x) * y**2 - np.sin(x + y)

        f = StokesField(vector=vec, divergence=div)
        residuals = [
            discrete_stokes_check(build_grid(model, n), f) for n in (16, 32, 64)
        ]
        assert residuals[0] / residuals[1] >= 3.5
        assert residuals[1] / residuals[2] >= 3.5

    def test_prescribed_jump_reproduced_exactly(self):
        model = thermostat_model()
        grid = build_grid(model, thermostat_resolution(PARAMS, 0.04))
        c1, c2 = 0.3, 1.1
        h_coords = {
            (tab.target_mode, tab.h_axis): grid.mode_grids[tab.target_mode].lo[tab.h_axis]
            + tab.h_face_index * grid.mode_grids[tab.target_mode].dx[tab.h_axis]
            for tab in grid.surface_tables
        }

        def side_vec(q, pts, side):
            return np.full((pts.shape[0], 1), c1 if side == 1 else c2)

        def vec(q, pts):
            # piecewise constant along each mode, jumping at its image face
            coord = h_coords.get((q, 0))
            if coord is None:
                return np.full((pts.shape[0], 1), c1)
            return np.where(pts[:, :1] < coord, c1, c2)

        def div(q, pts):
            return np.zeros(pts.shape[0])

        f = StokesField(vector=vec, divergence=div, side_vector=side_vec)
        assert discrete_stokes_check(grid, f, include_h_term=True) == pytest.approx(0.0, abs=1e-14)
        omitted = discrete_stokes_check(grid, f, include_h_term=False)
        # two image faces, each contributing |c2 - c1| * area (1D area = 1)
        assert omitted == pytest.approx(2 * (c2 - c1), abs=1e-12)

    def test_solver_fields_satisfy_the_mass_rate_identity(self):
        # cell rates, reset injection included, account exactly for the
        # terminal outflux: the discrete identity applied to the solver's own
        # forward operator on a reset-fed density
        model = thermostat_model()
        grid = build_grid(model, thermostat_resolution(PARAMS, 0.01))
        stationary = stationary_density(model, grid)
        # the stationary profile leaves nothing for the terminal; a spreading
        # bump does
        bump = DensityState(
            [GaussianCells(20.0, 0.6).cell_average(mg) for mg in grid.mode_grids],
            {"truncated": 0.0},
            0.0,
        )
        op = grid.forward_operator()
        for state in (stationary, bump):
            flat = op.flatten(state.p)
            rates = op.split(_matvec(op.rate, flat, op.n_cells))
            terminal_rates = _matvec(op.terminal, flat, len(model.terminal_states))
            total_rate = sum(
                float(np.sum(rates[q])) * grid.mode_grids[q].cell_volume
                for q in range(len(rates))
            )
            assert total_rate == pytest.approx(-float(np.sum(terminal_rates)), abs=1e-12)
        assert float(np.sum(terminal_rates)) > 1e-3


class TestCompareMcPde:
    def make_uniform_pair(self):
        model = brownian_reset_model(x0=1.0, box_length=2.0)
        grid = build_grid(model, 10)
        mg = grid.mode_grids[0]
        per_cell = 5
        n = per_cell * mg.shape[0]
        cloud = np.repeat(mg.centers(0), per_cell)[:, None]
        measure = EmpiricalMeasure(
            times=np.array([0.0]),
            mode_clouds=[[cloud]],
            terminal_counts=[{}],
            zeno_counts=np.zeros(1, dtype=np.int64),
            size=n,
            base_seed=0,
        )
        p = np.full(mg.shape, 1.0 / (mg.hi[0] - mg.lo[0]))
        density = DensityState([p], {"hit": 0.0, "escaped": 0.0}, 0.0)
        return grid, measure, density

    def test_density_against_matching_histogram_is_zero(self):
        grid, measure, density = self.make_uniform_pair()
        l1, dq = compare_mc_pde(grid, measure, density, 0.0)
        assert l1 == 0.0
        assert dq == 0.0

    def test_time_mismatch_raises(self):
        grid, measure, density = self.make_uniform_pair()
        with pytest.raises(GridMismatch):
            compare_mc_pde(grid, measure, density, 0.7)

    def test_distance_shrinks_with_ensemble_size(self):
        model = brownian_reset_model()
        grid = build_grid(model, 100)
        from resetsde.fpk import project_density

        density = project_density(grid, [GaussianCells(1.0, 0.02)])
        dt = stable_dt(grid, 0.9)
        t_end = 0.5
        steps = int(round(t_end / dt))
        density = evolve(model, grid, density, t_end / steps, steps)
        law = GaussianInitial(0, [1.0], 0.02)
        small, large = [], []
        for rep in range(3):
            m_small = ensemble(model, law, 2500, t_end, 1e-3, [t_end], base_seed=100 + rep)
            m_large = ensemble(model, law, 10_000, t_end, 1e-3, [t_end], base_seed=200 + rep)
            small.append(compare_mc_pde(grid, m_small, density, t_end)[0])
            large.append(compare_mc_pde(grid, m_large, density, t_end)[0])
        assert np.mean(large) < np.mean(small)


class TestFluxContinuity:
    def test_zero_density_zero_residual(self):
        model = thermostat_model()
        grid = build_grid(model, thermostat_resolution(PARAMS, 0.02))
        density = DensityState(
            [np.zeros(mg.shape) for mg in grid.mode_grids], {"truncated": 0.0}, 0.0
        )
        assert flux_continuity_residual(model, grid, density) == 0.0

    def test_violating_density_has_large_residual(self):
        # the stationary residual is the one-sided fluxes' own error, second
        # order in dx: 6.4e-2 at dx = 0.01 and 2.6e-2 at dx = 0.005
        model = thermostat_model()
        grid = build_grid(model, thermostat_resolution(PARAMS, 0.005))
        stationary = stationary_density(model, grid)
        base = flux_continuity_residual(model, grid, stationary)
        # independent per-mode bumps ignore the coupling entirely
        mg0, mg1 = grid.mode_grids
        p0 = GaussianCells(20.0, 0.4).cell_average(mg0)
        p1 = GaussianCells(20.0, 0.4).cell_average(mg1)
        mass = float(np.sum(p0)) * mg0.cell_volume + float(np.sum(p1)) * mg1.cell_volume
        broken = DensityState([p0 / mass, p1 / mass], {"truncated": 0.0}, 0.0)
        assert flux_continuity_residual(model, grid, broken) > 10.0 * base


class TestValidationReport:
    def test_metrics_carry_tolerance_and_provenance(self):
        report = ValidationReport()
        report.add("residual", 1e-4, 1e-3, {"seed": 7, "resolution": 100})
        report.add_bounded("l1", 0.2, 0.1, {"seed": 7})
        assert report.metrics[0].passed
        assert not report.metrics[1].passed
        assert not report.all_passed
        payload = report.to_dict()
        assert payload["passed"] is False
        assert payload["metrics"][0]["provenance"]["seed"] == 7
