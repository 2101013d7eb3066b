import copy
import math
import pickle

import numpy as np
import pytest

from resetsde.fpk import build_grid, evolve, project_density, stable_dt
from resetsde.model import SurfaceTarget, classify_boundary
from resetsde.scenarios import (
    FirstExitParams,
    GaussianCells,
    SCENARIOS,
    ScenarioError,
    ThermostatParams,
    analytic_first_passage,
    brownian_reset_model,
    first_exit_model,
    gamblers_ruin_left_probability,
    gamblers_ruin_model,
    load_scenario,
    thermostat_initial,
    thermostat_model,
    thermostat_resolution,
)
from resetsde.simulate import PathState, ensemble, simulate_path
from resetsde.model import constant_field, interval_domain, zero_field


class TestThermostatModel:
    def test_default_1d_structure(self):
        model = thermostat_model()
        assert model.dimension == 1
        assert len(model.modes) == 2
        surface = [e for e in model.reset_edges if isinstance(e.target, SurfaceTarget)]
        assert len(surface) == 2
        assert all(e.jacobian_value == 1.0 for e in surface)
        # threshold faces sit at psi_min and psi_max
        coords = sorted(
            e.source_offset * e.source_normal[0] * np.sign(e.source_normal[0]) ** 2
            for e in surface
        )
        psi_faces = sorted(abs(e.source_offset) for e in surface)
        assert psi_faces == [19.0, 21.0]

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ScenarioError):
            thermostat_model(ThermostatParams(psi_min=21.0, psi_max=19.0))

    def test_degenerate_noise_rejected(self):
        with pytest.raises(ScenarioError):
            thermostat_model(ThermostatParams(dimension=2, gamma=np.array([[0.3, 0.0], [0.0, 0.0]])))

    def test_all_faces_non_characteristic(self):
        model = thermostat_model()
        for q in range(2):
            for f in range(model.modes[q].domain.n_faces):
                assert classify_boundary(model, q, f) == "non_characteristic"

    def test_2d_threshold_hyperplanes(self):
        params = ThermostatParams(dimension=2, alpha=(0.5, 0.5))
        model = thermostat_model(params)
        # mode 0 threshold: {theta1 + theta2 >= 2 psi_min}, unit normal along -(1,1)/sqrt2
        edge = model.reset_edges[0]
        expected = -np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
        assert np.allclose(edge.source_normal, expected)
        # a point with theta1 + theta2 = 2 psi_min lies on the face
        pt = np.array([19.0, 19.0])
        gap = float(pt @ edge.source_normal) - edge.source_offset
        assert abs(gap) < 1e-12

    def test_2d_model_simulates(self):
        params = ThermostatParams(dimension=2, alpha=(0.5, 0.5))
        model = thermostat_model(params)
        measure = ensemble(
            model,
            thermostat_initial(params),
            50,
            horizon=0.3,
            dt=5e-3,
            output_times=[0.3],
            base_seed=21,
        )
        in_modes = sum(c.shape[0] for c in measure.mode_clouds[0])
        terminal = sum(measure.terminal_counts[0].values())
        assert in_modes + terminal + int(measure.zeno_counts[0]) == 50


class TestFirstExitModels:
    def test_single_terminal_aggregates_both_faces(self):
        params = FirstExitParams(
            domain=interval_domain(0.0, 1.0),
            drift=zero_field(1),
            diffusion=(constant_field([1.0]),),
            partition={0: "out", 1: "out"},
        )
        model = first_exit_model(params)
        assert model.terminal_states == ("out",)
        assert len(model.reset_edges) == 2

    def test_incomplete_partition_rejected(self):
        params = FirstExitParams(
            domain=interval_domain(0.0, 1.0),
            drift=zero_field(1),
            diffusion=(constant_field([1.0]),),
            partition={0: "left"},
        )
        with pytest.raises(ScenarioError):
            first_exit_model(params)

    def test_first_exit_paths_jump_at_most_once(self):
        model = gamblers_ruin_model()
        for idx in range(10):
            traj = simulate_path(
                model, PathState.in_mode(0, [0.5]), horizon=1.0, dt=1e-3,
                rng_seed=33, path_index=idx,
            )
            assert len(traj.jumps) <= 1
            if traj.jumps:
                assert traj.terminal_id in ("left", "right")

    def test_gamblers_ruin_oracle(self):
        assert gamblers_ruin_left_probability(0.3) == 0.7
        with pytest.raises(ScenarioError):
            gamblers_ruin_left_probability(1.5)


class TestBrownianResetModel:
    def test_bad_start_rejected(self):
        with pytest.raises(ScenarioError):
            brownian_reset_model(x0=9.0, box_length=8.0)
        with pytest.raises(ScenarioError):
            brownian_reset_model(x0=-1.0)

    def test_escape_mass_decreases_with_box_length(self):
        # deterministic refinement of the truncation diagnostic: enlarging
        # the box monotonically starves the far-field terminal
        escaped = []
        for box in (2.0, 3.0, 4.0):
            model = brownian_reset_model(x0=1.0, box_length=box)
            grid = build_grid(model, int(box / 0.02))
            density = project_density(grid, [GaussianCells(1.0, 0.02)])
            dt = stable_dt(grid, 0.9)
            steps = int(round(0.5 / dt))
            state = evolve(model, grid, density, 0.5 / steps, steps)
            escaped.append(state.q["escaped"])
        assert escaped[0] > escaped[1] > escaped[2]


class TestAnalyticFirstPassage:
    def test_zero_time(self):
        assert analytic_first_passage(1.0, 0.0) == 0.0

    def test_small_start_limit(self):
        assert analytic_first_passage(1e-9, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_reference_value(self):
        # frozen from an independent Simpson quadrature of the error-function
        # integral (2e5 panels), agreeing with erfc to 1e-13
        assert analytic_first_passage(1.0, 1.0) == pytest.approx(0.3173105078629141, abs=1e-12)
        assert analytic_first_passage(1.0, 0.25) == pytest.approx(0.0455002638963584, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ScenarioError):
            analytic_first_passage(-1.0, 1.0)
        with pytest.raises(ScenarioError):
            analytic_first_passage(1.0, -0.5)


class TestGaussianCells:
    def test_cell_average_matches_quadrature(self):
        model = brownian_reset_model()
        grid = build_grid(model, 50)
        mg = grid.mode_grids[0]
        cells = GaussianCells(1.0, 0.3)
        averaged = cells.cell_average(mg)
        # midpoint quadrature oracle with 2000 panels per cell
        faces = mg.faces(0)
        for i in (4, 6, 8, 10):
            xs = np.linspace(faces[i], faces[i + 1], 2001)
            mids = 0.5 * (xs[:-1] + xs[1:])
            dens = np.exp(-0.5 * ((mids - 1.0) / 0.3) ** 2) / (0.3 * math.sqrt(2 * math.pi))
            oracle = float(np.mean(dens))
            assert averaged[i] == pytest.approx(oracle, rel=1e-6)


class TestRegistry:
    def test_load_scenarios_by_name(self):
        for name in ("thermostat_1d", "brownian_reset", "gamblers_ruin"):
            bundle = load_scenario(name)
            assert "model" in bundle and "initial_law" in bundle

    @pytest.mark.parametrize("copier", ["pickle", "deepcopy"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_models_and_initial_laws_survive_pickle_and_deepcopy(self, name, copier):
        # ensembles send the model and initial law to worker processes by
        # pickle; the immutable records refused the setattr that restores slots
        bundle = load_scenario(name)
        if copier == "pickle":
            model, law = pickle.loads(pickle.dumps((bundle["model"], bundle["initial_law"])))
        else:
            model, law = copy.deepcopy((bundle["model"], bundle["initial_law"]))
        outputs = []
        for m, l in ((bundle["model"], bundle["initial_law"]), (model, law)):
            measure = ensemble(m, l, 300, 0.2, 1e-2, [0.1, 0.2], base_seed=3)
            grid = build_grid(m, bundle["resolution"](bundle["default_dx"]))
            state = evolve(m, grid, project_density(grid, bundle["initial_cells"]), stable_dt(grid, 0.9), 20)
            outputs.append(
                [cloud.tobytes() for clouds in measure.mode_clouds for cloud in clouds]
                + [repr(measure.terminal_counts), measure.zeno_counts.tobytes()]
                + [p.tobytes() for p in state.p] + [repr(state.q)]
            )
        assert outputs[0] == outputs[1]

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="available"):
            load_scenario("unknown")

    def test_resolution_helper_requires_alignment(self):
        with pytest.raises(ScenarioError):
            thermostat_resolution(ThermostatParams(), 0.03)
