import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from resetsde.model import (
    AffineField,
    AffineMap,
    Mode,
    ModelSpec,
    ResetEdge,
    SurfaceTarget,
    TerminalTarget,
    UnassignedFace,
    VectorFieldSet,
    box_domain,
    build_model,
    constant_field,
    interval_domain,
    zero_field,
)
from resetsde.scenarios import (
    ThermostatParams,
    analytic_first_passage,
    brownian_reset_model,
    gamblers_ruin_model,
    thermostat_initial,
    thermostat_model,
)
from resetsde import simulate
from resetsde.simulate import (
    CharacteristicFaceHit,
    SimulationError,
    _checkpoints,
    _pcg_seeds,
    _streams,
    GaussianInitial,
    PathState,
    PointMass,
    StartOnBoundary,
    apply_reset,
    default_zeno_cap,
    detect_hit,
    ensemble,
    simulate_path,
    step,
)
from resetsde.validate import TestFunction, ValidationError, dynkin_residual
from test_acceptance import thermostat_phi


def ou_model(kappa=1.0, sigma=0.5, half_width=10.0):
    mode = Mode(
        interval_domain(-half_width, half_width),
        VectorFieldSet(AffineField([[-kappa]], [0.0]), (constant_field([sigma]),)),
    )
    edges = [
        ResetEdge(0, 0, TerminalTarget("escaped")),
        ResetEdge(0, 1, TerminalTarget("escaped")),
    ]
    return build_model(ModelSpec(1, [mode], edges, terminal_states=["escaped"]))


def zeno_model(offset=1e-3, drift=-5.0, sigma=0.02):
    """Reset re-injects the state a hair inside while the drift slams it back."""
    mode = Mode(
        interval_domain(0.0, 1.0),
        VectorFieldSet(constant_field([drift]), (constant_field([sigma]),)),
    )
    edges = [
        ResetEdge(0, 0, SurfaceTarget(0, AffineMap([[1.0]], [offset]))),
        ResetEdge(0, 1, TerminalTarget("far")),
    ]
    return build_model(ModelSpec(1, [mode], edges, terminal_states=["far"]))


def driftless_box_2d(sigma, half_width=100.0):
    """Constant isotropic noise in a box too wide to reach within a few hundred steps."""
    mode = Mode(
        box_domain([-half_width] * 2, [half_width] * 2),
        VectorFieldSet(zero_field(2), (constant_field([sigma, 0.0]), constant_field([0.0, sigma]))),
    )
    edges = [ResetEdge(0, f, TerminalTarget("out")) for f in range(4)]
    return build_model(ModelSpec(2, [mode], edges, terminal_states=["out"]))


def two_box_2d():
    """Unit box whose bottom face resets into a larger box; every other face is terminal."""
    diff = (constant_field([0.5, 0.0]), constant_field([0.0, 0.5]))
    inner = Mode(box_domain([0.0, 0.0], [1.0, 1.0]), VectorFieldSet(constant_field([0.0, -0.3]), diff))
    outer = Mode(box_domain([-1.0, -1.0], [4.0, 4.0]), VectorFieldSet(zero_field(2), diff))
    edges = [ResetEdge(0, 2, SurfaceTarget(1, AffineMap(1.7 * np.eye(2), [0.0, 1.0])))]
    edges += [ResetEdge(0, f, TerminalTarget("out")) for f in (0, 1, 3)]
    edges += [ResetEdge(1, f, TerminalTarget("out")) for f in range(4)]
    return build_model(ModelSpec(2, [inner, outer], edges, terminal_states=["out"]))


def multiplicative_thermostat():
    """The thermostat geometry and drifts with noise 0.01 x + 0.1, stepped mode by mode."""
    base = thermostat_model()
    noise = (AffineField([[0.01]], [0.1]),)
    modes = [Mode(m.domain, VectorFieldSet(m.fields.drift, noise)) for m in base.modes]
    edges = [ResetEdge(e.source_mode, e.source_face, e.target) for e in base.reset_edges]
    return build_model(ModelSpec(1, modes, edges, terminal_states=list(base.terminal_states)))


def narrow_margin_thermostat():
    """The thermostat with unit noise and a 0.02 margin: a path switched onto a
    threshold is often truncated a step later, so surface and terminal
    crossings share steps and paths die throughout the run."""
    return thermostat_model(ThermostatParams(gamma=1.0, box_margin=0.02))


def widths(n):
    """Paths in flight to compare with the default: one, a few, all but one, all."""
    return (1, 17, n - 1, n)


def ruin_phi():
    """exp(x), whose generator under unit Brownian motion is exp(x) / 2."""
    return TestFunction(
        lambda q, pts: np.exp(pts[:, 0]),
        lambda q, pts: 0.5 * np.exp(pts[:, 0]),
        terminal_values={"left": 2.0, "right": 3.0},
    )


class TestStep:
    def test_zero_fields_leave_state_unchanged(self):
        mode = Mode(
            interval_domain(0.0, 1.0),
            VectorFieldSet(zero_field(1), (zero_field(1),)),
        )
        edges = [ResetEdge(0, f, TerminalTarget("out")) for f in range(2)]
        model = build_model(
            ModelSpec(1, [mode], edges, terminal_states=["out"], characteristic_faces=[])
        )
        state = PathState.in_mode(0, [0.5])
        out = step(model, state, 0.1, [0.3])
        assert out.position[0] == 0.5
        assert out.time == pytest.approx(0.1)

    def test_pure_drift_is_exact(self):
        v = 0.25
        mode = Mode(
            interval_domain(0.0, 10.0),
            VectorFieldSet(constant_field([v]), (zero_field(1),)),
        )
        edges = [ResetEdge(0, f, TerminalTarget("out")) for f in range(2)]
        model = build_model(ModelSpec(1, [mode], edges, terminal_states=["out"]))
        out = step(model, PathState.in_mode(0, [1.0]), 0.5, [0.0])
        assert out.position[0] == 1.0 + v * 0.5

    def test_stratonovich_correction_enters_the_step(self):
        # A1(x) = x gives Ito drift x/2; with zero noise increment the step
        # moves by exactly that correction
        mode = Mode(
            interval_domain(0.5, 8.0),
            VectorFieldSet(zero_field(1), (AffineField([[1.0]], [0.0]),)),
        )
        edges = [ResetEdge(0, f, TerminalTarget("out")) for f in range(2)]
        model = build_model(ModelSpec(1, [mode], edges, terminal_states=["out"]))
        out = step(model, PathState.in_mode(0, [2.0]), 0.01, [0.0])
        assert out.position[0] == pytest.approx(2.0 + 0.5 * 2.0 * 0.01, abs=1e-14)

    def test_ou_ensemble_moments(self):
        # analytic oracle: mean theta0 e^-k, var sigma^2 (1 - e^-2k) / (2k)
        kappa, sigma, theta0, t_end = 1.0, 0.5, 1.0, 1.0
        n = 100_000
        model = ou_model(kappa, sigma)
        measure = ensemble(
            model,
            PointMass(0, [theta0]),
            n,
            horizon=t_end,
            dt=1e-3,
            output_times=[t_end],
            base_seed=2024,
        )
        cloud = measure.mode_clouds[0][0][:, 0]
        assert cloud.size == n   # nothing escaped the wide box
        mean_exp = theta0 * math.exp(-kappa)
        var_exp = sigma**2 * (1 - math.exp(-2 * kappa)) / (2 * kappa)
        se_mean = cloud.std(ddof=1) / math.sqrt(n)
        assert abs(cloud.mean() - mean_exp) < 3 * se_mean + 1e-3
        se_var = cloud.var(ddof=1) * math.sqrt(2.0 / (n - 1))
        assert abs(cloud.var(ddof=1) - var_exp) < 3 * se_var + 1e-3


class TestDetectHit:
    def test_interior_segment_returns_none(self):
        dom = interval_domain(0.0, 1.0)
        assert detect_hit(dom, [0.4], [0.6]) is None

    def test_halfline_crossing_fraction(self):
        dom = interval_domain(0.0, 100.0)
        s, face, point = detect_hit(dom, [0.5], [-0.5])
        assert s == pytest.approx(0.5)
        assert face == 0
        assert point[0] == 0.0

    def test_corner_crossing_picks_first_face(self):
        dom = box_domain([0.0, 0.0], [1.0, 1.0])
        start = np.array([0.9, 0.8])
        end = np.array([1.2, 1.1])
        s, face, point = detect_hit(dom, start, end)
        # brute-force oracle: per-face crossing fractions of the segment
        fractions = {}
        for f in range(dom.n_faces):
            gs = float(start @ dom.normals[f] - dom.offsets[f])
            ge = float(end @ dom.normals[f] - dom.offsets[f])
            if gs < 0.0 <= ge:
                fractions[f] = gs / (gs - ge)
        best = min(fractions, key=fractions.get)
        assert face == best
        assert s == pytest.approx(fractions[best])
        assert point[0] == pytest.approx(1.0)   # landed exactly on x = 1

    def test_start_on_boundary_rejected(self):
        dom = interval_domain(0.0, 1.0)
        with pytest.raises(StartOnBoundary):
            detect_hit(dom, [0.0], [0.5])

    @pytest.mark.parametrize("domain, start, end, message", [
        (gamblers_ruin_model().modes[0].domain, [0.3, 0.1], [0.5], "start must have 1 coordinates, got 2"),
        (interval_domain(0.0, 1.0), [0.3], [0.5, 0.1], "end must have 1 coordinates, got 2"),
        (interval_domain(0.0, 1.0), [0.3, 0.1], [1.5, 0.1], "start must have 1 coordinates, got 2"),
        (box_domain([0.0, 0.0], [1.0, 1.0]), [0.5], [0.5, 0.5], "start must have 2 coordinates, got 1"),
    ])
    def test_points_of_the_wrong_dimension_rejected(self, domain, start, end, message):
        # the gaps broadcast a 2-vector against the interval's normals, so the
        # first case answered None (no crossing)
        with pytest.raises(SimulationError, match=f"segment {message}"):
            detect_hit(domain, start, end)


class TestApplyReset:
    def test_thermostat_switch_keeps_position(self):
        model = thermostat_model()
        out = apply_reset(model, (0, 0, np.array([19.0])), time=2.0)
        assert out.mode == 1
        assert out.terminal is None
        assert out.position[0] == pytest.approx(19.0, abs=1e-11)
        assert out.time == 2.0

    def test_first_exit_hits_terminal(self):
        model = gamblers_ruin_model()
        out = apply_reset(model, (0, 0, np.array([0.0])))
        assert out.terminal == "left"
        out = apply_reset(model, (0, 1, np.array([1.0])))
        assert out.terminal == "right"

    def test_interior_image_needs_no_nudge(self):
        model = thermostat_model()
        out = apply_reset(model, (0, 0, np.array([19.0])))
        # image is far from mode 1's faces, so the position is bit-exact
        assert out.position[0] == 19.0

    def test_image_touching_face_is_nudged_inside(self):
        # a reset landing numerically on the target boundary moves inward by
        # 1e-12 of the domain diameter along the violated face normal
        from resetsde.simulate import _nudge_interior
        from resetsde.model import interval_domain as make_interval

        dom = make_interval(0.0, 1.0)
        nudged = _nudge_interior(dom, np.array([[0.0], [0.5], [1.0]]))
        eps = 1e-12 * dom.diameter()
        assert nudged[0, 0] == pytest.approx(eps, rel=1e-6)
        assert nudged[1, 0] == 0.5
        assert nudged[2, 0] == pytest.approx(1.0 - eps, rel=1e-6)
        assert bool(np.all(dom.gaps(nudged) < 0))

    def test_characteristic_face_hit_raises(self):
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
            ModelSpec(
                2, [mode], edges, terminal_states=["out"], characteristic_faces=[(0, 2), (0, 3)]
            )
        )
        with pytest.raises(CharacteristicFaceHit):
            apply_reset(model, (0, 2, np.array([0.5, 0.0])))
        # the engine looks resets up in per-face tables and still refuses the face
        with pytest.raises(CharacteristicFaceHit):
            ensemble(model, PointMass(0, [0.5, 0.05]), 20, 1.0, 1e-2, [1.0], base_seed=1)

    def test_face_without_edge_raises(self):
        with pytest.raises(UnassignedFace):
            apply_reset(gamblers_ruin_model(), (0, 2, np.array([0.5])))


class TestSimulatePath:
    def test_terminal_initial_is_constant(self):
        model = gamblers_ruin_model()
        traj = simulate_path(
            model, PathState.at_terminal("left"), horizon=1.0, dt=0.1, rng_seed=1
        )
        assert traj.terminal_id == "left"
        assert np.all(traj.modes == -1)
        assert traj.jumps == []

    def test_deterministic_thermostat_switch_times(self):
        # zero noise: mode 0 relaxes toward theta_off=15 from 20, crossing 19
        # at ln(5/4); mode 1 then heats toward 25, crossing 21 after ln(3/2)
        params = ThermostatParams(gamma=1e-12)
        model = thermostat_model(params)
        dt = 1e-3
        traj = simulate_path(
            model, PathState.in_mode(0, [20.0]), horizon=1.0, dt=dt, rng_seed=9
        )
        tau1 = math.log(5.0 / 4.0)
        tau2 = tau1 + math.log(6.0 / 4.0)
        assert len(traj.jumps) >= 2
        assert traj.jumps[0].time == pytest.approx(tau1, abs=2 * dt)
        assert traj.jumps[1].time == pytest.approx(tau2, abs=2 * dt)
        assert traj.jumps[0].mode == 0 and traj.jumps[0].post.mode == 1
        assert traj.jumps[1].mode == 1 and traj.jumps[1].post.mode == 0

    def test_jump_times_strictly_increase_and_posts_match_map(self):
        model = thermostat_model()
        traj = simulate_path(
            model, PathState.in_mode(0, [20.0]), horizon=5.0, dt=1e-3, rng_seed=42
        )
        assert len(traj.jumps) >= 2
        times = [j.time for j in traj.jumps]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        for jump in traj.jumps:
            # identity reset map: post position equals the pre-jump point
            assert jump.post.position[0] == jump.point[0]

    def test_samples_between_jumps_stay_in_mode_domain(self):
        model = thermostat_model()
        traj = simulate_path(
            model, PathState.in_mode(0, [20.0]), horizon=2.0, dt=1e-3, rng_seed=3
        )
        for q, pos in zip(traj.modes, traj.positions):
            if q >= 0:
                dom = model.modes[q].domain
                assert bool(dom.contains(pos, tol=1e-12))

    def test_zeno_guard_truncates_and_flags(self):
        model = zeno_model()
        cap = 50
        traj = simulate_path(
            model, PathState.in_mode(0, [0.5]), horizon=1.0, dt=1e-3, rng_seed=7,
            zeno_cap=cap,
        )
        assert traj.zeno_flag
        assert len(traj.jumps) == cap

    @pytest.mark.parametrize("cap", [0, -5, 2.5, True])
    def test_refuses_a_zeno_cap_below_one_or_fractional(self, cap):
        with pytest.raises(SimulationError, match="zeno_cap"):
            simulate_path(gamblers_ruin_model(), PathState.in_mode(0, [0.3]), 0.1, 1e-2, 1, zeno_cap=cap)

    def test_default_zeno_cap_scales_with_horizon(self):
        assert default_zeno_cap(1.0) == 10_000
        assert default_zeno_cap(2.5) == 25_000


class TestCheckpoints:
    def test_output_time_within_rounding_of_the_grid_adds_no_step(self):
        points, idx = _checkpoints(1.0, 0.1, [0.3])
        assert points.size == 11
        assert np.min(np.diff(points)) > 0.5 * 0.1
        assert points[idx[0]] == pytest.approx(0.3, abs=1e-15)

    def test_off_grid_output_time_is_its_own_checkpoint(self):
        points, idx = _checkpoints(1.0, 0.1, [0.35])
        assert points.size == 12
        assert points[idx[0]] == 0.35

    def test_grid_point_at_the_horizon_up_to_rounding_is_the_horizon(self):
        # 11 * 0.1 rounds above 1.1, so the step grid overshoots the horizon
        points, idx = _checkpoints(1.1, 0.1, [1.1])
        assert points[-1] == 1.1
        assert np.min(np.diff(points)) > 0.5 * 0.1
        assert idx[0] == points.size - 1

    def test_output_time_outside_the_horizon_rejected(self):
        with pytest.raises(SimulationError):
            _checkpoints(1.0, 0.1, [1.5])

    def test_horizon_below_the_snap_keeps_t0(self):
        # t = 0 was dropped as a grid point within rounding of the horizon,
        # and the run ended in an IndexError
        points, idx = _checkpoints(1e-12, 1.0, [1e-12])
        assert points.tolist() == [0.0, 1e-12] and idx.tolist() == [1]

    def test_ensemble_over_a_horizon_below_the_snap_takes_one_step(self):
        measure = ensemble(gamblers_ruin_model(), PointMass(0, [0.3]), 4, 1e-12, 1.0, [1e-12], base_seed=1)
        cloud = measure.mode_clouds[0][0]
        assert measure.times.tolist() == [1e-12] and measure.terminal_counts == [{}]
        assert cloud.shape == (4, 1) and np.all(np.abs(cloud - 0.3) < 1e-5) and np.all(cloud != 0.3)

    def test_path_over_a_horizon_below_the_snap_takes_one_step(self):
        traj = simulate_path(gamblers_ruin_model(), PathState.in_mode(0, [0.3]), horizon=1e-12, dt=1.0, rng_seed=1)
        assert traj.times.tolist() == [0.0, 1e-12] and traj.modes.tolist() == [0, 0]
        assert traj.positions[0, 0] == 0.3 and abs(traj.positions[1, 0] - 0.3) < 1e-5

    def test_snapped_output_time_reproduces_the_grid_time_run(self):
        model = brownian_reset_model()
        kwargs = dict(
            initial_law=GaussianInitial(0, [1.0], 0.02), n_paths=200, horizon=1.0, dt=0.1,
            base_seed=9,
        )
        exact = ensemble(model, output_times=[0.3], **kwargs)
        grid = ensemble(model, output_times=[3 * 0.1], **kwargs)
        assert np.array_equal(exact.mode_clouds[0][0], grid.mode_clouds[0][0])


class TestEnsemble:
    def test_empty_ensemble(self):
        model = gamblers_ruin_model()
        measure = ensemble(
            model, PointMass(0, [0.3]), 0, 1.0, 1e-2, [0.5, 1.0], base_seed=1
        )
        assert measure.size == 0
        assert measure.mode_clouds[0][0].shape == (0, 1)
        # with a registered test function the record exists and is empty
        phi = ruin_phi()
        measure = ensemble(
            model, PointMass(0, [0.3]), 0, 1.0, 1e-2, [0.5, 1.0], base_seed=1, test_functions=[phi]
        )
        assert measure.dynkin[0].phi is phi and measure.dynkin[0].phi_t.shape == (2, 0)
        with pytest.raises(ValidationError, match="no live paths"):
            dynkin_residual(model, measure, phi, 1.0)

    def test_bitwise_reproducible(self):
        model = thermostat_model()
        kwargs = dict(
            initial_law=GaussianInitial(0, [20.0], 0.05),
            n_paths=500,
            horizon=1.0,
            dt=1e-2,
            output_times=[0.5, 1.0],
            base_seed=77,
        )
        m1 = ensemble(model, **kwargs)
        m2 = ensemble(model, **kwargs)
        for k in range(2):
            for q in range(2):
                assert np.array_equal(m1.mode_clouds[k][q], m2.mode_clouds[k][q])
            assert m1.terminal_counts[k] == m2.terminal_counts[k]

    def test_independent_of_batch_size(self):
        kwargs = dict(
            initial_law=GaussianInitial(0, [20.0], 0.05),
            n_paths=300,
            horizon=0.5,
            dt=1e-2,
            output_times=[0.5],
            base_seed=5,
        )
        # the second model has no row form, so it takes the per-mode proposal
        for model in (thermostat_model(), multiplicative_thermostat()):
            base = ensemble(model, **kwargs)
            for batch_size in (*widths(300), 64):
                variant = ensemble(model, batch_size=batch_size, **kwargs)
                for q in range(2):
                    assert np.array_equal(base.mode_clouds[0][q], variant.mode_clouds[0][q]), batch_size

    @pytest.mark.parametrize("key, value", [
        ("zeno_cap", 0), ("zeno_cap", -5), ("zeno_cap", 2.5),
        ("batch_size", 0), ("batch_size", -3), ("batch_size", 2.5),
        ("zeno_cap", True), ("batch_size", True),
        ("n_paths", -1), ("n_paths", True), ("n_paths", 2.5), ("n_paths", "3"),
    ])
    def test_refuses_counts_below_one_or_fractional(self, key, value):
        # zeno_cap 0 used to flag every path at its first reset; batch_size 0
        # and -3 failed inside range() and np.concatenate; n_paths True gave a
        # measure of size True, 2.5 was refused as path index 1.5 and "3"
        # raised a TypeError
        kwargs = dict(n_paths=20, horizon=0.1, dt=1e-2, output_times=[0.1], base_seed=1)
        with pytest.raises(SimulationError, match=key):
            ensemble(thermostat_model(), PointMass(0, [20.0]), **{**kwargs, key: value})

    def test_dynkin_records_independent_of_batch_size(self):
        model = thermostat_model()
        kwargs = dict(
            initial_law=thermostat_initial(),
            n_paths=300,
            horizon=3.0,   # long enough for both modes to reset in one step
            dt=1e-2,
            output_times=[1.0, 3.0],
            base_seed=5,
            test_functions=[thermostat_phi(1.0, 2.0, model)],
        )
        base = ensemble(model, **kwargs).dynkin[0]
        assert np.any(base.jump_sum != 0.0)
        for batch_size in widths(300):
            other = ensemble(model, batch_size=batch_size, **kwargs).dynkin[0]
            for name in ("phi0", "phi_t", "int_generator", "jump_sum", "alive"):
                assert np.array_equal(getattr(base, name), getattr(other, name)), (batch_size, name)

    def test_dynkin_records_with_dead_rows_independent_of_batch_size(self):
        # paths die throughout the run, so rows are carried dead between
        # compactions; paths admitted later record their t = 0 slot on admission
        for times in ([0.1, 0.4, 1.0], [0.0, 0.1, 0.4, 1.0]):
            kwargs = dict(
                initial_law=GaussianInitial(0, [0.3], 0.01),
                n_paths=300,
                horizon=1.0,
                dt=1e-2,
                output_times=times,
                base_seed=8,
                test_functions=[ruin_phi()],
            )
            base = ensemble(gamblers_ruin_model(), **kwargs).dynkin[0]
            assert np.any(base.jump_sum != 0.0)
            for batch_size in widths(300):
                other = ensemble(gamblers_ruin_model(), batch_size=batch_size, **kwargs).dynkin[0]
                for name in ("phi0", "phi_t", "int_generator", "jump_sum", "alive"):
                    assert np.array_equal(getattr(base, name), getattr(other, name)), (times, batch_size, name)

    @pytest.mark.parametrize("batch_size", widths(300))
    def test_dead_paths_fill_every_remaining_slot(self, batch_size):
        # terminal values outside exp((0, 1)) tell a dead path's slots from a live one's
        phi = TestFunction(
            lambda q, pts: np.exp(pts[:, 0]),
            lambda q, pts: 0.5 * np.exp(pts[:, 0]),
            terminal_values={"left": -1.0, "right": -2.0},
        )
        # the last output interval is one step, so some paths die at the final checkpoint
        kwargs = dict(
            initial_law=GaussianInitial(0, [0.3], 0.01),
            n_paths=300,
            horizon=0.2,
            dt=1e-2,
            output_times=[0.05, 0.123, 0.19, 0.2],
            base_seed=4,
            test_functions=[phi],
        )
        base = ensemble(gamblers_ruin_model(), **kwargs).dynkin[0]
        assert np.all((base.phi_t < 0.0) | (base.phi_t > 1.0))   # no slot left at its zero fill
        dead = base.phi_t < 0.0
        first = np.where(dead.any(axis=0), dead.argmax(axis=0), dead.shape[0])
        assert np.all(dead == (np.arange(4)[:, None] >= first))   # dead paths stay dead
        died_in = np.bincount(first, minlength=5)
        assert np.all(died_in > 0), died_in   # before t1, between times, in the last step, never
        for k in range(1, 4):
            was_dead = dead[k - 1]
            for name in ("phi_t", "int_generator", "jump_sum"):
                values = getattr(base, name)
                assert np.array_equal(values[k, was_dead], values[k - 1, was_dead]), (k, name)
        assert np.all(base.jump_sum[dead] != 0.0) and np.all(base.alive)
        other = ensemble(gamblers_ruin_model(), batch_size=batch_size, **kwargs).dynkin[0]
        for name in ("phi0", "phi_t", "int_generator", "jump_sum", "alive"):
            assert np.array_equal(getattr(base, name), getattr(other, name)), name

    def test_off_grid_output_time_and_resets_on_checkpoints_independent_of_batch_size(self):
        # x drifts at unit speed with no noise and dt = 1/8, so every x-face hit
        # lands exactly on a checkpoint; y diffuses, and its faces absorb
        mode = Mode(
            box_domain([0.0, -0.5], [1.0, 0.5]),
            VectorFieldSet(constant_field([1.0, 0.0]), (zero_field(2), constant_field([0.0, 0.3]))),
        )
        reinject = AffineMap([[0.0, 0.0], [0.0, 1.0]], [0.5, 0.0])
        edges = [
            ResetEdge(0, 0, TerminalTarget("out")),
            ResetEdge(0, 1, SurfaceTarget(0, reinject)),
            ResetEdge(0, 2, TerminalTarget("out")),
            ResetEdge(0, 3, TerminalTarget("out")),
        ]
        model = build_model(ModelSpec(2, [mode], edges, terminal_states=["out"]))
        phi = TestFunction(
            lambda q, pts: pts[:, 0] + pts[:, 1] ** 2,
            lambda q, pts: 1.0 + 0.09 + 0.0 * pts[:, 0],
            terminal_values={"out": 5.0},
        )
        traj = simulate_path(model, PathState.in_mode(0, [0.5, 0.0]), 1.0, 0.125, rng_seed=3)
        assert traj.jumps[0].time == 0.5
        kwargs = dict(
            initial_law=GaussianInitial(0, [0.5, 0.0], [0.0, 0.05]),
            n_paths=200,
            horizon=1.5,
            dt=0.125,
            output_times=[0.5, 0.8, 1.5],
            base_seed=6,
            test_functions=[phi],
        )
        base = ensemble(model, **kwargs)
        assert 0 < base.terminal_counts[-1]["out"] < 200
        assert np.any(base.dynkin[0].jump_sum[0] != 0.0)
        for batch_size in widths(200):
            other = ensemble(model, batch_size=batch_size, **kwargs)
            for k in range(3):
                assert base.mode_clouds[k][0].tobytes() == other.mode_clouds[k][0].tobytes()
                assert base.terminal_counts[k] == other.terminal_counts[k]
            for name in ("phi0", "phi_t", "int_generator", "jump_sum", "alive"):
                assert np.array_equal(
                    getattr(base.dynkin[0], name), getattr(other.dynkin[0], name)
                ), (batch_size, name)

    def test_noise_memory_scales_with_the_steps_drawn(self):
        # five steps per path; a buffer of 512 normals per path alone took 82 MB
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ensemble(
                gamblers_ruin_model(), GaussianInitial(0, [0.3], 0.01), 20_000, 0.05, 1e-2,
                [0.05], base_seed=1,
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_engine_memory_does_not_grow_with_the_ensemble(self):
        # the five-step ruin above at the default paths in flight: doubling N
        # adds only the recorder's output slots, n_out * (8d + 2) + 1 = 11 B
        # per path here (an 8 B position, one-byte mode and terminal codes per
        # output time, a one-byte output cursor); int64 codes and cursor took
        # 32 B, and one batch of every path added about 930 B per path
        model, law = gamblers_ruin_model(), GaussianInitial(0, [0.3], 0.01)
        ensemble(model, law, 10, 0.05, 1e-2, [0.05], base_seed=1)   # imports stay outside the peak
        peaks = []
        for n in (60_000, 120_000):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                ensemble(model, law, n, 0.05, 1e-2, [0.05], base_seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        n_out, d = 1, 1
        recorder = 60_000 * (n_out * (8 * d + 2) + 1)
        assert peaks[1] - peaks[0] <= 1.1 * recorder, peaks

    def test_memory_per_path_is_bounded(self):
        # the streams share one seed object and the noise buffer is never
        # copied: 1,333 B per path here, against 1,552 with one seed object
        # per stream and a gathered copy of each step's normals
        model, law, n = gamblers_ruin_model(), GaussianInitial(0, [0.3], 0.01), 5_000
        ensemble(model, law, 10, 2.0, 1e-3, [2.0], base_seed=1)   # imports stay outside the peak
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ensemble(model, law, n, 2.0, 1e-3, [2.0], base_seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / n < 1_440, peak / n

    def test_memory_per_path_is_bounded_across_batches(self):
        # one recorder for the run: about 110 B per path here, 51 B of them in
        # its slots (5 output times), against 186 with int64 mode and terminal
        # codes and cursor (128 B of slots) and 272 with a recorder per batch
        # concatenated at the end
        model, law, n = gamblers_ruin_model(), GaussianInitial(0, [0.3], 0.01), 20_000
        times = [0.1, 0.25, 0.5, 1.0, 2.0]
        ensemble(model, law, 10, 2.0, 1e-3, times, base_seed=1)   # imports stay outside the peak
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ensemble(model, law, n, 2.0, 1e-3, times, base_seed=1, batch_size=500)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / n < 120, peak / n

    def test_repeated_output_time_rejected(self):
        # one output slot per checkpoint: a repeated time would leave a slot
        # that accounts for only part of the paths
        with pytest.raises(SimulationError, match="distinct"):
            ensemble(
                brownian_reset_model(), GaussianInitial(0, [1.0], 0.02), 100, 1.0, 0.1,
                [0.5, 0.5], base_seed=1,
            )

    @pytest.mark.parametrize(
        "horizon, dt", [(np.nan, 1e-2), (np.inf, 1e-2), (0.1, np.nan), (0.1, np.inf)]
    )
    def test_non_finite_horizon_or_dt_rejected(self, horizon, dt):
        with pytest.raises(SimulationError, match="finite"):
            ensemble(gamblers_ruin_model(), PointMass(0, [0.3]), 4, horizon, dt, [0.1], base_seed=1)
        with pytest.raises(SimulationError, match="finite"):
            simulate_path(gamblers_ruin_model(), PathState.in_mode(0, [0.3]), horizon, dt, rng_seed=1)

    def test_zero_horizon_rejected(self):
        # a zero horizon indexed past the end of the checkpoints
        with pytest.raises(SimulationError, match="horizon must be positive"):
            ensemble(gamblers_ruin_model(), PointMass(0, [0.3]), 4, 0.0, 1e-2, [0.0], base_seed=1)
        with pytest.raises(SimulationError, match="horizon must be positive"):
            simulate_path(gamblers_ruin_model(), PathState.in_mode(0, [0.3]), 0.0, 1e-2, rng_seed=1)

    def test_nan_output_time_rejected(self):
        with pytest.raises(SimulationError, match="output times"):
            ensemble(gamblers_ruin_model(), PointMass(0, [0.3]), 4, 0.1, 1e-2, [np.nan], base_seed=1)

    def test_mass_accounting(self):
        model = brownian_reset_model()
        n = 2000
        measure = ensemble(
            model, GaussianInitial(0, [1.0], 0.02), n, 1.0, 1e-2, [0.25, 1.0], base_seed=3
        )
        for k in range(2):
            in_modes = sum(c.shape[0] for c in measure.mode_clouds[k])
            terminal = sum(measure.terminal_counts[k].values())
            assert in_modes + terminal + int(measure.zeno_counts[k]) == n

    def test_matches_single_path_api(self):
        model = ou_model()
        n = 6
        horizon, dt = 0.25, 1e-2
        measure = ensemble(
            model, PointMass(0, [1.0]), n, horizon, dt, [horizon], base_seed=11
        )
        cloud = measure.mode_clouds[0][0]
        for idx in range(n):
            traj = simulate_path(
                model, PathState.in_mode(0, [1.0]), horizon, dt, rng_seed=11,
                path_index=idx,
            )
            assert traj.positions[-1, 0] == cloud[idx, 0]

    def test_zeno_paths_excluded_and_counted(self):
        model = zeno_model()
        n = 200
        kwargs = dict(horizon=1.0, dt=1e-3, output_times=[0.5, 1.0], base_seed=13, zeno_cap=50)
        measure = ensemble(model, PointMass(0, [0.5]), n, **kwargs)
        assert measure.zeno_counts[0] >= 0.99 * n
        in_modes = sum(c.shape[0] for c in measure.mode_clouds[1])
        terminal = sum(measure.terminal_counts[1].values())
        assert in_modes + terminal + int(measure.zeno_counts[1]) == n
        # capped rows die long before the horizon, and queued paths take their rows
        for batch_size in widths(n):
            other = ensemble(model, PointMass(0, [0.5]), n, batch_size=batch_size, **kwargs)
            assert np.array_equal(measure.zeno_counts, other.zeno_counts), batch_size
            for k in range(2):
                assert measure.terminal_counts[k] == other.terminal_counts[k]
                assert measure.mode_clouds[k][0].tobytes() == other.mode_clouds[k][0].tobytes()


NARROW = dict(n_paths=150, horizon=1.5, dt=1e-2, output_times=[0.64, 0.65, 1.5], base_seed=22)
NARROW_PHI = TestFunction(
    lambda q, pts: (q + 1.0) * pts[:, 0], lambda q, pts: 0.0 * pts[:, 0], terminal_values={"truncated": -1.0}
)


@pytest.fixture(scope="module")
def narrow_paths():
    """The narrow-margin thermostat's paths run one by one from 20 in mode 0."""
    model = narrow_margin_thermostat()
    return model, [
        simulate_path(
            model, PathState.in_mode(0, [20.0]), NARROW["horizon"], NARROW["dt"],
            rng_seed=NARROW["base_seed"], path_index=i,
        )
        for i in range(NARROW["n_paths"])
    ]


class TestStartChecks:
    """Initial laws and start states the engine cannot run are refused by name."""

    @pytest.mark.parametrize("mode", [3, -1, 1.0, True])
    def test_start_mode_out_of_range(self, mode):
        # mode 3 raised an IndexError, and -1 indexed the last mode
        with pytest.raises(SimulationError, match="start mode"):
            ensemble(gamblers_ruin_model(), GaussianInitial(mode, [0.3], 0.01), 4, 0.1, 1e-2, [0.1], base_seed=1)
        with pytest.raises(SimulationError, match="start mode"):
            simulate_path(gamblers_ruin_model(), PathState(mode, None, np.array([0.3]), 0.0), 0.1, 1e-2, rng_seed=1)
        with pytest.raises(SimulationError, match="start mode"):
            step(gamblers_ruin_model(), PathState(mode, None, np.array([0.3]), 0.0), 1e-2, [0.1])

    def test_start_point_of_the_wrong_dimension(self):
        # a 2-vector start on the 1D model failed inside np.concatenate
        with pytest.raises(SimulationError, match="1 coordinates, got 2"):
            ensemble(gamblers_ruin_model(), PointMass(0, [0.3, 0.4]), 4, 0.1, 1e-2, [0.1], base_seed=1)
        with pytest.raises(SimulationError, match="1 coordinates, got 2"):
            simulate_path(gamblers_ruin_model(), PathState.in_mode(0, [0.3, 0.4]), 0.1, 1e-2, rng_seed=1)
        # step returned a 2-vector position on the 1D model
        with pytest.raises(SimulationError, match="1 coordinates, got 2"):
            step(gamblers_ruin_model(), PathState.in_mode(0, [0.3, 0.4]), 1e-2, [0.1])

    @pytest.mark.parametrize("std", [-0.01, np.nan, np.inf, [0.01, -0.01]])
    def test_negative_or_non_finite_std(self, std):
        # a negative std ran, drawing the mirror image of the law
        with pytest.raises(SimulationError, match="std"):
            GaussianInitial(0, [0.3, 0.4], std)

    @pytest.mark.parametrize("mean, std", [([0.3], [0.1, 0.2]), ([0.3, 0.4], [0.1, 0.2, 0.3]), ([0.3], [[0.1]])])
    def test_std_that_does_not_broadcast_to_the_mean(self, mean, std):
        # a std with more entries than the mean raised numpy's broadcast ValueError
        with pytest.raises(SimulationError, match=r"initial std .* does not broadcast to the mean's shape"):
            GaussianInitial(0, mean, std)

    @pytest.mark.parametrize("where", [0.0, 1.0, np.nan])
    def test_start_on_a_face_or_outside(self, where):
        # a start on a face ran, and each path's first proposal decided
        # whether it was absorbed at once
        with pytest.raises(StartOnBoundary, match="strictly inside mode 0"):
            ensemble(gamblers_ruin_model(), PointMass(0, [where]), 4, 0.1, 1e-2, [0.1], base_seed=1)
        with pytest.raises(StartOnBoundary, match="strictly inside mode 0"):
            simulate_path(gamblers_ruin_model(), PathState.in_mode(0, [where]), 0.1, 1e-2, rng_seed=1)


class TestCodeWidths:
    """The recorder stores mode and terminal codes and its output cursor in
    the narrowest types that hold them; outputs are the same at every width."""

    def test_more_than_255_output_times(self):
        # the cursor needs uint16; dead paths fill up to 299 slots at once
        times = np.arange(1, 301) * 1e-3
        kwargs = dict(
            initial_law=GaussianInitial(0, [0.3], 0.01), n_paths=60, horizon=0.3, dt=1e-3,
            output_times=times, base_seed=2,
        )
        base = ensemble(gamblers_ruin_model(), **kwargs)
        other = ensemble(gamblers_ruin_model(), batch_size=7, **kwargs)
        assert 0 < sum(base.terminal_counts[-1].values()) < 60
        for k in range(times.size):
            # no slot left at _MODE_UNSET
            in_modes = base.mode_clouds[k][0].shape[0]
            assert in_modes + sum(base.terminal_counts[k].values()) + int(base.zeno_counts[k]) == 60, k
            assert base.mode_clouds[k][0].tobytes() == other.mode_clouds[k][0].tobytes(), k
            assert base.terminal_counts[k] == other.terminal_counts[k], k

    def test_modes_above_127_keep_their_code(self):
        # int8 codes would wrap mode 128 to -128, and its paths would leave the
        # clouds; a ring of 130 unit intervals under Brownian motion, where the
        # left face absorbs and the right face of mode q resets to 0.5 in mode q + 1
        mode = Mode(interval_domain(0.0, 1.0), VectorFieldSet(zero_field(1), (constant_field([1.0]),)))
        edges = []
        for q in range(130):
            edges += [
                ResetEdge(q, 0, TerminalTarget("out")),
                ResetEdge(q, 1, SurfaceTarget((q + 1) % 130, AffineMap([[0.0]], [0.5]))),
            ]
        model = build_model(ModelSpec(1, [mode] * 130, edges, terminal_states=["out"]))
        measure = ensemble(model, PointMass(128, [0.5]), 200, 0.5, 1e-2, [0.0, 0.1, 0.5], base_seed=3)
        assert measure.mode_clouds[0][128].shape == (200, 1)
        for k in range(3):
            in_modes = sum(cloud.shape[0] for cloud in measure.mode_clouds[k])
            assert in_modes + measure.terminal_counts[k].get("out", 0) == 200, k
        assert measure.mode_clouds[2][128].size and measure.mode_clouds[2][129].size
        # a single trajectory's modes stay int64 whatever the slots hold
        traj = simulate_path(model, PathState.in_mode(128, [0.5]), 0.5, 1e-2, rng_seed=3)
        assert traj.modes.dtype == np.int64 and traj.modes[0] == 128


class TestResetTables:
    """Every crossing takes its post-jump mode and terminal code from the
    kernel's reset tables; surface images, and the hit points and times that
    test functions and jump events read, go by (mode, face) group.  A row that
    dies records its remaining output slots at the next refill or at the end
    of the run."""

    def test_single_paths_equal_ensembles_with_and_without_test_functions(self, narrow_paths):
        model, trajs = narrow_paths
        plain = ensemble(model, PointMass(0, [20.0]), **NARROW)
        with_phi = ensemble(model, PointMass(0, [20.0]), test_functions=[NARROW_PHI], **NARROW)
        for k, t in enumerate(NARROW["output_times"]):
            at = int(np.argmin(np.abs(trajs[0].times - t)))
            modes = np.array([traj.modes[at] for traj in trajs])
            assert 0 < np.sum(modes == -1) < modes.size
            for measure in (plain, with_phi):
                assert measure.terminal_counts[k] == {"truncated": int(np.sum(modes == -1))}
                for q in range(2):
                    expected = np.array([traj.positions[at] for traj in trajs if traj.modes[at] == q])
                    assert measure.mode_clouds[k][q].tobytes() == expected.tobytes(), (t, q)

    def test_jump_events_add_up_to_the_ensemble_jump_sums(self, narrow_paths):
        model, trajs = narrow_paths
        record = ensemble(model, PointMass(0, [20.0]), test_functions=[NARROW_PHI], **NARROW).dynkin[0]
        for i, traj in enumerate(trajs):
            total = 0.0
            for jump in traj.jumps:
                post = jump.post
                if post.terminal is None:
                    after = NARROW_PHI.evaluate(post.mode, post.position)[0]
                    assert post.mode == 1 - jump.mode and post.position.tobytes() == jump.point.tobytes()
                else:
                    after = NARROW_PHI.terminal_value(post.terminal)
                    assert post.time == jump.time == traj.terminal_time
                total += after - NARROW_PHI.evaluate(jump.mode, jump.point)[0]
            assert record.jump_sum[-1, i] == total, i

    def test_deaths_at_chunk_ends_independent_of_batch_size(self, narrow_paths):
        model, trajs = narrow_paths
        # a path's k-th step draws the k-th normals: one step per checkpoint,
        # plus the rest of the step after each jump
        steps = [
            [int(np.ceil(jump.time / NARROW["dt"] - 1e-9)) + j for j, jump in enumerate(traj.jumps)]
            for traj in trajs
        ]
        death_steps = {s[-1] for s, traj in zip(steps, trajs) if traj.terminal_id is not None}
        # the 64th step is a chunk's last, the 65th the first after a refill
        assert {64, 65} <= death_steps
        kinds = {}
        for s, traj in zip(steps, trajs):
            for k, jump in zip(s, traj.jumps):
                kinds.setdefault(k, set()).add(jump.post.terminal is None)
        assert any(len(both) == 2 for both in kinds.values())   # surface and terminal in one step
        base = ensemble(model, PointMass(0, [20.0]), test_functions=[NARROW_PHI], **NARROW)
        for batch_size in widths(NARROW["n_paths"]):
            other = ensemble(
                model, PointMass(0, [20.0]), test_functions=[NARROW_PHI], batch_size=batch_size, **NARROW
            )
            for k in range(3):
                assert base.terminal_counts[k] == other.terminal_counts[k]
                for q in range(2):
                    assert base.mode_clouds[k][q].tobytes() == other.mode_clouds[k][q].tobytes()
            for name in ("phi0", "phi_t", "int_generator", "jump_sum", "alive"):
                assert np.array_equal(getattr(base.dynkin[0], name), getattr(other.dynkin[0], name)), name

    def test_exits_read_by_a_test_function_leave_the_measure_unchanged(self):
        # a test function makes every terminal exit compute its hit point and
        # time; phi = exp(x) on the faces x = 0 and 1 gives the jump sums
        # 2 - 1 and 3 - e exactly
        kwargs = dict(
            initial_law=GaussianInitial(0, [0.3], 0.01), n_paths=2_000, horizon=0.5, dt=1e-3,
            output_times=[0.1, 0.25, 0.5], base_seed=12,
        )
        plain = ensemble(gamblers_ruin_model(), **kwargs)
        for batch_size in (None, 17):
            read = ensemble(gamblers_ruin_model(), test_functions=[ruin_phi()], batch_size=batch_size, **kwargs)
            assert np.array_equal(plain.zeno_counts, read.zeno_counts)
            for k in range(3):
                assert plain.terminal_counts[k] == read.terminal_counts[k], (batch_size, k)
                assert plain.mode_clouds[k][0].tobytes() == read.mode_clouds[k][0].tobytes(), (batch_size, k)
            jump_sum = read.dynkin[0].jump_sum[-1]
            assert np.sum(jump_sum == 1.0) == plain.terminal_counts[-1]["left"] > 0
            assert np.sum(jump_sum == 3.0 - math.e) == plain.terminal_counts[-1]["right"] > 0
            assert np.sum(jump_sum == 0.0) == plain.mode_clouds[-1][0].shape[0] > 0

    def test_deaths_after_the_last_refill_are_recorded_at_the_end(self):
        # 100 steps: with every path in flight the last refill comes after step
        # 64, so the paths that exit in steps 65-100 fill their slots only when
        # the run ends; with one path in flight each death is followed by a refill
        kwargs = dict(
            initial_law=GaussianInitial(0, [0.3], 0.01), n_paths=200, horizon=1.0, dt=1e-2,
            output_times=[0.5, 0.64, 0.9, 1.0], base_seed=3, test_functions=[ruin_phi()],
        )
        base = ensemble(gamblers_ruin_model(), **kwargs)
        exits = [sum(counts.values()) for counts in base.terminal_counts]
        assert exits[1] < exits[2] < exits[3] < 200, exits
        for k in range(4):
            assert base.mode_clouds[k][0].shape[0] + exits[k] + int(base.zeno_counts[k]) == 200, k
        for batch_size in widths(200):
            other = ensemble(gamblers_ruin_model(), batch_size=batch_size, **kwargs)
            for k in range(4):
                assert base.terminal_counts[k] == other.terminal_counts[k], (batch_size, k)
                assert base.mode_clouds[k][0].tobytes() == other.mode_clouds[k][0].tobytes(), (batch_size, k)
            for name in ("phi0", "phi_t", "int_generator", "jump_sum", "alive"):
                assert np.array_equal(getattr(base.dynkin[0], name), getattr(other.dynkin[0], name)), name

    @pytest.mark.parametrize("cap", [1, 3])
    def test_small_zeno_caps_independent_of_batch_size(self, cap):
        # capped rows die at their cap-th reset and are parked like exits
        phi = TestFunction(
            lambda q, pts: pts[:, 0], lambda q, pts: -5.0 + 0.0 * pts[:, 0], terminal_values={"far": 7.0}
        )
        kwargs = dict(horizon=0.3, dt=1e-3, output_times=[0.05, 0.1, 0.3], base_seed=13, zeno_cap=cap)
        base = ensemble(zeno_model(), PointMass(0, [0.5]), 120, test_functions=[phi], **kwargs)
        assert base.zeno_counts[0] == 0 < base.zeno_counts[1] < base.zeno_counts[2] == 120
        assert np.array_equal(np.sum(~base.dynkin[0].alive, axis=1), base.zeno_counts)
        for batch_size in widths(120):
            other = ensemble(zeno_model(), PointMass(0, [0.5]), 120, test_functions=[phi], batch_size=batch_size,
                             **kwargs)
            assert np.array_equal(base.zeno_counts, other.zeno_counts), batch_size
            for k in range(3):
                assert base.terminal_counts[k] == other.terminal_counts[k]
                assert base.mode_clouds[k][0].tobytes() == other.mode_clouds[k][0].tobytes()
            for name in ("phi0", "phi_t", "int_generator", "jump_sum", "alive"):
                assert np.array_equal(getattr(base.dynkin[0], name), getattr(other.dynkin[0], name)), name


# model, start-position box valid in every mode
RESET_MODELS = {
    "thermostat": (thermostat_model(), ([19.1], [20.9])),
    "gamblers_ruin": (gamblers_ruin_model(), ([0.05], [0.95])),
    "two_box_2d": (two_box_2d(), ([0.05, 0.05], [0.95, 0.95])),
}


def _last_row_outcome(full, before, t):
    """(mode, position, terminal) that the last path of `full` adds at time t."""
    k = full.time_index(t)
    for q, cloud in enumerate(full.mode_clouds[k]):
        if cloud.shape[0] > before.mode_clouds[k][q].shape[0]:
            return q, cloud[-1], None
    for name, count in full.terminal_counts[k].items():
        if count > before.terminal_counts[k].get(name, 0):
            return -1, None, name
    raise AssertionError("the last path was zeno-flagged")


class TestSinglePathMatchesEnsembleRow:
    @settings(max_examples=45, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(sorted(RESET_MODELS)),
        st.integers(0, 2**32 - 1),
        st.integers(0, 12),
        st.integers(0, 1),
        st.floats(0.0, 1.0),
    )
    def test_final_state_equals_ensemble_row(self, name, seed, idx, start_mode, where):
        model, (lo, hi) = RESET_MODELS[name]
        q0 = start_mode % len(model.modes)
        x0 = np.asarray(lo) + where * (np.asarray(hi) - np.asarray(lo))
        horizon, dt = 1.0, 1e-2
        traj = simulate_path(
            model, PathState.in_mode(q0, x0), horizon, dt, rng_seed=seed, path_index=idx
        )

        out_times = [0.25, 0.5, 0.75, horizon]

        def rows(n):
            return ensemble(model, PointMass(q0, x0), n, horizon, dt, out_times, base_seed=seed)

        full, before = rows(idx + 1), rows(idx)
        for t in out_times:
            k = int(np.argmin(np.abs(traj.times - t)))
            mode, position, terminal = _last_row_outcome(full, before, t)
            assert mode == traj.modes[k], t
            if mode >= 0:
                assert position.tobytes() == traj.positions[k].tobytes(), t
        assert terminal == traj.terminal_id


class TestStreams:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**70 - 1), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    @example(2**100 + 3, [0, 7])  # more seed words than numpy's pool of four
    def test_seeds_equal_numpy_seed_sequence(self, base_seed, indices):
        idx = np.array(indices, dtype=np.int64)
        for words, built, i in zip(_pcg_seeds(base_seed, idx), _streams(base_seed, idx), indices):
            seq = np.random.SeedSequence([base_seed, i])
            assert np.array_equal(words, seq.generate_state(4, np.uint64))
            reference = np.random.default_rng(seq)
            assert np.array_equal(built.standard_normal(16), reference.standard_normal(16))

    def test_step_j_uses_normals_j_d_to_j_d_plus_d(self):
        sigma, dt, k, seed, idx = 0.5, 1e-2, 200, 31, 3   # 200 steps: more than three chunks
        x0 = np.array([0.25, -0.5])
        traj = simulate_path(
            driftless_box_2d(sigma), PathState.in_mode(0, x0), k * dt, dt, rng_seed=seed,
            path_index=idx,
        )
        normals = np.random.default_rng(np.random.SeedSequence([seed, idx])).standard_normal((k, 2))
        assert traj.jumps == [] and traj.positions.shape == (k + 1, 2)
        expected = x0 + sigma * math.sqrt(dt) * np.cumsum(normals, axis=0)
        assert np.max(np.abs(traj.positions[1:] - expected)) < 1e-12

    def test_initial_law_draws_first(self):
        sigma, dt, k, seed, idx, std = 0.5, 1e-2, 200, 31, 3, 0.1
        x0 = np.array([0.25, -0.5])
        measure = ensemble(
            driftless_box_2d(sigma), GaussianInitial(0, x0, std), idx + 1, k * dt, dt,
            [0.0, k * dt], base_seed=seed,
        )
        normals = np.random.default_rng(np.random.SeedSequence([seed, idx])).standard_normal(2 + 2 * k)
        start = x0 + std * normals[:2]
        assert measure.mode_clouds[0][0][idx].tobytes() == start.tobytes()
        expected = start + sigma * math.sqrt(dt) * normals[2:].reshape(k, 2).sum(axis=0)
        assert np.max(np.abs(measure.mode_clouds[1][0][idx] - expected)) < 1e-12

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_ensemble_refuses_a_bad_seed(self, seed):
        with pytest.raises(SimulationError, match="seed"):
            ensemble(gamblers_ruin_model(), PointMass(0, [0.3]), 4, 0.1, 1e-2, [0.1], base_seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_simulate_path_refuses_a_bad_seed(self, seed):
        with pytest.raises(SimulationError, match="seed"):
            simulate_path(gamblers_ruin_model(), PathState.in_mode(0, [0.3]), 0.1, 1e-2, rng_seed=seed)

    def test_simulate_path_refuses_an_index_past_32_bits(self):
        with pytest.raises(SimulationError, match="path index"):
            simulate_path(
                gamblers_ruin_model(), PathState.in_mode(0, [0.3]), 0.1, 1e-2, rng_seed=1,
                path_index=2**32,
            )

    def test_ensemble_refuses_indices_past_32_bits(self, monkeypatch):
        # fail fast instead of simulating 2**32 paths should the check go missing
        monkeypatch.setattr(simulate, "_run", None)
        with pytest.raises(SimulationError, match="path index"):
            ensemble(
                gamblers_ruin_model(), PointMass(0, [0.3]), 2**32 + 1, 0.1, 1e-2, [0.1],
                base_seed=1,
            )


class TestFirstPassageConvergence:
    def test_hit_probability_bias_shrinks_with_dt(self):
        # the linear-interpolation hit detector misses sub-step excursions,
        # so the estimate sits below the reflection-principle value and
        # approaches it as dt decreases
        model = brownian_reset_model(x0=1.0, box_length=8.0)
        exact = analytic_first_passage(1.0, 1.0)
        n = 50_000
        estimates = {}
        for dt in (1.6e-2, 1e-3):
            measure = ensemble(
                model, PointMass(0, [1.0]), n, 1.0, dt, [1.0], base_seed=99
            )
            estimates[dt] = measure.terminal_fraction(1.0, "hit")
        se = math.sqrt(exact * (1 - exact) / n)
        assert estimates[1.6e-2] < exact          # systematic under-detection
        assert exact - estimates[1e-3] < exact - estimates[1.6e-2]
        assert abs(estimates[1e-3] - exact) < 3 * se + 2e-2
