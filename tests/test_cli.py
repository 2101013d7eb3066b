import hashlib
import json

import pytest

from resetsde.cli import ParseError, SchemaError, load_config, main, run


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BROWNIAN_SMALL = {
    "scenario": "brownian_reset",
    "method": "pde",
    "horizon": 0.25,
    "output_times": [0.1, 0.25],
    "resolution": 64,
}


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "brownian_reset"})
        config = load_config(path)
        assert config.method == "both"
        assert config.horizon == 1.0
        assert config.output_times == [1.0]
        assert config.ensemble_size == 10_000
        assert config.base_seed == 0

    def test_negative_dt_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "brownian_reset", "dt": -1e-3})
        with pytest.raises(SchemaError, match="dt"):
            load_config(path)

    @pytest.mark.parametrize("key", ["horizon", "dt"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_horizon_and_dt_rejected(self, tmp_path, key, value):
        # json.loads reads NaN and Infinity
        path = write_config(tmp_path, {"scenario": "brownian_reset", key: value})
        with pytest.raises(SchemaError, match=key):
            load_config(path)

    @pytest.mark.parametrize("key", ["horizon", "dt", "pde_dt_fraction"])
    @pytest.mark.parametrize(
        "value", ["fast", None, True, [0.5], float("nan"), float("inf"), 10**400],
        ids=["string", "null", "bool", "list", "nan", "inf", "huge"],
    )
    def test_number_keys_refuse_non_numbers(self, tmp_path, key, value):
        # float() raised ValueError on "fast" and TypeError on null, and read
        # true as 1.0
        path = write_config(tmp_path, {"scenario": "brownian_reset", key: value})
        with pytest.raises(SchemaError, match=key):
            load_config(path)

    @pytest.mark.parametrize(
        "value", ["0.5", 0.5, None, ["0.5"], [None], [True], [[0.5]]],
        ids=["string", "number", "null", "string-entry", "null-entry", "bool-entry", "list-entry"],
    )
    def test_output_times_must_be_a_list_of_numbers(self, tmp_path, value):
        # a string was iterated character by character
        path = write_config(tmp_path, {"scenario": "brownian_reset", "output_times": value})
        with pytest.raises(SchemaError, match="output_times"):
            load_config(path)

    def test_nan_output_time_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"scenario": "brownian_reset", "output_times": [float("nan")]}
        )
        with pytest.raises(SchemaError, match="output_times"):
            load_config(path)

    def test_unknown_key_suggests_resolution(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "brownian_reset", "dx": 0.01})
        with pytest.raises(SchemaError, match="'dx'.*resolution"):
            load_config(path)

    def test_parse_error_carries_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": "brownian_reset",\n  "dt": }\n')
        with pytest.raises(ParseError, match=r"line 2, column"):
            load_config(path)

    def test_unknown_scenario_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "nope"})
        with pytest.raises(SchemaError, match="nope"):
            load_config(path)

    def test_repeated_output_time_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"scenario": "brownian_reset", "output_times": [0.5, 0.5]}
        )
        with pytest.raises(SchemaError, match="output_times"):
            load_config(path)

    def test_negative_base_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "brownian_reset", "base_seed": -1})
        with pytest.raises(SchemaError, match="base_seed"):
            load_config(path)

    @pytest.mark.parametrize("key", ["ensemble_size", "base_seed", "zeno_cap", "threads"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "two", 2.5, True])
    def test_integer_keys_refuse_non_integers(self, tmp_path, key, value):
        # int() raised ValueError on NaN and "two", OverflowError on Infinity,
        # and truncated 2.5 to 2
        path = write_config(tmp_path, {"scenario": "brownian_reset", key: value})
        with pytest.raises(SchemaError, match=key):
            load_config(path)

    def test_integer_keys_keep_integers(self, tmp_path):
        payload = {"scenario": "brownian_reset", "ensemble_size": 7, "base_seed": 2**40,
                   "zeno_cap": 3, "threads": 2}
        config = load_config(write_config(tmp_path, payload))
        assert (config.ensemble_size, config.base_seed, config.zeno_cap) == (7, 2**40, 3)

    @pytest.mark.parametrize("key, value", [("scenario_options", "x"), ("output_dir", None), ("output_dir", "")])
    def test_malformed_scenario_options_and_output_dir_rejected(self, tmp_path, key, value):
        # "scenario_options": "x" raised AttributeError; a null output_dir wrote into ./None
        path = write_config(tmp_path, {"scenario": "brownian_reset", key: value})
        with pytest.raises(SchemaError, match=key):
            load_config(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1, "0.1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, value):
        path = write_config(tmp_path, {"scenario": "brownian_reset", "tolerances": {"l1": value}})
        with pytest.raises(SchemaError, match="l1"):
            load_config(path)

    def test_output_times_must_fit_horizon(self, tmp_path):
        path = write_config(
            tmp_path, {"scenario": "brownian_reset", "horizon": 1.0, "output_times": [2.0]}
        )
        with pytest.raises(SchemaError, match="output_times"):
            load_config(path)

    def test_scenario_xor_model(self, tmp_path):
        path = write_config(tmp_path, {})
        with pytest.raises(SchemaError, match="scenario"):
            load_config(path)


class TestRun:
    def test_pde_run_writes_terminal_mass_curve(self, tmp_path):
        payload = dict(BROWNIAN_SMALL, output_dir=str(tmp_path / "out"))
        config = load_config(write_config(tmp_path, payload))
        assert run(config) == 0
        csv_path = tmp_path / "out" / "pde_terminal_mass.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "time,q_hit,q_escaped"
        values = [float(v) for v in lines[-1].split(",")]
        assert values[0] == 0.25
        assert 0.0 < values[1] < 1.0
        # absorption grows over time
        earlier = [float(v) for v in lines[1].split(",")]
        assert values[1] > earlier[1]

    def test_both_run_passes_with_default_tolerances(self, tmp_path):
        payload = {
            "scenario": "brownian_reset",
            "method": "both",
            "horizon": 0.25,
            "output_times": [0.25],
            "resolution": 100,
            "dt": 1e-3,
            "ensemble_size": 4000,
            "output_dir": str(tmp_path / "out"),
        }
        config = load_config(write_config(tmp_path, payload))
        assert run(config) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        names = {m["name"] for m in report["metrics"]}
        assert any(name.startswith("l1_mc_pde") for name in names)
        assert any(name.startswith("mass_balance") for name in names)

    def test_zero_tolerance_fails_with_status_2(self, tmp_path):
        payload = {
            "scenario": "brownian_reset",
            "method": "both",
            "horizon": 0.2,
            "output_times": [0.2],
            "resolution": 64,
            "dt": 2e-3,
            "ensemble_size": 500,
            "tolerances": {"l1": 0.0},
            "output_dir": str(tmp_path / "out"),
        }
        config = load_config(write_config(tmp_path, payload))
        assert run(config) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False

    def test_byte_identical_reruns_and_thread_independence(self, tmp_path):
        base = {
            "scenario": "thermostat_1d",
            "method": "both",
            "horizon": 0.5,
            "output_times": [0.5],
            "resolution": 328,
            "dt": 2e-3,
            "ensemble_size": 2000,
            "base_seed": 9,
            "tolerances": {"l1": 2.0, "terminal": 1.0},
        }
        outputs = []
        for name, extra in (("a", {}), ("b", {}), ("c", {"threads": 2})):
            payload = dict(base, output_dir=str(tmp_path / name), **extra)
            config = load_config(write_config(tmp_path, payload, f"{name}.json"))
            assert run(config) == 0
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted((tmp_path / name).iterdir())
                }
            )
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]

    @pytest.mark.parametrize("payload, match", [
        ({"scenario": "thermostat_1d", "scenario_options": {"params": {"bogus": 1}}}, "bogus"),
        ({"model": {"modes": [{"box": [[0.0], [1.0]], "diffusion": []}]}}, "mode 0 needs 'drift'"),
        ({"model": {"reset_edges": [{"source_face": 0, "terminal": "out"}]}}, "edge 0 needs 'source_mode'"),
        ({"model": {"modes": [{"box": [[0.0], [1.0]], "drift": {"matrix": [[0.0]], "offset": [0.0]},
                               "diffusion": [{"matrix": [[0.0]], "offset": [1.0]}]}],
                    "reset_edges": [{"source_mode": 0, "source_face": f, "terminal": "out"} for f in (0, 1)],
                    "terminal_states": ["out"]},
          "initial": {"mode": 0, "std": 0.1}}, "initial needs 'mean'"),
        ({"scenario": "brownian_reset", "scenario_options": {"params": {"x0": "far"}}}, "params.x0"),
        ({"scenario": "gamblers_ruin", "scenario_options": {"params": {"x0": 1.5}}}, "params.x0"),
        ({"scenario": "gamblers_ruin", "scenario_options": {"params": {"x0": True}}}, "params.x0"),
        ({"scenario": "gamblers_ruin", "scenario_options": {"params": {"x0": None}}}, "params.x0"),
        ({"scenario": "gamblers_ruin", "scenario_options": {"params": {"x0": float("nan")}}}, "params.x0"),
        ({"scenario": "gamblers_ruin", "scenario_options": {"params": {"initial_std": 0}}}, "params.initial_std"),
        ({"scenario": "thermostat_1d", "scenario_options": {"params": {"dimension": 2}}}, "params.dimension"),
        ({"scenario": "thermostat_1d", "scenario_options": {"params": {"gamma": "x"}}}, "params.gamma"),
        ({"scenario": "thermostat_1d", "scenario_options": {"params": {"gamma": [0.3]}}}, "params.gamma"),
    ], ids=["unknown_param", "mode_without_drift", "edge_without_source_mode", "initial_without_mean",
            "brownian_string_x0", "ruin_x0_outside_interval", "ruin_bool_x0", "ruin_null_x0", "ruin_nan_x0",
            "ruin_zero_initial_std", "thermostat_dimension", "thermostat_string_gamma", "thermostat_list_gamma"])
    def test_malformed_model_or_scenario_params_raise_schema_error(self, tmp_path, payload, match):
        # these ended in a raw TypeError or KeyError
        payload = {"initial": {"mode": 0, "mean": [0.5], "std": 0.1}, **payload, "method": "mc",
                   "output_dir": str(tmp_path / "out")}
        config = load_config(write_config(tmp_path, payload))
        with pytest.raises(SchemaError, match=match):
            run(config)

    def test_inline_model_mc_run(self, tmp_path):
        payload = {
            "model": {
                "dimension": 1,
                "modes": [
                    {
                        "box": [[0.0], [2.0]],
                        "drift": {"matrix": [[0.0]], "offset": [0.0]},
                        "diffusion": [{"matrix": [[0.0]], "offset": [1.0]}],
                    }
                ],
                "reset_edges": [
                    {"source_mode": 0, "source_face": 0, "terminal": "left"},
                    {"source_mode": 0, "source_face": 1, "terminal": "right"},
                ],
                "terminal_states": ["left", "right"],
            },
            "initial": {"mode": 0, "mean": [1.0], "std": 0.05},
            "method": "mc",
            "horizon": 0.5,
            "output_times": [0.5],
            "dt": 2e-3,
            "ensemble_size": 2000,
            "output_dir": str(tmp_path / "out"),
        }
        config = load_config(write_config(tmp_path, payload))
        assert run(config) == 0
        measure = json.loads((tmp_path / "out" / "mc_measure.json").read_text())
        counts = measure["per_time"][0]["terminal_counts"]
        total = measure["per_time"][0]["mode_counts"][0] + sum(counts.values())
        assert total + measure["per_time"][0]["zeno_count"] == 2000


class TestMain:
    def test_schema_command(self, capsys):
        assert main(["schema"]) == 0
        out = capsys.readouterr().out
        assert "resolution" in out
        assert "Exit status" in out

    def test_run_command_and_overrides(self, tmp_path, capsys):
        payload = dict(BROWNIAN_SMALL, output_dir=str(tmp_path / "out"))
        path = write_config(tmp_path, payload)
        assert main(["run", str(path), "--resolution", "50"]) == 0

    def test_bad_config_returns_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "brownian_reset", "dx": 1})
        assert main(["run", str(path)]) == 1
        assert "resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, key", [
        ("--resolution", "0", "resolution"),
        ("--resolution", "2", "resolution"),
        ("--seed", "-1", "base_seed"),
        ("--dt", "0", "dt"),
    ])
    def test_bad_override_is_a_schema_error(self, tmp_path, capsys, flag, value, key):
        # overrides used to skip load_config's checks and fail later as "error: ..."
        path = write_config(tmp_path, dict(BROWNIAN_SMALL, output_dir=str(tmp_path / "out")))
        assert main(["run", str(path), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("std", [[0.1, 0.2], -0.1])
    def test_bad_inline_initial_std_is_a_config_error(self, tmp_path, capsys, std):
        # a std longer than the mean ended in "error: ValueError: operands could
        # not be broadcast ...", a negative one in "error: SimulationError: ..."
        payload = {
            "model": {
                "modes": [{"box": [[0.0], [1.0]], "drift": {"matrix": [[0.0]], "offset": [0.0]},
                           "diffusion": [{"matrix": [[0.0]], "offset": [1.0]}]}],
                "reset_edges": [{"source_mode": 0, "source_face": f, "terminal": "out"} for f in (0, 1)],
                "terminal_states": ["out"],
            },
            "initial": {"mode": 0, "mean": [0.5], "std": std},
            "method": "mc", "horizon": 0.1, "output_times": [0.1], "dt": 1e-2, "ensemble_size": 10,
            "output_dir": str(tmp_path / "out"),
        }
        assert main(["run", str(write_config(tmp_path, payload))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: initial: initial std") and repr(std) in err

    @pytest.mark.parametrize("change, key", [
        ({"tolerances": [1]}, "tolerances"),
        ({"model": [1]}, "model"),
        ({"model": {"dimension": "x"}}, "dimension"),
    ], ids=["tolerances_list", "model_list", "model_string_dimension"])
    def test_malformed_documents_are_config_errors(self, tmp_path, capsys, change, key):
        # these printed "error: AttributeError: ..." or "error: ValueError: invalid literal for int()"
        payload = {"method": "mc", "horizon": 0.1, "dt": 1e-2, "ensemble_size": 10, "output_dir": str(tmp_path / "out")}
        source = {"initial": {"mode": 0, "mean": [0.5], "std": 0.1}} if "model" in change else {"scenario": "gamblers_ruin"}
        assert main(["run", str(write_config(tmp_path, {**payload, **source, **change}))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be")

    def test_horizon_below_the_snap_runs_one_step(self, tmp_path):
        # t = 0 was dropped from the time grid and the run ended in an IndexError
        payload = {"scenario": "gamblers_ruin", "method": "mc", "horizon": 1e-12, "dt": 1.0,
                   "output_times": [1e-12], "ensemble_size": 4, "output_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, payload))]) == 0
        lines = (tmp_path / "out" / "mc_terminal_mass.csv").read_text().splitlines()
        assert lines[1:] == ["9.9999999999999998e-13,0,0,0"]

    @pytest.mark.parametrize("params", [{"psi_max": 21.005}, {"psi_min": 18.995}, {"box_margin": 1.285}])
    def test_off_grid_thermostat_params_are_a_config_error(self, tmp_path, capsys, params):
        # a threshold off the cell faces ended in "error: MisalignedH" from the solver
        payload = {"scenario": "thermostat_1d", "scenario_options": {"params": params}, "horizon": 0.05,
                   "output_times": [0.05], "dt": 1e-2, "ensemble_size": 50, "output_dir": str(tmp_path / "out")}
        path = write_config(tmp_path, dict(payload, method="pde"))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"params.{next(iter(params))}" in err
        # the Monte-Carlo engine needs no grid
        assert main(["run", str(write_config(tmp_path, dict(payload, method="mc")))]) == 0

    def test_validate_forces_both(self, tmp_path):
        payload = {
            "scenario": "brownian_reset",
            "method": "pde",
            "horizon": 0.2,
            "output_times": [0.2],
            "resolution": 64,
            "dt": 2e-3,
            "ensemble_size": 500,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, payload)
        assert main(["validate", str(path)]) == 0
        assert (tmp_path / "out" / "report.json").exists()


class TestGoldenArtifacts:
    """Every `resetsde run` artifact of a gamblers' ruin config, by digest.

    The config is the benchmark's `ruin_both` workload: 50,000 paths by Monte
    Carlo and the forward solver, with the validation report.  The digest is
    sha256 over the sorted file names and bytes.  Any change that moves an
    artifact byte fails here.  The digests hold for numpy 2.4.6 (with scipy
    1.17.1 on Python 3.11); another numpy may format or draw differently.
    """

    CONFIG = {
        "scenario": "gamblers_ruin",
        "scenario_options": {"params": {"x0": 0.3, "initial_std": 0.01}},
        "method": "both",
        "horizon": 2.0,
        "dt": 1e-3,
        "resolution": 50,
        "output_times": [0.1, 0.25, 0.5, 1.0, 2.0],
        "ensemble_size": 50_000,
        "threads": 1,
    }

    @pytest.mark.parametrize("seed, digest", [
        (1, "249f3233cd119f644f8f904f3a1eb30691155f9d344982b128a4f773a401561b"),
        (2, "730eea9dd285fc80485bb112c47a5c521ebc906e571a6ac1eef11e4b193b5097"),
    ], ids=["seed1", "seed2"])
    def test_ruin_both_artifacts(self, tmp_path, seed, digest):
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(self.CONFIG, base_seed=seed, output_dir=str(out)))
        assert main(["run", str(path)]) == 0
        h = hashlib.sha256()
        for artifact in sorted(out.iterdir()):
            h.update(artifact.name.encode())
            h.update(artifact.read_bytes())
        assert h.hexdigest() == digest
