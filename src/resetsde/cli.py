"""Configuration-driven runs: simulate, solve, cross-validate, serialize.

One JSON document describes a run: a named scenario (or an inline affine
model), the method (mc / pde / both), discretization controls, and output
destinations.  Identical configurations with identical seeds reproduce every
output file byte for byte.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from resetsde import fpk
from resetsde.model import (
    AffineField,
    AffineMap,
    Mode,
    ModelSpec,
    PolyDomain,
    ResetEdge,
    SurfaceTarget,
    TerminalTarget,
    VectorFieldSet,
    box_domain,
    build_model,
)
from resetsde.scenarios import SCENARIOS, ScenarioError, load_scenario
from resetsde.simulate import GaussianInitial, SimulationError, ensemble
from resetsde.validate import ValidationReport, compare_mc_pde, flux_continuity_residual, mass_balance


class ParseError(ValueError):
    """Malformed JSON, reported with line and column."""


class SchemaError(ValueError):
    """A config key or value violates the schema."""


_TOP_LEVEL_KEYS = {
    "scenario": "named scenario (one of: " + ", ".join(sorted(SCENARIOS)) + ")",
    "scenario_options": "object forwarded to the scenario builder (e.g. params)",
    "model": "inline affine model description (alternative to scenario)",
    "initial": "inline initial law {mode, mean, std} (required with model)",
    "method": "mc | pde | both (default both)",
    "horizon": "final time T > 0 (default 1.0)",
    "dt": "Monte-Carlo time step (default 1e-3)",
    "pde_dt_fraction": "PDE step as a fraction of the stability bound (default 0.9)",
    "resolution": "cells per axis on the first mode's box (default per scenario)",
    "output_times": "list of times in [0, horizon] (default [horizon])",
    "ensemble_size": "number of Monte-Carlo paths (default 10000)",
    "base_seed": "master seed for per-path streams (default 0)",
    "zeno_cap": "max jumps per path (default 10^4 per unit horizon)",
    "threads": "accepted and ignored (an integer >= 1); ensembles run in one thread",
    "output_dir": "directory for artifacts (default 'out')",
    "tolerances": "object {l1, terminal, mass} for the validation verdict",
}

_KEY_ALIASES = {
    "dx": "resolution",
    "delta_x": "resolution",
    "cells": "resolution",
    "n": "ensemble_size",
    "n_paths": "ensemble_size",
    "seed": "base_seed",
    "t_end": "horizon",
    "times": "output_times",
}

_DEFAULT_TOLERANCES = {"l1": 0.1, "terminal": 0.05, "mass": 1e-8}


class RunConfig(NamedTuple):
    scenario: str | None
    scenario_options: dict
    inline_model: dict | None
    inline_initial: dict | None
    method: str
    horizon: float
    dt: float
    pde_dt_fraction: float
    resolution: int | None
    output_times: list
    ensemble_size: int
    base_seed: int
    zeno_cap: int | None
    output_dir: str
    tolerances: dict


def _suggest(key: str) -> str:
    if key in _KEY_ALIASES:
        return f"; did you mean {_KEY_ALIASES[key]!r}?"
    close = difflib.get_close_matches(key, _TOP_LEVEL_KEYS, n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _integer(raw: dict, key: str, default, minimum: int):
    """An integer config value >= minimum; JSON floats, NaN, Infinity and strings are refused."""
    value = raw.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SchemaError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A finite real config value; bools, strings, null, lists, NaN and Infinity are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def load_config(path, overrides=None) -> RunConfig:
    """Parse a JSON run configuration, merge `overrides` over it, and validate."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise SchemaError("the configuration must be a JSON object")
    raw.update(overrides or {})

    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            raise SchemaError(f"unknown key {key!r}{_suggest(key)}")

    scenario = raw.get("scenario")
    inline_model = raw.get("model")
    if (scenario is None) == (inline_model is None):
        raise SchemaError("exactly one of 'scenario' or 'model' is required")
    if scenario is not None and scenario not in SCENARIOS:
        raise SchemaError(
            f"unknown scenario {scenario!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    if inline_model is not None and not isinstance(inline_model, dict):
        raise SchemaError(f"model must be an object, got {inline_model!r}")
    if inline_model is not None and raw.get("initial") is None:
        raise SchemaError("'initial' is required with an inline model")

    method = raw.get("method", "both")
    if method not in ("mc", "pde", "both"):
        raise SchemaError(f"method must be mc, pde or both, got {method!r}")

    horizon = _number(raw.get("horizon", 1.0), "horizon")
    if not horizon > 0:
        raise SchemaError("horizon must be positive and finite")
    dt = _number(raw.get("dt", 1e-3), "dt")
    if not dt > 0:
        raise SchemaError("dt must be positive and finite")
    pde_fraction = _number(raw.get("pde_dt_fraction", 0.9), "pde_dt_fraction")
    if not 0 < pde_fraction <= 1.0:
        raise SchemaError("pde_dt_fraction must lie in (0, 1]")

    resolution = raw.get("resolution")
    if resolution is not None:
        if not isinstance(resolution, int) or resolution < 4:
            raise SchemaError("resolution must be an integer >= 4")

    output_times = raw.get("output_times", [horizon])
    if not isinstance(output_times, list):
        raise SchemaError(f"output_times must be a list of numbers, got {output_times!r}")
    output_times = [_number(v, "an output_times entry") for v in output_times]
    if not output_times or not all(0 <= t <= horizon for t in output_times):
        raise SchemaError("output_times must be a nonempty subset of [0, horizon]")
    if len(set(output_times)) < len(output_times):
        raise SchemaError("output_times must not repeat a time")

    ensemble_size = _integer(raw, "ensemble_size", 10_000, 1 if method in ("mc", "both") else 0)
    base_seed = _integer(raw, "base_seed", 0, 0)
    zeno_cap = _integer(raw, "zeno_cap", None, 1)
    _integer(raw, "threads", 1, 1)
    scenario_options = raw.get("scenario_options", {})
    if not isinstance(scenario_options, dict):
        raise SchemaError(f"scenario_options must be an object, got {scenario_options!r}")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise SchemaError(f"output_dir must be a nonempty string, got {output_dir!r}")

    tolerances = dict(_DEFAULT_TOLERANCES)
    if not isinstance(raw.get("tolerances", {}), dict):
        raise SchemaError(f"tolerances must be an object, got {raw['tolerances']!r}")
    for key, value in raw.get("tolerances", {}).items():
        if key not in tolerances:
            raise SchemaError(f"unknown tolerance {key!r}; known: {', '.join(tolerances)}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
            raise SchemaError(f"tolerance {key!r} must be a finite number >= 0, got {value!r}")
        tolerances[key] = float(value)

    return RunConfig(
        scenario=scenario,
        scenario_options=scenario_options,
        inline_model=inline_model,
        inline_initial=raw.get("initial"),
        method=method,
        horizon=horizon,
        dt=dt,
        pde_dt_fraction=pde_fraction,
        resolution=resolution,
        output_times=sorted(output_times),
        ensemble_size=ensemble_size,
        base_seed=base_seed,
        zeno_cap=zeno_cap,
        output_dir=output_dir,
        tolerances=tolerances,
    )


# ---------------------------------------------------------------------------
# inline model parsing


def _require(obj, key: str, what: str):
    """obj[key] of an inline-model object, or a SchemaError naming what lacks it."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{what} needs {key!r}")
    return obj[key]


def _affine_from(obj, what) -> AffineField:
    try:
        return AffineField(obj["matrix"], obj["offset"])
    except (KeyError, TypeError):
        raise SchemaError(f"{what} needs 'matrix' and 'offset'") from None


def _parse_inline_model(doc: dict):
    d = _integer(doc, "dimension", 1, 1)
    modes = []
    for i, mspec in enumerate(doc.get("modes", [])):
        if "box" in mspec:
            lo, hi = mspec["box"]
            domain = box_domain(lo, hi)
        else:
            hs = mspec.get("halfspaces")
            if hs is None:
                raise SchemaError(f"mode {i} needs 'box' or 'halfspaces'")
            domain = PolyDomain(
                [h["normal"] for h in hs],
                [h["offset"] for h in hs],
                interior_point=mspec["interior_point"],
                box=tuple(np.asarray(b, float) for b in mspec["box_hull"]) if "box_hull" in mspec else None,
            )
        drift = _affine_from(_require(mspec, "drift", f"mode {i}"), f"mode {i} drift")
        diffusion = tuple(
            _affine_from(a, f"mode {i} diffusion {r}")
            for r, a in enumerate(_require(mspec, "diffusion", f"mode {i}"))
        )
        modes.append(Mode(domain, VectorFieldSet(drift, diffusion)))

    edges = []
    for j, espec in enumerate(doc.get("reset_edges", [])):
        source_mode = int(_require(espec, "source_mode", f"reset edge {j}"))
        source_face = int(_require(espec, "source_face", f"reset edge {j}"))
        if "terminal" in espec:
            target = TerminalTarget(str(espec["terminal"]))
        elif "target_mode" in espec:
            amap, what = _require(espec, "map", f"reset edge {j}"), f"reset edge {j} map"
            amap = AffineMap(_require(amap, "matrix", what), _require(amap, "offset", what))
            target = SurfaceTarget(int(espec["target_mode"]), amap)
        else:
            raise SchemaError(f"reset edge {j} needs 'terminal' or 'target_mode'")
        edges.append(ResetEdge(source_mode, source_face, target))

    spec = ModelSpec(
        d,
        modes,
        edges,
        terminal_states=[str(s) for s in doc.get("terminal_states", [])],
        characteristic_faces=[tuple(fc) for fc in doc.get("characteristic_faces", [])],
    )
    return build_model(spec)


class _ProductGaussianCells:
    """Separable normal density evaluated at cell centers (any dimension)."""

    def __init__(self, mean, std):
        self.mean = np.asarray(mean, dtype=float).reshape(-1)
        self.std = np.broadcast_to(np.asarray(std, dtype=float), self.mean.shape)

    def __call__(self, points):
        z = (points - self.mean) / self.std
        norm = np.prod(self.std) * (2 * np.pi) ** (self.mean.size / 2.0)
        return np.exp(-0.5 * np.sum(z * z, axis=-1)) / norm


def _bundle_from_config(config: RunConfig) -> dict:
    if config.scenario is not None:
        try:
            return load_scenario(config.scenario, config.scenario_options)
        except ScenarioError as exc:
            raise SchemaError(f"scenario_options: {exc}") from None
    model = _parse_inline_model(config.inline_model)
    mode, mean, std = (_require(config.inline_initial, k, "initial") for k in ("mode", "mean", "std"))
    try:
        law = GaussianInitial(int(mode), mean, std)
    except SimulationError as exc:
        raise SchemaError(f"initial: {exc}") from None
    cells = [None] * len(model.modes)
    cells[int(mode)] = _ProductGaussianCells(mean, std)
    lo, hi = model.modes[0].domain.box
    span = float(hi[0] - lo[0])
    return {
        "model": model,
        "initial_law": law,
        "initial_cells": cells,
        "resolution": lambda dx: [
            tuple(
                int(round((m.domain.box[1][k] - m.domain.box[0][k]) / dx))
                for k in range(model.dimension)
            )
            for m in model.modes
        ],
        "default_dx": span / 128,
    }


# ---------------------------------------------------------------------------
# serialization


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_float(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _density_payload(grid, states):
    return {
        "times": [s.t for s in states],
        "modes": {
            "cells": [list(mg.shape) for mg in grid.mode_grids],
            "lo": [mg.lo.tolist() for mg in grid.mode_grids],
            "hi": [mg.hi.tolist() for mg in grid.mode_grids],
        },
        "density": [[arr.reshape(-1).tolist() for arr in s.p] for s in states],
        "terminal_mass": [dict(sorted(s.q.items())) for s in states],
    }


def _measure_payload(grid, measure):
    out = {"times": measure.times.tolist(), "size": measure.size, "per_time": []}
    for k in range(measure.times.size):
        entry = {
            "mode_counts": [c.shape[0] for c in measure.mode_clouds[k]],
            "terminal_counts": dict(sorted(measure.terminal_counts[k].items())),
            "zeno_count": int(measure.zeno_counts[k]),
        }
        if grid is not None:
            histograms = []
            for q, mg in enumerate(grid.mode_grids):
                cloud = measure.mode_clouds[k][q]
                edges = [mg.faces(axis) for axis in range(mg.dimension)]
                counts, _ = np.histogramdd(cloud, bins=edges)
                histograms.append(counts.reshape(-1).astype(int).tolist())
            entry["mode_histograms"] = histograms
        out["per_time"].append(entry)
    return out


# ---------------------------------------------------------------------------
# orchestration


def run(config: RunConfig) -> int:
    """Execute a configured run; returns the process exit status."""
    bundle = _bundle_from_config(config)
    model = bundle["model"]
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    lo, hi = model.modes[0].domain.box
    span = float(hi[0] - lo[0])
    n_cells = config.resolution
    if n_cells is None:
        n_cells = int(round(span / bundle["default_dx"]))
    dx = span / n_cells
    try:
        grid = fpk.build_grid(model, bundle["resolution"](dx))
    except (ScenarioError, fpk.SolverError) as exc:
        if config.method != "mc":
            raise SchemaError(f"scenario_options: {exc}") if isinstance(exc, ScenarioError) else exc
        grid = None  # MC-only runs tolerate grid-incompatible geometry

    pde_states = None
    if config.method in ("pde", "both"):
        density = fpk.project_density(grid, bundle["initial_cells"])
        pde_dt = fpk.stable_dt(grid, config.pde_dt_fraction)
        pde_states = []
        current = density
        t_now = 0.0
        for t_target in config.output_times:
            gap = t_target - t_now
            steps = int(np.ceil(gap / pde_dt - 1e-12)) if gap > 0 else 0
            if steps:
                effective = gap / steps
                current = fpk.evolve(model, grid, current, effective, steps)
            else:
                current = current.copy()
            current.t = t_target
            t_now = t_target
            pde_states.append(current)
        _write_json(outdir / "pde_density.json", _density_payload(grid, pde_states))
        rows = [
            [s.t] + [s.q.get(name, 0.0) for name in model.terminal_states]
            for s in pde_states
        ]
        _write_csv(
            outdir / "pde_terminal_mass.csv",
            ["time"] + [f"q_{name}" for name in model.terminal_states],
            rows,
        )

    measure = None
    if config.method in ("mc", "both"):
        measure = ensemble(
            model,
            bundle["initial_law"],
            config.ensemble_size,
            config.horizon,
            config.dt,
            config.output_times,
            config.base_seed,
            zeno_cap=config.zeno_cap,
        )
        _write_json(outdir / "mc_measure.json", _measure_payload(grid, measure))
        rows = []
        for k, t_k in enumerate(measure.times):
            rows.append(
                [float(t_k)]
                + [
                    measure.terminal_counts[k].get(name, 0) / measure.size
                    for name in model.terminal_states
                ]
                + [float(measure.zeno_counts[k]) / measure.size]
            )
        _write_csv(
            outdir / "mc_terminal_mass.csv",
            ["time"] + [f"q_{name}" for name in model.terminal_states] + ["zeno_fraction"],
            rows,
        )

    status = 0
    if config.method == "both":
        report = ValidationReport()
        tol = config.tolerances
        for k, state in enumerate(pde_states):
            t_k = config.output_times[k]
            report.add(
                f"mass_balance[t={t_k:g}]",
                mass_balance(grid, state) - 1.0,
                tol["mass"],
                {"resolution": n_cells, "pde_dt_fraction": config.pde_dt_fraction},
            )
            l1, dq = compare_mc_pde(grid, measure, state, t_k)
            report.add_bounded(
                f"l1_mc_pde[t={t_k:g}]",
                l1,
                tol["l1"],
                {"seed": config.base_seed, "ensemble_size": config.ensemble_size, "dt": config.dt},
            )
            report.add_bounded(
                f"terminal_gap[t={t_k:g}]",
                dq,
                tol["terminal"],
                {"seed": config.base_seed, "ensemble_size": config.ensemble_size},
            )
        if grid.surface_tables:
            report.add_bounded(
                "flux_continuity_residual[final]",
                flux_continuity_residual(model, grid, pde_states[-1]),
                float("inf"),
                {"resolution": n_cells},
            )
        _write_json(outdir / "report.json", report.to_dict())
        if not report.all_passed:
            status = 2
    return status


def _schema_text() -> str:
    lines = ["Configuration schema (one JSON object):", ""]
    for key, doc in _TOP_LEVEL_KEYS.items():
        lines.append(f"  {key:18s} {doc}")
    lines += [
        "",
        "Inline model schema: {dimension, modes: [{box | halfspaces+interior_point,",
        "  drift: {matrix, offset}, diffusion: [{matrix, offset}, ...]}],",
        "  reset_edges: [{source_mode, source_face, terminal | target_mode+map}],",
        "  terminal_states: [...], characteristic_faces: [[mode, face], ...]}",
        "",
        "Exit status: 0 success, 2 validation failure, 1 error.",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resetsde",
        description="Simulate and solve diffusions with boundary-hitting resets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        cmd = sub.add_parser(name, help=f"{name} a configured experiment")
        cmd.add_argument("config", help="path to the JSON configuration")
        cmd.add_argument("--seed", type=int, default=None, help="override base_seed")
        cmd.add_argument("--resolution", type=int, default=None, help="override grid cells")
        cmd.add_argument("--dt", type=float, default=None, help="override the MC time step")
    sub.add_parser("schema", help="print the configuration schema")

    args = parser.parse_args(argv)
    if args.command == "schema":
        print(_schema_text())
        return 0

    # flags enter the document before validation, so they meet the same checks
    overrides = {"base_seed": args.seed, "resolution": args.resolution, "dt": args.dt}
    if args.command == "validate":
        overrides["method"] = "both"
    try:
        config = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
        return run(config)
    except (ParseError, SchemaError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
