"""The three benchmark workloads: inputs, timed operations and output checks.

Each workload writes a JSON run configuration made from the seed, times its
set-up steps and its operations through the package's public entry points,
and checks the first round's outputs against values computed apart from the
program (see `oracles.py`) or against properties the method guarantees. Every
later round must reproduce the first round's outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from resetsde import cli, fpk, scenarios, validate

import oracles

MASS_TOL = 1e-8          # mass conservation of the forward solver
K_SE = 5.0               # standard errors allowed to Monte-Carlo estimates
COUNT_SLACK = 10.0       # paths added to k·SE where a bin holds few paths
SERIES_TOL = 1e-4        # forward-solver exit masses against the series solution
FLUX_RATIO = 1.5         # flux-continuity residual drop per grid halving
ORACLE_ENVELOPE = 0.1    # stationary L1 to the oracle must stay below this * dx
ORACLE_LEAK_TOL = 1e-9
BIN_WIDTH = 0.08         # coarse bins for the MC-vs-PDE comparison


@dataclass
class CheckResult:
    failures: list = field(default_factory=list)   # broken checks: correct = false
    failed_ops: int = 0                            # operations counted as failed per round
    notes: dict = field(default_factory=dict)      # measured reference figures

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _density_checks(result: CheckResult, payload: dict) -> None:
    """Mass conservation and nonnegativity of a pde_density.json payload."""
    modes = payload["modes"]
    widths = [
        float(np.prod((np.array(hi) - np.array(lo)) / np.array(cells)))
        for cells, lo, hi in zip(modes["cells"], modes["lo"], modes["hi"])
    ]
    worst_mass, worst_neg = 0.0, 0.0
    for dens, term in zip(payload["density"], payload["terminal_mass"]):
        mass = sum(float(np.sum(d)) * w for d, w in zip(dens, widths)) + sum(term.values())
        worst_mass = max(worst_mass, abs(mass - 1.0))
        peak = max(float(np.max(d)) for d in dens)
        worst_neg = min(worst_neg, min(float(np.min(d)) for d in dens) / peak)
    result.expect(worst_mass <= MASS_TOL, f"pde: mass drift {worst_mass:.3e} > {MASS_TOL}")
    # the solver tolerates rounding-level undershoot of 1e-12 of the peak
    result.expect(worst_neg >= -1e-12, f"pde: density undershoot {worst_neg:.3e} of the peak")
    result.notes["pde.max_mass_drift"] = worst_mass


def _evolve_to(model, grid, density, times, fraction):
    """Forward solver at the CLI's stepping: the smallest uniform step per gap."""
    pde_dt = fpk.stable_dt(grid, fraction)
    states, t_now = [], 0.0
    for t_target in times:
        steps = int(math.ceil((t_target - t_now) / pde_dt - 1e-12))
        density = fpk.evolve(model, grid, density, (t_target - t_now) / steps, steps)
        density.t = t_now = t_target
        states.append(density)
    return states


class Workload:
    name = ""
    ops_per_round = 1

    def __init__(self, rundir: Path, seed: int, smoke: bool):
        self.rundir = rundir
        self.seed = seed
        self.smoke = smoke
        self.outdir = rundir / "out"
        self.config_path = rundir / "config.json"
        self.config = self.make_config()
        self.config["output_dir"] = str(self.outdir)
        self.config_path.write_text(json.dumps(self.config, indent=1))

    def make_config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> dict:
        """Set-up steps as the CLI performs them: config, scenario, grid, projection."""
        config = cli.load_config(self.config_path)
        bundle = scenarios.load_scenario(config.scenario, config.scenario_options)
        lo, hi = bundle["model"].modes[0].domain.box
        dx = float(hi[0] - lo[0]) / config.resolution
        grid = fpk.build_grid(bundle["model"], bundle["resolution"](dx))
        if config.method != "mc":
            fpk.project_density(grid, bundle["initial_cells"])
        return bundle

    def run_round(self):
        """The timed operations of one round; returns what `check` reads."""
        return cli.main(["run", str(self.config_path)])

    def fingerprint(self, output) -> str:
        return _digest(self.outdir.iterdir())

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir())

    def check(self, output) -> CheckResult:
        raise NotImplementedError

    def _load(self, name):
        return json.loads((self.outdir / name).read_text())


class ThermostatMC(Workload):
    """The paper's hybrid thermostat by Monte Carlo, 100k paths in one batch."""

    name = "thermostat_mc"

    def make_config(self):
        return {
            "scenario": "thermostat_1d",
            "method": "mc",
            "horizon": 1.0,
            "dt": 2.5e-3,
            "resolution": 328,                  # dx = 0.01 on the 3.28-wide modes
            "output_times": [0.25, 0.5, 0.75, 1.0],
            "ensemble_size": 10_000 if self.smoke else 100_000,
            "base_seed": self.seed,
            "threads": 1,
        }

    def check(self, status) -> CheckResult:
        res = CheckResult()
        res.expect(status == 0, f"resetsde run exited {status}")
        if status != 0:
            return res
        cfg = self.config
        n = cfg["ensemble_size"]
        measure = self._load("mc_measure.json")
        params = scenarios.ThermostatParams()
        model = scenarios.thermostat_model(params)

        # the forward solver on the same model, untimed, at the CLI grid and
        # at half its cell width; their gap is the grid budget of the reference
        refs = {}
        for dx in (0.01, 0.005):
            grid = fpk.build_grid(model, scenarios.thermostat_resolution(params, dx))
            density = fpk.project_density(grid, [scenarios.GaussianCells(20.0, 0.05), None])
            refs[dx] = (grid, _evolve_to(model, grid, density, cfg["output_times"], 0.9))
        cli_grid = refs[0.01][0]
        delta = oracles.monitoring_shift(float(params.gamma), cfg["dt"])
        # image points and the side beyond them, which the solver omits
        shadows = ((lambda lo, hi: lo >= params.psi_max - 1e-9),
                   (lambda lo, hi: hi <= params.psi_min + 1e-9))

        worst_ratio, worst_excess, beyond = 0.0, 0.0, []
        for k, entry in enumerate(measure["per_time"]):
            total = sum(entry["mode_counts"]) + sum(entry["terminal_counts"].values()) + entry["zeno_count"]
            res.expect(total == n, f"t[{k}]: {total} paths accounted for, expected {n}")
            for q, hist in enumerate(entry["mode_histograms"]):
                # histograms drop points outside the mode's box
                res.expect(sum(hist) == entry["mode_counts"][q],
                           f"t[{k}] mode {q}: {entry['mode_counts'][q] - sum(hist)} points outside the box")
            t_beyond = 0.0
            for q, mg in enumerate(cli_grid.mode_grids):
                per_bin = int(round(BIN_WIDTH / mg.dx[0]))
                mc = np.asarray(entry["mode_histograms"][q], float).reshape(-1, per_bin).sum(axis=1) / n
                fine_grid, fine_states = refs[0.005]
                fine_dx = fine_grid.mode_grids[q].dx[0]
                p_fine = fine_states[k].p[q]
                ref = p_fine.reshape(mc.size, -1).sum(axis=1) * fine_dx
                coarse = refs[0.01][1][k].p[q].reshape(mc.size, -1).sum(axis=1) * mg.dx[0]
                face_p = np.concatenate(([0.0], 0.5 * (p_fine[1:] + p_fine[:-1]), [0.0]))
                edge_p = face_p[:: p_fine.size // mc.size]
                edges = mg.lo[0] + BIN_WIDTH * np.arange(mc.size + 1)
                shadow = shadows[q](edges[:-1], edges[1:])
                se = np.sqrt(np.maximum(ref * (1.0 - ref), 0.0) / n)
                # two resets by t = 1, each delaying the profile by at most
                # the monitoring shift: a bin moves by <= 2·delta·(edge density)
                dt_budget = 2.0 * delta * np.maximum(edge_p[:-1], edge_p[1:])
                tol = K_SE * se + COUNT_SLACK / n + dt_budget + np.abs(coarse - ref)
                gap = np.abs(mc - ref)
                ratio = np.where(shadow, 0.0, gap / tol)
                j = int(np.argmax(ratio))
                res.expect(ratio[j] <= 1.0,
                           f"t[{k}] mode {q} bin [{edges[j]:.2f}, {edges[j + 1]:.2f}]: "
                           f"|MC-PDE| {gap[j]:.2e} > tolerance {tol[j]:.2e}")
                worst_ratio = max(worst_ratio, float(ratio[j]))
                worst_excess = max(worst_excess, float(np.max(np.where(shadow, 0.0, gap - K_SE * se))))
                t_beyond += float(np.sum(mc[shadow]))
            beyond.append(t_beyond)
            q_mc = entry["terminal_counts"].get(scenarios.TRUNCATED, 0) / n
            q_pde = refs[0.005][1][k].q[scenarios.TRUNCATED]
            res.expect(abs(q_mc - q_pde) <= K_SE * math.sqrt(max(q_pde, 1.0 / n) / n) + COUNT_SLACK / n,
                       f"t[{k}]: truncated mass MC {q_mc:.3e} vs PDE {q_pde:.3e}")
        res.notes["mc_vs_pde.worst_gap_over_tolerance"] = worst_ratio
        res.notes["mc_vs_pde.worst_bin_gap_beyond_5se"] = worst_excess
        res.notes["mc.mass_beyond_image_points"] = beyond
        return res


class RuinBoth(Workload):
    """Gambler's ruin, Monte Carlo and forward solver, with the CLI's report."""

    name = "ruin_both"
    X0, STD = 0.3, 0.01

    def make_config(self):
        return {
            "scenario": "gamblers_ruin",
            "scenario_options": {"params": {"x0": self.X0, "initial_std": self.STD}},
            "method": "both",
            "horizon": 2.0,
            "dt": 1e-3,
            "resolution": 50,
            "output_times": [0.1, 0.25, 0.5, 1.0, 2.0],
            "ensemble_size": 20_000 if self.smoke else 50_000,
            "base_seed": self.seed,
            "threads": 1,
        }

    def check(self, status) -> CheckResult:
        res = CheckResult()
        res.expect(status in (0, 2), f"resetsde run exited {status}")
        if status not in (0, 2):
            return res
        cfg = self.config
        n = cfg["ensemble_size"]
        report = self._load("report.json")
        failing = [m["name"] for m in report["metrics"] if not m["passed"]]
        res.expect(status == 0 and not failing, f"validation report fails: {failing}")
        for m in report["metrics"]:
            if m["name"].startswith("mass_balance"):
                res.expect(abs(m["value"]) <= MASS_TOL, f"{m['name']} = {m['value']:.3e}")

        density = self._load("pde_density.json")
        _density_checks(res, density)
        worst_series = 0.0
        for t, term in zip(density["times"], density["terminal_mass"]):
            left, right = oracles.ruin_exit_series(self.X0, self.STD, t)
            err = max(abs(term["left"] - left), abs(term["right"] - right))
            worst_series = max(worst_series, err)
            res.expect(err <= SERIES_TOL, f"t={t}: PDE exit masses off the series by {err:.2e}")
        res.notes["pde.max_exit_mass_error"] = worst_series

        measure = self._load("mc_measure.json")
        lo, hi = density["modes"]["lo"][0][0], density["modes"]["hi"][0][0]
        for k, entry in enumerate(measure["per_time"]):
            total = sum(entry["mode_counts"]) + sum(entry["terminal_counts"].values()) + entry["zeno_count"]
            res.expect(total == n, f"t[{k}]: {total} paths accounted for, expected {n}")
            res.expect(sum(entry["mode_histograms"][0]) == entry["mode_counts"][0],
                       f"t[{k}]: points outside the interval")
        final = measure["per_time"][-1]
        hist = np.asarray(final["mode_histograms"][0], float)
        centers = lo + (np.arange(hist.size) + 0.5) * (hi - lo) / hist.size
        # 1 - X is a martingale: left exits plus (1 - X_T) of the live paths
        # estimate 1 - x0 exactly, whatever mass is still unabsorbed
        estimate = (final["terminal_counts"].get("left", 0) + float(hist @ (1.0 - centers))) / n
        se = math.sqrt(self.X0 * (1.0 - self.X0) / n)
        budget = oracles.ruin_left_monitoring_bias(self.X0, 1.0, cfg["dt"])
        err = estimate - (1.0 - self.X0)
        res.expect(abs(err) <= K_SE * se + budget,
                   f"MC left split {estimate:.5f} vs {1 - self.X0}: |err| {abs(err):.2e} > "
                   f"{K_SE}·SE {K_SE * se:.2e} + monitoring budget {budget:.2e}")
        res.notes["mc.left_split_error"] = err
        res.notes["mc.left_split_se"] = se
        res.notes["mc.left_split_monitoring_budget"] = budget
        res.notes["mc.live_at_horizon"] = final["mode_counts"][0]
        return res


class ThermostatFPK(Workload):
    """The forward solver alone: explicit evolution, then a stationary ladder."""

    name = "thermostat_fpk"

    def __init__(self, rundir, seed, smoke):
        # the solver is deterministic: the seed enters no input here
        self.ladder = (0.01, 0.005) if smoke else (0.01, 0.005, 0.0025)
        self.ops_per_round = 1 + len(self.ladder)
        super().__init__(rundir, seed, smoke)

    def make_config(self):
        return {
            "scenario": "thermostat_1d",
            "method": "pde",
            "horizon": 0.1 if self.smoke else 0.5,
            "resolution": 328 if self.smoke else 656,   # dx = 0.01 / 0.005
            "output_times": [0.025, 0.05, 0.075, 0.1] if self.smoke else [0.125, 0.25, 0.375, 0.5],
            "base_seed": self.seed,
            "threads": 1,
        }

    def setup(self):
        bundle = super().setup()
        for dx in self.ladder:
            fpk.build_grid(bundle["model"], bundle["resolution"](dx))
        return bundle

    def run_round(self):
        status = super().run_round()
        params = scenarios.ThermostatParams()
        model = scenarios.thermostat_model(params)
        rungs = []
        for dx in self.ladder:
            grid = fpk.build_grid(model, scenarios.thermostat_resolution(params, dx))
            rungs.append((dx, grid, fpk.stationary_density(model, grid)))
        return status, model, rungs

    def fingerprint(self, output):
        _, _, rungs = output
        h = hashlib.sha256(super().fingerprint(output).encode())
        for _, _, state in rungs:
            for arr in state.p:
                h.update(arr.tobytes())
        return h.hexdigest()

    def check(self, output) -> CheckResult:
        status, model, rungs = output
        res = CheckResult()
        res.expect(status == 0, f"resetsde run exited {status}")
        if status == 0:
            _density_checks(res, self._load("pde_density.json"))
        params = scenarios.ThermostatParams()
        residuals, distances = [], []
        for dx, grid, state in rungs:
            cells = sum(int(np.prod(mg.shape)) for mg in grid.mode_grids)
            mass = validate.mass_balance(grid, state)
            res.expect(abs(mass - 1.0) <= MASS_TOL, f"stationary {cells} cells: mass {mass!r}")
            res.expect(all(float(np.min(p)) >= 0.0 for p in state.p),
                       f"stationary {cells} cells: negative density")
            residuals.append(validate.flux_continuity_residual(model, grid, state))
            oracle, leak = oracles.thermostat_stationary_cell_masses(params, dx)
            coarse_quad, _ = oracles.thermostat_stationary_cell_masses(params, dx, sub=100)
            quad_err = sum(float(np.sum(np.abs(a - b))) for a, b in zip(oracle, coarse_quad))
            res.expect(leak <= ORACLE_LEAK_TOL, f"oracle leak {leak:.2e} is not negligible")
            # halving the trapezoid step moved the oracle by quad_err; its own
            # error, about a third of that, must sit far below the envelope
            res.expect(quad_err <= 0.01 * ORACLE_ENVELOPE * dx,
                       f"oracle quadrature unconverged ({quad_err:.2e})")
            l1 = sum(
                float(np.sum(np.abs(p * mg.cell_volume - m)))
                for p, mg, m in zip(state.p, grid.mode_grids, oracle)
            )
            distances.append(l1)
            # a solve whose distance does not fall with the cell width is a
            # failed operation (the image-face wall drops the mass beyond it)
            if l1 > ORACLE_ENVELOPE * dx:
                res.failed_ops += 1
            res.notes[f"stationary[{cells}].l1_to_oracle"] = l1
            res.notes[f"stationary[{cells}].flux_residual"] = residuals[-1]
        for (dx, _, _), r_coarse, r_fine in zip(rungs, residuals, residuals[1:]):
            res.expect(r_coarse / r_fine >= FLUX_RATIO,
                       f"flux-continuity residual fell only {r_coarse / r_fine:.2f}x below dx={dx}")
        return res


WORKLOADS = {w.name: w for w in (ThermostatMC, RuinBoth, ThermostatFPK)}
