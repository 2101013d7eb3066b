"""Reference figures for single layers, outside the gated benchmark.

    python3 bench/baselines.py

Prints one JSON object: MC cost per path-step on thermostat_1d at 20k paths
x 2,000 steps, explicit `evolve` cost per step at 656 cells, the stationary
solve at 656 / 1,312 / 2,624 cells, per-path RNG stream construction as the
ensemble engine performs it, and the `src/` line count. One BLAS thread, as in
`run.py`. About 20 seconds on two cores.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import SINGLE_THREAD_ENV, SRC


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def main() -> int:
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import numpy as np

    from resetsde import fpk, scenarios, simulate

    params = scenarios.ThermostatParams()
    model = scenarios.thermostat_model(params)
    figures = {}

    n, steps, dt = 20_000, 2_000, 1e-3
    wall, _ = timed(simulate.ensemble, model, scenarios.thermostat_initial(params), n,
                    steps * dt, dt, [steps * dt], 1)
    figures["mc_20k_x_2000_s"] = wall
    figures["mc_ns_per_path_step"] = wall / (n * steps) * 1e9

    grid = fpk.build_grid(model, scenarios.thermostat_resolution(params, 0.01))
    density = fpk.project_density(grid, [scenarios.GaussianCells(20.0, 0.05), None])
    wall, _ = timed(fpk.evolve, model, grid, density, fpk.stable_dt(grid, 0.9), 5_000)
    figures["evolve_656_cells_us_per_step"] = wall / 5_000 * 1e6

    for dx in (0.01, 0.005, 0.0025):
        grid = fpk.build_grid(model, scenarios.thermostat_resolution(params, dx))
        cells = sum(int(np.prod(mg.shape)) for mg in grid.mode_grids)
        figures[f"stationary_{cells}_cells_s"], _ = timed(fpk.stationary_density, model, grid)

    count = 100_000
    wall, _ = timed(lambda: [np.random.default_rng(np.random.SeedSequence([7, i])) for i in range(count)])
    figures["stream_construction_us_per_path"] = wall / count * 1e6

    figures["src_lines"] = sum(
        len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
