"""Spans around the package's public functions, recorded from the benchmark.

`Tracer.installed()` replaces each function listed in TARGETS, in the module
namespace its callers look it up in, by a wrapper that records a span: name,
start, end, parent span and a few counts read from the arguments or the
result. The spans stay in memory; `layer_metrics` reduces one round's spans
to the per-layer metrics. Nothing inside the package is changed.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import resource
import time
from dataclasses import dataclass, field


def current_rss_mb() -> float:
    """Resident set of this process now; the peak so far where /proc is absent."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * resource.getpagesize() / 2**20
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cells(grid) -> int:
    return sum(math.prod(mg.shape) for mg in grid.mode_grids)


def _evolve_info(args, kwargs, result):
    return {"steps": int(args[4]), "cells": _cells(args[1])}


def _stationary_info(args, kwargs, result):
    return {"cells": _cells(args[1])}


def _ensemble_info(args, kwargs, result):
    paths, horizon, dt = int(args[2]), float(args[3]), float(args[4])
    return {
        "paths": paths,
        "grid_steps": int(round(horizon / dt)),
        "absorbed": int(sum(result.terminal_counts[-1].values())),
        "zeno": int(result.zeno_counts[-1]),
    }


# (module, attribute looked up by the callers, span name, counts reader)
TARGETS = (
    ("resetsde.cli", "load_config", "cli.load_config", None),
    ("resetsde.cli", "run", "cli.run", None),
    ("resetsde.cli", "load_scenario", "scenarios.load_scenario", None),
    ("resetsde.scenarios", "build_model", "model.build_model", None),
    ("resetsde.fpk", "build_grid", "fpk.build_grid", None),
    ("resetsde.fpk", "project_density", "fpk.project_density", None),
    ("resetsde.fpk", "evolve", "fpk.evolve", _evolve_info),
    ("resetsde.fpk", "stationary_density", "fpk.stationary_density", _stationary_info),
    ("resetsde.cli", "ensemble", "simulate.ensemble", _ensemble_info),
    ("resetsde.cli", "compare_mc_pde", "validate.compare_mc_pde", None),
    ("resetsde.cli", "mass_balance", "validate.mass_balance", None),
    ("resetsde.cli", "flux_continuity_residual", "validate.flux_continuity", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rss_before_mb: float
    peak_growth_mb: float
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, info_reader):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, current_rss_mb(), 0.0)
            self.spans.append(span)
            self._stack.append(index)
            peak_before = peak_rss_mb()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            peak_after = peak_rss_mb()
            # the peak is a process high-water mark: growth is known only
            # when this call raised it
            if peak_after > peak_before:
                span.peak_growth_mb = peak_after - span.rss_before_mb
            if info_reader is not None:
                span.info = info_reader(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, info_reader in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, info_reader))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


UNITS = {
    "cli.load_config_s": "s",
    "cli.run_self_s": "s",
    "cli.artifact_bytes": "count",
    "scenarios.load_scenario_s": "s",
    "model.build_model_s": "s",
    "fpk.build_grid_s": "s",
    "fpk.project_density_s": "s",
    "fpk.evolve_s": "s",
    "fpk.evolve_steps": "count",
    "fpk.evolve_us_per_step": "us",
    "fpk.evolve_ns_per_cell_step": "ns",
    "fpk.stationary_s": "s",
    "fpk.stationary_largest_s": "s",
    "fpk.stationary_rss_growth_mb": "MB",
    "simulate.ensemble_s": "s",
    "simulate.paths": "count",
    "simulate.nominal_path_steps": "count",
    "simulate.ns_per_nominal_path_step": "ns",
    "simulate.us_per_path": "us",
    "simulate.absorbed_paths": "count",
    "simulate.zeno_paths": "count",
    "simulate.rss_growth_mb": "MB",
    "validate.compare_mc_pde_s": "s",
    "validate.mass_balance_s": "s",
    "validate.flux_continuity_s": "s",
    "trace.overhead_s": "s",
}


# growth of the process high-water mark: known only in the round that raised
# it, so these are the largest over the traced rounds, not the median
RSS_KEYS = ("fpk.stationary_rss_growth_mb", "simulate.rss_growth_mb")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals of one round's spans (times in s, counts as counts)."""

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    run_ids = {i for i, s in enumerate(spans) if s.name == "cli.run"}
    run_children = sum(s.duration for s in spans if s.parent in run_ids)
    evolve = [s for s in spans if s.name == "fpk.evolve"]
    steps = sum(s.info["steps"] for s in evolve)
    cell_steps = sum(s.info["steps"] * s.info["cells"] for s in evolve)
    stationary = [s for s in spans if s.name == "fpk.stationary_density"]
    largest = max(stationary, key=lambda s: s.info["cells"], default=None)
    ens = [s for s in spans if s.name == "simulate.ensemble"]
    paths = sum(s.info["paths"] for s in ens)
    nominal = sum(s.info["paths"] * s.info["grid_steps"] for s in ens)
    ens_s = total("simulate.ensemble")
    evolve_s = total("fpk.evolve")
    return {
        "cli.load_config_s": total("cli.load_config"),
        "cli.run_self_s": total("cli.run") - run_children,
        "scenarios.load_scenario_s": total("scenarios.load_scenario"),
        "model.build_model_s": total("model.build_model"),
        "fpk.build_grid_s": total("fpk.build_grid"),
        "fpk.project_density_s": total("fpk.project_density"),
        "fpk.evolve_s": evolve_s,
        "fpk.evolve_steps": steps,
        "fpk.evolve_us_per_step": evolve_s / steps * 1e6 if steps else 0.0,
        "fpk.evolve_ns_per_cell_step": evolve_s / cell_steps * 1e9 if cell_steps else 0.0,
        "fpk.stationary_s": sum(s.duration for s in stationary),
        "fpk.stationary_largest_s": largest.duration if largest else 0.0,
        "fpk.stationary_rss_growth_mb": max((s.peak_growth_mb for s in stationary), default=0.0),
        "simulate.ensemble_s": ens_s,
        "simulate.paths": paths,
        "simulate.nominal_path_steps": nominal,
        "simulate.ns_per_nominal_path_step": ens_s / nominal * 1e9 if nominal else 0.0,
        "simulate.us_per_path": ens_s / paths * 1e6 if paths else 0.0,
        "simulate.absorbed_paths": sum(s.info["absorbed"] for s in ens),
        "simulate.zeno_paths": sum(s.info["zeno"] for s in ens),
        "simulate.rss_growth_mb": max((s.peak_growth_mb for s in ens), default=0.0),
        "validate.compare_mc_pde_s": total("validate.compare_mc_pde"),
        "validate.mass_balance_s": total("validate.mass_balance"),
        "validate.flux_continuity_s": total("validate.flux_continuity"),
    }
