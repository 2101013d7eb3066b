"""Diffusions with boundary-hitting resets: pathwise Monte Carlo and the
conservative finite-volume solver for the associated forward equations,
cross-validated against each other and against closed-form laws."""

from resetsde.model import (
    AffineField,
    AffineMap,
    HybridModel,
    Mode,
    ModelSpec,
    NumericalField,
    PolyDomain,
    ResetEdge,
    SurfaceTarget,
    TerminalTarget,
    VectorFieldSet,
    box_domain,
    build_model,
    classify_boundary,
    constant_field,
    interval_domain,
    ito_coefficients,
    jacobian_factor,
    zero_field,
)
from resetsde.simulate import (
    EmpiricalMeasure,
    GaussianInitial,
    JumpEvent,
    PathState,
    PointMass,
    Trajectory,
    apply_reset,
    detect_hit,
    ensemble,
    simulate_path,
    step,
)
from resetsde.fpk import (
    DensityState,
    GridLayout,
    apply_absorbing_bc,
    build_grid,
    coarsen,
    evolve,
    project_density,
    run_to_stationarity,
    stable_dt,
    stationary_density,
    total_mass,
)
from resetsde.validate import (
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
from resetsde.scenarios import (
    FirstExitParams,
    ThermostatParams,
    analytic_first_passage,
    brownian_reset_model,
    first_exit_model,
    gamblers_ruin_model,
    load_scenario,
    thermostat_model,
)

__version__ = "0.1.0"
