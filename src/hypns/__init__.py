"""Pseudo-spectral solvers and energy diagnostics for the damped-wave
relaxation of incompressible Navier-Stokes on the periodic torus."""

from .diagnostics import (
    EnergyReport,
    dafermos_derivative_residuals,
    dafermos_energy,
    energy,
    energy_decay_audit,
    interpolation_ratios,
    make_energy_report,
    trilinear_ratio,
)
from .experiments import (
    ConfigError,
    DataRecipe,
    ExperimentConfig,
    RateFit,
    SweepResult,
    fit_rate,
    parse_config,
    run_convergence,
    run_existence_probe,
    run_inequality_audit,
)
from .initial_data import (
    HypothesisReport,
    check_bernstein,
    check_hypotheses,
    check_jackson,
    random_divergence_free_field,
    synth_hs_field,
    taylor_green,
    truncate_initial_data,
)
from .nlw import (
    WaveState,
    linear_propagate,
    nlw_solve,
    propagate_mode,
)
from .ns import NsState, SolverFailure, dt_v, ns_solve
from .reporting import emit_report
from .spectral import (
    Grid,
    SpectralField,
    convection_term,
    inverse_transform,
    l2_norm,
    leray_project,
    linf_norm,
    make_grid,
    sobolev_norm,
    transform,
    zero_field,
)

__version__ = "0.1.0"
