"""Numerical laboratory for attraction-repulsion chemotaxis with logistic growth.

The package couples a finite-difference solver for the mixed
parabolic-elliptic (tau = 0) or fully parabolic (tau = 1) system with a
constructive parameter-identification pipeline that reconstructs every model
coefficient from measurement-map queries: growth rate, linear and
second-order kinetic coefficients, and the two chemotactic sensitivities.
"""

from .errors import CFLViolation, EllipticSolveError, NumericsError, RecoveryError
from .forward import (
    EquilibriumState,
    KineticsSpec,
    MeasurementRecord,
    ParameterSet,
    SeparableField,
    SolverConfig,
    Trajectory,
    measure,
    solve_forward,
    steady_state,
)
from .grid import (
    Domain,
    advective_flux_div,
    inner_product,
    laplacian_neumann,
    quadrature,
)
from .harness import (
    ExperimentConfig,
    IdentReport,
    cli,
    convergence_study,
    identifiability_experiment,
    identifiability_sweep,
    measure_match_tol,
    measurement_distance,
    parameter_distance,
)
from .probes import (
    CGOProbe,
    EigenMode,
    MomentVector,
    cgo_elliptic,
    cgo_parabolic,
    moment_recover,
    neumann_eigenmode,
    weighted_integral,
)
from .recover import (
    Oracle,
    PipelineOptions,
    RecoveryReport,
    recover_chi_xi_mu,
    recover_linear_kinetics,
    recover_r,
    recover_second_kinetics,
    run_full_pipeline,
)
from .variation import (
    ForwardHandle,
    PerturbationFamily,
    VariationStack,
    consistency_report,
    extract_variation_fd,
    solve_variations,
)

__version__ = "0.1.0"
