"""Stochastic SQP for equality-constrained problems, with multiplier averaging.

The package is organized as a small numpy/scipy library:

* :mod:`stochsqp.problem` - problem abstraction and gradient oracles
* :mod:`stochsqp.logreg` - constrained logistic-regression instances
* :mod:`stochsqp.kkt` - null-space subproblem solves and multiplier formulas
* :mod:`stochsqp.merit` - merit function, model reduction, trial values
* :mod:`stochsqp.solver` - the iteration loop and per-iterate diagnostics
* :mod:`stochsqp.averaging` - running and windowed multiplier averages
* :mod:`stochsqp.harness` - experiment driver, reference solves, CSV traces
"""

__version__ = "0.1.0"

from .averaging import (
    MultiplierBoundReport,
    MultiplierTrace,
    check_true_multiplier_bound,
    kappa_y,
    running_average,
    running_averages,
    windowed_average,
)
from .errors import (
    ConfigError,
    ConstructionError,
    CurvatureError,
    EvaluationError,
    InconsistentStepError,
    ParseError,
    RankError,
    ReferenceSolveError,
    StochSqpError,
)
from .kkt import (
    JacobianFactors,
    KktInputs,
    KktSolution,
    decompose_step,
    factor_jacobian,
    least_squares_multiplier,
    multiplier_operator,
    multiplier_via_operator,
    null_space_basis,
    solve_kkt,
    solve_with_factors,
)
from .logreg import (
    ConstrainedLogRegInstance,
    Dataset,
    build_instance,
    load_bundled_dataset,
    load_bundled_instance,
    load_libsvm_file,
    logistic_minibatch_gradient,
    parse_libsvm,
    serialize_libsvm,
)
from .merit import (
    MeritParams,
    check_reduction_lbnd,
    model_q,
    phi,
    reduction_delta_q,
    tau_trial_true,
    xi_trial,
)
from .problem import (
    Problem,
    ProblemConstants,
    StochasticGradientOracle,
    estimate_lipschitz_constants,
    estimate_variance,
    eval_all,
    exact_oracle,
    finite_difference_check,
    gaussian_oracle,
    sample_gradient,
)
from .solver import (
    BetaSchedule,
    Iteration,
    RunResult,
    SolverConfig,
    Trace,
    ValidationSummary,
    derive_kuv,
    iterate,
    kkt_residual,
    run,
    stationarity_residual,
    stationarity_residual_squared,
    step_size,
    true_shadow,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    PlReport,
    ReferenceSolution,
    RunSummary,
    compute_reference,
    pl_diagnostic,
    run_experiment,
)
