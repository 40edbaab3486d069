"""Stochastic SQP for equality-constrained problems, with multiplier averaging.

The package is organized as a small numpy/scipy library:

* :mod:`stochsqp.problem` - problem abstraction and gradient oracles
* :mod:`stochsqp.logreg` - constrained logistic-regression instances
* :mod:`stochsqp.kkt` - subproblem solves and the multiplier operator
* :mod:`stochsqp.merit` - merit function, model reduction, trial values
* :mod:`stochsqp.solver` - the iteration loop and per-iterate diagnostics
* :mod:`stochsqp.averaging` - running and windowed multiplier averages
* :mod:`stochsqp.harness` - experiment driver, reference solves, CSV traces

The package namespace re-exports the library.  The experiment driver is
not imported with it; import its names from the module::

    from stochsqp.harness import ExperimentConfig, compute_reference, run_experiment
"""

__version__ = "0.1.0"

from .averaging import MultiplierTrace, windowed_average
from .errors import (
    ConfigError,
    ConstructionError,
    CurvatureError,
    EvaluationError,
    ParseError,
    RankError,
    ReferenceSolveError,
    StochSqpError,
)
from .kkt import (
    JacobianFactors,
    KktSolution,
    factor_jacobian,
    multiplier_operator,
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
    check_reduction_lbnd,
    phi,
    reduction_delta_q,
    tau_trial_true,
    xi_trial,
)
from .problem import (
    Problem,
    StochasticGradientOracle,
    evaluate_gradient,
    exact_oracle,
    sample_gradient,
)
from .solver import (
    Iteration,
    SolverConfig,
    Trace,
    ValidationSummary,
    iterate,
    kkt_residual,
    run,
    stationarity_residual,
    step_size,
)
