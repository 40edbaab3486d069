"""Stochastic SQP for equality-constrained problems, with multiplier averaging.

The package is organized as a small numpy/scipy library:

* :mod:`stochsqp.problem` - problem abstraction and gradient oracles
* :mod:`stochsqp.logreg` - constrained logistic-regression instances
* :mod:`stochsqp.kkt` - subproblem solves and the multiplier operator
* :mod:`stochsqp.merit` - merit function, model reduction, trial values
* :mod:`stochsqp.solver` - the iteration loop and per-iterate diagnostics
* :mod:`stochsqp.averaging` - running and windowed multiplier averages
* :mod:`stochsqp.harness` - experiment driver, reference solves, CSV traces

The package namespace re-exports what a library user calls; the names
only the tests or the benchmark use (reference forms, and the helpers the
benchmark wraps or imports) stay in their modules.  The experiment driver
is not imported with the package; import its names from the module::

    from stochsqp.harness import ExperimentConfig, compute_reference, run_experiment
"""

__version__ = "0.1.0"

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
    parse_libsvm,
    serialize_libsvm,
)
from .merit import phi
from .problem import (
    Problem,
    StochasticGradientOracle,
    evaluate_gradient,
    exact_oracle,
)
from .solver import (
    Iteration,
    SolverConfig,
    Trace,
    ValidationSummary,
    iterate,
    kkt_residual,
    run,
    step_size,
)
