"""Experiment driver: reference solves, replicated runs, CSV traces.

Reproduces the benchmark protocol end to end: build a constrained
logistic-regression instance from a LIBSVM file (or the bundled
synthetic slice), compute a high-accuracy reference solution with exact
gradients, run seeded stochastic replicates, and emit per-replicate CSV
traces plus machine-readable summaries.  Output is data only; traces
are plottable with any tool (a column description with a sample gnuplot
command is written next to them).

Replicates are share-nothing (one generator and one output file per
seed) and are executed sequentially here; callers may safely run them
concurrently themselves.

Also available as a console entry point and as ``python -m stochsqp``::

    stochsqp-experiment --dataset data.libsvm --seed 1 --seed 2 --out runs
    python -m stochsqp --dataset data.libsvm --seed 1 --seed 2 --out runs
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, kkt
from .averaging import prefix_sums, window_means, window_starts
from .errors import (
    ConfigError, CurvatureError, EvaluationError, RankError, ReferenceSolveError, StochSqpError,
)
from .kkt import null_space_basis, solve_kkt
from .logreg import INSTANCE_SEED, M_LIN, ConstrainedLogRegInstance, build_instance
from .logreg import load_bundled_dataset, load_libsvm_file
from .merit import MeritParams, phi, reduction_from_products, tau_trial_from_products
from .problem import Array, Problem, exact_oracle
from .solver import (
    BetaSchedule, SolverConfig, Trace, ValidationSummary, _evaluate, kkt_residual, run, step_size,
)

# The benchmark's traced mode (perfbench/spans.py) looks this name up
# in this module's namespace to wrap it, so it stays bound here
# although nothing in this module calls it.
from .averaging import windowed_average  # noqa: F401

CSV_FLOAT_FMT = "%.17g"
_CSV_CHUNK_ROWS = 1024


# ---------------------------------------------------------------------------
# reference solve
# ---------------------------------------------------------------------------


#: Iterations the reference solve takes before it gives up.
REFERENCE_MAX_ITERS = 50_000
#: Fraction of the predicted merit reduction a Newton step must achieve
#: (the Armijo test of the reference solve's line search).
_ARMIJO = 1e-4
#: Shortest Newton step the line search tries before the reference
#: solve takes an identity-model step instead.
_MIN_STEP = 2.0**-10


@dataclass(frozen=True)
class ReferenceSolution:
    """Reference pair ``(x, y)`` with its first-order residual.

    ``iterations`` is the index of the returned iterate, ``x0`` being
    iterate 1, so ``iterations - 1`` steps led to it; ``newton_steps``
    of them are Newton steps, the others identity-model steps (all of
    them without a ``lagrangian_hessian``).
    """

    x: Array
    y: Array
    residual: float
    iterations: int
    newton_steps: int = 0


def compute_reference(
    problem: Problem,
    merit: MeritParams,
    lip_gradf: float,
    lip_jac: float,
    tol: float = 1e-8,
) -> ReferenceSolution:
    """Exact-gradient solve to high accuracy, with a second-order check.

    Returns the first iterate, of at most ``REFERENCE_MAX_ITERS``, whose
    first-order residual is at most ``tol``.  With a
    ``lagrangian_hessian``, each step from ``x0`` on is a Newton step on
    the KKT system, globalized by a backtracking line search on
    :func:`stochsqp.merit.phi` (Nocedal & Wright, *Numerical
    Optimization*, 2nd ed., Algorithm 18.3; see :func:`_newton_step`),
    after which the pair is ``(x + alpha d, y_new)``.  Without one, or
    where that step fails, the step is the one
    :func:`stochsqp.solver.iterate` takes with the exact gradient and
    constant unit damping (valid without gradient noise), and the next
    iterate is paired with its own multiplier.  So a problem whose
    Hessian never yields an accepted step gets the iterates of
    :func:`~stochsqp.solver.iterate` bit for bit.

    The candidate must then pass :func:`_check_second_order`, which
    rejects saddle points and constrained maxima.
    """
    if problem.x0 is None:
        raise ConfigError("problem must supply an initial point x0")
    best = math.inf
    for reference in _reference_iterates(problem, merit, lip_gradf, lip_jac):
        if reference.residual <= tol:
            break
        best = min(best, reference.residual)
    else:
        raise ReferenceSolveError(
            f"reference solve did not reach {tol:g} in {REFERENCE_MAX_ITERS} iterations "
            f"(best residual {best:.3e})"
        )
    _check_second_order(problem, reference.x, reference.y)
    return reference


def _reference_iterates(problem, merit, lip_gradf, lip_jac):
    """The reference candidates, one per iterate from ``x0`` on.

    Each step is a Newton step where :func:`_newton_step` gives one and
    otherwise the identity-model step.  Evaluation and rank failures
    carry the iterate index, as in :func:`stochsqp.solver.iterate`.
    """
    alpha = step_size(merit.tau, merit.xi, lip_gradf, lip_jac, 1.0)  # the identity-model step's
    x = np.array(problem.x0, dtype=float)
    y = f = None  # after a Newton step, its multiplier and the objective at x
    tau, newton_steps = merit.tau, 0
    for k in range(1, REFERENCE_MAX_ITERS + 1):
        grad, jac, c = _evaluate(problem, x)
        try:
            if not (np.isfinite(c).all() and np.isfinite(jac).all() and np.isfinite(grad).all()):
                raise EvaluationError("problem evaluator returned a non-finite value")
            identity = kkt.solve_with_factors(kkt.factor_jacobian(jac), grad, c)
        except (RankError, EvaluationError) as exc:
            raise type(exc)(f"iteration {k}: {exc}") from exc
        if y is None:
            y = identity.y
        yield ReferenceSolution(x, y, kkt_residual(grad, jac, c, y), k, newton_steps)

        step = _newton_step(problem, merit.nu, tau, x, y, f, grad, jac, c)
        if step is None:
            x, y, f = x + alpha * identity.d, None, None
            if not np.isfinite(x).all():
                raise EvaluationError(f"iteration {k}: iterate became non-finite")
        else:
            x, y, f, tau = step
            newton_steps += 1


def _newton_step(problem, nu, tau, x, y, f, grad, jac, c):
    """One Newton step from ``(x, y)`` with a backtracking line search.

    The subproblem is solved with the symmetric part of the Lagrangian
    Hessian ``H`` at ``(x, y)``.  The merit parameter is lowered to
    ``min(tau, tau_trial)``, and the step length halves from 1 until
    ``phi`` falls by ``_ARMIJO`` times the length times the model
    reduction.  Returns ``(x_new, y_new, f(x_new), tau)``, or ``None``
    when the problem has no ``lagrangian_hessian``, ``H`` is not finite,
    ``z' H z`` is not positive definite or the length falls below
    ``_MIN_STEP``.  ``f`` is the objective at ``x``,
    ``None`` if not evaluated yet.
    """
    if problem.lagrangian_hessian is None:
        return None
    hess = np.asarray(problem.lagrangian_hessian(x, y), dtype=float)
    if not np.isfinite(hess).all():
        return None
    hess = 0.5 * (hess + hess.T)
    try:
        sol = solve_kkt(hess, jac, grad, c)
    except CurvatureError:
        return None
    gd, dhd, l1 = float(grad @ sol.d), float(sol.d @ hess @ sol.d), float(np.abs(c).sum())
    tau = min(tau, float(tau_trial_from_products(nu, gd, dhd, l1)))
    predicted = float(reduction_from_products(tau, gd, dhd, l1))
    start = phi(tau, problem.objective(x) if f is None else f, c)
    alpha = 1.0
    while alpha >= _MIN_STEP:
        trial = x + alpha * sol.d
        f_trial = float(problem.objective(trial))
        if phi(tau, f_trial, problem.constraints(trial)) <= start - _ARMIJO * alpha * predicted:
            return trial, sol.y, f_trial, tau
        alpha *= 0.5
    return None


def _check_second_order(problem: Problem, x: Array, y: Array) -> Array:
    """Require ``z' H z`` to be positive semidefinite at ``(x, y)``.

    ``H`` is the Hessian of the Lagrangian and ``z`` an orthonormal basis
    of the Jacobian null space, so this is the second-order condition on
    the whole tangent space (Nocedal & Wright, *Numerical Optimization*,
    2nd ed., Theorems 12.5 and 12.6).  Without ``lagrangian_hessian``,
    ``H z`` comes from forward differences of ``grad f + jac' y`` along
    the columns of ``z``.  The eigenvalue floor ``-1e-6 max(1, max|lambda|)``
    leaves room for the difference error, about 1e-8.  Returns the
    eigenvalues of the symmetrized ``z' H z`` in ascending order (none
    when ``m == n``).
    """
    z = null_space_basis(np.asarray(problem.jacobian(x), dtype=float))
    if z.shape[1] == 0:
        return np.empty(0)
    if problem.lagrangian_hessian is not None:
        reduced = z.T @ np.asarray(problem.lagrangian_hessian(x, y), dtype=float) @ z
    else:

        def lagrangian_gradient(point):
            grad, jac, _ = _evaluate(problem, point)
            return grad + jac.T @ y

        h = math.sqrt(np.finfo(float).eps) * max(1.0, float(np.linalg.norm(x)))
        base = lagrangian_gradient(x)
        hz = np.column_stack([lagrangian_gradient(x + h * col) - base for col in z.T])
        reduced = z.T @ hz / h
    reduced = 0.5 * (reduced + reduced.T)
    if not np.all(np.isfinite(reduced)):
        raise ReferenceSolveError(
            "reduced Lagrangian Hessian at the reference candidate is not finite "
            "(lambda_min undefined)"
        )
    eigs = np.linalg.eigvalsh(reduced)
    if eigs[0] < -1e-6 * max(1.0, float(np.max(np.abs(eigs)))):
        raise ReferenceSolveError(
            f"reference candidate is not a local minimizer: lambda_min {eigs[0]:.3e} "
            f"of the reduced Lagrangian Hessian (lambda_max {eigs[-1]:.3e})"
        )
    return eigs


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment invocation.

    ``dataset=None`` selects the bundled synthetic slice.  The step-size
    rule uses the instance's certified Lipschitz bounds, the constraint
    data is drawn with ``INSTANCE_SEED`` and the reference solve has
    ``REFERENCE_MAX_ITERS`` iterations.  ``exact`` swaps the
    mini-batch oracle for full-batch exact gradients (zero variance).
    """

    dataset: str | None = None
    mlin: int = M_LIN
    batch: int = SolverConfig.batch_size
    iters: int = 100_000
    tau: float = MeritParams.tau
    xi: float = MeritParams.xi
    nu: float = MeritParams.nu
    beta1: float = BetaSchedule.beta1
    beta_p: float = BetaSchedule.p
    seeds: list[int] = field(default_factory=lambda: [0])
    eps_grid: list[float] = field(default_factory=lambda: [0.01, 0.1, 1.0])
    out: str = "runs"
    thin: int = 1
    validate: bool = False
    reference_only: bool = False
    exact: bool = False
    ref_tol: float = 1e-8

    def __post_init__(self):
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.iters < 1:
            raise ConfigError("iters must be >= 1")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.mlin < 1:
            raise ConfigError("mlin must be >= 1")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        for eps in self.eps_grid:
            if not 0 < eps < math.inf:
                raise ConfigError(f"eps values must be finite and > 0, got {eps}")
        # The label names the CSV column and the summary key.
        labels = [f"{eps:g}" for eps in self.eps_grid]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"eps values must have distinct labels, got {labels}")
        # Built here only to reject bad values before any solve runs.
        self.merit()
        self.beta_schedule()

    def merit(self) -> MeritParams:
        return MeritParams(tau=self.tau, xi=self.xi, nu=self.nu)

    def beta_schedule(self) -> BetaSchedule:
        return BetaSchedule(family="power", beta1=self.beta1, p=self.beta_p)


@dataclass
class RunSummary:
    """Final distances and violation tallies for one replicate.

    The distances are the trace CSV's last row, the final iteration;
    the tallies are :meth:`Trace.validation_summary`'s.
    ``wall_time`` is the solver loop alone and ``emit_time`` the trace
    CSV writing, both in seconds.  ``final_dist_y_true`` and the
    tallies are ``None`` without validation.  ``first_xi_violation`` and
    ``first_tau_violation`` are the iteration ``k`` of the first
    violation of each trial value, ``None`` when there was none.
    """

    seed: int
    iterations: int
    final_dist_x: float
    final_dist_y: float
    final_dist_y_true: float | None
    final_dist_y_avg: float
    final_dist_y_avg_eps: dict[str, float]
    xi_violations: int | None
    tau_violations: int | None
    lbnd_violations: int | None
    alpha_above_one: int | None
    first_xi_violation: int | None
    first_tau_violation: int | None
    wall_time: float
    emit_time: float


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


#: Every trace CSV column in order, with its note in ``columns.txt``.  The
#: ``{eps}`` entry stands for one column per eps value.  The columns after
#: the distances are trace attributes, written as-is.
_COLUMNS = {
    "k": "iteration number (1-based; rows are every `thin`-th iteration)",
    "dist_x": "||x_k - x*||_2, primal distance to the reference solution",
    "dist_y": "||y_k - y*||_2, per-iteration multiplier error",
    "dist_y_true": "||y_k_exact - y*||_2, multiplier error of the exact-gradient shadow solve (nan unless --validate)",
    "dist_y_avg": "||mean(y_1..y_k) - y*||_2, running-average multiplier error",
    "dist_y_avg_eps_{eps}": "windowed-average multiplier error with window radius eps={eps}",
    "resid_true": "||grad f + jac' y_exact||_2 + ||c||_2 at x_k (nan unless --validate)",
    "norm_c": "||c(x_k)||_2, constraint violation",
    "alpha": "step size used at iteration k",
    "beta": "damping factor used at iteration k",
    "xi_trial": "largest admissible ratio parameter at iteration k (inf for a zero step)",
    "tau_trial_true": "largest admissible merit parameter from the exact-gradient step (nan unless --validate)",
    "lbnd_slack": "slack in the guaranteed-reduction inequality (nan unless --validate)",
}


def _column_notes(eps_grid) -> list[tuple[str, str]]:
    """``(name, note)`` of every trace CSV column, in order."""
    return [
        (name.format(eps=label), note.format(eps=label))
        for name, note in _COLUMNS.items()
        for label in ([f"{eps:g}" for eps in eps_grid] if "{eps}" in name else [None])
    ]


def csv_columns(eps_grid) -> list[str]:
    return [name for name, _ in _column_notes(eps_grid)]


@contextmanager
def _atomic_writer(path):
    """Text handle on a temporary file that replaces ``path`` on success.

    The file appears complete or not at all: the temporary file sits in
    the same directory and is removed if the block raises.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path, obj, **options):
    with _atomic_writer(path) as handle:
        json.dump(obj, handle, indent=2, allow_nan=False, **options)
        handle.write("\n")


def _distance_columns(trace, reference: ReferenceSolution, eps_grid, rows: slice) -> list:
    """The trace CSV's distance columns, ``dist_x`` to ``dist_y_avg_eps_*``
    in order, at the trace rows ``rows``.

    ``rows`` is a slice, so the iterate and multiplier rows are views.
    """
    x_star, y_star = reference.x, reference.y
    ks = np.arange(1, len(trace) + 1)[rows]

    sums = prefix_sums(trace.y)  # one pass serves every average column

    def dist(points, centre):
        return np.linalg.norm(points - centre, axis=1)

    def dist_mean(kprimes):
        return dist(window_means(sums, ks, kprimes), y_star)

    # Each column is reduced to its norms before the next is built, so
    # at most one full-length temporary is alive at a time.  The running
    # average is the window that starts at 1.
    return [
        dist(trace.x[rows], x_star),
        dist(trace.y[rows], y_star),
        np.full(len(ks), np.nan) if trace.y_true is None else dist(trace.y_true[rows], y_star),
        dist_mean(np.ones_like(ks)),
        *(dist_mean(window_starts(trace.x, eps, ks)) for eps in eps_grid),
    ]


def write_trace_csv(path, trace, reference: ReferenceSolution, eps_grid, thin: int) -> list:
    """Write the thinned trace; return its last row's distances as floats.

    Rows are counted back from the final iterate K: k = ..., K - thin, K
    (k = thin, 2*thin, ..., K when ``thin`` divides K).  Written
    atomically (see :func:`_atomic_writer`).  Lines end in CRLF, as the
    :mod:`csv` module writes them; floats use ``CSV_FLOAT_FMT``.
    """
    rows = slice((len(trace) - 1) % thin, None, thin)  # views: no copy of the trace
    ks = np.arange(1, len(trace) + 1)[rows]
    distances = _distance_columns(trace, reference, eps_grid, rows)
    names = csv_columns(eps_grid)
    columns = distances + [getattr(trace, name)[rows] for name in names[1 + len(distances):]]
    table = np.column_stack(columns)
    template = ",".join(["%d"] + [CSV_FLOAT_FMT] * len(columns)) + "\r\n"
    with _atomic_writer(path) as handle:
        handle.write(",".join(names) + "\r\n")
        # Rows become Python floats a chunk at a time, which bounds the
        # memory the text formatting needs on long traces.
        for start in range(0, len(ks), _CSV_CHUNK_ROWS):
            chunk = slice(start, start + _CSV_CHUNK_ROWS)
            rows_text = zip(ks[chunk].tolist(), table[chunk].tolist())
            handle.writelines(template % (k, *row) for k, row in rows_text)
    return [float(column[-1]) for column in distances]


def write_column_notes(path, eps_grid):
    lines = ["# trace CSV columns (comma-separated, header row, %.17g floats)"]
    lines += [
        f"# column {index}: {name} -- {note}"
        for index, (name, note) in enumerate(_column_notes(eps_grid), start=1)
    ]
    lines += ["", "# example: gnuplot> set logscale y; plot 'trace_seed0.csv' u 1:2 w l"]
    with _atomic_writer(path) as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    reference: ReferenceSolution
    summaries: list[RunSummary]
    out_dir: Path
    trace_paths: list[Path]


def _load_instance(config: ExperimentConfig) -> ConstrainedLogRegInstance:
    if config.dataset is None:
        dataset = load_bundled_dataset()
    else:
        dataset = load_libsvm_file(config.dataset)
    return build_instance(dataset, m_lin=config.mlin, seed=INSTANCE_SEED)


def _check_replicate_fits(config: ExperimentConfig, n: int, m: int) -> None:
    """Raise :class:`MemoryError` if one replicate's trace cannot be
    allocated.  ``np.empty`` reserves address space without touching a
    page, so the check costs no resident memory."""
    np.empty((config.iters, Trace.floats_per_iteration(n, m, config.validate)))


#: Environment variables that cap the BLAS and OpenMP thread pools;
#: ``config.json`` records each as set, or ``null``.
_THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full protocol and write all output files.

    Writes, inside ``config.out``: ``config.json`` (resolved settings,
    library versions, CPU count, thread caps and the reference solve's
    wall time in seconds),
    ``reference.json``, ``columns.txt``, one ``trace_seed<seed>.csv``
    per replicate, and ``summary.json``.
    """
    instance = _load_instance(config)
    if not config.reference_only:
        _check_replicate_fits(config, instance.n, instance.m)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    problem = instance.problem()
    lip_gradf, lip_jac = instance.lipschitz_bounds()
    started = time.perf_counter()
    reference = compute_reference(problem, config.merit(), lip_gradf, lip_jac, tol=config.ref_tol)
    reference_seconds = time.perf_counter() - started

    echo = asdict(config)
    echo.update(
        {
            "resolved_lip_gradf": lip_gradf,
            "resolved_lip_jac": lip_jac,
            "instance_seed": INSTANCE_SEED,
            "instance_n": instance.n,
            "instance_m": instance.m,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "thread_caps": {name: os.environ.get(name) for name in _THREAD_CAPS},
            "reference_seconds": reference_seconds,
        }
    )
    _write_json(out_dir / "config.json", echo, sort_keys=True)
    _write_json(
        out_dir / "reference.json",
        {
            "x": reference.x.tolist(),
            "y": reference.y.tolist(),
            "residual": reference.residual,
            "iterations": reference.iterations,
            "newton_steps": reference.newton_steps,
        },
    )
    write_column_notes(out_dir / "columns.txt", config.eps_grid)

    summaries: list[RunSummary] = []
    trace_paths: list[Path] = []
    if not config.reference_only:
        # The oracle holds no state (each run passes its own generator),
        # so every replicate shares one.
        oracle = exact_oracle(problem) if config.exact else instance.minibatch_oracle()
        for seed in config.seeds:
            summary, path = _run_replicate(
                config, problem, oracle, reference, lip_gradf, lip_jac, seed, out_dir
            )
            summaries.append(summary)
            trace_paths.append(path)
        _write_json(out_dir / "summary.json", [asdict(s) for s in summaries])
    return ExperimentResult(
        reference=reference, summaries=summaries, out_dir=out_dir, trace_paths=trace_paths
    )


def _run_replicate(config, problem, oracle, reference, lip_gradf, lip_jac, seed, out_dir):
    solver_config = SolverConfig(
        merit=config.merit(),
        lip_gradf=lip_gradf,
        lip_jac=lip_jac,
        beta=config.beta_schedule(),
        batch_size=config.batch,
        max_iters=config.iters,
        seed=seed,
        validate=config.validate,
    )
    result = run(problem, oracle, solver_config)
    trace = result.trace

    path = out_dir / f"trace_seed{seed}.csv"
    started = time.perf_counter()
    final = write_trace_csv(path, trace, reference, config.eps_grid, config.thin)
    emit = time.perf_counter() - started

    dist_x, dist_y, dist_y_true, dist_y_avg, *dist_eps = final
    tallies = trace.validation_summary()  # None without validation
    summary = RunSummary(
        seed=seed,
        iterations=len(trace),
        final_dist_x=dist_x,
        final_dist_y=dist_y,
        final_dist_y_true=None if trace.y_true is None else dist_y_true,
        final_dist_y_avg=dist_y_avg,
        final_dist_y_avg_eps={f"{eps:g}": d for eps, d in zip(config.eps_grid, dist_eps)},
        **{f.name: getattr(tallies, f.name, None) for f in fields(ValidationSummary)},
        wall_time=result.wall_time,
        emit_time=emit,
    )
    return summary, path


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

#: Config-file keys of the repeatable flags, with the fields they set.
_LIST_KEYS = {"seed": "seeds", "eps": "eps_grid"}
_FLAG_KEYS = {"validate", "reference_only", "exact"}
_CASTS = {
    "seed": int, "mlin": int, "batch": int, "iters": int, "thin": int,
    "eps": float, "tau": float, "xi": float, "nu": float, "beta1": float, "beta_p": float,
}


def parse_config_file(path) -> dict:
    """Read a plain ``key=value`` file mirroring the CLI flags.

    Keys use flag names (dashes or underscores); ``seed`` and ``eps``
    take comma-separated lists; booleans accept true/false/1/0.  Unknown
    keys and empty values are rejected.  The result maps :class:`ExperimentConfig`
    field names (``seeds``, ``eps_grid``, ...) to the values the file sets.
    """
    known = {"dataset", "out"} | _FLAG_KEYS | _CASTS.keys()
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value.strip(", "):  # also a list of separators only
            raise ConfigError(f"{path}:{lineno}: no value for {key}")
        if key in _FLAG_KEYS:
            if value.lower() not in ("true", "false", "1", "0"):
                raise ConfigError(f"{path}:{lineno}: boolean expected for {key}")
            values[key] = value.lower() in ("true", "1")
        elif key in _CASTS:
            cast = _CASTS[key]
            try:
                if key in _LIST_KEYS:
                    parsed = [cast(p.strip()) for p in value.split(",") if p.strip()]
                else:
                    parsed = cast(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad {cast.__name__} value for {key}: {value!r}"
                ) from None
            values[_LIST_KEYS.get(key, key)] = parsed
        else:
            values[key] = value
    return values


class _ArgumentParser(argparse.ArgumentParser):
    """Flag errors raise :class:`ConfigError`, like every other input error."""

    def error(self, message):
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Every ``dest`` but ``config`` is an
    :class:`ExperimentConfig` field, and a flag that is not given is
    left out of the namespace, so the defaults are the dataclass's."""
    parser = _ArgumentParser(
        prog="stochsqp-experiment",
        description="Run the constrained logistic-regression experiment protocol.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="key=value file; flags override it")
    parser.add_argument("--dataset", help="LIBSVM file (default: bundled slice)")
    parser.add_argument("--mlin", type=int, help="number of affine constraints")
    parser.add_argument("--batch", type=int, help="mini-batch size")
    parser.add_argument("--iters", type=int, help="iteration budget")
    parser.add_argument("--tau", type=float, help="merit parameter")
    parser.add_argument("--xi", type=float, help="ratio parameter")
    parser.add_argument("--nu", type=float, help="reduction fraction")
    parser.add_argument("--beta1", type=float, help="initial damping factor")
    parser.add_argument("--beta-p", dest="beta_p", type=float,
                        help="damping decay exponent, 1/2 < p <= 1")
    parser.add_argument("--seed", dest="seeds", metavar="SEED", action="append", type=int,
                        help="replicate seed (repeatable; default 0)")
    parser.add_argument("--eps", dest="eps_grid", metavar="EPS", action="append", type=float,
                        help="windowed-average radius (repeatable; default 0.01 0.1 1.0)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--thin", type=int, help="record every k-th iteration")
    parser.add_argument("--validate", action="store_true",
                        help="enable exact-gradient shadow solves and trial checks")
    parser.add_argument("--reference-only", dest="reference_only", action="store_true",
                        help="compute and write the reference solution, then stop")
    parser.add_argument("--exact", action="store_true",
                        help="use exact full-batch gradients (zero-variance oracle)")
    return parser


def _count_from(count: int, first: int | None) -> str:
    """A violation count, with the iteration of the first one if any."""
    return f"{count}" if first is None else f"{count} (first at k={first})"


def main(argv=None) -> int:
    try:
        flags = vars(build_arg_parser().parse_args(argv))
        path = flags.pop("config", None)
        settings = {} if path is None else parse_config_file(path)
        config = ExperimentConfig(**{**settings, **flags})
        result = run_experiment(config)
    except (StochSqpError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    except MemoryError as exc:
        # An iteration budget too large to allocate; numpy's message, if
        # any, names the array's size.
        print(f"error: out of memory: {exc}".rstrip(": "))
        return 1

    reference = result.reference
    print(f"reference residual {reference.residual:.3e} after "
          f"{reference.iterations - 1 - reference.newton_steps} first-order + "
          f"{reference.newton_steps} Newton iterations")
    for summary in result.summaries:
        print(
            f"seed {summary.seed}: dist_x {summary.final_dist_x:.3e} "
            f"dist_y {summary.final_dist_y:.3e} dist_y_avg {summary.final_dist_y_avg:.3e} "
            f"({summary.wall_time:.1f}s)"
        )
        if config.validate:
            xi = _count_from(summary.xi_violations, summary.first_xi_violation)
            tau = _count_from(summary.tau_violations, summary.first_tau_violation)
            print(
                f"  violations: xi {xi}, tau {tau}, lbnd {summary.lbnd_violations}, "
                f"alpha > 1 {summary.alpha_above_one}"
            )
    print(f"wrote {result.out_dir}")
    return 0


if __name__ == "__main__":
    print("error: stochsqp.harness is not a command; run python -m stochsqp instead")
    raise SystemExit(1)
