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
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .averaging import prefix_sums, window_means, window_starts
from .errors import ConfigError, CurvatureError, EvaluationError, ReferenceSolveError, StochSqpError
from .kkt import null_space_basis, solve_kkt
from .logreg import INSTANCE_SEED, M_LIN, ConstrainedLogRegInstance, build_instance
from .logreg import load_bundled_dataset, load_libsvm_file
from .merit import phi, reduction_from_products, tau_trial_from_products
from .problem import Array, Problem, all_finite, exact_oracle
from .solver import (
    SolverConfig, Trace, ValidationSummary, kkt_residual, rows_per_block, run, step_size,
    subproblem,
)

# The benchmark's traced mode (perfbench/spans.py) looks this name up
# in this module's namespace to wrap it, so it stays bound here
# although nothing in this module calls it.
from .averaging import windowed_average  # noqa: F401

CSV_FLOAT_FMT = "%.17g"
#: The name of an eps value in CSV columns and summary keys.
_eps_label = "{:g}".format
_CSV_CHUNK_ROWS = 1024


# ---------------------------------------------------------------------------
# reference solve
# ---------------------------------------------------------------------------


#: Iterations the reference solve takes before it gives up.
REFERENCE_MAX_ITERS = 50_000
#: The reference solve stalls, and gives up, once its best residual has
#: not fallen by ``_STALL_DROP`` of itself in ``_STALL_ITERS`` iterates.
_STALL_ITERS = 1000
_STALL_DROP = 1e-3
#: First-order residual the reference solve stops at.
REFERENCE_TOL = 1e-8
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
    problem: Problem, config: SolverConfig, tol: float = REFERENCE_TOL
) -> ReferenceSolution:
    """Exact-gradient solve to high accuracy, with a second-order check.

    It reads the step rule of ``config`` (``tau``, ``xi``, ``nu``,
    ``lip_gradf`` and ``lip_jac``) at unit damping, so one config serves
    the reference solve and the run; it ignores ``beta_p``,
    ``batch_size``, ``max_iters``, ``seed`` and ``validate``.

    Returns the first iterate, of at most ``REFERENCE_MAX_ITERS``, whose
    first-order residual is at most ``tol`` (finite and positive); the
    solve gives up sooner once its best residual stalls, having fallen
    by less than ``_STALL_DROP`` of itself in ``_STALL_ITERS`` iterates,
    as it does on a problem without a feasible point.  Each
    iterate is evaluated by :func:`stochsqp.solver.subproblem` with the
    exact oracle.  With a ``lagrangian_hessian``, each step from ``x0``
    on is a Newton step on the KKT system, globalized by a backtracking
    line search on :func:`stochsqp.merit.phi` (Nocedal & Wright,
    *Numerical Optimization*, 2nd ed., Algorithm 18.3; see
    :func:`_newton_step`), after which the pair is ``(x + alpha d,
    y_new)``.  Without one, or where that step fails, the step is that
    subproblem's with constant unit damping (valid without gradient
    noise), and the next iterate is paired with its own multiplier.  So
    a problem whose Hessian never yields an accepted step gets the
    iterates of :func:`~stochsqp.solver.iterate` bit for bit: both take
    the same step function.

    The Lagrangian Hessian is evaluated once per iterate, as soon as its
    multiplier is known: after a Newton step before the subproblem,
    otherwise right after it.  The Newton step and the second-order
    check both take that one.  On the logistic-regression instances the
    Hessian's pass reuses the margins that the line search's objective
    left at the accepted point and also sums the gradient that the
    subproblem then takes, so an iterate reached by a Newton step reads
    the features twice, not five times.

    The candidate must then pass :func:`_check_second_order`, which
    rejects saddle points and constrained maxima.
    """
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    oracle = exact_oracle(problem)
    row = oracle.draw(None, 1, 1)[0]  # empty: the exact oracle needs no generator
    alpha = step_size(config, 1.0)  # the identity-model step's
    x = np.array(problem.x0, dtype=float)
    y = f = None  # after a Newton step, its multiplier and the objective at x
    tau, newton_steps, best = config.tau, 0, math.inf
    mark, marked_at = math.inf, 0  # the best residual as of its last real drop
    for k in range(1, REFERENCE_MAX_ITERS + 1):
        # The multiplier is known only after a Newton step, and then the
        # Hessian comes first: its pass sums the gradient the subproblem takes.
        hess = None if y is None else _lagrangian_hessian(problem, x, y)
        c, jac, grad, _, identity = subproblem(problem, oracle, row, x, k)
        if y is None:
            y = identity.y
            hess = _lagrangian_hessian(problem, x, y)
        residual = kkt_residual(grad, jac, c, y)
        if residual <= tol:
            _check_second_order(problem, x, y, jac, grad, hess)
            return ReferenceSolution(x, y, residual, k, newton_steps)
        best = min(best, residual)
        if best < (1 - _STALL_DROP) * mark:
            mark, marked_at = best, k
        elif k - marked_at >= _STALL_ITERS:
            raise ReferenceSolveError(
                f"reference solve stalled at iteration {k}: the best residual "
                f"{best:.3e} fell by less than {_STALL_DROP:.1%} in {_STALL_ITERS} iterations"
            )

        step = _newton_step(problem, config.nu, tau, x, f, grad, jac, c, hess)
        if step is None:
            x, y, f = x + alpha * identity.d, None, None
            if not all_finite(x):
                raise EvaluationError(f"iteration {k}: iterate became non-finite")
        else:
            x, y, f, tau = step
            newton_steps += 1
    raise ReferenceSolveError(
        f"reference solve did not reach {tol:g} in {REFERENCE_MAX_ITERS} iterations "
        f"(best residual {best:.3e})"
    )


def _lagrangian_hessian(problem: Problem, x: Array, y: Array) -> Array | None:
    """The Lagrangian Hessian at ``(x, y)``, or ``None`` without one."""
    if problem.lagrangian_hessian is None:
        return None
    return np.asarray(problem.lagrangian_hessian(x, y), dtype=float)


def _newton_step(problem, nu, tau, x, f, grad, jac, c, hess):
    """One Newton step from ``x`` with a backtracking line search.

    The subproblem is solved with the symmetric part of ``hess``, the
    Lagrangian Hessian ``H`` at ``x`` and its multiplier.  The merit
    parameter is lowered to ``min(tau, tau_trial)``, and the step length
    halves from 1 until ``phi`` falls by ``_ARMIJO`` times the length
    times the model reduction.  Returns ``(x_new, y_new, f(x_new),
    tau)``, or ``None`` when ``hess`` is ``None`` (the problem has no
    ``lagrangian_hessian``), ``H`` is not finite, ``z' H z`` is not
    positive definite or the length falls below ``_MIN_STEP``.  ``f``
    is the objective at ``x``, ``None`` if not evaluated yet.
    """
    if hess is None or not np.isfinite(hess).all():
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


def _check_second_order(
    problem: Problem, x: Array, y: Array, jac: Array, grad: Array, hess: Array | None
) -> Array:
    """Require ``z' H z`` to be positive semidefinite at ``(x, y)``.

    ``H`` is ``hess``, the Hessian of the Lagrangian at ``(x, y)``, and
    ``z`` an orthonormal basis of the null space of ``jac`` (the
    Jacobian at ``x``; ``grad`` is the gradient there): the second-order
    condition on the whole tangent space (Nocedal & Wright, *Numerical
    Optimization*, 2nd ed., Thms 12.5, 12.6).  With ``hess`` ``None``
    (no ``lagrangian_hessian``), ``H z`` comes from forward
    differences of ``grad f + jac' y`` along the columns of ``z``.  The
    eigenvalue floor ``-1e-6 max(1, max|lambda|)`` leaves room for the
    difference error, about 1e-8.  Returns the eigenvalues of the
    symmetrized ``z' H z`` in ascending order (none when ``m == n``).
    """
    z = null_space_basis(jac)
    if z.shape[1] == 0:
        return np.empty(0)
    if hess is not None:
        reduced = z.T @ hess @ z
    else:
        h = math.sqrt(np.finfo(float).eps) * max(1.0, float(np.linalg.norm(x)))
        base, hz = grad + jac.T @ y, []
        for point in x + h * z.T:  # x + h z_j for each column z_j of z
            jac_at = np.asarray(problem.jacobian(point), dtype=float)
            hz.append(np.asarray(problem.gradient(point), dtype=float) + jac_at.T @ y - base)
        reduced = z.T @ np.column_stack(hz) / h
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one experiment invocation.

    ``dataset=None`` selects the bundled synthetic slice.  The step-size
    rule uses the instance's certified Lipschitz bounds, the constraint
    data is drawn with ``INSTANCE_SEED`` and the reference solve stops at
    ``REFERENCE_TOL`` within ``REFERENCE_MAX_ITERS`` iterations.  ``exact``
    (full-batch gradients) also admits ``beta_p <= 1/2``, 0 being constant damping.
    """

    dataset: str | None = None
    mlin: int = M_LIN
    batch: int = SolverConfig.batch_size
    iters: int = 100_000
    tau: float = SolverConfig.tau
    xi: float = SolverConfig.xi
    nu: float = SolverConfig.nu
    beta_p: float = SolverConfig.beta_p
    seeds: tuple[int, ...] = (0,)
    eps_grid: tuple[float, ...] = (0.01, 0.1, 1.0)
    out: str = "runs"
    thin: int = 1
    validate: bool = False
    reference_only: bool = False
    exact: bool = False
    ref_tol = REFERENCE_TOL  # not a field: for readers that check the written reference

    def __post_init__(self):
        # Lists, as the CLI's repeatable flags give them, become tuples:
        # the value stays frozen and hashable.
        for name in ("seeds", "eps_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
            raise ConfigError(f"seeds must not repeat, got {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        for eps in self.eps_grid:
            if not 0 < eps < math.inf:
                raise ConfigError(f"eps values must be finite and > 0, got {eps}")
        labels = list(map(_eps_label, self.eps_grid))
        if len(set(labels)) < len(labels):
            raise ConfigError(f"eps values must have distinct labels, got {labels}")
        # Built here only to reject bad values before any output.
        self.solver_config().check_oracle(self.exact)

    def solver_config(self) -> SolverConfig:
        """The replicates' solver settings, with the library's default
        Lipschitz bounds and seed; :func:`run_experiment` sets those."""
        return SolverConfig(
            tau=self.tau, xi=self.xi, nu=self.nu,
            beta_p=self.beta_p,
            batch_size=self.batch,
            max_iters=self.iters,
            validate=self.validate,
        )


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
        for label in (map(_eps_label, eps_grid) if "{eps}" in name else [None])
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


def distance_columns(trace, reference: ReferenceSolution, eps_grid, rows) -> list:
    """The trace CSV's distance columns, ``dist_x`` to ``dist_y_avg_eps_*``
    in order, at the 0-based trace rows ``rows``.

    The one code that turns a trace into distances to the reference:
    the trace CSV, the summary and every other reader call it.  ``rows``
    is a slice, whose iterate and multiplier rows are views, or an index
    array.
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
    distances = distance_columns(trace, reference, eps_grid, rows)
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
    lines = [f"# trace CSV columns (comma-separated, header row, {CSV_FLOAT_FMT} floats)"]
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
    """Raise :class:`MemoryError` if one replicate's trace and step schedule
    (``beta`` and ``alpha``, 2 floats per iteration) or, unless ``exact``,
    a mini-batch's ``(batch, n)`` row gather together with the block of
    indices it is drawn from cannot be allocated.
    ``np.empty`` reserves address space without touching a page."""
    np.empty((config.iters, Trace.floats_per_iteration(n, m, config.validate) + 2))
    if not config.exact:
        block = (min(rows_per_block(config.batch), config.iters), config.batch)
        _ = np.empty((config.batch, n)), np.empty(block, dtype=np.int64)  # alive together


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

    problem = instance.problem()
    lip_gradf, lip_jac = instance.lipschitz_bounds()
    solver_config = replace(config.solver_config(), lip_gradf=lip_gradf, lip_jac=lip_jac)
    started = time.perf_counter()
    reference = compute_reference(problem, solver_config)
    reference_seconds = time.perf_counter() - started
    out_dir = Path(config.out)  # made only now, so a failed solve leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)

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
                config, problem, oracle, reference, replace(solver_config, seed=seed), out_dir
            )
            summaries.append(summary)
            trace_paths.append(path)
        _write_json(out_dir / "summary.json", [asdict(s) for s in summaries])
    return ExperimentResult(
        reference=reference, summaries=summaries, out_dir=out_dir, trace_paths=trace_paths
    )


def _run_replicate(config, problem, oracle, reference, solver_config, out_dir):
    trace = run(problem, oracle, solver_config)
    seed = solver_config.seed

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
        final_dist_y_avg_eps={_eps_label(eps): d for eps, d in zip(config.eps_grid, dist_eps)},
        **{f.name: getattr(tallies, f.name, None) for f in fields(ValidationSummary)},
        wall_time=trace.wall_time,
        emit_time=emit,
    )
    return summary, path


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def parse_config_file(path) -> dict:
    """Read a plain ``key=value`` file mirroring the CLI flags.

    A key is a flag of :func:`build_arg_parser` without its ``--``, with
    dashes or underscores (``beta-p``, ``beta_p``); ``help`` and
    ``config`` are not keys.  Each line is parsed by that flag, so its
    value is converted and rejected as on the command line, and every
    error starts ``path:line:``.  A key may be named once, in either
    spelling.  The repeatable flags (``seed``, ``eps``) take
    comma-separated lists; switches take true/false/1/0.  A ``#``
    starts a comment only at a line's start or after whitespace.  Empty
    values are rejected.  The result maps :class:`ExperimentConfig` field
    names (``seeds``, ``eps_grid``, ...) to the values the file sets.
    """
    parser = build_arg_parser()
    values: dict = {}
    first_lines: dict = {}  # flag -> line that named it
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}:"
        if "=" not in line:
            raise ConfigError(f"{where} expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        action = parser._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise ConfigError(f"{where} unknown key {key!r}")
        if flag in first_lines:
            raise ConfigError(f"{where} key {key!r} repeated (first on line {first_lines[flag]})")
        first_lines[flag] = lineno
        if not value.strip(", "):  # also a list of separators only
            raise ConfigError(f"{where} no value for {key}")
        if action.nargs == 0:
            if value.lower() not in ("true", "false", "1", "0"):
                raise ConfigError(f"{where} boolean expected for {key}")
            values[action.dest] = value.lower() in ("true", "1")
            continue
        parts = value.split(",") if isinstance(action, argparse._AppendAction) else [value]
        tokens = [f"{flag}={part.strip()}" for part in parts if part.strip()]
        try:
            values.update(vars(parser.parse_args(tokens)))
        except ConfigError as exc:
            raise ConfigError(f"{where} {exc}") from None
    return values


class _ArgumentParser(argparse.ArgumentParser):
    """Flag errors raise :class:`ConfigError`, like every other input error."""

    def error(self, message):
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Every ``dest`` but ``config`` is an
    :class:`ExperimentConfig` field, and a flag that is not given is
    left out of the namespace, so the defaults are the dataclass's."""
    defaults = ExperimentConfig()
    seeds, radii = (" ".join(map(str, values)) for values in (defaults.seeds, defaults.eps_grid))
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
    parser.add_argument("--beta-p", dest="beta_p", type=float,
                        help="damping decay exponent, beta_k = k**-p with 0 <= p <= 1 "
                             "(p <= 1/2 needs --exact)")
    parser.add_argument("--seed", dest="seeds", metavar="SEED", action="append", type=int,
                        help=f"replicate seed (repeatable; default {seeds})")
    parser.add_argument("--eps", dest="eps_grid", metavar="EPS", action="append", type=float,
                        help=f"windowed-average radius (repeatable; default {radii})")
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
        # A diverging run overflows before the loop's finiteness guards
        # turn it into an EvaluationError; only that error line is printed.
        with np.errstate(over="ignore"):
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
