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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import MultiplierTrace, running_averages, windowed_averages
from .errors import ConfigError, ReferenceSolveError, StochSqpError
from .kkt import null_space_basis
from .logreg import ConstrainedLogRegInstance, build_instance, load_bundled_dataset, load_libsvm_file
from .merit import MeritParams, phi
from .problem import Array, Problem, exact_oracle
from .solver import BetaSchedule, SolverConfig, iterate, kkt_residual, run

# The benchmark's traced mode (perfbench/spans.py) looks these names up
# in this module's namespace to wrap them, so they stay bound here
# although nothing in this module calls them.
from .averaging import windowed_average  # noqa: F401
from .kkt import solve_kkt  # noqa: F401
from .solver import step_size  # noqa: F401

#: Seed used to draw the constraint data (A, b, x1); replicate seeds
#: only drive gradient noise, so every replicate sees the same geometry.
INSTANCE_SEED = 0

CSV_FLOAT_FMT = "%.17g"
_CSV_CHUNK_ROWS = 1024


# ---------------------------------------------------------------------------
# reference solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceSolution:
    x: Array
    y: Array
    residual: float
    iterations: int


def compute_reference(
    problem: Problem,
    merit: MeritParams,
    lip_gradf: float,
    lip_jac: float,
    tol: float = 1e-8,
    max_iters: int = 50_000,
    probes: int = 20,
    probe_step: float = 1e-4,
    probe_seed: int = 0,
) -> ReferenceSolution:
    """Exact-gradient solve to high accuracy, with stationarity probes.

    Runs :func:`stochsqp.solver.iterate` with the exact gradient and
    constant unit damping (valid without gradient noise) until the
    first-order residual drops below ``tol``.  The candidate is then
    probed along random tangential directions: the Lagrangian using the
    candidate multiplier must not decrease, which screens out
    saddle-like candidates without needing second derivatives.
    """
    config = SolverConfig(
        merit=merit,
        lip_gradf=lip_gradf,
        lip_jac=lip_jac,
        beta=BetaSchedule("constant"),
        max_iters=max_iters,
    )
    best = math.inf
    for step in iterate(problem, exact_oracle(problem), config):
        residual = kkt_residual(step.g, step.jac, step.c, step.sol.y)
        best = min(best, residual)
        if residual <= tol:
            _probe_tangential_floor(problem, step.x, step.sol.y, probes, probe_step, probe_seed)
            return ReferenceSolution(x=step.x, y=step.sol.y, residual=residual, iterations=step.k)
    raise ReferenceSolveError(
        f"reference solve did not reach {tol:g} in {max_iters} iterations "
        f"(best residual {best:.3e})"
    )


def _probe_tangential_floor(problem, x, y, probes, step, seed):
    """Require the Lagrangian not to decrease along tangential probes."""
    rng = np.random.default_rng(seed)
    basis = null_space_basis(np.asarray(problem.jacobian(x), dtype=float))
    if basis.shape[1] == 0:
        return

    def lagrangian(point):
        return float(problem.objective(point)) + float(
            np.asarray(problem.constraints(point)) @ y
        )

    base = lagrangian(x)
    floor = base - 1e-10 * (1.0 + abs(base))
    for _ in range(probes):
        w = rng.standard_normal(basis.shape[1])
        w /= np.linalg.norm(w)
        direction = basis @ w
        for sign in (1.0, -1.0):
            if lagrangian(x + sign * step * direction) < floor:
                raise ReferenceSolveError(
                    "tangential probe found local descent at the reference candidate"
                )


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment invocation.

    ``dataset=None`` selects the bundled synthetic slice.  ``lip_gradf``
    and ``lip_jac`` default to the instance's certified bounds when left
    unset.  ``exact`` swaps the mini-batch oracle for full-batch exact
    gradients (zero variance).
    """

    dataset: str | None = None
    mlin: int = 10
    batch: int = 16
    iters: int = 100_000
    tau: float = 0.1
    xi: float = 1.0
    nu: float = 0.5
    beta1: float = 1.0
    beta_p: float = 1.0
    seeds: list[int] = field(default_factory=lambda: [0])
    eps_grid: list[float] = field(default_factory=lambda: [0.01, 0.1, 1.0])
    out: str = "runs"
    thin: int = 1
    validate: bool = False
    reference_only: bool = False
    exact: bool = False
    lip_gradf: float | None = None
    lip_jac: float | None = None
    ref_tol: float = 1e-8
    ref_max_iters: int = 50_000
    instance_seed: int = INSTANCE_SEED

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
        for eps in self.eps_grid:
            if not eps > 0:
                raise ConfigError(f"eps values must be > 0, got {eps}")
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

    ``wall_time`` is the solver run and ``emit_time`` the trace CSV
    writing, both in seconds.  The violation counts are ``None`` without
    validation; ``curvature_violations`` is also ``None`` when no
    curvature check ran, which needs problem constants the driver does
    not have.
    """

    seed: int
    iterations: int
    final_dist_x: float
    final_dist_y: float
    final_dist_y_true: float
    final_dist_y_avg: float
    final_dist_y_avg_eps: dict[str, float]
    xi_violations: int | None
    tau_violations: int | None
    lbnd_violations: int | None
    curvature_violations: int | None
    alpha_above_one: int | None
    wall_time: float
    emit_time: float

    def __post_init__(self):
        distances = [self.final_dist_x, self.final_dist_y, self.final_dist_y_avg]
        if any(d < 0 for d in distances if not math.isnan(d)):
            raise ValueError("distances must be nonnegative")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


#: Trace scalars written as-is, in column order after the distances.
_SCALAR_COLUMNS = (
    "resid_true", "norm_c", "alpha", "beta", "xi_trial", "tau_trial_true", "lbnd_slack",
)


def csv_columns(eps_grid) -> list[str]:
    return (
        ["k", "dist_x", "dist_y", "dist_y_true", "dist_y_avg"]
        + [f"dist_y_avg_eps_{eps:g}" for eps in eps_grid]
        + list(_SCALAR_COLUMNS)
    )


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
        json.dump(obj, handle, indent=2, **options)
        handle.write("\n")


def write_trace_csv(path, trace, reference: ReferenceSolution, eps_grid, thin: int):
    """Write the thinned per-iteration trace (rows at k = thin, 2*thin, ...).

    Written atomically (see :func:`_atomic_writer`).  Lines end in CRLF,
    as the :mod:`csv` module writes them; floats use ``CSV_FLOAT_FMT``.
    """
    x_star, y_star = reference.x, reference.y
    ks = np.arange(thin, len(trace) + 1, thin)
    rows = slice(thin - 1, None, thin)  # views: no copy of the trace

    def dist(points, centre):
        return np.linalg.norm(points - centre, axis=1)

    # Each column is reduced to its norms before the next is built, so
    # at most one full-length temporary is alive at a time.
    columns = [
        dist(trace.x[rows], x_star),
        dist(trace.y[rows], y_star),
        np.full(len(ks), np.nan) if trace.y_true is None else dist(trace.y_true[rows], y_star),
        dist(running_averages(trace.y)[rows], y_star),
        *(dist(windowed_averages(trace.x, trace.y, eps, ks)[0], y_star) for eps in eps_grid),
        *(getattr(trace, name)[rows] for name in _SCALAR_COLUMNS),
    ]
    table = np.column_stack(columns)
    template = ",".join(["%d"] + [CSV_FLOAT_FMT] * len(columns)) + "\r\n"
    with _atomic_writer(path) as handle:
        handle.write(",".join(csv_columns(eps_grid)) + "\r\n")
        # Rows become Python floats a chunk at a time, which bounds the
        # memory the text formatting needs on long traces.
        for start in range(0, len(ks), _CSV_CHUNK_ROWS):
            chunk = slice(start, start + _CSV_CHUNK_ROWS)
            rows_text = zip(ks[chunk].tolist(), table[chunk].tolist())
            handle.writelines(template % (k, *row) for k, row in rows_text)


_COLUMN_NOTES = {
    "k": "iteration number (1-based; rows are every `thin`-th iteration)",
    "dist_x": "||x_k - x*||_2, primal distance to the reference solution",
    "dist_y": "||y_k - y*||_2, per-iteration multiplier error",
    "dist_y_true": "||y_k_exact - y*||_2, multiplier error of the exact-gradient shadow solve (nan unless --validate)",
    "dist_y_avg": "||mean(y_1..y_k) - y*||_2, running-average multiplier error",
    "resid_true": "||grad f + jac' y_exact||_2 + ||c||_2 at x_k (nan unless --validate)",
    "norm_c": "||c(x_k)||_2, constraint violation",
    "alpha": "step size used at iteration k",
    "beta": "damping factor used at iteration k",
    "xi_trial": "largest admissible ratio parameter at iteration k (inf for a zero step)",
    "tau_trial_true": "largest admissible merit parameter from the exact-gradient step (nan unless --validate)",
    "lbnd_slack": "slack in the guaranteed-reduction inequality (nan unless --validate)",
}


def write_column_notes(path, eps_grid):
    lines = ["# trace CSV columns (comma-separated, header row, %.17g floats)"]
    index = 1
    for name in csv_columns(eps_grid):
        note = _COLUMN_NOTES.get(name)
        if note is None:
            eps = name.rsplit("_", 1)[1]
            note = f"windowed-average multiplier error with window radius eps={eps}"
        lines.append(f"# column {index}: {name} -- {note}")
        index += 1
    lines.append("")
    lines.append("# example: gnuplot> set logscale y; plot 'trace_seed0.csv' u 1:2 w l")
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
    return build_instance(dataset, m_lin=config.mlin, seed=config.instance_seed)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full protocol and write all output files.

    Writes, inside ``config.out``: ``config.json`` (resolved settings),
    ``reference.json``, ``columns.txt``, one ``trace_seed<seed>.csv``
    per replicate, and ``summary.json``.
    """
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    instance = _load_instance(config)
    problem = instance.problem()
    lip_gradf, lip_jac = instance.lipschitz_bounds()
    if config.lip_gradf is not None:
        lip_gradf = config.lip_gradf
    if config.lip_jac is not None:
        lip_jac = config.lip_jac
    merit = config.merit()

    reference = compute_reference(
        problem,
        merit,
        lip_gradf,
        lip_jac,
        tol=config.ref_tol,
        max_iters=config.ref_max_iters,
    )

    echo = asdict(config)
    echo.update(
        {
            "resolved_lip_gradf": lip_gradf,
            "resolved_lip_jac": lip_jac,
            "instance_n": instance.n,
            "instance_m": instance.m,
            "package_version": __version__,
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
        },
    )
    write_column_notes(out_dir / "columns.txt", config.eps_grid)

    summaries: list[RunSummary] = []
    trace_paths: list[Path] = []
    if not config.reference_only:
        for seed in config.seeds:
            summary, path = _run_replicate(
                config, instance, problem, reference, lip_gradf, lip_jac, seed, out_dir
            )
            summaries.append(summary)
            trace_paths.append(path)
        _write_json(out_dir / "summary.json", [asdict(s) for s in summaries])
    return ExperimentResult(
        reference=reference, summaries=summaries, out_dir=out_dir, trace_paths=trace_paths
    )


def _run_replicate(config, instance, problem, reference, lip_gradf, lip_jac, seed, out_dir):
    oracle = instance.full_batch_oracle() if config.exact else instance.minibatch_oracle()
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
    started = time.perf_counter()
    result = run(problem, oracle, solver_config)
    wall = time.perf_counter() - started

    path = out_dir / f"trace_seed{seed}.csv"
    started = time.perf_counter()
    write_trace_csv(path, result.trace, reference, config.eps_grid, config.thin)
    emit = time.perf_counter() - started

    trace = result.trace
    mult = MultiplierTrace.from_run(trace)
    final_k = len(trace)
    final_eps = {}
    for eps in config.eps_grid:
        w_avg, _ = mult.windowed_average(eps, final_k)
        final_eps[f"{eps:g}"] = float(np.linalg.norm(w_avg - reference.y))
    if trace.y_true is not None:
        final_dy_true = float(np.linalg.norm(trace.y_true[-1] - reference.y))
    else:
        final_dy_true = math.nan
    vs = result.summary
    summary = RunSummary(
        seed=seed,
        iterations=final_k,
        final_dist_x=float(np.linalg.norm(trace.x[-1] - reference.x)),
        final_dist_y=float(np.linalg.norm(trace.y[-1] - reference.y)),
        final_dist_y_true=final_dy_true,
        final_dist_y_avg=float(np.linalg.norm(mult.running_average(final_k) - reference.y)),
        final_dist_y_avg_eps=final_eps,
        xi_violations=None if vs is None else vs.xi_violations,
        tau_violations=None if vs is None else vs.tau_violations,
        lbnd_violations=None if vs is None else vs.lbnd_violations,
        curvature_violations=None if vs is None else vs.curvature_violations,
        alpha_above_one=None if vs is None else vs.alpha_above_one,
        wall_time=wall,
        emit_time=emit,
    )
    return summary, path


# ---------------------------------------------------------------------------
# merit-gap growth diagnostic
# ---------------------------------------------------------------------------


@dataclass
class PlReport:
    """Sampled merit-gap-to-stationarity ratios near a reference point.

    ``max_ratio`` is an empirical lower bound for the proportionality
    constant relating the merit gap to ``tau * ||reduced grad||^2 +
    ||c||``; ``witnesses`` are sampled points where the gap is positive
    but the denominator vanishes, i.e. where no such constant exists.
    """

    max_ratio: float
    n_ratios: int
    witnesses: list[Array]


def pl_diagnostic(
    problem: Problem,
    x_star: Array,
    tau: float,
    samples: int,
    radius: float,
    rng: np.random.Generator,
    extra_points: list[Array] | None = None,
) -> PlReport:
    """Sample the ball around ``x_star`` and measure the merit-gap ratio.

    Points are drawn uniformly from the ball of the given radius.  The
    ratio is only formed where the denominator exceeds 1e-14; points
    with a positive gap and a vanishing denominator are returned as
    violation witnesses.  Random sampling cannot hit measure-zero
    violation sets, so suspected witnesses may be passed explicitly via
    ``extra_points``.
    """
    x_star = np.asarray(x_star, dtype=float)
    base = phi(tau, float(problem.objective(x_star)), problem.constraints(x_star))
    gap_floor = 1e-12 * (1.0 + abs(base))

    points = []
    for _ in range(samples):
        direction = rng.standard_normal(problem.n)
        direction /= np.linalg.norm(direction)
        points.append(x_star + radius * rng.uniform() ** (1.0 / problem.n) * direction)
    points.extend(np.asarray(p, dtype=float) for p in (extra_points or []))

    max_ratio = math.nan
    n_ratios = 0
    witnesses: list[Array] = []
    for x in points:
        c = np.asarray(problem.constraints(x), dtype=float)
        gap = phi(tau, float(problem.objective(x)), c) - base
        basis = null_space_basis(np.asarray(problem.jacobian(x), dtype=float))
        reduced = basis.T @ np.asarray(problem.gradient(x), dtype=float)
        denom = tau * float(reduced @ reduced) + float(np.linalg.norm(c))
        if denom > 1e-14:
            ratio = gap / denom
            n_ratios += 1
            if math.isnan(max_ratio) or ratio > max_ratio:
                max_ratio = ratio
        elif gap > gap_floor:
            witnesses.append(x)
    return PlReport(max_ratio=max_ratio, n_ratios=n_ratios, witnesses=witnesses)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_LIST_KEYS = {"seed", "eps"}
_FLAG_KEYS = {"validate", "reference_only", "exact"}
_CASTS = {
    "seed": int, "mlin": int, "batch": int, "iters": int, "thin": int,
    "eps": float, "tau": float, "xi": float, "nu": float, "beta1": float, "beta_p": float,
}


def parse_config_file(path) -> dict:
    """Read a plain ``key=value`` file mirroring the CLI flags.

    Keys use flag names (dashes or underscores); ``seed`` and ``eps``
    accept comma-separated lists; booleans accept true/false/1/0.
    Unknown keys are rejected.
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
        if key in _FLAG_KEYS:
            if value.lower() not in ("true", "false", "1", "0"):
                raise ConfigError(f"{path}:{lineno}: boolean expected for {key}")
            values[key] = value.lower() in ("true", "1")
        elif key in _CASTS:
            cast = _CASTS[key]
            try:
                if key in _LIST_KEYS:
                    values[key] = [cast(p.strip()) for p in value.split(",") if p.strip()]
                else:
                    values[key] = cast(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: bad {cast.__name__} value for {key}: {value!r}"
                ) from None
        else:
            values[key] = value
    return values


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochsqp-experiment",
        description="Run the constrained logistic-regression experiment protocol.",
    )
    parser.add_argument("--config", default=None, help="key=value file; flags override it")
    parser.add_argument("--dataset", default=None, help="LIBSVM file (default: bundled slice)")
    parser.add_argument("--mlin", type=int, default=10, help="number of affine constraints")
    parser.add_argument("--batch", type=int, default=16, help="mini-batch size")
    parser.add_argument("--iters", type=int, default=100_000, help="iteration budget")
    parser.add_argument("--tau", type=float, default=0.1, help="merit parameter")
    parser.add_argument("--xi", type=float, default=1.0, help="ratio parameter")
    parser.add_argument("--nu", type=float, default=0.5, help="reduction fraction")
    parser.add_argument("--beta1", type=float, default=1.0, help="initial damping factor")
    parser.add_argument("--beta-p", dest="beta_p", type=float, default=1.0,
                        help="damping decay exponent, 1/2 < p <= 1")
    parser.add_argument("--seed", action="append", type=int, default=None,
                        help="replicate seed (repeatable; default 0)")
    parser.add_argument("--eps", action="append", type=float, default=None,
                        help="windowed-average radius (repeatable; default 0.01 0.1 1.0)")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--thin", type=int, default=1, help="record every k-th iteration")
    parser.add_argument("--validate", action="store_true",
                        help="enable exact-gradient shadow solves and trial checks")
    parser.add_argument("--reference-only", dest="reference_only", action="store_true",
                        help="compute and write the reference solution, then stop")
    parser.add_argument("--exact", action="store_true",
                        help="use exact full-batch gradients (zero-variance oracle)")
    return parser


def config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=args.dataset,
        mlin=args.mlin,
        batch=args.batch,
        iters=args.iters,
        tau=args.tau,
        xi=args.xi,
        nu=args.nu,
        beta1=args.beta1,
        beta_p=args.beta_p,
        seeds=args.seed if args.seed else [0],
        eps_grid=args.eps if args.eps else [0.01, 0.1, 1.0],
        out=args.out,
        thin=args.thin,
        validate=args.validate,
        reference_only=args.reference_only,
        exact=args.exact,
    )


def main(argv=None) -> int:
    parser = build_arg_parser()
    pre, _ = parser.parse_known_args(argv)
    try:
        if pre.config is not None:
            parser.set_defaults(**parse_config_file(pre.config))
        args = parser.parse_args(argv)
        config = config_from_args(args)
        result = run_experiment(config)
    except (StochSqpError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1

    print(f"reference residual {result.reference.residual:.3e} "
          f"after {result.reference.iterations} iterations")
    for summary in result.summaries:
        print(
            f"seed {summary.seed}: dist_x {summary.final_dist_x:.3e} "
            f"dist_y {summary.final_dist_y:.3e} dist_y_avg {summary.final_dist_y_avg:.3e} "
            f"({summary.wall_time:.1f}s)"
        )
        if config.validate:
            curvature = summary.curvature_violations
            print(
                f"  violations: xi {summary.xi_violations}, tau {summary.tau_violations}, "
                f"lbnd {summary.lbnd_violations}, "
                f"curvature {'n/a' if curvature is None else curvature}, "
                f"alpha > 1 {summary.alpha_above_one}"
            )
    print(f"wrote {result.out_dir}")
    return 0
