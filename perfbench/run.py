"""Benchmark of the stochsqp experiment protocol.

Run from the repository root::

    python3 perfbench/run.py --workload bundled-validate --seed 0 --seconds 30 --trace 0

Each invocation is one fresh process running one workload through the
public entry point ``stochsqp.harness.run_experiment``, as the
``stochsqp-experiment`` CLI does. The load is one closed-loop caller:
experiments run one after another, never concurrently.

``--trace 0`` runs whole experiments back to back while the next one is
expected to end within ``--seconds`` (always at least one), checks every
output, and prints the end-to-end metrics. On a shared 2-vCPU host the
speed of the whole machine changed by up to 1.7x in phases of seconds
to minutes, and a slow phase could cover a whole run, so neither the
median nor the fastest sample of a run was steady from run to run.
The host's speed is therefore sampled with fixed calibration kernels
(``calibrate.py``) before and after each timed operation (an
experiment, or a set-up probe) and, from a timer, every 0.2 s while the
experiments run. Each time has the kernel runs inside it taken out and
is rescaled to a reference host speed. Each time metric is the median of
the run's rescaled samples; the raw wall-time medians are printed too.

``--trace 1`` runs one experiment untraced and then the same experiment
with a span around every call into a package module, and prints the
per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# The thread cap must be in the environment before numpy loads OpenBLAS.
# On a 2-core machine the default of two OpenBLAS threads made an
# a9a-shaped iteration take 16.7-20.2 ms against 3.75-4.18 ms with one,
# so an uncapped figure measures the scheduler rather than the solver.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from calibrate import HostSpeed  # noqa: E402
from workloads import SMOKE_ITERS, WORKLOADS, prepare_inputs, replicate_seed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench"

DEFAULT_SEED = 0
SETUP_REPEATS = 7  # fresh processes whose median start-up is setup_s
SPEED_INTERVAL_S = 0.2  # period of the host-speed timer during experiments
PROBE_TIMEOUT_S = 120


class Experiment(NamedTuple):
    index: int  # position in the run; selects the replicate seeds
    config: object  # stochsqp.harness.ExperimentConfig
    result: object  # stochsqp.harness.ExperimentResult, None if it raised
    # (start, end) on time.perf_counter of the run_experiment call, of its
    # compute_reference calls and of its solver.run calls, one per replicate.
    span: tuple
    reference_spans: list
    solve_spans: list

    @property
    def experiment_s(self):
        return self.span[1] - self.span[0]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="stochsqp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shortened inputs, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure_setup(args):
    """Median time from launching a fresh process until it has imported
    stochsqp and made the inputs, rescaled to the reference host speed.

    The probe prints when it is ready on CLOCK_MONOTONIC, which is
    system-wide, so its exit and the wait for it are not counted.
    Returns ``(rescaled median, raw median)``.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    speed = HostSpeed(SPEED_INTERVAL_S, WORKLOADS[args.workload].stream_share)
    speed.sample()
    times, rescaled = [], []
    for _ in range(SETUP_REPEATS):
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run(command, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                               stdout=subprocess.PIPE, text=True)
        times.append(float(probe.stdout.split()[-1]) - started)
        speed.sample()
        rescaled.append(times[-1] / statistics.fmean(speed.slowness()[-2:]))
    return statistics.median(rescaled), statistics.median(times)


def environment(args):
    import numpy
    import scipy
    import stochsqp

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "stochsqp": stochsqp.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_cap": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
    }


def make_config(args, workload, dataset_path, index, out):
    from stochsqp.harness import ExperimentConfig

    first = replicate_seed(args.seed, index * workload.replicates)
    return ExperimentConfig(
        dataset=dataset_path,
        mlin=10,
        batch=16,
        iters=SMOKE_ITERS if args.smoke else workload.iters,
        thin=workload.thin,
        validate=workload.validate,
        seeds=list(range(first, first + workload.replicates)),
        out=str(out),
    )


def run_timed(index, config, recorder=None):
    """Run one experiment, timing it, its reference solve and its solves."""
    from stochsqp import harness
    from stochsqp.errors import StochSqpError

    def timed(function, spans):
        def wrapper(*a, **kw):
            started = time.perf_counter()
            try:
                return function(*a, **kw)
            finally:
                spans.append((started, time.perf_counter()))
        return wrapper

    reference_spans, solve_spans = [], []
    originals = {"compute_reference": harness.compute_reference, "run": harness.run}
    entry = harness.run_experiment
    if recorder is not None:
        entry = recorder.span("harness.run_experiment", entry)
    harness.compute_reference = timed(originals["compute_reference"], reference_spans)
    harness.run = timed(originals["run"], solve_spans)
    started = time.perf_counter()
    try:
        result = entry(config)
    except StochSqpError as exc:
        print(f"experiment failed: {type(exc).__name__}: {exc}")
        result = None
    finally:
        ended = time.perf_counter()
        for name, function in originals.items():
            setattr(harness, name, function)
    return Experiment(index, config, result, (started, ended), reference_spans, solve_spans)


def check_outputs(args, experiments, dataset):
    """Check every output; return ``(passed, description)`` per operation.

    Operations are the reference solve, each replicate and each check.
    """
    from gate import check_experiment
    from stochsqp.harness import INSTANCE_SEED
    from stochsqp.logreg import build_instance

    problem = build_instance(dataset, m_lin=10, seed=INSTANCE_SEED).problem()
    recorded = json.loads((BENCH_DIR / "expected.json").read_text())
    checks = []
    for e in experiments:
        ran = e.result is not None
        checks.append((ran, f"reference solve ({e.config.out})"))
        checks += [(ran, f"replicate seed {seed} ({e.config.out})") for seed in e.config.seeds]
        if not ran:
            continue
        expected = None
        if args.seed == DEFAULT_SEED and e.index == 0 and not args.smoke:
            expected = recorded[args.workload]
        checks += [
            (ok, f"{what} ({e.config.out})")
            for ok, what in check_experiment(Path(e.config.out), e.config, problem, expected)
        ]
    return checks


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stochsqp" / "__init__.py").is_file():
        print(f"error: no stochsqp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stochsqp  # noqa: F401  (part of what setup_s measures)

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        prepare_inputs(workload, args.seed, args.smoke,
                       OUT_ROOT / f"{args.workload}-seed{args.seed}-probe")
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    from gate import summary_distances
    from spans import SpanRecorder
    from stochsqp.logreg import load_bundled_dataset, load_libsvm_file

    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(args)
    dataset_path = prepare_inputs(workload, args.seed, args.smoke, run_dir)

    experiments = []
    recorder = None
    if args.trace:
        plain = make_config(args, workload, dataset_path, 0, run_dir / "exp0-plain")
        experiments.append(run_timed(0, plain))
        traced = make_config(args, workload, dataset_path, 0, run_dir / "exp0-traced")
        recorder = SpanRecorder()
        with recorder.patched():
            experiments.append(run_timed(0, traced, recorder))
    else:
        measure_start = time.perf_counter()
        speed = HostSpeed(SPEED_INTERVAL_S, workload.stream_share)
        with speed.sampling():
            while True:
                index = len(experiments)
                config = make_config(args, workload, dataset_path, index, run_dir / f"exp{index}")
                experiments.append(run_timed(index, config))
                elapsed = time.perf_counter() - measure_start
                if elapsed + experiments[-1].experiment_s > args.seconds:
                    break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    dataset = load_bundled_dataset() if dataset_path is None else load_libsvm_file(dataset_path)
    checks = check_outputs(args, experiments, dataset)
    failed = [what for ok, what in checks if not ok]
    for what in failed:
        print(f"FAIL {what}")
    done = [e for e in experiments if e.result is not None]
    if not done or experiments[-1].result is None:
        print("error: no experiment to take metrics from", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {len(experiments)} experiment(s) of "
          f"{workload.replicates} replicate(s)")
    if args.trace:
        metrics = layer_metrics(recorder, experiments, dataset)
    else:
        raw = {"experiment_s": [], "reference_s": [], "solve_us_per_iter": []}
        rescaled = {name: [] for name in raw}

        def add(name, spans, per=1.0):
            wall, scaled = map(sum, zip(*(speed.between(*span) for span in spans)))
            raw[name].append(wall / per)
            rescaled[name].append(scaled / per)

        for e in done:
            add("experiment_s", [e.span])
            add("reference_s", e.reference_spans)
            for span, summary in zip(e.solve_spans, e.result.summaries, strict=True):
                add("solve_us_per_iter", [span], summary.iterations * 1e-6)
        units = {"experiment_s": "s", "reference_s": "s", "solve_us_per_iter": "us"}
        metrics = {"setup_s": (setup_s, "s")}
        slowness = speed.slowness()
        print(f"setup_s raw wall median: {setup_raw_s:.6g} s")
        print(f"host slowness: n={len(slowness)} median={statistics.median(slowness):.4g} "
              f"min={min(slowness):.4g} max={max(slowness):.4g}")
        for name, values in rescaled.items():
            unit = units[name]
            metrics[name] = (statistics.median(values), unit)
            print(f"{name} samples: n={len(values)} min={min(values):.6g} "
                  f"max={max(values):.6g} {unit}; raw wall median "
                  f"{statistics.median(raw[name]):.6g} {unit}")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_share = {len(failed) / len(checks):.6g} share "
          f"({len(failed)} of {len(checks)} operations)")
    first = json.loads((Path(done[0].config.out) / "summary.json").read_text())
    print("distances " + json.dumps([summary_distances(entry) for entry in first]))
    print("env " + json.dumps(environment(args), sort_keys=True))
    if recorder is not None:
        recorder.write_csv(run_dir / "spans.csv")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(recorder, experiments, dataset):
    """Per-layer metrics from the traced experiment, the last of the run."""
    from spans import LAYERS

    totals = recorder.totals()
    plain, traced = experiments[0], experiments[-1]
    config, result, traced_s = traced.config, traced.result, traced.experiment_s

    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    def total_s(*names):
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def in_layer(layer):
        return [n for n in totals if n.startswith(layer + ".")]

    def layer_self(layer):
        return sum(self_s(n) for n in in_layer(layer))

    solve = sorted(totals.get("kkt.solve_with_factors", {}).get("durations", [0.0]))
    full_passes = calls("logreg.objective", "logreg.full_gradient",
                        "logreg.per_sample_variance", "logreg.lipschitz_bounds")
    csv_paths = [Path(config.out) / f"trace_seed{s}.csv" for s in config.seeds]
    csv_rows = 0
    for path in csv_paths:
        with open(path) as handle:
            csv_rows += sum(1 for _ in handle) - 1
    multiplier_trace = [n for n in totals if n.startswith("averaging.MultiplierTrace.")]

    metrics = {
        "logreg.parse_s": (total_s("logreg.load_bundled_dataset", "logreg.load_libsvm_file"), "s"),
        "logreg.full_gradient_s": (total_s("logreg.full_gradient"), "s"),
        "logreg.full_gradient.calls": (calls("logreg.full_gradient"), "count"),
        "logreg.objective_s": (total_s("logreg.objective"), "s"),
        "logreg.objective.calls": (calls("logreg.objective"), "count"),
        "logreg.minibatch_s": (total_s("logreg.minibatch_gradient"), "s"),
        "logreg.instance_s": (total_s("logreg.build_instance", "logreg.lipschitz_bounds",
                                      "logreg.per_sample_variance"), "s"),
        # Counted from array sizes, not measured traffic.
        "logreg.full_pass_bytes": (dataset.features.nbytes * full_passes, "B_computed"),
        "problem.sample_gradient_self_s": (self_s("problem.sample_gradient"), "s"),
        "kkt.factor_jacobian_s": (total_s("kkt.factor_jacobian"), "s"),
        "kkt.factor_jacobian.calls": (calls("kkt.factor_jacobian"), "count"),
        "kkt.solve_with_factors_s": (total_s("kkt.solve_with_factors"), "s"),
        "kkt.solve_with_factors.p50_us": (solve[len(solve) // 2] * 1e6, "us"),
        "kkt.solve_with_factors.p99_us": (solve[int(0.99 * (len(solve) - 1))] * 1e6, "us"),
        "kkt.solve_with_factors.calls": (calls("kkt.solve_with_factors"), "count"),
        "kkt.solve_kkt_s": (total_s("kkt.solve_kkt"), "s"),
        "merit.self_s": (layer_self("merit"), "s"),
        "merit.calls": (calls(*in_layer("merit")), "count"),
        "solver.run_self_s": (self_s("solver.run"), "s"),
        "solver.iterations": (sum(s.iterations for s in result.summaries), "count"),
        "averaging.windowed_average_s": (total_s("averaging.windowed_average"), "s"),
        "averaging.windowed_average.calls": (calls("averaging.windowed_average"), "count"),
        "averaging.windowed_scan_rows": (recorder.scan_rows, "rows"),
        "averaging.multiplier_trace_s": (total_s(*multiplier_trace), "s"),
        "harness.reference_iters": (result.reference.iterations, "count"),
        "harness.compute_reference_self_s": (self_s("harness.compute_reference"), "s"),
        "harness.write_trace_csv_self_s": (self_s("harness.write_trace_csv"), "s"),
        "harness.csv_rows": (csv_rows, "rows"),
        "harness.csv_bytes": (sum(p.stat().st_size for p in csv_paths), "B"),
        "harness.run_experiment_self_s": (self_s("harness.run_experiment"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_self(layer) / traced_s, "share")
    metrics["trace.experiment_s"] = (traced_s, "s")
    metrics["trace.self_sum_share"] = (sum(map(layer_self, LAYERS)) / traced_s, "share")
    metrics["trace.overhead_share"] = (traced_s / plain.experiment_s - 1.0, "share")
    metrics["trace.spans"] = (len(recorder.name_id), "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
