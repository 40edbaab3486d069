"""Outside-in span recording around the calls into each stochsqp module.

Functions are wrapped at the site where the caller looks them up by
name (a module global or a class attribute), so no source file of the
package changes. Each span keeps its name, start, end, parent span and
experiment id in memory; self time is the duration minus the time its
child spans cover.
"""

from __future__ import annotations

import csv
import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

from stochsqp import averaging, harness, kkt, logreg, solver

# (owner, attribute, span name). The owner is where callers look the
# name up: harness binds its imports by name, solver binds the problem
# and merit helpers by name but reaches kkt through the module, and the
# logistic evaluators are instance methods bound by
# ConstrainedLogRegInstance.problem().
_Instance = logreg.ConstrainedLogRegInstance
_MultiplierTrace = averaging.MultiplierTrace
PATCH_SITES = (
    (harness, "load_bundled_dataset", "logreg.load_bundled_dataset"),
    (harness, "load_libsvm_file", "logreg.load_libsvm_file"),
    (harness, "build_instance", "logreg.build_instance"),
    (_Instance, "lipschitz_bounds", "logreg.lipschitz_bounds"),
    (_Instance, "per_sample_variance", "logreg.per_sample_variance"),
    (_Instance, "objective", "logreg.objective"),
    (_Instance, "gradient", "logreg.full_gradient"),
    (_Instance, "constraints", "logreg.constraints"),
    (_Instance, "jacobian", "logreg.jacobian"),
    (logreg, "logistic_minibatch_gradient", "logreg.minibatch_gradient"),
    (solver, "sample_gradient", "problem.sample_gradient"),
    (kkt, "factor_jacobian", "kkt.factor_jacobian"),
    (kkt, "solve_with_factors", "kkt.solve_with_factors"),
    (harness, "solve_kkt", "kkt.solve_kkt"),
    (harness, "null_space_basis", "kkt.null_space_basis"),
    (solver, "phi", "merit.phi"),
    (solver, "reduction_delta_q", "merit.reduction_delta_q"),
    (solver, "xi_trial", "merit.xi_trial"),
    (solver, "tau_trial_true", "merit.tau_trial_true"),
    (solver, "check_reduction_lbnd", "merit.check_reduction_lbnd"),
    (harness, "run", "solver.run"),
    (solver, "step_size", "solver.step_size"),
    (harness, "step_size", "solver.step_size"),
    (harness, "windowed_average", "averaging.windowed_average"),
    (averaging, "windowed_average", "averaging.windowed_average"),
    (_MultiplierTrace, "from_run", "averaging.MultiplierTrace.from_run"),
    (_MultiplierTrace, "windowed_average", "averaging.MultiplierTrace.windowed_average"),
    (_MultiplierTrace, "running_average", "averaging.MultiplierTrace.running_average"),
    (harness, "compute_reference", "harness.compute_reference"),
    (harness, "write_trace_csv", "harness.write_trace_csv"),
)

LAYERS = ("logreg", "problem", "kkt", "merit", "solver", "averaging", "harness")


class SpanRecorder:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("i")
        self.name_id = array("i")
        self.parent = array("i")
        self.experiment = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.scan_rows = 0  # sum of k over averaging.windowed_average calls
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self.experiment_id = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._intern(name)
        stack = self._stack
        is_scan = name == "averaging.windowed_average"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_scan:
                self.scan_rows += args[2] if len(args) > 2 else kwargs["k"]
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.span_id.append(sid)
                self.name_id.append(nid)
                self.parent.append(parent)
                self.experiment.append(self.experiment_id)
                self.start.append(start)
                self.end.append(end)
                self.self_time.append(duration - frame[1])

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers at every lookup site; restore on exit."""
        saved = []
        try:
            for owner, attr, name in PATCH_SITES:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.span(name, raw.__func__))
                else:
                    wrapped = self.span(name, raw)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds, self seconds, durations."""
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name_id):
            entry = out.setdefault(
                self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self.self_time[i]
            entry["durations"].append(duration)
        return out

    def write_csv(self, path) -> None:
        """Write every span, one row each, in completion order."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "name", "parent", "experiment", "start_s", "end_s", "self_s"])
            origin = min(self.start, default=0.0)
            for i, nid in enumerate(self.name_id):
                writer.writerow(
                    [
                        self.span_id[i],
                        self.names[nid],
                        self.parent[i],
                        self.experiment[i],
                        f"{self.start[i] - origin:.9f}",
                        f"{self.end[i] - origin:.9f}",
                        f"{self.self_time[i]:.9f}",
                    ]
                )
