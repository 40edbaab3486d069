"""The names the benchmark's traced mode wraps still exist where it looks.

``perfbench/spans.py`` replaces each ``(owner, attribute)`` of its
``PATCH_SITES`` by a timing wrapper, looking the attribute up in the
owner's own ``__dict__``.  A site whose name moved or went raises
``KeyError`` in a traced run, so this guards every site in tier-1.
The package namespace does not re-export the names only the tests or
the benchmark use; they stay where the benchmark looks them up.
"""

import importlib.util
from pathlib import Path

import stochsqp

# Each unexported name, with the module where PATCH_SITES or
# perfbench/gate.py looks it up.
UNEXPORTED = {
    "MultiplierTrace": "averaging",
    "windowed_average": "averaging",
    "logistic_minibatch_gradient": "logreg",
    "check_reduction_lbnd": "solver",
    "reduction_delta_q": "solver",
    "tau_trial_true": "solver",
    "xi_trial": "solver",
    "sample_gradient": "solver",
    "stationarity_residual": "solver",
}


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_site_is_bound_on_its_owner():
    sites = _load_spans().PATCH_SITES
    missing = [(owner.__name__, attr) for owner, attr, _ in sites if attr not in owner.__dict__]
    assert sites
    assert missing == []


def test_namespace_leaves_test_and_benchmark_names_to_their_modules():
    assert [name for name in UNEXPORTED if hasattr(stochsqp, name)] == []
    missing = [(module, name) for name, module in UNEXPORTED.items()
               if name not in vars(importlib.import_module(f"stochsqp.{module}"))]
    assert missing == []
