"""The names the benchmark's traced mode wraps still exist where it looks.

``perfbench/spans.py`` replaces each ``(owner, attribute)`` of its
``PATCH_SITES`` by a timing wrapper, looking the attribute up in the
owner's own ``__dict__``.  A site whose name moved or went raises
``KeyError`` in a traced run, so this guards every site in tier-1.
"""

import importlib.util
from pathlib import Path


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
