"""A short validated experiment reproduces the committed golden outputs.

``tests/golden/`` holds the output directory of ``GOLDEN_ARGS`` as the
code wrote it before the hot-path trim that made each product one
``ndarray.dot`` call.  The test reruns the command and compares the two
directories with ``tools/compare_runs.py``, whose volatile keys
(timings, paths, library versions, thread caps) are skipped.

CI runs the same command through the installed console script and
checks it with the same tool at the same rtol.  ``GOLDEN_RTOL`` allows
for other BLAS builds and CPUs, which may round differently.  With the
numpy 2.4.6 and scipy 1.17.1 wheels that recorded the files, the rerun
is byte-identical apart from the volatile keys.  Last-bit changes to the gradients or the KKT products move the
trajectory columns by at most about 4e-14 relative, but the reference
solve's ``residual`` (about 1e-10, the rounding floor of terms of size
one) by up to about 5e-6; the rtol leaves a margin of 20 over that.
"""

import importlib.util
import re
from pathlib import Path

from stochsqp.harness import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_ARGS = ["--iters", "400", "--thin", "10", "--validate",
               "--seed", "1", "--seed", "2", "--eps", "0.1", "--eps", "1"]
GOLDEN_RTOL = 1e-4


def _load_compare_runs():
    path = ROOT / "tools" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("compare_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_run_is_reproduced(tmp_path, capsys):
    out = tmp_path / "golden"
    assert main([*GOLDEN_ARGS, "--out", str(out)]) == 0
    capsys.readouterr()
    report = _load_compare_runs().compare_dirs(GOLDEN, out, rtol=GOLDEN_RTOL)
    assert not report.failed, "\n".join(report.lines)


def test_ci_checks_the_installed_script_with_the_golden_command_and_rtol():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert f"stochsqp-experiment {' '.join(GOLDEN_ARGS)} --out" in workflow
    rtol = re.search(r'tools/compare_runs.py tests/golden "\$RUNNER_TEMP/cli" --rtol (\S+)\n', workflow)
    assert rtol and float(rtol[1]) == GOLDEN_RTOL


def test_comparer_flags_values_past_the_rtol_and_structural_differences(tmp_path):
    compare_dirs = _load_compare_runs().compare_dirs
    (a := tmp_path / "a").mkdir()
    (b := tmp_path / "b").mkdir()
    (a / "t.csv").write_text("k,v\r\n1,1.0\r\n2,2.0\r\n")
    (b / "t.csv").write_text("k,v\r\n1,1.0\r\n2,2.000002\r\n")
    (a / "s.json").write_text('{"wall_time": 1.0, "n": 3}')
    (b / "s.json").write_text('{"wall_time": 2.0, "n": 3}')
    report = compare_dirs(a, b, rtol=1e-5)
    assert not report.failed
    assert "s.json: identical apart from volatile keys" in report.lines
    assert "  v: max abs 2e-06, max rel 1e-06" in report.lines
    assert compare_dirs(a, b, rtol=1e-7).failed
    (b / "s.json").write_text('{"wall_time": 2.0, "n": 4}')
    assert compare_dirs(a, b, rtol=1.0).failed  # an integer field
    (b / "s.json").unlink()
    assert compare_dirs(a, b, rtol=1.0).failed  # a missing file
