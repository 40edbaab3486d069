"""Record one benchmark snapshot as ``BENCH_<TAG>.json``.

Runs ``perfbench/run.py --seed 0`` on every workload in
``BENCHMARK.json``, once with ``--trace 0`` (end-to-end metrics) and
once with ``--trace 1`` (per-layer metrics), one after another.  From
each run it keeps the last line of standard output (the JSON result)
and the ``env`` line, and writes them, unchanged, to
``BENCH_<TAG>.json`` at the root of this checkout.  It times nothing
and computes no metric of its own, so two snapshots compare metric by
metric.

Run from the repository root::

    python3 tools/bench.py TAG [--smoke] [--repo DIR]

``--smoke`` passes ``--smoke --seconds 1`` on (shortened inputs and a
1-second budget, for checking the tool).  ``--repo`` benchmarks another checkout, for example a copy of
the parent commit, with that checkout's own ``perfbench/``; the file
is still written here.  A run that fails stops the tool with its exit
status and writes no file.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0


def run_once(repo: Path, workload: str, trace: int, smoke: bool, seed: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if smoke:
        command += ["--smoke", "--seconds", "1"]
    print("+ " + " ".join(command[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(command, cwd=repo, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"error: {workload} --trace {trace} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    env = [line[len("env "):] for line in lines if line.startswith("env ")]
    return {"result": json.loads(lines[-1]), "env": json.loads(env[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write BENCH_<TAG>.json from perfbench runs")
    parser.add_argument("tag")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repo", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if not (args.repo / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.repo}")

    spec = json.loads((args.repo / "BENCHMARK.json").read_text())
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {
            f"trace{trace}": run_once(args.repo, workload, trace, args.smoke, SEED)
            for trace in (0, 1)
        }
    snapshot = {
        "tag": args.tag,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --trace {{0,1}}"
                   + (" --smoke --seconds 1" if args.smoke else ""),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
