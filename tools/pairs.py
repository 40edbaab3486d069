"""Compare a parent checkout with this one in alternating benchmark pairs.

Runs ``perfbench/run.py --workload W --seed S --trace 0`` once in
``PARENT_DIR`` and once in this checkout per pair, each with its own
``perfbench/``, and switches which side runs first from one pair to the
next.  For each end-to-end metric of this checkout's ``BENCHMARK.json``
it prints each side's median and quartiles, the change/parent ratio of
the medians, the pairs the change wins by the metric's ``better``
direction, the parent's interquartile range (IQR), whether the gain
rule holds (the change wins at least 9 in 10 pairs and the medians
differ by more than the parent's IQR) and whether the change's median
stays within the metric's ``bound`` of the parent's.  The last line
gives each side's failed and attempted operations.

Run from the repository root::

    python3 tools/pairs.py PARENT_DIR --workload W [--pairs 10] [--seed S] [--smoke]

``--smoke`` passes ``--smoke`` on (shortened inputs, for checking the
tool).  A run that fails stops the tool with its exit status.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from bench import ROOT, SEED, run_once

GAIN_WIN_SHARE = 0.9


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Statistics of one metric over pairs; ``parent[i]`` and ``change[i]``
    are the two sides of pair ``i``."""
    sign = 1.0 if better == "lower" else -1.0
    (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = (np.percentile(side, [25, 50, 75])
                                                for side in (parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    iqr = p_q3 - p_q1
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med,
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "gain": wins >= GAIN_WIN_SHARE * len(parent) and sign * (p_med - c_med) > iqr,
        "within_bound": sign * (c_med - p_med) <= bound * abs(p_med),
    }


def format_row(name: str, unit: str, s: dict) -> str:
    (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = s["parent"], s["change"]
    return (f"{name}: {p_med:.6g} [{p_q1:.6g}-{p_q3:.6g}] -> {c_med:.6g} "
            f"[{c_q1:.6g}-{c_q3:.6g}] {unit}, ratio {s['ratio']:.4f}, "
            f"better in {s['wins']} of {s['pairs']}, parent IQR {s['parent_iqr']:.4g}, "
            f"gain {'yes' if s['gain'] else 'no'}, "
            f"within bound {'yes' if s['within_bound'] else 'NO'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating benchmark pairs against a parent")
    parser.add_argument("parent", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.parent}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    results = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args.workload, 0, args.smoke, args.seed)
            results[side].append(run["result"])

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pair(s)")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in results[side]] for side in sides)
        stats = summarize(parent, change, metric["better"], metric["bound"])
        print(format_row(name, metric["unit"], stats))
    print("operations: " + ", ".join(
        f"{side} {sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)}"
        for side, runs in results.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
